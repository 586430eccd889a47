"""Thread-local access elision in the batch clock detectors is exact.

On a complete trace WCP and HB read the trace's thread census
and stop an access to a variable only one thread touches right after the
per-event prologue.  Every test here compares that run with the same
detector reset on a non-complete context (which takes no census and so
elides nothing) and, for the statistics, with a census run whose local
variable set is cleared.
"""

import pytest

from repro import EngineConfig, RaceEngine
from repro.analysis.windowing import WindowedDetector
from repro.bench.generators import mixed_vocabulary_trace
from repro.core.closure import WCPClosureDetector
from repro.core.snapshot import SnapshotMismatchError, pack_state
from repro.core.wcp import WCPDetector
from repro.engine import Checkpointer, IterableSource, TraceSource
from repro.hb.hb import HBDetector
from repro.trace.builder import TraceBuilder
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace

from conftest import NoCensus, private_shared_trace, random_trace


def _keeping_accesses(cls):
    """``cls`` taking the census but eliding no access."""

    class Kept(cls):
        def reset(self, trace):
            super().reset(trace)
            self._local_variables = frozenset()

    return Kept


DETECTORS = {
    "wcp": WCPDetector,
    "hb": HBDetector,
}

#: Stats whose value the elision changes (by design).
_ELISION_STATS = ("local_accesses",)


def _fingerprint(report):
    return (
        sorted(tuple(sorted(key)) for key in report.location_pairs()),
        report.raw_race_count,
        [
            (
                tuple(sorted(pair.locations)),
                pair.first_event.index,
                pair.second_event.index,
                report.distance_of(pair),
            )
            for pair in report.pairs()
        ],
    )


def _stats(report, drop=()):
    return {
        key: value for key, value in report.stats.items()
        if key not in ("time_s", "events_per_s") + tuple(drop)
    }


def _assert_exact(cls, trace, label=""):
    """Census run == no-census run; stats == census run without elision.

    Returns the number of accesses the census run skipped.
    """
    report = cls().run(trace)
    full = cls().run(NoCensus(trace))
    assert full.stats["local_accesses"] == 0.0, label
    assert _fingerprint(report) == _fingerprint(full), label
    kept = _keeping_accesses(cls)().run(trace)
    assert _fingerprint(report) == _fingerprint(kept), label
    assert _stats(report, _ELISION_STATS) == _stats(kept, _ELISION_STATS), label
    local = report.stats["local_accesses"]
    assert kept.stats["local_accesses"] == 0.0, label
    assert cls().timestamps(trace) == cls().timestamps(NoCensus(trace)), label
    return int(local)


SEEDS = range(300)


@pytest.mark.parametrize("name", sorted(DETECTORS))
class TestFuzzExactness:
    @pytest.mark.parametrize("block", range(0, len(SEEDS), 100))
    def test_private_shared_mix(self, name, block):
        elided = 0
        for seed in SEEDS[block:block + 100]:
            trace = private_shared_trace(seed, n_threads=2 + seed % 3)
            elided += _assert_exact(DETECTORS[name], trace, "seed %d" % seed)
        assert elided > 0

    @pytest.mark.parametrize("block", range(0, len(SEEDS), 100))
    def test_random_trace(self, name, block):
        elided = 0
        for seed in SEEDS[block:block + 100]:
            trace = random_trace(
                seed, n_events=40 + seed % 40, n_threads=2 + seed % 2,
                n_locks=2, n_vars=4 + seed % 4,
            )
            elided += _assert_exact(DETECTORS[name], trace, "seed %d" % seed)
        assert elided > 0

    @pytest.mark.parametrize("block", range(0, len(SEEDS), 100))
    def test_mixed_vocabulary(self, name, block):
        elided = 0
        for seed in SEEDS[block:block + 100]:
            trace = mixed_vocabulary_trace(
                seed, threads=2 + seed % 3, steps=20 + seed % 60
            )
            elided += _assert_exact(DETECTORS[name], trace, "seed %d" % seed)
        assert elided > 0


class TestCensus:
    def test_census_is_taken_once_per_trace(self):
        builder = TraceBuilder()
        builder.write("t1", "x").write("t2", "x").write("t1", "y")
        trace = builder.build()
        census = trace.thread_census
        assert census is trace.thread_census
        assert census.variable_thread == {"x": None, "y": "t1"}
        assert census.local_variables == {"y"}
        for cls in DETECTORS.values():
            detector = cls()
            detector.reset(trace)
            assert detector._local_variables is census.local_variables

    def test_locks_and_releasers(self):
        events = []

        def add(thread, etype, target):
            events.append(Event(len(events), thread, etype, target))

        add("t1", EventType.ACQUIRE, "p")
        add("t1", EventType.RELEASE, "p")
        add("t1", EventType.ACQUIRE, "s")
        add("t1", EventType.RELEASE, "s")
        add("t2", EventType.ACQUIRE, "s")
        add("t2", EventType.RELEASE, "s")
        add("t2", EventType.RACQ_W, "rw")
        add("t2", EventType.RREL, "rw")
        census = Trace(events).thread_census
        assert census.lock_thread == {"p": "t1", "s": None, "rw": None}
        assert census.local_locks == ("p",)
        assert census.releasers == {"p": ["t1"], "s": ["t1", "t2"], "rw": ["t2"]}

    def test_stream_context_takes_no_census(self):
        builder = TraceBuilder()
        builder.write("t1", "y").write("t2", "x")
        trace = builder.build()
        for cls in DETECTORS.values():
            detector = cls()
            report = RaceEngine().run(
                IterableSource(iter(trace.events)), detectors=[detector]
            )[detector.name]
            assert detector._local_variables == frozenset()
            assert report.stats["local_accesses"] == 0.0

    def test_stats_accesses_come_from_the_kind_census(self):
        trace = mixed_vocabulary_trace(3, threads=3, steps=80)
        stats = trace.stats()
        assert stats["accesses"] == sum(1 for e in trace if e.is_access())


class TestTargeted:
    def test_local_variable_inside_a_shared_section(self):
        # y is t1's alone but written inside shared s; x is Rule (a)-
        # ordered by s, and only t2's write of z before its section races.
        builder = TraceBuilder()
        builder.acquire("t1", "s").write("t1", "y").write("t1", "x")
        builder.write("t1", "z").release("t1", "s")
        builder.write("t2", "z")
        builder.acquire("t2", "s").read("t2", "x").release("t2", "s")
        builder.read("t1", "y")
        trace = builder.build()
        detector = WCPDetector()
        report = detector.run(trace)
        assert detector._local_variables == {"y"}
        assert set(detector._locks["s"].lw) == {"x", "z"}
        assert report.stats["local_accesses"] == 2.0
        oracle = WCPClosureDetector().run(trace)
        assert report.location_pairs() == oracle.location_pairs()
        assert report.count() == 1
        for cls in DETECTORS.values():
            _assert_exact(cls, trace)

    def test_strict_pseudocode_does_not_elide(self):
        builder = TraceBuilder()
        for _ in range(3):
            builder.acquire("t1", "l").write("t1", "y").write("t1", "x")
            builder.release("t1", "l")
        builder.acquire("t2", "l").read("t2", "x").release("t2", "l")
        trace = builder.build()
        strict = WCPDetector(strict_pseudocode=True)
        report = strict.run(trace)
        assert strict._local_variables == frozenset()
        assert report.stats["local_accesses"] == 0.0
        assert strict._locks["l"].lw.keys() == {"x", "y"}
        full = WCPDetector(strict_pseudocode=True).run(NoCensus(trace))
        assert _fingerprint(report) == _fingerprint(full)

    @pytest.mark.parametrize("after_fork", [False, True])
    def test_parent_write_before_fork_child_write_after_is_shared(
        self, after_fork
    ):
        builder = TraceBuilder()
        builder.write("t1", "x").fork("t1", "t2")
        if after_fork:
            builder.write("t1", "x")
        builder.write("t2", "x").write("t2", "c")
        trace = builder.build()
        census = trace.thread_census
        assert census.variable_thread["x"] is None
        assert census.local_variables == {"c"}
        for cls in DETECTORS.values():
            report = cls().run(trace)
            assert report.count() == (1 if after_fork else 0), cls
            assert report.stats["local_accesses"] == 1.0
            _assert_exact(cls, trace)

    def test_barrier_waiter_local_access_rejoins(self):
        # t1 arrives first and is blocked; t2 writes x and arrives.  t1's
        # next event is a local access: its prologue must still re-join
        # the grown accumulator, so t1's later write of x is ordered.
        events = []

        def add(thread, etype, target):
            events.append(Event(len(events), thread, etype, target))

        add("t1", EventType.BARRIER, "b")
        add("t2", EventType.WRITE, "x")
        add("t2", EventType.BARRIER, "b")
        add("t1", EventType.WRITE, "y")
        add("t1", EventType.WRITE, "x")
        trace = Trace(events)
        for cls in DETECTORS.values():
            stamps = cls().timestamps(trace)
            assert stamps[3].get("t2") >= stamps[2].get("t2") > 0, cls
            report = cls().run(trace)
            assert report.count() == 0, cls
            assert report.stats["local_accesses"] == 1.0
            _assert_exact(cls, trace)


class TestWindowedCensus:
    @pytest.mark.parametrize("name", sorted(DETECTORS))
    def test_census_is_taken_per_window(self, name):
        # x is shared over the whole trace, but each window sees one of
        # its threads only, so every window elides it.
        cls = DETECTORS[name]
        builder = TraceBuilder()
        for thread in ("t1", "t2"):
            for _ in range(4):
                builder.write(thread, "x").read(thread, "x")
        trace = builder.build()
        assert trace.thread_census.local_variables == frozenset()
        inner = cls()
        windowed = WindowedDetector(inner, window_size=8).run(trace)
        assert inner._local_variables == {"x"}
        kept = WindowedDetector(
            _keeping_accesses(cls)(), window_size=8
        ).run(trace)
        assert _fingerprint(windowed) == _fingerprint(kept)

    @pytest.mark.parametrize("name", sorted(DETECTORS))
    @pytest.mark.parametrize("seed", range(10))
    def test_windowed_random_parity(self, name, seed):
        cls = DETECTORS[name]
        trace = private_shared_trace(seed, steps=80)
        elided = WindowedDetector(cls(), window_size=17).run(trace)
        kept = WindowedDetector(
            _keeping_accesses(cls)(), window_size=17
        ).run(trace)
        assert _fingerprint(elided) == _fingerprint(kept)


class TestResume:
    def test_resume_keeps_the_elision(self, tmp_path):
        trace = private_shared_trace(11, n_threads=3, steps=400)
        names = ("wcp", "hb")
        references = [DETECTORS[name]() for name in names]
        expected = RaceEngine(EngineConfig()).run(
            TraceSource(trace), detectors=references
        )
        assert all(d._local_variables for d in references)

        directory = tmp_path / "ckpts"
        config = (
            EngineConfig().with_detectors(*names)
            .with_checkpoints(directory, every=50)
            .stop_after_events(len(trace) // 2)
        )
        RaceEngine(config).run(TraceSource(trace))
        assert Checkpointer(directory).offsets()
        resumed_detectors = [DETECTORS[name]() for name in names]
        resumed = RaceEngine(EngineConfig()).resume(
            TraceSource(trace), directory, detectors=resumed_detectors
        )
        for reference, detector in zip(references, resumed_detectors):
            assert detector._local_variables == reference._local_variables
            key = detector.name
            assert _fingerprint(resumed[key]) == _fingerprint(expected[key])
            assert _stats(resumed[key]) == _stats(expected[key])
            assert resumed[key].stats["local_accesses"] > 0

    @pytest.mark.parametrize("cls, old", [
        (WCPDetector, 7), (HBDetector, 3),
    ])
    def test_previous_snapshot_version_is_refused(self, cls, old):
        assert cls.snapshot_version == old + 1
        detector = cls()
        detector.reset(random_trace(1, n_events=30))
        blob = pack_state(
            cls.__name__, old, detector.snapshot_config(), {"names": []}
        )
        with pytest.raises(SnapshotMismatchError, match="version %d" % old):
            detector.restore_state(blob)

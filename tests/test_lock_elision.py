"""Thread-local lock elision in batch WCP is exact.

With the whole-trace census (a complete trace), a lock that only mutex
``acq``/``rel`` events of one thread name keeps no per-lock state:
``_acquire``/``_release`` return early.  Every test here compares that
run with one over the same trace behind a ``NoCensus`` view, which takes
no census and so elides nothing, and with a census run whose
thread-local flags are cleared (same census, no elision), which must
also agree on every statistic.
"""

import pytest

from repro import RaceEngine, EngineConfig, WCPDetector
from repro.analysis.windowing import WindowedDetector
from repro.bench.generators import mixed_vocabulary_trace
from repro.core.closure import WCPClosureDetector
from repro.core.snapshot import SnapshotMismatchError, pack_state
from repro.engine import Checkpointer, IterableSource, TraceSource
from repro.trace.builder import TraceBuilder
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace

from conftest import (
    NoCensus, UncensusedWCP, private_shared_trace, random_trace,
)


class _CensusWithoutElision(WCPDetector):
    """The census run with every thread-local flag cleared."""

    def _take_census(self, trace):
        super()._take_census(trace)
        for state in self._locks.values():
            state.local = False


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


def _stats(report):
    return {
        key: value for key, value in report.stats.items()
        if key not in ("time_s", "events_per_s")
    }


def _elided(detector):
    # finish leaves a compiled pass's fields to _sync.
    detector._sync()
    return sorted(lock for lock, state in detector._locks.items() if state.local)


def _assert_exact(trace, label=""):
    """Elided run == no-census run == census run without elision.

    Returns the number of locks the elided run skipped.
    """
    elided = WCPDetector()
    report = elided.run(trace)
    full = WCPDetector().run(NoCensus(trace))
    kept = _CensusWithoutElision().run(trace)
    assert _fingerprint(report) == _fingerprint(full), label
    assert _fingerprint(report) == _fingerprint(kept), label
    assert _stats(report) == _stats(kept), label
    assert WCPDetector().timestamps(trace) == WCPDetector().timestamps(
        NoCensus(trace)
    ), label
    return len(_elided(elided))


SEEDS = range(300)


class TestFuzzExactness:
    @pytest.mark.parametrize("block", range(0, len(SEEDS), 100))
    def test_private_shared_mix(self, block):
        elided = 0
        for seed in SEEDS[block:block + 100]:
            trace = private_shared_trace(seed, n_threads=2 + seed % 3)
            elided += _assert_exact(trace, "seed %d" % seed)
        assert elided > 0

    @pytest.mark.parametrize("block", range(0, len(SEEDS), 100))
    def test_random_trace_more_locks_than_threads(self, block):
        elided = 0
        for seed in SEEDS[block:block + 100]:
            trace = random_trace(
                seed, n_events=50 + seed % 40, n_threads=2 + seed % 2,
                n_locks=5, n_vars=3,
            )
            elided += _assert_exact(trace, "seed %d" % seed)
        assert elided > 0

    @pytest.mark.parametrize("block", range(0, len(SEEDS), 100))
    def test_mixed_vocabulary(self, block):
        elided = 0
        for seed in SEEDS[block:block + 100]:
            trace = mixed_vocabulary_trace(
                seed, threads=2 + seed % 3, steps=20 + seed % 60
            )
            elided += _assert_exact(trace, "seed %d" % seed)
        assert elided > 0


def _census(trace, **kwargs):
    detector = WCPDetector(**kwargs)
    detector.reset(trace)
    return detector


class TestCensus:
    def test_single_thread_mutex_is_elided(self):
        builder = TraceBuilder()
        builder.acquire("t1", "l").write("t1", "x").release("t1", "l")
        builder.acquire("t2", "m").write("t2", "x").release("t2", "m")
        assert _elided(_census(builder.build())) == ["l", "m"]

    def test_second_acquirer_holding_at_trace_end_stops_elision(self):
        builder = TraceBuilder()
        builder.acquire("t1", "l").write("t1", "x").release("t1", "l")
        builder.acquire("t2", "l").read("t2", "x")
        trace = builder.build()
        assert _elided(_census(trace)) == []
        _assert_exact(trace)

    @pytest.mark.parametrize("kind", ["rwlock", "wait", "notify"])
    def test_rwlock_wait_and_notify_targets_are_never_elided(self, kind):
        events = []

        def add(etype, target):
            events.append(Event(len(events), "t1", etype, target))

        add(EventType.ACQUIRE, "m")
        add(EventType.WRITE, "x")
        add(EventType.RELEASE, "m")
        if kind == "rwlock":
            add(EventType.RACQ_W, "rw")
            add(EventType.WRITE, "x")
            add(EventType.RREL, "rw")
            add(EventType.RACQ_R, "rw")
            add(EventType.RREL, "rw")
        elif kind == "wait":
            add(EventType.ACQUIRE, "mon")
            add(EventType.RELEASE, "mon")
            add(EventType.WAIT, "mon")
            add(EventType.RELEASE, "mon")
        else:
            add(EventType.ACQUIRE, "mon")
            add(EventType.NOTIFY, "mon")
            add(EventType.RELEASE, "mon")
        trace = Trace(events)
        assert _elided(_census(trace)) == ["m"]
        _assert_exact(trace)

    def test_strict_pseudocode_is_never_elided(self):
        builder = TraceBuilder()
        for _ in range(3):
            builder.acquire("t1", "l").write("t1", "x").release("t1", "l")
        builder.read("t2", "x")
        trace = builder.build()
        strict = _census(trace, strict_pseudocode=True)
        assert _elided(strict) == []
        assert strict._locks["l"].releasers
        report = WCPDetector(strict_pseudocode=True).run(trace)
        full = WCPDetector(strict_pseudocode=True).run(NoCensus(trace))
        assert _fingerprint(report) == _fingerprint(full)

    def test_stream_context_takes_no_census(self):
        builder = TraceBuilder()
        builder.acquire("t1", "l").write("t1", "x").release("t1", "l")
        detector = WCPDetector()
        RaceEngine().run(
            IterableSource(iter(builder.build().events)), detectors=[detector]
        )
        assert _elided(detector) == []


class TestNesting:
    def test_local_lock_inside_a_shared_one(self):
        # t1's write of x sits in shared s and private p; t2's read under
        # s is Rule (a)-ordered after it, so only the t2 write of y races.
        builder = TraceBuilder()
        builder.acquire("t1", "s").acquire("t1", "p").write("t1", "x")
        builder.write("t1", "y").release("t1", "p").release("t1", "s")
        builder.acquire("t2", "s").read("t2", "x").release("t2", "s")
        builder.write("t2", "y")
        trace = builder.build()
        detector = WCPDetector()
        report = detector.run(trace)
        assert _elided(detector) == ["p"]
        assert detector._locks["s"].lw
        assert not detector._locks["p"].lw and not detector._locks["p"].log
        _assert_exact(trace)
        oracle = WCPClosureDetector().run(trace)
        assert report.location_pairs() == oracle.location_pairs()

    def test_shared_lock_inside_a_local_one(self):
        builder = TraceBuilder()
        builder.acquire("t1", "p").acquire("t1", "s").write("t1", "x")
        builder.release("t1", "s").write("t1", "y").release("t1", "p")
        builder.acquire("t2", "s").read("t2", "x").release("t2", "s")
        builder.write("t2", "y")
        builder.acquire("t1", "p").read("t1", "y").release("t1", "p")
        trace = builder.build()
        detector = WCPDetector()
        report = detector.run(trace)
        assert _elided(detector) == ["p"]
        _assert_exact(trace)
        oracle = WCPClosureDetector().run(trace)
        assert report.location_pairs() == oracle.location_pairs()


class TestWindowedCensus:
    def test_census_is_taken_per_window(self):
        # ``l`` is shared over the whole trace but each window sees only
        # one of its threads, so every window elides it.
        builder = TraceBuilder()
        for thread in ("t1", "t2"):
            for _ in range(3):
                builder.acquire(thread, "l").write(thread, "x")
                builder.release(thread, "l")
        trace = builder.build()
        assert _elided(_census(trace)) == []
        inner = WCPDetector()
        windowed = WindowedDetector(inner, window_size=9).run(trace)
        assert _elided(inner) == ["l"]
        full = WindowedDetector(UncensusedWCP(), window_size=9).run(trace)
        assert _fingerprint(windowed) == _fingerprint(full)

    @pytest.mark.parametrize("seed", range(20))
    def test_windowed_random_parity(self, seed):
        trace = private_shared_trace(seed, steps=80)
        elided = WindowedDetector(WCPDetector(), window_size=17).run(trace)
        full = WindowedDetector(UncensusedWCP(), window_size=17).run(trace)
        assert _fingerprint(elided) == _fingerprint(full)


class TestResume:
    def test_resume_keeps_the_elision(self, tmp_path):
        trace = private_shared_trace(7, n_threads=3, steps=400)
        reference_detector = WCPDetector()
        reference = RaceEngine(EngineConfig()).run(
            TraceSource(trace), detectors=[reference_detector]
        )["WCP"]
        elided = _elided(reference_detector)
        assert elided and len(elided) < len(reference_detector._locks)

        directory = tmp_path / "ckpts"
        config = (
            EngineConfig().with_detectors("wcp")
            .with_checkpoints(directory, every=50)
            .stop_after_events(len(trace) // 2)
        )
        RaceEngine(config).run(TraceSource(trace))
        assert Checkpointer(directory).offsets()
        resumed_detector = WCPDetector()
        resumed = RaceEngine(EngineConfig()).resume(
            TraceSource(trace), directory, detectors=[resumed_detector]
        )["WCP"]
        assert _elided(resumed_detector) == elided
        assert _fingerprint(resumed) == _fingerprint(reference)
        assert _stats(resumed) == _stats(reference)

    def test_v4_snapshot_is_refused_by_version(self):
        trace = random_trace(1, n_events=60)
        detector = WCPDetector()
        detector.reset(trace)
        blob = pack_state(
            "WCPDetector", 4, detector.snapshot_config(), {"names": []}
        )
        with pytest.raises(SnapshotMismatchError, match="version 4"):
            detector.restore_state(blob)

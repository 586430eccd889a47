"""Batch-split invariance of the clock detectors, and linear attribution.

WCP, HB and FastTrack implement :meth:`Detector.process_batch` directly:
per-batch state is bound once and the hot kinds run inline.  Nothing a
detector reports may depend on how the stream was cut into blocks, so
each trace is fed in blocks of 1, 3 and 64 events and as one block, and
every split must give the same race pairs (witness indices and
distances), raw counts, non-time statistics and final snapshot bytes.
At each block end the detector's clock for the block's last event must
equal what :meth:`timestamps` (one event at a time) reports for it.
A variable marked foreign (the sharded engine's non-owner shards) must
leave every clock as it was and lose only its race checks.

The last tests pin the race-attribution scan of
:class:`~repro.core.history.VariableHistory`: witnesses come in
first-access order, a restored history scans like the live one, and on a
trace whose every access has its own program location the cells compared
per scan do not grow with the trace.
"""

import pytest

from conftest import NoCensus
from test_backend_parity import random_trace_with_forks

from repro.bench.generators import mixed_vocabulary_trace
from repro.core.history import VariableHistory
from repro.core.wcp import WCPDetector
from repro.hb import FastTrackDetector, HBDetector
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.vectorclock.dense import DenseClock

SEEDS = range(100)
SPLITS = (1, 3, 64, None)

DETECTORS = {
    "wcp": WCPDetector,
    "wcp-strict": lambda: WCPDetector(strict_pseudocode=True),
    "hb": HBDetector,
    "fasttrack": FastTrackDetector,
}

GENERATORS = {
    "mixed-vocabulary": lambda seed: mixed_vocabulary_trace(
        seed, threads=3, steps=60
    ),
    "forks": random_trace_with_forks,
}


def _clock_now(detector, event):
    """The detector's current timestamp for ``event``'s thread."""
    registry = detector._registry
    tid = registry.lookup(event.thread)
    if isinstance(detector, WCPDetector):
        clock = detector._clock_c(tid)
    else:
        clock = detector._clock_h(tid)
    return registry.to_public(clock)


def _report_key(report):
    pairs = [
        (
            pair.first_event.index,
            pair.second_event.index,
            pair.distance,
            report.distance_of(pair),
            sorted(pair.locations),
        )
        for pair in report.pairs()
    ]
    stats = {
        name: value for name, value in report.stats.items()
        if name not in ("time_s", "events_per_s")
    }
    return pairs, report.location_pairs(), report.raw_race_count, stats


def _run_in_blocks(factory, trace, size):
    """Feed ``trace`` in blocks of ``size`` (None: one block)."""
    detector = factory()
    detector.reset(trace)
    events = trace.events
    step = size or len(events)
    block_ends = []
    for start in range(0, len(events), step):
        block = events[start:start + step]
        detector.process_batch(block)
        last = block[-1]
        block_ends.append((last.index, _clock_now(detector, last)))
    blob = detector.state_snapshot()
    detector.finish()
    return _report_key(detector.report), blob, block_ends


@pytest.mark.parametrize("generator", sorted(GENERATORS))
@pytest.mark.parametrize("detector", sorted(DETECTORS))
def test_block_splits_are_invisible(detector, generator):
    factory = DETECTORS[detector]
    for seed in SEEDS:
        trace = GENERATORS[generator](seed)
        timestamps = factory().timestamps(trace)
        reference = None
        for size in SPLITS:
            report, blob, block_ends = _run_in_blocks(factory, trace, size)
            for index, clock in block_ends:
                assert clock == timestamps[index], (seed, size, index)
            if reference is None:
                reference = report, blob
                continue
            assert report == reference[0], (seed, size)
            assert blob == reference[1], (seed, size)


def test_run_is_one_block():
    trace = mixed_vocabulary_trace(3, threads=3, steps=200)
    for factory in DETECTORS.values():
        whole, _blob, _ends = _run_in_blocks(factory, trace, None)
        assert _report_key(factory().run(trace))[:3] == whole[:3]


def _clock_state(detector):
    """Every clock-relevant field, the caches left out (a snapshot drops
    empty barrier-waiting entries, which carry nothing)."""
    waiting = {
        tid: seen for tid, seen in detector._barrier_waiting.items() if seen
    }
    if isinstance(detector, WCPDetector):
        return (
            list(detector._nt),
            list(detector._pt),
            list(detector._ht),
            list(detector._prev_release),
            [
                detector._clock_c(tid) if nt else None
                for tid, nt in enumerate(detector._nt)
            ],
            [
                None if sections is None
                else [(lock, set(r), set(w)) for lock, r, w, _ in sections]
                for sections in detector._open_sections
            ],
            list(detector._read_held),
            waiting,
        )
    return (
        list(detector._clocks),
        list(detector._pending),
        waiting,
    )


def _marking(cls, marked):
    """``cls`` with ``marked`` variables foreign from every reset on."""

    class Marked(cls):
        def reset(self, trace):
            super().reset(trace)
            for variable in marked:
                self.mark_foreign(variable)

    return Marked


@pytest.mark.parametrize("detector", ["wcp", "hb", "fasttrack"])
def test_foreign_marks_drop_only_race_checks(detector):
    """A variable marked foreign (another shard owns it) keeps every clock
    effect of its accesses and loses only their race check: the clocks
    and timestamps equal the unmarked run's, and the races are the
    unmarked run's races on the other variables.  The marks survive a
    snapshot taken mid-run."""
    cls = DETECTORS[detector]
    for seed in range(40):
        # Behind NoCensus no variable is thread-local, so every access
        # reaches the race check the mark drops.
        trace = NoCensus(mixed_vocabulary_trace(seed, threads=3, steps=60))
        marked = set(trace._trace.variables[::2])
        marking = _marking(cls, marked)
        assert marking().timestamps(trace) == cls().timestamps(trace), seed
        plain, foreign = cls(), cls()
        plain.reset(trace)
        foreign.reset(trace)
        for variable in marked:
            foreign.mark_foreign(variable)
        for event in trace:
            plain.process_batch((event,))
            foreign.process_batch((event,))
            assert _clock_state(plain) == _clock_state(foreign), (
                seed, event.index,
            )
            if event.index == len(trace) // 2:
                blob = foreign.state_snapshot()
                foreign = cls()
                foreign.reset(trace)
                foreign.restore_state(blob)
        plain.finish()
        foreign.finish()
        assert not set(foreign.report.variables()) & marked, seed
        expected = [
            (pair.first_event.index, pair.second_event.index)
            for pair in plain.report.pairs() if pair.variable not in marked
        ]
        assert [
            (pair.first_event.index, pair.second_event.index)
            for pair in foreign.report.pairs()
        ] == expected, seed


def _unique_location_trace(sections):
    """Lock-protected writes of ``x`` by two threads, each at its own
    location.  Every tenth section is followed by an unprotected write of
    the same thread; the other thread's next write races with that write
    only (everything older is ordered by the lock)."""
    events = []

    def add(thread, etype, target):
        index = len(events)
        events.append(Event(index, thread, etype, target, loc="L%d" % index))

    for section in range(sections):
        thread = "t%d" % (section % 2)
        add(thread, EventType.ACQUIRE, "l")
        add(thread, EventType.WRITE, "x")
        add(thread, EventType.RELEASE, "l")
        if section % 10 == 9:
            add(thread, EventType.WRITE, "x")
    return Trace(events, validate=True, name="unique-locations")


def test_racy_cells_are_reported_in_first_access_order():
    """The scan walks newest first but reports in first-access order, so
    a re-accessed location keeps its place among the witnesses."""
    history = VariableHistory()
    writes = [
        Event(index, "t1", EventType.WRITE, "x", loc=loc)
        for index, loc in enumerate(["A", "B", "C", "A"])
    ]
    for time, event in enumerate(writes, start=1):
        history.observe_write(event, DenseClock([time]), 0)
    racer = Event(4, "t2", EventType.WRITE, "x", loc="D")
    racy = history.observe_write(racer, DenseClock([0, 1]), 1)
    assert [event.index for event in racy] == [3, 1, 2]


def _with_repeated_locations(trace):
    """``trace`` with every access at one of three locations per thread,
    so cells are re-accessed and recency differs from first access."""
    events = [
        Event(
            event.index, event.thread, event.etype, event.target,
            loc="%s:L%d" % (event.thread, event.index % 3)
            if event.is_access() else None,
        )
        for event in trace
    ]
    return Trace(events, name=trace.name)


@pytest.mark.parametrize("detector", ["wcp", "hb"])
def test_restored_history_attributes_like_the_live_one(detector):
    """A snapshot writes cells in first-access order; restore must rebuild
    the recency order the attribution scan stops in."""
    factory = DETECTORS[detector]
    for seed in SEEDS:
        trace = _with_repeated_locations(random_trace_with_forks(seed))
        events = trace.events
        expected = _report_key(factory().run(trace))[:3]
        for cut in (len(events) // 3, len(events) // 2):
            first = factory()
            first.reset(trace)
            first.process_batch(events[:cut])
            resumed = factory()
            resumed.reset(trace)
            resumed.restore_state(first.state_snapshot())
            resumed.process_batch(events[cut:])
            resumed.finish()
            assert _report_key(resumed.report)[:3] == expected, (seed, cut)


def _cell_comparisons_per_scan(monkeypatch, factory, trace):
    counts = {"le": 0, "scans": 0, "in_scans": 0}
    original_le = DenseClock.__le__
    original_scan = VariableHistory._unordered_cells

    def counting_le(self, other):
        counts["le"] += 1
        return original_le(self, other)

    def counting_scan(self, cells, event, clock):
        before = counts["le"]
        racy = original_scan(self, cells, event, clock)
        counts["in_scans"] += counts["le"] - before
        counts["scans"] += 1
        return racy

    # The probes patch Python methods, so WCP runs its Python path (the
    # compiled kernel's scan is the same loop; tests/test_wcp_kernel.py).
    detector = factory()
    detector._use_kernel = False
    with monkeypatch.context() as patch:
        patch.setattr(DenseClock, "__le__", counting_le)
        patch.setattr(VariableHistory, "_unordered_cells", counting_scan)
        report = detector.run(trace)
    assert counts["scans"] > 0 and report.raw_race_count > 0
    return counts["in_scans"] / counts["scans"]


@pytest.mark.parametrize("detector", ["wcp", "hb"])
def test_attribution_scan_does_not_grow_with_locations(monkeypatch, detector):
    factory = DETECTORS[detector]
    small = _cell_comparisons_per_scan(
        monkeypatch, factory, _unique_location_trace(100)
    )
    large = _cell_comparisons_per_scan(
        monkeypatch, factory, _unique_location_trace(1000)
    )
    # Each scan visits the racy cell plus the first ordered one.
    assert large <= 3
    assert large <= small * 1.2

"""Tests for the WCP detector (Algorithm 1) and its closure oracle.

The headline test is the Theorem 2 cross-validation: on randomly generated
traces, the streaming vector-clock algorithm's timestamps must characterise
exactly the same ordering as the explicit fixpoint computation of
Definition 3.
"""

import pytest

from repro.core.closure import WCPClosure, WCPClosureDetector
from repro.core.wcp import WCPDetector
from repro.hb import HBDetector
from repro.trace.builder import TraceBuilder
from repro.bench.paper_figures import figure_2a, figure_2b

from conftest import random_trace


class TestWCPDetectorBasics:
    def test_simple_race(self, simple_race_trace):
        assert WCPDetector().run(simple_race_trace).count() == 1

    def test_protected_updates_do_not_race(self, protected_trace):
        # Figure 1a: conflicting accesses inside both critical sections pin
        # the sections together.
        assert WCPDetector().run(protected_trace).count() == 0

    def test_figure_2b_race_found(self):
        report = WCPDetector().run(figure_2b())
        assert report.count() == 1
        assert report.pairs()[0].variable == "y"

    def test_figure_2a_no_race(self):
        assert WCPDetector().run(figure_2a()).count() == 0

    def test_rule_a_orders_conflicting_sections(self):
        # Same shape as Figure 1a but with extra accesses outside the lock:
        # the WCP Rule (a) edge (release before later conflicting access)
        # must order the x accesses but nothing else.
        trace = (
            TraceBuilder()
            .acquire("t1", "l").write("t1", "x").release("t1", "l")
            .acquire("t2", "l").read("t2", "x").release("t2", "l")
            .build()
        )
        assert WCPDetector().run(trace).count() == 0

    def test_queue_statistics_reported(self, protected_trace):
        report = WCPDetector().run(protected_trace)
        assert "max_queue_total" in report.stats
        assert "max_queue_fraction" in report.stats
        assert report.stats["max_queue_fraction"] >= 0.0

    def test_queue_statistics_can_be_disabled(self, protected_trace):
        report = WCPDetector(track_queue_stats=False).run(protected_trace)
        assert "max_queue_total" not in report.stats

    def test_prune_queues_does_not_change_result(self):
        for seed in range(6):
            trace = random_trace(seed=seed, n_events=80, n_threads=4, n_locks=3)
            pruned = WCPDetector(prune_queues=True).run(trace)
            unpruned = WCPDetector(prune_queues=False).run(trace)
            assert set(pruned.location_pairs()) == set(unpruned.location_pairs())

    def test_prune_queues_timestamps_identical(self):
        for seed in range(4):
            trace = random_trace(seed=seed, n_events=60, n_threads=4, n_locks=2)
            pruned = WCPDetector(prune_queues=True).timestamps(trace)
            unpruned = WCPDetector(prune_queues=False).timestamps(trace)
            assert [str(c) for c in pruned] == [str(c) for c in unpruned]

    def test_thread_local_lock_log_is_reclaimed(self):
        # A lock only ever touched by one thread has no consumers: with
        # pruning, its critical-section log must stay bounded instead of
        # accumulating one entry per section.
        builder = TraceBuilder()
        for _ in range(50):
            builder.acquire("t1", "l").write("t1", "x").release("t1", "l")
        builder.write("t2", "y")
        trace = builder.build()
        detector = WCPDetector(prune_queues=True)
        detector.run(trace)
        assert len(detector._cs_log["l"]) <= 1
        # Without the releaser census the log is kept in full.
        unpruned = WCPDetector(prune_queues=False)
        unpruned.run(trace)
        assert len(unpruned._cs_log["l"]) == 50

    def test_shared_lock_log_reclaimed_after_consumption(self):
        builder = TraceBuilder()
        for _ in range(20):
            builder.acquire("t1", "l").write("t1", "x").release("t1", "l")
            builder.acquire("t2", "l").write("t2", "x").release("t2", "l")
        trace = builder.build()
        detector = WCPDetector(prune_queues=True)
        detector.run(trace)
        # Both threads consume each other's sections as they go; the log
        # must not retain all 40 sections.
        assert len(detector._cs_log["l"]) < 10

    def test_fork_join_edges_respected(self):
        trace = (
            TraceBuilder()
            .write("t1", "x")
            .fork("t1", "t2")
            .write("t2", "x")
            .join("t1", "t2")
            .write("t1", "x")
            .build()
        )
        assert WCPDetector().run(trace).count() == 0

    def test_wcp_races_superset_of_hb_races(self):
        for seed in range(10):
            trace = random_trace(seed=seed, n_events=70, n_threads=3, n_locks=2)
            hb_races = set(HBDetector().run(trace).location_pairs())
            wcp_races = set(WCPDetector().run(trace).location_pairs())
            assert hb_races <= wcp_races

    def test_strict_pseudocode_mode_never_adds_races(self):
        # The literal Algorithm 1 joins same-thread release times as well,
        # which can only add orderings (hence remove races).
        for seed in range(8):
            trace = random_trace(seed=seed, n_events=70, n_threads=3, n_locks=2)
            faithful = set(WCPDetector().run(trace).location_pairs())
            literal = set(
                WCPDetector(strict_pseudocode=True).run(trace).location_pairs()
            )
            assert literal <= faithful


class TestTheorem2CrossValidation:
    """Streaming timestamps agree with the explicit WCP closure."""

    @pytest.mark.parametrize("seed", range(15))
    def test_ordering_equivalence_on_random_traces(self, seed):
        trace = random_trace(
            seed=seed, n_events=45, n_threads=3, n_locks=2, n_vars=3
        )
        clocks = WCPDetector().timestamps(trace)
        closure = WCPClosure(trace)
        for second in range(len(trace)):
            for first in range(second):
                expected = closure.ordered(first, second)
                observed = clocks[first] <= clocks[second]
                assert observed == expected, (
                    "WCP mismatch at events (%d, %d) of seed %d: "
                    "closure=%s algorithm=%s"
                    % (first, second, seed, expected, observed)
                )

    @pytest.mark.parametrize("seed", [100, 101, 102, 103])
    def test_ordering_equivalence_more_threads(self, seed):
        trace = random_trace(
            seed=seed, n_events=40, n_threads=4, n_locks=3, n_vars=2
        )
        clocks = WCPDetector().timestamps(trace)
        closure = WCPClosure(trace)
        for second in range(len(trace)):
            for first in range(second):
                assert (clocks[first] <= clocks[second]) == closure.ordered(
                    first, second
                )

    @pytest.mark.parametrize("seed", range(10))
    def test_detector_and_closure_report_same_races(self, seed):
        trace = random_trace(seed=seed + 50, n_events=60, n_threads=3)
        detector_races = set(WCPDetector().run(trace).location_pairs())
        closure_races = set(WCPClosureDetector().run(trace).location_pairs())
        assert detector_races == closure_races


class TestWCPClosureQueries:
    def test_reflexive_and_trace_order(self):
        trace = figure_2b()
        closure = WCPClosure(trace)
        assert closure.ordered(3, 3)
        assert not closure.ordered(5, 3)  # later event never ordered before earlier

    def test_unordered_helper(self):
        trace = figure_2b()
        closure = WCPClosure(trace)
        # w(y) at index 0 and r(y) at index 5 are the racy pair.
        assert closure.unordered(0, 5)
        assert closure.unordered(5, 0)

    def test_report_adapter(self):
        report = WCPClosure(figure_2b()).report()
        assert report.count() == 1
        assert report.detector_name == "WCP-closure"


class TestRuleAVersionMemo:
    """The per-cell version counters must skip repeat joins without ever
    changing verdicts (verdict parity is additionally covered by the
    backend-parity and closure cross-validation suites)."""

    def test_memo_populated_and_skipping(self):
        builder = TraceBuilder()
        builder.acquire("t1", "l").write("t1", "x").release("t1", "l")
        # Two consecutive reads of x by t2 inside one critical section:
        # the second visit sees an unchanged cell version and is skipped.
        builder.acquire("t2", "l").read("t2", "x").read("t2", "x")
        builder.release("t2", "l")
        trace = builder.build()
        detector = WCPDetector()
        detector.run(trace)
        cell = detector._locks["l"].lw["x"]
        assert cell.version == 1
        tid2 = detector._registry.lookup("t2")
        assert cell.seen.get(tid2) == cell.version

    def test_version_bumps_on_every_release_touching_cell(self):
        builder = TraceBuilder()
        for _ in range(3):
            builder.acquire("t1", "l").write("t1", "x").release("t1", "l")
        detector = WCPDetector()
        detector.run(builder.build())
        assert detector._locks["l"].lw["x"].version == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_memo_keeps_closure_agreement(self, seed):
        trace = random_trace(seed, n_events=60, n_threads=3, n_locks=2)
        streaming = WCPDetector().run(trace)
        oracle = WCPClosureDetector().run(trace)
        assert streaming.location_pairs() == oracle.location_pairs() or (
            sorted(map(sorted, streaming.location_pairs()))
            == sorted(map(sorted, oracle.location_pairs()))
        )


class TestStreamReclamation:
    """The thread-quiescence heuristic prunes Rule (b) logs in stream mode."""

    def _thread_local_events(self, sections):
        from repro.trace.event import Event, EventType

        events = []
        for i in range(sections):
            thread = "t%d" % (i % 4)
            lock = "m_%s" % thread
            variable = "y_%s" % thread
            events.append(Event(-1, thread, EventType.ACQUIRE, lock))
            events.append(Event(-1, thread, EventType.WRITE, variable))
            events.append(Event(-1, thread, EventType.RELEASE, lock))
        return events

    def _run_streaming(self, events, **kwargs):
        from repro.engine import IterableSource, RaceEngine

        detector = WCPDetector(**kwargs)
        RaceEngine().run(IterableSource(iter(events)), detectors=[detector])
        return detector

    def test_thread_local_logs_stay_bounded(self):
        events = self._thread_local_events(400)
        pruned = self._run_streaming(events, stream_reclaim=True)
        unpruned = self._run_streaming(events, stream_reclaim=False)
        pruned_len = max(len(s.log) for s in pruned._locks.values())
        unpruned_len = max(len(s.log) for s in unpruned._locks.values())
        assert unpruned_len == 100  # stream mode keeps everything...
        assert pruned_len < unpruned_len  # ...the heuristic reclaims
        assert pruned._stream_reclaimed > 0
        assert pruned.report.stats["stream_log_reclaimed"] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_reclaim_preserves_verdicts_on_streams(self, seed):
        trace = random_trace(seed, n_events=400, n_threads=4, n_locks=2)
        events = list(trace)
        baseline = self._run_streaming(events, stream_reclaim=False)
        pruned = self._run_streaming(events, stream_reclaim=True)
        assert sorted(map(sorted, baseline.report.location_pairs())) == \
            sorted(map(sorted, pruned.report.location_pairs()))
        assert baseline.report.raw_race_count == pruned.report.raw_race_count

    def test_contended_lock_logs_reclaim_via_consumption(self):
        from repro.trace.event import Event, EventType

        events = []
        for i in range(300):
            thread = "t%d" % (i % 3)
            events.append(Event(-1, thread, EventType.ACQUIRE, "l"))
            events.append(Event(-1, thread, EventType.WRITE, "x"))
            events.append(Event(-1, thread, EventType.RELEASE, "l"))
        pruned = self._run_streaming(events, stream_reclaim=True)
        assert len(pruned._locks["l"].log) < 300

    def test_batch_mode_keeps_census_pruning(self):
        trace = random_trace(1, n_events=100, n_threads=3)
        detector = WCPDetector(stream_reclaim=True)
        detector.run(trace)
        # Complete trace: the exact census prune runs, not the heuristic.
        assert detector._effective_prune and not detector._quiesce_reclaim

    def test_late_lock_adoption_recovers_via_evicted_summary(self):
        """A thread the heuristic assumed quiescent (never touched the
        lock) that later adopts it must still receive the evicted
        entries' Rule (b) knowledge through the recovery summary.  The
        shape is adversarial: p's time reaches o only through HB (empty
        nested critical sections), so a fork-child of o can order itself
        after p's write *only* via Rule (b) on the evicted log."""
        from repro.trace.event import Event, EventType

        def build():
            events = []
            ev = lambda t, et, x: events.append(
                Event(-1, t, et, x, "%s:%s" % (t, x))
            )
            ev("p", EventType.ACQUIRE, "k")
            ev("p", EventType.WRITE, "y")
            ev("p", EventType.RELEASE, "k")
            for _ in range(70):
                ev("o", EventType.ACQUIRE, "l")
                ev("o", EventType.ACQUIRE, "k")
                ev("o", EventType.RELEASE, "k")
                ev("o", EventType.RELEASE, "l")
            ev("o", EventType.FORK, "t")
            ev("t", EventType.ACQUIRE, "l")
            ev("t", EventType.RELEASE, "l")
            ev("t", EventType.WRITE, "y")
            return events

        baseline = self._run_streaming(build(), stream_reclaim=False)
        pruned = WCPDetector(stream_reclaim=True)
        pruned._QUIESCE_LOG_THRESHOLD = 1  # evict aggressively
        from repro.engine import IterableSource, RaceEngine
        RaceEngine().run(IterableSource(iter(build())), detectors=[pruned])
        assert pruned._stream_reclaimed > 0
        assert sorted(map(sorted, baseline.report.location_pairs())) == \
            sorted(map(sorted, pruned.report.location_pairs()))
        # The lock's recovery summary exists and t consumed through it.
        state = pruned._locks["l"]
        assert state.evicted_rel is not None
        tid_t = pruned._registry.lookup("t")
        assert state.cursor[tid_t] >= state.base

    @pytest.mark.parametrize("seed", range(8))
    def test_aggressive_reclaim_fuzz_parity(self, seed):
        """Threshold-1 eviction over random traces: verdict parity with
        the unpruned stream run (the strict-prefix corner must not fire
        on these shapes)."""
        from repro.engine import IterableSource, RaceEngine

        trace = random_trace(seed, n_events=300, n_threads=4, n_locks=3,
                             n_vars=4)
        events = list(trace)
        baseline = self._run_streaming(events, stream_reclaim=False)
        pruned = WCPDetector(stream_reclaim=True)
        pruned._QUIESCE_LOG_THRESHOLD = 1
        RaceEngine().run(IterableSource(iter(events)), detectors=[pruned])
        assert sorted(map(sorted, baseline.report.location_pairs())) == \
            sorted(map(sorted, pruned.report.location_pairs()))
        assert baseline.report.raw_race_count == pruned.report.raw_race_count


class TestRuleBWalkCost:
    """A release's Rule (b) walk starts at its cursor: entries before the
    cursor cost nothing, even when no reclamation ever drops them."""

    def test_walk_touches_no_entry_before_the_cursor(self, monkeypatch):
        from collections import deque

        import repro.core.wcp as wcp_module
        from repro.trace.event import Event, EventType
        from repro.trace.trace import Trace

        touched = []

        class CountingDeque(deque):
            def __iter__(self):
                for entry in deque.__iter__(self):
                    touched.append(entry)
                    yield entry

            def __getitem__(self, index):
                entry = deque.__getitem__(self, index)
                touched.append(entry)
                return entry

        monkeypatch.setattr(wcp_module, "deque", CountingDeque)
        sections, tail = 200, 50

        def section(thread, access=None):
            events = [Event(-1, thread, EventType.ACQUIRE, "l")]
            if access is not None:
                events.append(Event(-1, thread, access, "x"))
            return events + [Event(-1, thread, EventType.RELEASE, "l")]

        events = []
        for _ in range(sections):
            events += section("t1", EventType.WRITE)
        # t2's read conflicts with t1's last write: Rule (a) orders every
        # t1 section before t2's release, so t2's cursor passes them all.
        events += section("t2", EventType.READ)
        head = len(events)
        for _ in range(tail):
            events += section("t2")

        trace = Trace(events, validate=True)
        detector = WCPDetector(prune_queues=False)
        detector.reset(trace)
        trace = list(trace)
        for event in trace[:head]:
            detector.process(event)
        state = detector._locks["l"]
        assert type(state.log) is CountingDeque and state.base == 0
        assert state.cursor[detector._registry.lookup("t2")] == sections + 1

        del touched[:]
        for event in trace[head:]:
            detector.process(event)
        detector.finish()
        # Each tail release walks its own open entry and closes it: two
        # touches, independent of the entries before the cursor.
        assert len(state.log) == sections + 1 + tail
        assert len(touched) == 2 * tail

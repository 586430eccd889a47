"""Tests for the HB detector."""

import pytest

from repro.core.closure import HBClosure
from repro.hb import HBDetector
from repro.trace.builder import TraceBuilder

from conftest import random_trace


class TestHBDetectorBasics:
    def test_simple_race(self, simple_race_trace):
        report = HBDetector().run(simple_race_trace)
        assert report.count() == 1
        assert frozenset({"a.py:1", "b.py:2"}) in report.location_pairs()

    def test_lock_protected_accesses_do_not_race(self, protected_trace):
        assert HBDetector().run(protected_trace).count() == 0

    def test_release_acquire_edge_orders_accesses(self):
        trace = (
            TraceBuilder()
            .write("t1", "x")
            .acquire("t1", "l").release("t1", "l")
            .acquire("t2", "l").release("t2", "l")
            .write("t2", "x")
            .build()
        )
        assert HBDetector().run(trace).count() == 0

    def test_unrelated_locks_do_not_order(self):
        trace = (
            TraceBuilder()
            .write("t1", "x")
            .acquire("t1", "l1").release("t1", "l1")
            .acquire("t2", "l2").release("t2", "l2")
            .write("t2", "x")
            .build()
        )
        assert HBDetector().run(trace).count() == 1

    def test_fork_orders_parent_before_child(self):
        trace = (
            TraceBuilder()
            .write("t1", "x")
            .fork("t1", "t2")
            .write("t2", "x")
            .build()
        )
        assert HBDetector().run(trace).count() == 0

    def test_events_after_fork_still_race_with_child(self):
        trace = (
            TraceBuilder()
            .fork("t1", "t2")
            .write("t1", "x")
            .write("t2", "x")
            .build()
        )
        assert HBDetector().run(trace).count() == 1

    def test_join_orders_child_before_parent(self):
        trace = (
            TraceBuilder()
            .fork("t1", "t2")
            .write("t2", "x")
            .join("t1", "t2")
            .write("t1", "x")
            .build()
        )
        assert HBDetector().run(trace).count() == 0

    def test_report_records_time(self, simple_race_trace):
        report = HBDetector().run(simple_race_trace)
        assert report.stats["time_s"] >= 0.0
        assert report.stats["events"] == 2

    def test_read_shared_write_race(self):
        # Two concurrent readers then an unsynchronised writer: the access
        # history leaves its single read epoch for a per-thread read set
        # and still catches both read-write races.
        trace = (
            TraceBuilder()
            .write("t1", "x")
            .fork("t1", "t2").fork("t1", "t3")
            .read("t2", "x").read("t3", "x")
            .write("t1", "x")
            .build()
        )
        assert HBDetector().run(trace).count() == 2

    def test_figure_1b_is_not_an_hb_race(self):
        from repro.bench.paper_figures import figure_1b
        assert HBDetector().run(figure_1b()).count() == 0


class TestHBMatchesClosure:
    """The vector-clock detector must agree with the explicit Definition 1."""

    @pytest.mark.parametrize("seed", range(12))
    def test_races_match_on_random_traces(self, seed):
        trace = random_trace(seed=seed, n_events=60, n_threads=3, n_locks=2, n_vars=3)
        closure_races = {
            frozenset({a.location(), b.location()})
            for a, b in HBClosure(trace).races()
        }
        detector_races = set(HBDetector().run(trace).location_pairs())
        assert detector_races == closure_races

    @pytest.mark.parametrize("seed", range(8))
    def test_timestamps_characterise_hb_exactly(self, seed):
        trace = random_trace(seed=seed + 100, n_events=40, n_threads=3)
        clocks = HBDetector().timestamps(trace)
        closure = HBClosure(trace)
        for second in range(len(trace)):
            for first in range(second):
                expected = closure.ordered(first, second)
                observed = clocks[first] <= clocks[second]
                assert observed == expected, (
                    "HB mismatch at (%d, %d) for seed %d" % (first, second, seed)
                )

"""Edge cases across the whole stack: degenerate traces, unusual event mixes,
and defensive behaviour of the detectors."""

import pytest

from repro.analysis import WindowedDetector
from repro.core.closure import WCPClosure
from repro.core.wcp import WCPDetector
from repro.cp import CPDetector
from repro.hb import HBDetector
from repro.lockset import EraserDetector
from repro.mcm import MCMPredictor
from repro.trace.builder import TraceBuilder
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace

ALL_DETECTORS = [
    WCPDetector, HBDetector, EraserDetector,
    lambda: CPDetector(window_size=50), lambda: MCMPredictor(window_size=50),
]


def _run_all(trace):
    return [factory().run(trace) for factory in ALL_DETECTORS]


class TestDegenerateTraces:
    def test_empty_trace(self):
        trace = Trace([], name="empty")
        for report in _run_all(trace):
            assert report.count() == 0

    def test_single_event_trace(self):
        trace = Trace([Event(0, "t1", EventType.WRITE, "x")])
        for report in _run_all(trace):
            assert report.count() == 0

    def test_single_thread_never_races(self):
        builder = TraceBuilder()
        for index in range(30):
            builder.write("t1", "x%d" % (index % 3))
            builder.read("t1", "x%d" % (index % 3))
        trace = builder.build()
        for report in _run_all(trace):
            assert report.count() == 0

    def test_lock_only_trace(self):
        builder = TraceBuilder()
        for thread in ("t1", "t2", "t3"):
            builder.acquire(thread, "l").release(thread, "l")
        trace = builder.build()
        for report in _run_all(trace):
            assert report.count() == 0

    def test_begin_end_events_are_ignored(self):
        trace = (
            TraceBuilder()
            .begin("t1").write("t1", "x").end("t1")
            .begin("t2").write("t2", "x").end("t2")
            .build()
        )
        assert WCPDetector().run(trace).count() == 1
        assert HBDetector().run(trace).count() == 1

    def test_read_only_sharing_never_races(self):
        builder = TraceBuilder()
        for thread in ("t1", "t2", "t3"):
            for _ in range(5):
                builder.read(thread, "shared")
        trace = builder.build()
        for report in _run_all(trace):
            assert report.count() == 0


class TestUnusualIdentifiers:
    def test_unicode_and_spacey_names(self):
        trace = (
            TraceBuilder()
            .acquire("poêle", "verrou principal")
            .write("poêle", "donnée partagée")
            .release("poêle", "verrou principal")
            .write("λ-thread", "donnée partagée")
            .build()
        )
        assert WCPDetector().run(trace).count() == 1

    def test_numeric_looking_thread_names(self):
        trace = (
            TraceBuilder().write("1", "x").write("2", "x").build()
        )
        assert HBDetector().run(trace).count() == 1


class TestNestedLocking:
    def test_deeply_nested_critical_sections(self):
        builder = TraceBuilder()
        depth = 8
        for thread in ("t1", "t2"):
            for level in range(depth):
                builder.acquire(thread, "l%d" % level)
            builder.write(thread, "shared")
            for level in reversed(range(depth)):
                builder.release(thread, "l%d" % level)
        trace = builder.build()
        # Protected by all eight locks: no race under any sound analysis.
        assert WCPDetector().run(trace).count() == 0
        assert HBDetector().run(trace).count() == 0
        assert len(WCPClosure(trace).races()) == 0

    def test_nested_distinct_variables_still_race(self):
        # The outer lock differs between the threads; the variable accessed
        # under the non-shared lock is racy.
        trace = (
            TraceBuilder()
            .acquire("t1", "a").acquire("t1", "shared")
            .write("t1", "v")
            .release("t1", "shared").release("t1", "a")
            .acquire("t2", "b").acquire("t2", "shared")
            .write("t2", "v")
            .release("t2", "shared").release("t2", "b")
            .build()
        )
        # v is consistently protected by "shared": ordered, no race.
        assert WCPDetector().run(trace).count() == 0

    def test_critical_section_without_release_still_protects(self):
        # The second thread never releases; the conflicting accesses inside
        # the two critical sections of the same lock are still ordered.
        trace = (
            TraceBuilder()
            .acquire("t1", "l").write("t1", "x").release("t1", "l")
            .acquire("t2", "l").write("t2", "x")
            .build()
        )
        assert WCPDetector().run(trace).count() == 0
        assert HBDetector().run(trace).count() == 0


class TestWindowedEdges:
    def test_window_larger_than_trace(self, simple_race_trace):
        report = WindowedDetector(WCPDetector(), 1000).run(simple_race_trace)
        assert report.count() == 1
        assert report.stats["windows"] == 1.0

    def test_window_of_one_event(self):
        trace = TraceBuilder().write("t1", "x").write("t2", "x").build()
        report = WindowedDetector(WCPDetector(), 1).run(trace)
        assert report.count() == 0
        assert report.stats["windows"] == 2.0

    def test_mcm_window_larger_than_trace(self, simple_race_trace):
        report = MCMPredictor(window_size=10_000).run(simple_race_trace)
        assert report.count() == 1

    def test_cut_critical_section_is_not_reported_as_race(self):
        # The window boundary splits both critical sections; the carried
        # lock context must keep the accesses protected.
        builder = TraceBuilder()
        builder.acquire("t1", "l")
        for index in range(6):
            builder.write("t1", "pad%d" % index)
        builder.write("t1", "shared")
        builder.release("t1", "l")
        builder.acquire("t2", "l")
        for index in range(6):
            builder.write("t2", "qad%d" % index)
        builder.write("t2", "shared")
        builder.release("t2", "l")
        trace = builder.build()
        report = CPDetector(window_size=5).run(trace)
        assert frozenset({"line8", "line17"}) not in report.location_pairs() or (
            not report.has_race()
        )


class TestDetectorReuse:
    def test_detector_instances_are_reusable(self, simple_race_trace, protected_trace):
        detector = WCPDetector()
        first = detector.run(simple_race_trace)
        second = detector.run(protected_trace)
        third = detector.run(simple_race_trace)
        assert first.count() == third.count() == 1
        assert second.count() == 0

    def test_report_property_requires_reset(self):
        detector = HBDetector()
        with pytest.raises(RuntimeError):
            detector.report

"""Tests for race pairs, race reports and the per-variable access history."""

from repro.core.history import AccessHistory
from repro.core.races import RacePair, RaceReport
from repro.trace.event import Event, EventType
from repro.vectorclock import DenseClock


def _write(index, thread, var="x", loc=None):
    return Event(index, thread, EventType.WRITE, var, loc)


def _read(index, thread, var="x", loc=None):
    return Event(index, thread, EventType.READ, var, loc)


def _observe(history, event, times, report, **kwargs):
    """Observe ``event`` at the tid-keyed clock ``times`` (t1 is tid 0)."""
    tid = int(event.thread[1:]) - 1
    return history.observe(
        event, DenseClock(times), report, key=tid, **kwargs
    )


class TestRacePair:
    def test_orders_events_by_index(self):
        pair = RacePair(_write(5, "t2", loc="b"), _write(1, "t1", loc="a"))
        assert pair.first_event.index == 1
        assert pair.second_event.index == 5
        assert pair.distance == 4

    def test_location_pair_is_unordered(self):
        a = RacePair(_write(0, "t1", loc="p"), _write(1, "t2", loc="q"))
        b = RacePair(_write(3, "t2", loc="q"), _write(9, "t1", loc="p"))
        assert a == b
        assert hash(a) == hash(b)

    def test_same_location_collapses(self):
        pair = RacePair(_write(0, "t1", loc="p"), _write(1, "t2", loc="p"))
        assert pair.locations == frozenset({"p"})

    def test_variable_and_repr(self):
        pair = RacePair(_write(0, "t1", "v", "p"), _write(1, "t2", "v", "q"))
        assert pair.variable == "v"
        assert "v" in repr(pair)


class TestRaceReport:
    def test_deduplication_by_location(self):
        report = RaceReport("demo")
        report.add(_write(0, "t1", loc="p"), _write(1, "t2", loc="q"))
        report.add(_write(10, "t1", loc="p"), _write(30, "t2", loc="q"))
        assert report.count() == 1
        assert report.raw_race_count == 2
        # Maximum distance over all witnesses of the pair is retained.
        assert report.max_distance() == 20

    def test_a_duplicate_builds_no_pair(self, monkeypatch):
        # A known location pair only counts the raw race and raises the
        # distance (from a reversed witness too); its witness stays.
        report = RaceReport("demo")
        first = report.add(_write(0, "t1", loc="p"), _write(1, "t2", loc="q"))
        built = []
        monkeypatch.setattr(RacePair, "__init__",
                            lambda self, *events: built.append(events))
        again = report.add(_write(40, "t2", loc="q"), _write(3, "t1", loc="p"))
        assert again is first and not built
        assert report.raw_race_count == 2
        assert report.max_distance() == 37
        assert report.pairs()[0].first_event.index == 0

    def test_distinct_pairs_sorted_by_first_witness(self):
        report = RaceReport("demo")
        report.add(_write(5, "t1", loc="c"), _write(6, "t2", loc="d"))
        report.add(_write(0, "t1", loc="a"), _write(1, "t2", loc="b"))
        pairs = report.pairs()
        assert pairs[0].locations == frozenset({"a", "b"})

    def test_contains_and_iteration(self):
        report = RaceReport("demo")
        report.add(_write(0, "t1", loc="p"), _write(1, "t2", loc="q"))
        assert ["p", "q"] in report
        assert ["p", "zzz"] not in report
        assert len(list(report)) == len(report) == 1
        assert report.has_race()

    def test_merge(self):
        first = RaceReport("a")
        first.add(_write(0, "t1", loc="p"), _write(1, "t2", loc="q"))
        second = RaceReport("b")
        second.add(_write(2, "t1", loc="p"), _write(9, "t2", loc="q"))
        second.add(_write(3, "t1", loc="r"), _write(4, "t2", loc="s"))
        first.merge(second)
        assert first.count() == 2
        assert first.max_distance() == 7

    def test_variables_and_summary(self):
        report = RaceReport("demo", "trace-name")
        report.add(_write(0, "t1", "v1", "p"), _write(1, "t2", "v1", "q"))
        report.stats["time_s"] = 0.5
        assert report.variables() == ["v1"]
        summary = report.summary()
        assert "demo" in summary and "trace-name" in summary and "time_s" in summary

    def test_empty_report(self):
        report = RaceReport("demo")
        assert not report.has_race()
        assert report.max_distance() == 0
        assert report.count() == 0


class TestAccessHistory:
    def test_ordered_accesses_do_not_race(self):
        history = AccessHistory()
        report = RaceReport("demo")
        _observe(history, _write(0, "t1"), [1], report)
        # The reader's clock dominates the writer's: no race.
        _observe(history, _read(1, "t2"), [1, 1], report)
        assert report.count() == 0

    def test_unordered_write_write_races(self):
        history = AccessHistory()
        report = RaceReport("demo")
        _observe(history, _write(0, "t1"), [1], report)
        racy = _observe(history, _write(1, "t2"), [0, 1], report)
        assert racy == 1
        assert report.count() == 1

    def test_unordered_read_then_write_races(self):
        history = AccessHistory()
        report = RaceReport("demo")
        _observe(history, _read(0, "t1"), [1], report)
        _observe(history, _write(1, "t2"), [0, 1], report)
        assert report.count() == 1

    def test_read_read_never_races(self):
        history = AccessHistory()
        report = RaceReport("demo")
        _observe(history, _read(0, "t1"), [1], report)
        _observe(history, _read(1, "t2"), [0, 1], report)
        assert report.count() == 0

    def test_same_thread_never_races(self):
        history = AccessHistory()
        report = RaceReport("demo")
        _observe(history, _write(0, "t1"), [1], report)
        _observe(history, _write(1, "t1"), [2], report)
        assert report.count() == 0

    def test_different_variables_do_not_interact(self):
        history = AccessHistory()
        report = RaceReport("demo")
        _observe(history, _write(0, "t1", "x"), [1], report)
        _observe(history, _write(1, "t2", "y"), [0, 1], report)
        assert report.count() == 0

    def test_on_race_callback(self):
        seen = []
        history = AccessHistory()
        report = RaceReport("demo")
        _observe(history, _write(0, "t1"), [1], report)
        _observe(
            history, _write(1, "t2"), [0, 1], report,
            on_race=lambda earlier, later: seen.append((earlier.index, later.index)),
        )
        assert seen == [(0, 1)]

    def test_clear(self):
        history = AccessHistory()
        report = RaceReport("demo")
        _observe(history, _write(0, "t1"), [1], report)
        history.clear()
        _observe(history, _write(1, "t2"), [0, 1], report)
        assert report.count() == 0

"""Unit tests for the :class:`~repro.trace.trace.Trace` container."""

import pytest

from repro.bench.generators import mixed_vocabulary_trace
from repro.trace.builder import TraceBuilder
from repro.trace.event import Event, EventType
from repro.trace.semantics import REGISTRY
from repro.trace.trace import (
    LockSemanticsError,
    Trace,
    TraceError,
    WellNestednessError,
)

from conftest import random_trace


def _events(*specs):
    events = []
    for thread, etype, target in specs:
        events.append(Event(len(events), thread, etype, target))
    return events


class TestValidation:
    def test_valid_trace_accepted(self, protected_trace):
        assert len(protected_trace) == 8

    def test_overlapping_critical_sections_rejected(self):
        events = _events(
            ("t1", EventType.ACQUIRE, "l"),
            ("t2", EventType.ACQUIRE, "l"),
        )
        with pytest.raises(LockSemanticsError):
            Trace(events)

    def test_reentrant_acquire_rejected(self):
        events = _events(
            ("t1", EventType.ACQUIRE, "l"),
            ("t1", EventType.ACQUIRE, "l"),
        )
        with pytest.raises(LockSemanticsError):
            Trace(events)

    def test_release_without_acquire_rejected(self):
        events = _events(("t1", EventType.RELEASE, "l"))
        with pytest.raises(LockSemanticsError):
            Trace(events)

    def test_non_nested_release_rejected(self):
        events = _events(
            ("t1", EventType.ACQUIRE, "a"),
            ("t1", EventType.ACQUIRE, "b"),
            ("t1", EventType.RELEASE, "a"),
        )
        with pytest.raises(WellNestednessError):
            Trace(events)

    def test_validation_can_be_disabled(self):
        events = _events(
            ("t1", EventType.ACQUIRE, "l"),
            ("t2", EventType.ACQUIRE, "l"),
        )
        trace = Trace(events, validate=False)
        assert len(trace) == 2

    def test_events_are_reindexed(self):
        events = [Event(99, "t1", EventType.WRITE, "x")]
        trace = Trace(events)
        assert trace[0].index == 0


class TestAccessors:
    def test_threads_locks_variables(self):
        trace = (
            TraceBuilder()
            .acquire("t1", "l").write("t1", "x").release("t1", "l")
            .read("t2", "y")
            .build()
        )
        assert trace.threads == ["t1", "t2"]
        assert trace.locks == ["l"]
        assert set(trace.variables) == {"x", "y"}

    def test_thread_events_projection(self):
        trace = (
            TraceBuilder()
            .write("t1", "x").write("t2", "y").write("t1", "z")
            .build()
        )
        projection = trace.thread_events("t1")
        assert [event.variable for event in projection] == ["x", "z"]
        assert trace.thread_indices("t2") == [1]

    def test_iteration_and_indexing(self):
        trace = TraceBuilder().write("t1", "x").build()
        assert list(trace)[0] is trace[0]
        assert trace.events[0] is trace[0]

    def test_stats(self):
        trace = (
            TraceBuilder()
            .acquire("t1", "l").write("t1", "x").release("t1", "l")
            .build()
        )
        stats = trace.stats()
        assert stats == {
            "events": 3, "threads": 1, "locks": 1, "variables": 1, "accesses": 1,
        }

    def test_repr(self):
        trace = TraceBuilder().write("t1", "x").build(name="demo")
        assert "demo" in repr(trace)


class TestLockStructure:
    def test_match_acquire_release(self, protected_trace):
        acquire = protected_trace[0]
        release = protected_trace[3]
        assert protected_trace.match(acquire) is release
        assert protected_trace.match(release) is acquire

    def test_match_missing_release(self):
        trace = TraceBuilder().acquire("t1", "l").write("t1", "x").build()
        assert trace.match(trace[0]) is None

    def test_held_locks_includes_boundaries(self, protected_trace):
        # acquire, read, write, release of the first critical section.
        for index in range(4):
            assert protected_trace.held_locks(protected_trace[index]) == ("l",)

    def test_held_locks_nested(self):
        trace = (
            TraceBuilder()
            .acquire("t1", "a").acquire("t1", "b").write("t1", "x")
            .release("t1", "b").release("t1", "a")
            .build()
        )
        assert trace.held_locks(trace[2]) == ("a", "b")
        assert trace.enclosing_acquire(trace[2], "a") is trace[0]
        assert trace.enclosing_acquire(trace[2], "b") is trace[1]
        assert trace.enclosing_acquire(trace[2], "zzz") is None

    def test_critical_section_contents(self, protected_trace):
        section = protected_trace.critical_section(protected_trace[0])
        assert [event.index for event in section] == [0, 1, 2, 3]
        # Same section from the release side.
        section = protected_trace.critical_section(protected_trace[3])
        assert [event.index for event in section] == [0, 1, 2, 3]

    def test_critical_section_without_release_extends_to_thread_end(self):
        trace = TraceBuilder().acquire("t1", "l").write("t1", "x").build()
        section = trace.critical_section(trace[0])
        assert [event.index for event in section] == [0, 1]

    def test_critical_section_requires_lock_event(self, protected_trace):
        with pytest.raises(ValueError):
            protected_trace.critical_section(protected_trace[1])

    def test_section_accesses(self):
        trace = (
            TraceBuilder()
            .acquire("t1", "l").read("t1", "a").write("t1", "b").release("t1", "l")
            .build()
        )
        reads, writes = trace.section_accesses(trace[3])
        assert reads == {"a"}
        assert writes == {"b"}


class TestAccessStructure:
    def test_accesses(self):
        trace = (
            TraceBuilder()
            .write("t1", "x").read("t2", "x").write("t1", "y")
            .build()
        )
        assert [event.index for event in trace.accesses("x")] == [0, 1]

    def test_last_write_before(self):
        trace = (
            TraceBuilder()
            .write("t1", "x").write("t2", "x").read("t1", "x")
            .build()
        )
        assert trace.last_write_before(trace[2]) is trace[1]
        assert trace.last_write_before(trace[0]) is None
        with pytest.raises(ValueError):
            trace.last_write_before(
                Trace([Event(0, "t1", EventType.ACQUIRE, "l")])[0]
            )

    def test_conflicting_pairs(self):
        trace = (
            TraceBuilder()
            .write("t1", "x").read("t2", "x").read("t2", "x")
            .write("t1", "y")
            .build()
        )
        pairs = list(trace.conflicting_pairs())
        assert len(pairs) == 2
        assert all(first.index < second.index for first, second in pairs)


class TestWindows:
    def test_window_slicing(self):
        trace = random_trace(seed=1, n_events=20)
        window = trace.window(5, 10)
        assert len(window) == 10
        assert window[0].thread == trace[5].thread

    def test_windows_cover_trace(self):
        trace = random_trace(seed=2, n_events=25)
        windows = list(trace.windows(10))
        assert sum(len(window) for window in windows) == len(trace)

    def test_window_events_reindexed(self):
        trace = random_trace(seed=3, n_events=20)
        window = trace.window(10, 5)
        assert [event.index for event in window] == list(range(5))


class TestRandomTraceHelper:
    def test_random_traces_are_valid(self):
        for seed in range(10):
            trace = random_trace(seed=seed, n_events=60)
            # Re-validating must not raise.
            Trace(list(trace), validate=True)


def _definitional_sections(trace):
    """(opener index, closer index or None, mode) per critical section.

    Straight from the definitions: a section opened by an acquire-like
    event closes at the first later event of the same thread that closes
    the same lock with a compatible kind (well nestedness and no
    re-entrance make that the match); with no such event it is open to
    the end of the trace.
    """
    sections = []
    for opener in trace:
        mode = REGISTRY[opener.etype].opens
        if mode is None:
            continue
        closes = "rw" if mode in ("read", "write") else "excl"
        closer = next(
            (
                later.index for later in trace.events[opener.index + 1:]
                if later.thread == opener.thread
                and later.target == opener.target
                and REGISTRY[later.etype].closes == closes
            ),
            None,
        )
        sections.append((opener.index, closer, mode))
    return sections


def _lazy_index_parity_traces():
    for seed in range(12):
        yield mixed_vocabulary_trace(seed, threads=3, steps=40)
    # validate=False windows: sections cut at either edge leave unmatched
    # releases at the start and unmatched acquires at the end.
    for seed in range(6):
        whole = mixed_vocabulary_trace(100 + seed, threads=4, steps=60)
        for start in (0, 7, len(whole) // 3):
            yield whole.window(start, len(whole) // 2)
    for seed in range(4):
        yield random_trace(seed=seed, n_events=80).window(13, 40)


class TestLazyOracleIndex:
    def test_windows_cut_sections_at_both_edges(self):
        unmatched = {"opens": 0, "closes": 0}
        for trace in _lazy_index_parity_traces():
            if "[" not in trace.name:  # whole validated traces
                continue
            for event in trace:
                semantics = REGISTRY[event.etype]
                for side in unmatched:
                    if getattr(semantics, side) and trace.match(event) is None:
                        unmatched[side] += 1
        assert unmatched["opens"] > 0 and unmatched["closes"] > 0

    def test_construction_builds_no_oracle_index(self):
        trace = mixed_vocabulary_trace(1, threads=3, steps=40)
        assert "_oracle" not in vars(trace)
        trace.held_locks(trace[0])
        assert "_oracle" in vars(trace)

    @pytest.mark.parametrize(
        "trace", list(_lazy_index_parity_traces()), ids=lambda trace: trace.name
    )
    def test_matches_definitions(self, trace):
        sections = _definitional_sections(trace)
        end = len(trace) - 1
        partner = {}
        for opener, closer, _ in sections:
            partner[opener] = closer
            if closer is not None:
                partner[closer] = opener

        for event in trace:
            containing = [
                (opener, mode) for opener, closer, mode in sections
                if trace[opener].thread == event.thread
                and opener <= event.index <= (end if closer is None else closer)
            ]
            held = [(opener, trace[opener].target)
                    for opener, mode in containing if mode != "read"]
            assert trace.held_locks(event) == tuple(lock for _, lock in held)
            for opener, lock in held:
                assert trace.enclosing_acquire(event, lock) is trace[opener]
            assert trace.enclosing_acquire(event, "no-such-lock") is None

            semantics = REGISTRY[event.etype]
            if semantics.opens is None and semantics.closes is None:
                continue
            expected = partner.get(event.index)
            matched = trace.match(event)
            assert (None if matched is None else matched.index) == expected
            if semantics.closes is not None and expected is None:
                with pytest.raises(TraceError):
                    trace.critical_section(event)
                continue
            opener = event.index if semantics.opens is not None else expected
            last = partner[opener] if partner[opener] is not None else end
            assert [e.index for e in trace.critical_section(event)] == [
                i for i in range(opener, last + 1)
                if trace[i].thread == event.thread
            ]

        for thread in trace.threads:
            indices = [e.index for e in trace if e.thread == thread]
            assert trace.thread_indices(thread) == indices
            assert [e.index for e in trace.thread_events(thread)] == indices

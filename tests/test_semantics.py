"""Tests for the declarative event-semantics registry.

Covers the tentpole contract of the registry layer:

* every event kind is declared exactly once, with consistent tokens,
  operand arity, validator role, clock action and sharding class;
* the derived membership sets (LOCK/ACCESS/THREAD/BARRIER events) are
  computed from the declarations, not hand-maintained;
* batch (:class:`Trace`) and streaming (:class:`OnlineValidator`)
  validation raise the *identical* exception class and message for every
  discipline violation, including the rwlock-specific ones;
* the detectors implement the agreed ordering semantics for rwlocks,
  barriers and wait/notify -- identically across WCP, HB and FastTrack
  where the models coincide;
* the partitioner classifies the new kinds off the registry.
"""

import pytest

from repro.core.wcp import WCPDetector
from repro.engine.partition import (
    REPLICATE,
    ROUTE,
    ROUTE_CLOCK,
    StreamPartitioner,
)
from repro.engine.validate import OnlineValidator
from repro.hb.fasttrack import FastTrackDetector
from repro.hb.hb import HBDetector
from repro.trace.builder import TraceBuilder
from repro.trace.event import (
    ACCESS_EVENTS,
    Event,
    EventType,
    LOCK_EVENTS,
    THREAD_EVENTS,
)
from repro.trace.semantics import (
    BARRIER_EVENTS,
    REGISTRY,
    TOKEN_TO_ETYPE,
    TraceError,
)
from repro.trace.trace import Trace

DETECTORS = [WCPDetector, HBDetector, FastTrackDetector]


def ev(index, thread, token, target):
    return Event(index, thread, EventType(token), target, "L%d" % index)


def build(rows):
    return [ev(i, t, k, tgt) for i, (t, k, tgt) in enumerate(rows)]


class TestRegistry:
    def test_every_event_type_is_declared(self):
        assert set(REGISTRY) == set(EventType)

    def test_primary_token_is_the_wire_value(self):
        for etype, semantics in REGISTRY.items():
            assert semantics.token == etype.value
            assert semantics.tokens[0] == etype.value

    def test_tokens_are_globally_unique(self):
        seen = {}
        for etype, semantics in REGISTRY.items():
            for token in semantics.tokens:
                assert token not in seen, (token, etype, seen[token])
                seen[token] = etype
        assert TOKEN_TO_ETYPE == seen

    def test_derived_sets(self):
        assert ACCESS_EVENTS == frozenset({EventType.READ, EventType.WRITE})
        assert THREAD_EVENTS == frozenset({EventType.FORK, EventType.JOIN})
        assert BARRIER_EVENTS == frozenset({EventType.BARRIER})
        assert LOCK_EVENTS == frozenset({
            EventType.ACQUIRE, EventType.RELEASE,
            EventType.RACQ_R, EventType.RACQ_W, EventType.RREL,
            EventType.WAIT, EventType.NOTIFY,
        })

    def test_new_kinds_replicate(self):
        for etype in (EventType.RACQ_R, EventType.RACQ_W, EventType.RREL,
                      EventType.BARRIER, EventType.WAIT, EventType.NOTIFY):
            assert REGISTRY[etype].shard_class == "replicate"
        for etype in ACCESS_EVENTS:
            assert REGISTRY[etype].shard_class.startswith("route")

    def test_operand_is_required(self):
        with pytest.raises(ValueError, match="lock"):
            Event(0, "t", EventType.RACQ_R, None)
        with pytest.raises(ValueError, match="barrier"):
            Event(0, "t", EventType.BARRIER, None)
        # Markers take no operand.
        Event(0, "t", EventType.BEGIN, None)

    def test_event_helpers(self):
        event = ev(0, "t", "barrier", "b")
        assert event.is_barrier()
        assert event.barrier == "b"
        assert ev(0, "t", "rrel", "m").lock == "m"


def _trace_error(events):
    try:
        Trace(list(events), validate=True)
    except TraceError as error:
        return type(error), str(error)
    return None


def _stream_error(events):
    validator = OnlineValidator()
    try:
        for event in events:
            validator.check(event)
    except TraceError as error:
        return type(error), str(error)
    return None


MALFORMED = {
    "acquire_while_read_held": [
        ("t1", "racq_r", "m"), ("t2", "acq", "m"),
    ],
    "read_acquire_while_held": [
        ("t1", "acq", "m"), ("t2", "racq_r", "m"),
    ],
    "write_acquire_while_read_held": [
        ("t1", "racq_r", "m"), ("t2", "racq_w", "m"),
    ],
    "reentrant_read_acquire": [
        ("t1", "racq_r", "m"), ("t1", "racq_r", "m"),
    ],
    "unmatched_rw_release": [
        ("t1", "rrel", "m"),
    ],
    "mutex_release_closes_read_section": [
        ("t1", "racq_r", "m"), ("t1", "rel", "m"),
    ],
    "rw_release_closes_mutex_section": [
        ("t1", "acq", "m"), ("t1", "rrel", "m"),
    ],
    "overlapping_write_acquires": [
        ("t1", "racq_w", "m"), ("t2", "racq_w", "m"),
    ],
    "badly_nested_mixed_sections": [
        ("t1", "acq", "a"), ("t1", "racq_r", "b"), ("t1", "rel", "a"),
    ],
    "wait_on_held_monitor": [
        ("t1", "acq", "m"), ("t2", "wait", "m"),
    ],
}


class TestValidationParity:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_batch_and_stream_raise_identically(self, name):
        events = build(MALFORMED[name])
        batch = _trace_error(events)
        stream = _stream_error(events)
        assert batch is not None, name
        assert batch == stream

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_errors_are_actionable(self, name):
        # One line, names the lock and an event index.
        error = _trace_error(build(MALFORMED[name]))
        assert error is not None
        message = error[1]
        assert "\n" not in message
        assert "'m'" in message or "'a'" in message or "'b'" in message
        assert "event" in message

    def test_well_formed_vocabulary_passes_both(self):
        rows = [
            ("t1", "racq_w", "rw"), ("t1", "w", "x"), ("t1", "rrel", "rw"),
            ("t1", "racq_r", "rw"), ("t2", "racq_r", "rw"),
            ("t1", "r", "x"), ("t2", "r", "x"),
            ("t1", "rrel", "rw"), ("t2", "rrel", "rw"),
            ("t1", "barrier", "b"), ("t2", "barrier", "b"),
            ("t1", "acq", "mon"), ("t1", "notify", "mon"),
            ("t1", "rel", "mon"),
            ("t2", "wait", "mon"), ("t2", "rel", "mon"),
        ]
        events = build(rows)
        assert _trace_error(events) is None
        assert _stream_error(events) is None

    def test_validator_state_shrinks_back(self):
        validator = OnlineValidator()
        for event in build([
            ("t1", "racq_r", "m"), ("t2", "racq_r", "m"),
            ("t1", "rrel", "m"), ("t2", "rrel", "m"),
        ]):
            validator.check(event)
        assert validator.state_size() == 0


class TestTraceIndexing:
    def test_census(self):
        trace = Trace(build([
            ("t1", "racq_r", "m"), ("t1", "w", "x"), ("t1", "rrel", "m"),
            ("t1", "barrier", "b"),
        ]))
        assert trace.census() == {"racq_r": 1, "w": 1, "rrel": 1,
                                  "barrier": 1}

    def test_barriers_property(self):
        trace = Trace(build([
            ("t1", "barrier", "b1"), ("t1", "barrier", "b2"),
            ("t1", "barrier", "b1"),
        ]))
        assert trace.barriers == ["b1", "b2"]

    def test_rw_critical_section(self):
        trace = Trace(build([
            ("t1", "racq_w", "m"), ("t1", "w", "x"), ("t1", "rrel", "m"),
        ]))
        section = trace.critical_section(trace.events[0])
        assert [event.index for event in section] == [0, 1, 2]
        assert trace.match(trace.events[0]).index == 2
        assert trace.match(trace.events[2]).index == 0

    def test_read_section_does_not_count_as_held(self):
        trace = Trace(build([
            ("t1", "racq_r", "m"), ("t1", "w", "x"), ("t1", "rrel", "m"),
        ]))
        # Read sections give no exclusion, so the access is not "guarded".
        assert trace.held_locks(trace.events[1]) == ()


class TestOrderingSemantics:
    """The agreed partial-order rules of the extended vocabulary."""

    @pytest.mark.parametrize("detector_cls", DETECTORS)
    def test_read_sections_race(self, detector_cls):
        trace = (
            TraceBuilder()
            .read_acquire("t1", "m").write("t1", "x").rw_release("t1", "m")
            .read_acquire("t2", "m").write("t2", "x").rw_release("t2", "m")
            .build()
        )
        assert detector_cls().run(trace).count() == 1

    @pytest.mark.parametrize("detector_cls", DETECTORS)
    def test_write_sections_exclude(self, detector_cls):
        trace = (
            TraceBuilder()
            .write_acquire("t1", "m").write("t1", "x").rw_release("t1", "m")
            .write_acquire("t2", "m").write("t2", "x").rw_release("t2", "m")
            .build()
        )
        assert detector_cls().run(trace).count() == 0

    @pytest.mark.parametrize("detector_cls", DETECTORS)
    @pytest.mark.parametrize("order", ["write_first", "read_first"])
    def test_write_and_read_sections_exclude(self, detector_cls, order):
        builder = TraceBuilder()
        if order == "write_first":
            builder.write_acquire("t1", "m").write("t1", "x")
            builder.rw_release("t1", "m")
            builder.read_acquire("t2", "m").read("t2", "x")
            builder.rw_release("t2", "m")
        else:
            builder.read_acquire("t1", "m").write("t1", "x")
            builder.rw_release("t1", "m")
            builder.write_acquire("t2", "m").write("t2", "x")
            builder.rw_release("t2", "m")
        assert detector_cls().run(builder.build()).count() == 0

    @pytest.mark.parametrize(
        "detector_cls,expected",
        [(WCPDetector, 1), (HBDetector, 0), (FastTrackDetector, 0)],
    )
    def test_figure_2b_shape_on_write_sections(self, detector_cls, expected):
        # The paper's Figure 2b with the mutex replaced by write-mode
        # rwlock sections: the race on ``y`` is invisible to HB (the
        # release/write-acquire edge orders the sections) but WCP's
        # Rule (a) only orders the release before the *conflicting*
        # ``r(x)``, which comes after ``r(y)`` -- write sections behave
        # exactly like mutexes, fine-grained rules included.
        trace = (
            TraceBuilder()
            .write("t1", "y")
            .write_acquire("t1", "m").write("t1", "x").rw_release("t1", "m")
            .write_acquire("t2", "m").read("t2", "y").read("t2", "x")
            .rw_release("t2", "m")
            .build()
        )
        assert detector_cls().run(trace).count() == expected

    @pytest.mark.parametrize("detector_cls", DETECTORS)
    def test_barrier_orders_across_generation(self, detector_cls):
        trace = (
            TraceBuilder()
            .write("t1", "x")
            .barrier("t1", "b").barrier("t2", "b")
            .write("t2", "x")
            .build()
        )
        assert detector_cls().run(trace).count() == 0

    @pytest.mark.parametrize("detector_cls", DETECTORS)
    def test_barrier_generations_are_separate(self, detector_cls):
        # A write after generation 1 races with a write before
        # generation 2 by a thread that only joined generation 2... but
        # every pre-generation-1 write is ordered before every
        # post-generation-1 write of the participants.
        trace = (
            TraceBuilder()
            .write("t1", "x")
            .barrier("t1", "b").barrier("t2", "b")
            .write("t2", "x")
            .barrier("t1", "b").barrier("t2", "b")
            .write("t1", "x")
            .build()
        )
        assert detector_cls().run(trace).count() == 0

    @pytest.mark.parametrize("detector_cls", DETECTORS)
    def test_unsynchronised_threads_race_around_barrier(self, detector_cls):
        # t3 never arrives at the barrier: its write is unordered.
        trace = (
            TraceBuilder()
            .write("t1", "x")
            .barrier("t1", "b").barrier("t2", "b")
            .write("t3", "x")
            .build()
        )
        assert detector_cls().run(trace).count() >= 1

    @pytest.mark.parametrize("detector_cls", DETECTORS)
    def test_notify_orders_wait(self, detector_cls):
        trace = (
            TraceBuilder()
            .acquire("t1", "mon").write("t1", "x").notify("t1", "mon")
            .release("t1", "mon")
            .wait("t2", "mon").write("t2", "x").release("t2", "mon")
            .build()
        )
        assert detector_cls().run(trace).count() == 0

    @pytest.mark.parametrize("detector_cls", DETECTORS)
    def test_wait_without_notify_still_locks(self, detector_cls):
        # Without a notify, wait still behaves as a monitor reacquire:
        # the monitor's release/acquire chain orders the accesses for HB
        # but the sections conflict, so WCP Rule (a) orders them too.
        trace = (
            TraceBuilder()
            .acquire("t1", "mon").write("t1", "x").release("t1", "mon")
            .wait("t2", "mon").write("t2", "x").release("t2", "mon")
            .build()
        )
        assert detector_cls().run(trace).count() == 0

    @pytest.mark.parametrize("detector_cls", DETECTORS)
    def test_notify_reaches_later_waiters(self, detector_cls):
        # notifyAll semantics: the notify accumulator is never cleared,
        # so a second waiter is ordered after the notifier too.
        trace = (
            TraceBuilder()
            .acquire("t1", "mon").write("t1", "x").notify("t1", "mon")
            .release("t1", "mon")
            .wait("t2", "mon").release("t2", "mon")
            .wait("t3", "mon").write("t3", "x").release("t3", "mon")
            .build()
        )
        assert detector_cls().run(trace).count() == 0


class TestPartitionerTaxonomy:
    def _classify_all(self, rows, shards=3):
        partitioner = StreamPartitioner(shards)
        return [partitioner.classify(event) for event in build(rows)], \
            partitioner

    def test_new_sync_kinds_replicate(self):
        kinds, _ = self._classify_all([
            ("t1", "racq_w", "m"), ("t1", "rrel", "m"),
            ("t1", "barrier", "b"), ("t1", "notify", "mon"),
            ("t1", "wait", "mon"), ("t1", "rel", "mon"),
        ])
        assert all(kind == REPLICATE for kind, _ in kinds)

    def test_access_in_read_section_is_clock_relevant(self):
        kinds, _ = self._classify_all([
            ("t1", "racq_r", "m"),
            ("t1", "r", "x"),       # consumes Rule (a) cells -> ROUTE_CLOCK
            ("t1", "rrel", "m"),
            ("t1", "w", "x"),       # deferred bump carrier -> ROUTE_CLOCK
            ("t1", "w", "x"),       # plain again -> ROUTE
        ])
        assert [kind for kind, _ in kinds] == [
            REPLICATE, ROUTE_CLOCK, REPLICATE, ROUTE_CLOCK, ROUTE,
        ]

    def test_read_mode_release_keeps_exclusive_depth(self):
        kinds, _ = self._classify_all([
            ("t1", "acq", "a"),
            ("t1", "racq_r", "m"),
            ("t1", "rrel", "m"),    # closes the read section...
            ("t1", "w", "x"),       # ...but lock "a" is still held
        ])
        assert kinds[-1][0] == ROUTE_CLOCK

    def test_state_round_trip_covers_read_held(self):
        _, partitioner = self._classify_all([
            ("t1", "racq_r", "m"),
        ])
        state = partitioner.state_dict()
        assert state["read_held"] == {"t1": {"m"}}
        fresh = StreamPartitioner(3)
        fresh.load_state(state)
        kind, _ = fresh.classify(ev(1, "t1", "r", "x"))
        assert kind == ROUTE_CLOCK

    def test_legacy_state_without_read_held_loads(self):
        partitioner = StreamPartitioner(3)
        partitioner.load_state({
            "depth": {}, "pending": set(), "census": (0, 0, 0),
            "policy": {},
        })
        kind, _ = partitioner.classify(ev(0, "t1", "w", "x"))
        assert kind == ROUTE

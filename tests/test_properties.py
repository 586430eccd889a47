"""Hypothesis property tests over randomly generated well-formed traces.

A custom strategy builds arbitrary valid traces (lock semantics and well
nestedness by construction) and checks the cross-cutting invariants that
tie the whole library together:

* monotonicity of the partial orders (HB ⊆ CP ⊆ WCP as relations, hence the
  reverse inclusion of their race sets);
* serialisation round-trips;
* report invariants (counts, distances, dedup);
* agreement between the streaming detectors and their closure oracles.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.closure import HBClosure, WCPClosure
from repro.core.wcp import WCPDetector
from repro.cp import CPClosure
from repro.hb import HBDetector
from repro.trace.event import Event, EventType
from repro.trace.parsers import parse_csv, parse_std
from repro.trace.trace import Trace
from repro.trace.writers import write_csv, write_std


@st.composite
def traces(draw, max_events=35, max_threads=3, max_locks=2, max_vars=3):
    """Generate a random well-formed trace."""
    n_threads = draw(st.integers(min_value=2, max_value=max_threads))
    n_locks = draw(st.integers(min_value=0, max_value=max_locks))
    n_vars = draw(st.integers(min_value=1, max_value=max_vars))
    n_events = draw(st.integers(min_value=2, max_value=max_events))

    threads = ["t%d" % i for i in range(n_threads)]
    locks = ["l%d" % i for i in range(n_locks)]
    variables = ["x%d" % i for i in range(n_vars)]

    held = {thread: [] for thread in threads}
    holder = {}
    events = []
    for _ in range(n_events):
        thread = draw(st.sampled_from(threads))
        actions = ["read", "write"]
        free_locks = [
            lock for lock in locks
            if lock not in holder and lock not in held[thread]
        ]
        if free_locks:
            actions.append("acquire")
        if held[thread]:
            actions.append("release")
        action = draw(st.sampled_from(actions))
        index = len(events)
        if action == "acquire":
            lock = draw(st.sampled_from(free_locks))
            held[thread].append(lock)
            holder[lock] = thread
            events.append(Event(index, thread, EventType.ACQUIRE, lock))
        elif action == "release":
            lock = held[thread].pop()
            del holder[lock]
            events.append(Event(index, thread, EventType.RELEASE, lock))
        else:
            variable = draw(st.sampled_from(variables))
            etype = EventType.READ if action == "read" else EventType.WRITE
            events.append(Event(index, thread, etype, variable))
    for thread in threads:
        while held[thread]:
            events.append(Event(len(events), thread, EventType.RELEASE, held[thread].pop()))
    return Trace(events, name="hypothesis")


COMMON_SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestPartialOrderHierarchy:
    @given(traces())
    @settings(**COMMON_SETTINGS)
    def test_race_sets_are_nested(self, trace):
        hb = {frozenset((a.index, b.index)) for a, b in HBClosure(trace).races()}
        cp = {frozenset((a.index, b.index)) for a, b in CPClosure(trace).races()}
        wcp = {frozenset((a.index, b.index)) for a, b in WCPClosure(trace).races()}
        assert hb <= cp <= wcp

    @given(traces())
    @settings(**COMMON_SETTINGS)
    def test_wcp_prec_is_subset_of_hb(self, trace):
        # Definition: every WCP-ordered pair is HB-ordered (WCP ⊆ HB).
        hb = HBClosure(trace)
        wcp = WCPClosure(trace)
        for second in range(len(trace)):
            for first in range(second):
                if wcp.prec(first, second):
                    assert hb.ordered(first, second)

    @given(traces())
    @settings(**COMMON_SETTINGS)
    def test_streaming_wcp_agrees_with_closure(self, trace):
        detector_races = set(WCPDetector().run(trace).location_pairs())
        closure_races = {
            frozenset({a.location(), b.location()})
            for a, b in WCPClosure(trace).races()
        }
        assert detector_races == closure_races


class TestSerializationProperties:
    @given(traces())
    @settings(**COMMON_SETTINGS)
    def test_std_round_trip_preserves_events(self, trace):
        parsed = parse_std(write_std(trace))
        assert len(parsed) == len(trace)
        assert [
            (e.thread, e.etype, e.target) for e in parsed
        ] == [
            (e.thread, e.etype, e.target) for e in trace
        ]

    @given(traces())
    @settings(**COMMON_SETTINGS)
    def test_csv_round_trip_preserves_race_counts(self, trace):
        parsed = parse_csv(write_csv(trace))
        original = HBDetector().run(trace).count()
        reparsed = HBDetector().run(parsed).count()
        assert original == reparsed


class TestReportProperties:
    @given(traces())
    @settings(**COMMON_SETTINGS)
    def test_distinct_count_never_exceeds_raw_count(self, trace):
        report = WCPDetector().run(trace)
        assert report.count() <= max(report.raw_race_count, 0) or report.count() == 0

    @given(traces())
    @settings(**COMMON_SETTINGS)
    def test_max_distance_bounded_by_trace_length(self, trace):
        report = WCPDetector().run(trace)
        assert 0 <= report.max_distance() < max(len(trace), 1)

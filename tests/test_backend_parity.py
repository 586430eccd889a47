"""Oracle parity for the optimised WCP, HB and FastTrack detectors.

The hot-path overhaul (interned tids, dense clocks, cached ``C_t``,
epoch-accelerated history, chain-collapsed Rule (a)/(b) joins) must be
*observably invisible*:

* WCP must produce the race pairs, statistics and timestamps of the
  frozen pre-overhaul :class:`~repro.core.wcp_legacy.LegacyWCPDetector`;
* HB must agree with :class:`~repro.core.closure.HBClosure`
  (Definition 1): same race pairs, and timestamps that characterise the
  order exactly;
* FastTrack, which keeps only the last accesses' epochs, must report a
  race exactly when the closure finds one, on a subset of its variables.

Two generators are used: the hypothesis strategy from
``tests/test_properties.py`` (locks + accesses) and a seeded fork/join
generator, because fork/join publish a thread's clock mid-trace and must
end its local interval like a release does (the event registry's
``bumps`` rule) for the history's epoch fast path to stay exact.

Parity with the legacy detector cannot catch a bug both share, so the
fork/join rule is also checked against the definitional oracles: tiny
traces whose one race every clock detector must report, a seeded sweep
pinning HB races within WCP races within the WCP closure's, and a
registry conformance check that every bumping event kind bumps in every
clock detector.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NoCensus
from test_properties import traces

from repro.core.closure import HBClosure, WCPClosure, WCPClosureDetector
from repro.core.wcp import WCPDetector
from repro.core.wcp_legacy import LegacyWCPDetector
from repro.engine import IterableSource, RaceEngine
from repro.hb import FastTrackDetector, HBDetector
from repro.trace.builder import TraceBuilder
from repro.trace.event import Event, EventType
from repro.trace.semantics import REGISTRY
from repro.trace.trace import Trace
from repro.vectorclock.registry import ThreadRegistry

PARITY_SETTINGS = dict(max_examples=40, deadline=None)


def random_trace_with_forks(
    seed, n_events=50, n_threads=4, n_locks=2, n_vars=3, fork_join_bias=0.15
):
    """A random well-formed trace that also exercises fork/join edges."""
    rng = random.Random(seed)
    threads = ["t%d" % i for i in range(n_threads)]
    locks = ["l%d" % i for i in range(n_locks)]
    variables = ["x%d" % i for i in range(n_vars)]

    held = {thread: [] for thread in threads}
    holder = {}
    events = []
    while len(events) < n_events:
        thread = rng.choice(threads)
        choices = ["read", "write", "read", "write"]
        free_locks = [
            lock for lock in locks
            if lock not in holder and lock not in held[thread]
        ]
        if free_locks:
            choices.append("acquire")
        if held[thread]:
            choices.append("release")
        if rng.random() < fork_join_bias:
            choices.extend(["fork", "join"])
        action = rng.choice(choices)
        index = len(events)
        if action == "acquire":
            lock = rng.choice(free_locks)
            held[thread].append(lock)
            holder[lock] = thread
            events.append(Event(index, thread, EventType.ACQUIRE, lock))
        elif action == "release":
            lock = held[thread].pop()
            del holder[lock]
            events.append(Event(index, thread, EventType.RELEASE, lock))
        elif action in ("fork", "join"):
            other = rng.choice([t for t in threads if t != thread])
            etype = EventType.FORK if action == "fork" else EventType.JOIN
            events.append(Event(index, thread, etype, other))
        else:
            variable = rng.choice(variables)
            etype = EventType.READ if action == "read" else EventType.WRITE
            events.append(Event(index, thread, etype, variable))
    for thread in threads:
        while held[thread]:
            events.append(
                Event(len(events), thread, EventType.RELEASE, held[thread].pop())
            )
    return Trace(events, name="forked-%d" % seed)


def _race_key(report):
    return sorted(sorted(pair) for pair in report.location_pairs())


def _assert_wcp_equivalent(trace):
    report = WCPDetector().run(trace)
    reference = LegacyWCPDetector().run(trace)
    assert _race_key(report) == _race_key(reference)
    assert report.raw_race_count == reference.raw_race_count
    assert report.stats["max_queue_total"] == (
        reference.stats["max_queue_total"]
    )
    assert report.stats["max_queue_fraction"] == (
        reference.stats["max_queue_fraction"]
    )
    # Timestamps characterise the partial order (Theorem 2); they must be
    # bit-identical to the legacy detector's.
    assert WCPDetector().timestamps(trace) == (
        LegacyWCPDetector().timestamps(trace)
    )


def _closure_pairs(closure):
    return {
        frozenset({a.location(), b.location()}) for a, b in closure.races()
    }


def _assert_hb_matches_closure(trace):
    closure = HBClosure(trace)
    assert set(HBDetector().run(trace).location_pairs()) == (
        _closure_pairs(closure)
    )
    clocks = HBDetector().timestamps(trace)
    for second in range(len(trace)):
        for first in range(second):
            assert (clocks[first] <= clocks[second]) == (
                closure.ordered(first, second)
            ), (first, second)


def _assert_fasttrack_matches_closure(trace):
    # FastTrack keeps only the last accesses' epochs: every pair it
    # reports is an HB race (so its variables are a subset of the
    # closure's), and it finds a race whenever one exists.
    expected = _closure_pairs(HBClosure(trace))
    report = FastTrackDetector().run(trace)
    assert set(report.location_pairs()) <= expected
    assert (report.count() > 0) == bool(expected)


class TestWCPBackendParity:
    @given(traces())
    @settings(**PARITY_SETTINGS)
    def test_random_traces(self, trace):
        _assert_wcp_equivalent(trace)

    def test_fork_join_traces(self):
        # Fork/join publish clocks outside releases, so they exercise the
        # deferred bumps the epoch fast path relies on; sweep seeds
        # deterministically so failures are reproducible.
        for seed in range(60):
            _assert_wcp_equivalent(random_trace_with_forks(seed))

    def test_fork_join_traces_strict_pseudocode(self):
        for seed in range(20):
            trace = random_trace_with_forks(seed + 500)
            dense = WCPDetector(strict_pseudocode=True).run(trace)
            legacy = LegacyWCPDetector(strict_pseudocode=True).run(trace)
            assert _race_key(dense) == _race_key(legacy)

    def test_malformed_window_fragments_agree(self):
        # Raw trace windows can slice critical sections in half (releases
        # without acquires, overlapping sections): exactly the traces the
        # chain fast path must detect (taint) and handle via the full
        # walk.  Every fragment must still match the legacy detector.
        for seed in range(8):
            trace = random_trace_with_forks(seed + 300, n_events=70)
            for size in (9, 16):
                for window in trace.windows(size):
                    dense = WCPDetector().run(window)
                    legacy = LegacyWCPDetector().run(window)
                    assert _race_key(dense) == _race_key(legacy), (seed, size)

    def test_unpruned_queues_agree(self):
        for seed in range(15):
            trace = random_trace_with_forks(seed + 900)
            dense = WCPDetector().run(NoCensus(trace))
            legacy = LegacyWCPDetector(prune_queues=False).run(trace)
            assert _race_key(dense) == _race_key(legacy)
            assert dense.stats["max_queue_total"] == (
                legacy.stats["max_queue_total"]
            )


class TestHBAndFastTrackClosureParity:
    @given(traces())
    @settings(**PARITY_SETTINGS)
    def test_hb_matches_closure(self, trace):
        _assert_hb_matches_closure(trace)

    @given(traces())
    @settings(**PARITY_SETTINGS)
    def test_fasttrack_matches_closure(self, trace):
        _assert_fasttrack_matches_closure(trace)

    def test_fork_join_traces(self):
        for seed in range(40):
            trace = random_trace_with_forks(seed + 200)
            _assert_hb_matches_closure(trace)
            _assert_fasttrack_matches_closure(trace)


class TestTidStampTrust:
    def test_foreign_tid_stamps_cannot_corrupt_results(self):
        # Stamp events with a deliberately shuffled registry, then feed
        # them through an IterableSource (whose own registry disagrees):
        # the source must re-stamp copies, keeping reports identical to a
        # plain run.
        trace = random_trace_with_forks(7, n_events=60)
        expected = _race_key(WCPDetector().run(trace))

        foreign = ThreadRegistry(["zz", "yy", "xx", "ww", "vv"])
        stamped = [
            Event(e.index, e.thread, e.etype, e.target, e.loc,
                  tid=foreign.intern(e.thread))
            for e in trace
        ]
        original_tids = [e.tid for e in stamped]
        result = RaceEngine().run(
            IterableSource(stamped, name="foreign"), detectors=[WCPDetector()]
        )
        assert _race_key(result["WCP"]) == expected
        # The foreign producer's stamps were not overwritten in place.
        assert [e.tid for e in stamped] == original_tids

    def test_trace_restamps_conflicting_events_with_copies(self):
        registry_a = ThreadRegistry(["t1", "t0"])
        events = [
            Event(0, "t0", EventType.WRITE, "x", tid=registry_a.intern("t0")),
            Event(1, "t1", EventType.WRITE, "x", tid=registry_a.intern("t1")),
        ]
        trace = Trace(events, name="conflict")
        # The new trace's registry interns in first-appearance order, which
        # conflicts with registry_a's numbering: the trace must use copies.
        assert trace[0].tid == trace.registry.lookup("t0")
        assert trace[1].tid == trace.registry.lookup("t1")
        assert events[0].tid == 1 and events[1].tid == 0
        assert WCPDetector().run(trace).count() == 1


CLOCK_DETECTORS = (WCPDetector, HBDetector, FastTrackDetector)

# One race each, between accesses that fork or join leaves unordered: the
# forking parent's next access, and a joined child's access after the join.
FORK_JOIN_RACES = {
    "post-fork parent write": (
        TraceBuilder().fork("t0", "t1").write("t0", "x").write("t1", "x")
    ),
    "post-join child write": (
        TraceBuilder().write("t1", "y").join("t0", "t1")
        .write("t1", "x").write("t0", "x")
    ),
    "post-join child read": (
        TraceBuilder().write("t1", "y").join("t0", "t1")
        .read("t1", "x").write("t0", "x")
    ),
    "post-join child with no pre-join access": (
        TraceBuilder().join("t0", "t1").write("t1", "x").write("t0", "x")
    ),
}


class TestForkJoinAgainstOracles:
    @pytest.mark.parametrize("scenario", sorted(FORK_JOIN_RACES))
    @pytest.mark.parametrize(
        "detector", CLOCK_DETECTORS, ids=lambda cls: cls.name
    )
    def test_reports_exactly_the_closure_race(self, scenario, detector):
        trace = FORK_JOIN_RACES[scenario].build()
        expected = _closure_pairs(WCPClosure(trace))
        assert len(expected) == 1
        assert _closure_pairs(HBClosure(trace)) == expected
        assert set(detector().run(trace).location_pairs()) == expected

    def test_hb_races_within_wcp_races_within_closure_races(self):
        for seed in range(200):
            trace = random_trace_with_forks(seed)
            hb = set(HBDetector().run(trace).location_pairs())
            wcp = set(WCPDetector().run(trace).location_pairs())
            closure = set(WCPClosureDetector().run(trace).location_pairs())
            assert hb <= wcp <= closure, seed
            # Weak soundness direction: WCP clocks order every pair the
            # closure orders, so no reported race is a closure-ordered pair.
            oracle = WCPClosure(trace)
            clocks = WCPDetector().timestamps(trace)
            for second in range(len(trace)):
                for first in range(second):
                    if oracle.ordered(first, second):
                        assert clocks[first] <= clocks[second], (
                            seed, first, second,
                        )


# For every event kind that bumps a local clock: a trace containing it,
# the index of the bumping event, the bumped thread and the index of that
# thread's next event.
BUMP_SCENARIOS = {
    EventType.RELEASE: (
        TraceBuilder().acquire("t0", "l").release("t0", "l")
        .write("t0", "x"), 1, "t0", 2,
    ),
    EventType.FORK: (
        TraceBuilder().fork("t0", "t1").write("t0", "x"), 0, "t0", 1,
    ),
    EventType.JOIN: (
        TraceBuilder().write("t1", "x").join("t0", "t1").write("t1", "y"),
        1, "t1", 2,
    ),
    EventType.RREL: (
        TraceBuilder().read_acquire("t0", "l").rw_release("t0", "l")
        .write("t0", "x"), 1, "t0", 2,
    ),
    EventType.BARRIER: (
        TraceBuilder().barrier("t0", "b").write("t0", "x"), 0, "t0", 1,
    ),
    EventType.NOTIFY: (
        TraceBuilder().notify("t0", "m").write("t0", "x"), 0, "t0", 1,
    ),
}


class TestRegistryBumpConformance:
    def test_every_bumping_kind_has_a_scenario(self):
        bumping = {
            etype for etype, semantics in REGISTRY.items()
            if semantics.bumps in ("self", "target")
        }
        assert bumping == set(BUMP_SCENARIOS)

    @pytest.mark.parametrize(
        "etype", sorted(BUMP_SCENARIOS, key=lambda etype: etype.value),
        ids=lambda etype: etype.value,
    )
    @pytest.mark.parametrize(
        "detector", CLOCK_DETECTORS, ids=lambda cls: cls.name
    )
    def test_bumped_thread_starts_a_new_interval(self, etype, detector):
        builder, at, bumped, following = BUMP_SCENARIOS[etype]
        trace = builder.build()
        assert trace[at].etype is etype
        assert trace[following].thread == bumped
        bumps = REGISTRY[etype].bumps
        assert bumped == (
            trace[at].thread if bumps == "self" else trace[at].target
        )
        clocks = detector().timestamps(trace)
        assert clocks[following].get(bumped) > clocks[at].get(bumped)

"""Event partitioning for the sharded engine.

The WCP analysis is linear-time and its per-variable race checks are
largely independent (Kini et al. PLDI 2017; Mathur & Pavlogiannis make the
per-variable decomposition explicit), which is what lets one event stream
be split across N worker engines.  The split follows a three-way **event
taxonomy** -- the replication-vs-routing contract every shardable detector
relies on:

``REPLICATE`` -- the synchronization skeleton
    Acquire, release, fork, join, begin and end events are delivered to
    *every* shard and processed fully.  All detector clock state (HB
    clocks, WCP's ``P_t`` / ``H_t`` / per-lock state, FastTrack epochs)
    flows through these events, so replicating them keeps each worker's
    ordering knowledge identical to the single-engine run.

``ROUTE`` -- plain accesses
    A read/write performed while its thread holds no lock affects only the
    per-variable access history, never the clocks.  It is delivered solely
    to the shard that owns the variable (the partition policy's
    ``owner_of``), which race-checks and records it exactly once.

``ROUTE_CLOCK`` -- clock-relevant accesses
    Three kinds of read/write events move detector clocks even though
    they are plain accesses: an access performed under at least one held
    lock -- exclusive or read-mode -- (WCP's Rule (a): the access joins
    the enclosing locks' ``L^r``/``L^w`` cells into ``P_t`` and feeds the
    section read/write sets), an access by a thread with an outstanding
    arrival in a still-open barrier generation (it re-joins the
    generation's grown accumulator: the blocked-arriver edge), and a
    thread's *first* event after a release/fork/join when
    that event is an access (it carries the deferred local-interval bump
    of ``N_t`` / the HB clock, whose visibility must advance identically
    on every shard before the next replicated fork/join snapshots the
    thread's clock).  Such accesses are still race-checked only by the
    owner shard, but are additionally replicated to the other shards as
    *foreign* events.  A non-owner shard runs them through
    ``process_batch`` like every other event, after marking their
    variable with :meth:`~repro.core.detector.Detector.mark_foreign`:
    same clock rules, no race check.  When no selected detector has
    ``needs_foreign_accesses``, foreign copies are not transported at all
    (HB and FastTrack verdicts never need them; the clock lag is then
    confined to components other shards cannot observe).

Because all accesses of one variable land on one shard, that shard's
history for the variable is complete and its race verdicts coincide with
the single engine's; because the clock-relevant event stream is replicated
in full order, every shard's clocks agree (the shard-boundary protocol's
cross-shard agreement check makes this observable).

Partition *policies* decide variable ownership; they are deliberately
stateless or append-only so the same policy instance can classify an
unbounded stream.
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple, Union

from repro.trace.event import ACCESS_EVENTS, BARRIER_EVENTS, Event
from repro.trace.semantics import REGISTRY

#: Taxonomy tags returned by :meth:`StreamPartitioner.classify`.
REPLICATE = "replicate"
ROUTE = "route"
ROUTE_CLOCK = "route-clock"

#: Per-kind tables keyed by ``id(etype)``: identity keys keep
#: :meth:`StreamPartitioner.classify` off Enum's Python-level
#: ``__hash__``, which a set or dict lookup would call once per event.
_ACCESS = frozenset(map(id, ACCESS_EVENTS))
_BARRIER = frozenset(map(id, BARRIER_EVENTS))
_SEMANTICS = {id(etype): semantics for etype, semantics in REGISTRY.items()}


class PartitionPolicy:
    """Maps variable names to owning shard ids (``0 .. shards-1``)."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("a partition needs at least one shard")
        self.shards = shards

    def owner_of(self, variable: str) -> int:
        """Return the shard that owns ``variable``."""
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        """Return resumable policy state (checkpoint/resume protocol).

        Stateless policies (hashing) return an empty dict -- their
        ownership is a pure function of the variable name.  Stateful
        policies (round-robin) must capture whatever makes ownership
        depend on stream history.
        """
        return {}

    def load_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`."""

    def __repr__(self) -> str:
        return "%s(shards=%d)" % (type(self).__name__, self.shards)


class HashPartition(PartitionPolicy):
    """Stable hashing of the variable name (crc32, not PYTHONHASHSEED).

    Any process computes the same owner for the same name, which keeps
    routing reproducible across runs and machines.  Owners are memoized
    per variable -- the coordinator consults the policy once per *access*
    on the hot dispatch loop, so a dict hit must be the common case.
    """

    def __init__(self, shards: int) -> None:
        super().__init__(shards)
        self._owners: Dict[str, int] = {}

    def owner_of(self, variable: str) -> int:
        owner = self._owners.get(variable)
        if owner is None:
            owner = zlib.crc32(variable.encode("utf-8")) % self.shards
            self._owners[variable] = owner
        return owner


class RoundRobinPartition(PartitionPolicy):
    """Assign variables to shards cyclically in order of first appearance.

    Perfectly balanced in *variable count* (not necessarily in access
    count); stateful, so the instance that classified the stream must be
    the one asked about ownership.
    """

    def __init__(self, shards: int) -> None:
        super().__init__(shards)
        self._owners: Dict[str, int] = {}

    def owner_of(self, variable: str) -> int:
        owner = self._owners.get(variable)
        if owner is None:
            owner = len(self._owners) % self.shards
            self._owners[variable] = owner
        return owner

    def state_dict(self) -> Dict[str, object]:
        # First-appearance assignments are stream history: a resumed pass
        # must route every known variable exactly as the original did.
        return {"owners": dict(self._owners)}

    def load_state(self, state: Dict[str, object]) -> None:
        self._owners = dict(state.get("owners", {}))


class ExplicitPartition(PartitionPolicy):
    """A fixed ``variable -> shard`` mapping with a fallback policy.

    Lets callers pin hot variables (or co-locate variables they know are
    accessed together) while everything else falls back to hashing.
    """

    def __init__(
        self,
        shards: int,
        mapping: Dict[str, int],
        fallback: Optional[PartitionPolicy] = None,
    ) -> None:
        super().__init__(shards)
        for variable, owner in mapping.items():
            if not 0 <= owner < shards:
                raise ValueError(
                    "variable %r pinned to shard %d, but only %d shard(s) "
                    "exist" % (variable, owner, shards)
                )
        self._mapping = dict(mapping)
        self._fallback = fallback or HashPartition(shards)

    def owner_of(self, variable: str) -> int:
        owner = self._mapping.get(variable)
        if owner is None:
            owner = self._fallback.owner_of(variable)
        return owner

    def state_dict(self) -> Dict[str, object]:
        return {"fallback": self._fallback.state_dict()}

    def load_state(self, state: Dict[str, object]) -> None:
        self._fallback.load_state(state.get("fallback", {}))


#: Policy names accepted by :func:`make_policy` (and the CLI's
#: ``--shard-policy``).
POLICIES = {
    "hash": HashPartition,
    "rr": RoundRobinPartition,
    "round-robin": RoundRobinPartition,
}


def make_policy(
    policy: Union[str, PartitionPolicy, None], shards: int
) -> PartitionPolicy:
    """Coerce a policy name/instance into a policy for ``shards`` shards."""
    if policy is None:
        return HashPartition(shards)
    if isinstance(policy, PartitionPolicy):
        if policy.shards != shards:
            raise ValueError(
                "partition policy is sized for %d shard(s), engine has %d"
                % (policy.shards, shards)
            )
        return policy
    try:
        factory = POLICIES[policy]
    except KeyError:
        raise ValueError(
            "unknown partition policy %r; available: %s"
            % (policy, ", ".join(sorted(POLICIES)))
        ) from None
    return factory(shards)


class StreamPartitioner:
    """Stateful per-stream classifier applying the event taxonomy.

    Tracks each thread's held-lock depth (the only state the taxonomy
    needs) and counts how many events fell into each class, which the
    benchmarks use to report the replication overhead -- the quantity that
    bounds the achievable multi-core speedup.
    """

    def __init__(self, policy: PartitionPolicy) -> None:
        self.policy = policy
        self._depth: Dict[str, int] = {}
        #: Threads whose next event carries a deferred local-clock bump
        #: (the event right after a release-like event -- release, rrel,
        #: barrier, notify, fork -- or the first post-join event of the
        #: joined thread).  Derived from the registry's ``bumps`` field.
        self._pending_bump: set = set()
        #: Per-thread set of rwlocks currently held in read mode: accesses
        #: inside consume WCP Rule (a) cells (so they are clock-relevant,
        #: ROUTE_CLOCK) and their ``rrel`` must not decrement the
        #: exclusive depth.
        self._read_held: Dict[str, set] = {}
        #: Open barrier generations: barrier -> set of arrived threads.  A
        #: thread with an outstanding arrival re-joins the generation's
        #: accumulator at each subsequent event (the blocked-arriver
        #: edge), so its accesses are clock-relevant until the generation
        #: closes.
        self._barrier_open: Dict[str, set] = {}
        #: Threads with at least one outstanding open-generation arrival
        #: (the per-thread index of ``_barrier_open``, as a multiset count).
        self._barrier_waiting: Dict[str, int] = {}
        #: Routing memo: variable -> owning shard, filled on first sight.
        #: Policies are stateless or append-only (ownership of a seen
        #: variable never changes -- the checkpoint/resume protocol
        #: already relies on this), so the coordinator's per-event
        #: routing collapses to one int-valued table lookup instead of a
        #: policy method call that re-hashes the name.
        self._owner_memo: Dict[str, int] = {}
        #: Taxonomy census: events per class.
        self.replicated = 0
        self.routed = 0
        self.routed_clock = 0

    def classify(self, event: Event) -> Tuple[str, int]:
        """Return ``(kind, owner)``; ``owner`` is -1 for replicated events.

        Everything except the access fast path is derived from the
        declarative registry: ``shard_class`` decides route-vs-replicate,
        ``opens``/``closes`` drive the held-lock depth (read-mode
        sections tracked separately), ``bumps`` drives the pending-bump
        set -- so a new event kind registered in
        :mod:`repro.trace.semantics` is classified correctly with no
        change here.
        """
        etype_id = id(event.etype)
        thread = event.thread
        pending = self._pending_bump
        if etype_id in _ACCESS:
            memo = self._owner_memo
            owner = memo.get(event.target)
            if owner is None:
                owner = memo[event.target] = self.policy.owner_of(event.target)
            if self._depth.get(thread, 0) > 0:
                pending.discard(thread)
                self.routed_clock += 1
                return ROUTE_CLOCK, owner
            if self._read_held.get(thread):
                pending.discard(thread)
                self.routed_clock += 1
                return ROUTE_CLOCK, owner
            if self._barrier_waiting.get(thread):
                pending.discard(thread)
                self.routed_clock += 1
                return ROUTE_CLOCK, owner
            if thread in pending:
                pending.discard(thread)
                self.routed_clock += 1
                return ROUTE_CLOCK, owner
            self.routed += 1
            return ROUTE, owner
        # Sync events are replicated, so every shard applies a pending
        # bump at the same point when one is outstanding.
        pending.discard(thread)
        semantics = _SEMANTICS[etype_id]
        opens = semantics.opens
        if opens is not None:
            if opens == "read":
                self._read_held.setdefault(thread, set()).add(event.target)
            else:
                depth = self._depth
                depth[thread] = depth.get(thread, 0) + 1
        closes = semantics.closes
        if closes is not None:
            exclusive = True
            if closes == "rw":
                held = self._read_held.get(thread)
                if held is not None and event.target in held:
                    held.discard(event.target)
                    exclusive = False
            if exclusive:
                depth = self._depth
                current = depth.get(thread, 0)
                if current > 0:
                    depth[thread] = current - 1
        bumps = semantics.bumps
        if bumps == "self":
            pending.add(thread)
        elif bumps == "target":
            pending.add(event.target)
        if etype_id in _BARRIER:
            arrived = self._barrier_open.setdefault(event.target, set())
            if thread in arrived:
                # Repeat arrival closes the generation: its members stop
                # carrying the blocked-arriver edge.
                waiting = self._barrier_waiting
                for member in arrived:
                    count = waiting.get(member, 0) - 1
                    if count > 0:
                        waiting[member] = count
                    else:
                        waiting.pop(member, None)
                arrived = self._barrier_open[event.target] = set()
            arrived.add(thread)
            self._barrier_waiting[thread] = (
                self._barrier_waiting.get(thread, 0) + 1
            )
        self.replicated += 1
        return REPLICATE, -1

    def stats(self) -> Dict[str, int]:
        """Return the taxonomy census."""
        return {
            "replicated": self.replicated,
            "routed": self.routed,
            "routed_clock": self.routed_clock,
        }

    # ------------------------------------------------------------------ #
    # Snapshot support (checkpoint/resume protocol)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, object]:
        """Return the classifier state as codec-encodable structures.

        The held-lock depths and pending-bump set decide the
        ROUTE-vs-ROUTE_CLOCK taxonomy of upcoming accesses, so a resumed
        coordinator must classify the suffix exactly as the original
        would have; the census rides along so partition statistics stay
        whole-stream accurate.
        """
        return {
            "depth": dict(self._depth),
            "pending": set(self._pending_bump),
            "read_held": {
                thread: set(locks)
                for thread, locks in self._read_held.items()
                if locks
            },
            "barrier_open": {
                barrier: set(threads)
                for barrier, threads in self._barrier_open.items()
                if threads
            },
            "census": (self.replicated, self.routed, self.routed_clock),
            "policy": self.policy.state_dict(),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`.

        ``read_held`` defaults to empty for checkpoints written before
        the rwlock vocabulary existed.
        """
        self._depth = dict(state["depth"])
        self._pending_bump = set(state["pending"])
        self._read_held = {
            thread: set(locks)
            for thread, locks in dict(state.get("read_held", {})).items()
        }
        self._barrier_open = {
            barrier: set(threads)
            for barrier, threads in dict(state.get("barrier_open", {})).items()
        }
        waiting: Dict[str, int] = {}
        for threads in self._barrier_open.values():
            for thread in threads:
                waiting[thread] = waiting.get(thread, 0) + 1
        self._barrier_waiting = waiting
        self.replicated, self.routed, self.routed_clock = state["census"]
        self.policy.load_state(state["policy"])
        # The memo is derived state: drop it so a restored policy (which
        # may answer differently than the pre-restore instance did) is
        # re-consulted on first sight of each variable.
        self._owner_memo = {}

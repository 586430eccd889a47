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
    clocks, WCP's ``P_t`` / ``H_t`` / per-lock state)
    flows through these events, so replicating them keeps each worker's
    ordering knowledge identical to the single-engine run.

``ROUTE`` -- plain accesses
    A read/write performed while its thread holds no lock affects only the
    per-variable access history, never the clocks.  It is delivered solely
    to the shard that owns the variable (:func:`owner_of`), which
    race-checks and records it exactly once.

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
    (HB verdicts never need them; the clock lag is then
    confined to components other shards cannot observe).

Because all accesses of one variable land on one shard, that shard's
history for the variable is complete and its race verdicts coincide with
the single engine's; because the clock-relevant event stream is replicated
in full order, every shard's clocks agree (the shard-boundary protocol's
cross-shard agreement check makes this observable).

A variable's owner is the crc32 of its UTF-8 name modulo the shard count
(:func:`owner_of`): a pure function of the name, the same in every
process, run and machine, so routing needs no checkpoint state.
"""

from __future__ import annotations

import zlib
from typing import Dict, Tuple

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


def owner_of(variable: str, shards: int) -> int:
    """The shard that owns ``variable``: stable crc32, not PYTHONHASHSEED."""
    return zlib.crc32(variable.encode("utf-8")) % shards


class StreamPartitioner:
    """Stateful per-stream classifier applying the event taxonomy.

    Tracks each thread's held-lock depth (the only state the taxonomy
    needs) and counts how many events fell into each class, which the
    benchmarks use to report the replication overhead -- the quantity that
    bounds the achievable multi-core speedup.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("a partition needs at least one shard")
        self.shards = shards
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
        #: Routing memo: variable -> owning shard, filled on first sight,
        #: so the coordinator's per-event routing is one table lookup
        #: instead of re-hashing the name.
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
                owner = memo[event.target] = owner_of(
                    event.target, self.shards
                )
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

"""Djit+-style happens-before vector-clock race detector.

Happens-before (Definition 1) orders (i) events of the same thread in
program order and (ii) a release of a lock before every later acquire of
the same lock.  Fork/join events additionally order the forking event
before the child's events and the child's events before the join.

The detector keeps one vector clock ``C_t`` per thread and one ``L_l`` per
lock; an event's timestamp is the value of its thread's clock right after
processing it.  Two events are HB-ordered exactly when their timestamps are
pointwise ordered, so races are found with the same per-variable access
history used by the WCP detector.

The local component ``C_t(t)`` is incremented after every event the event
registry marks as bumping (:mod:`repro.trace.semantics`: release-like
events and fork bump their own thread, join bumps the joined child),
deferred to just before the bumped thread's next event, so that distinct
synchronization intervals get distinct local times; this matches the
standard Djit+ formulation and keeps the clock comparison exact -- the
timestamp observed right after processing an event is that event's HB time.

Hot-path engineering: :meth:`HBDetector.process_batch` is the
implementation (``process`` is a one-event batch), with the prologue and
the four hot kinds inline; per-thread state is a flat list indexed by
interned tids (see :class:`~repro.vectorclock.registry.ThreadRegistry`),
clocks are list-backed :class:`~repro.vectorclock.dense.DenseClock`\\ s,
and each thread keeps a *frozen snapshot* of its clock that is shared with the
access history across consecutive accesses and invalidated only by
synchronization events -- so a run of accesses between two sync operations
costs one clock copy in total, and (because HB timestamps satisfy the
history's exactness contract unconditionally) the per-access race check is
an O(1) epoch comparison in the common case.

Compiled kernel: Algorithm 1 keeps exactly these clocks (its ``H_t``,
with component ``t`` equal to ``N_t``, and ``H_l``), so with the cffi
kernels this detector runs each block in one C call of the WCP kernel's
HB mode (:mod:`repro.core.wcp_compiled`): every kind -- acquire,
release, fork, join, the access history, rwlocks (``_read_held`` and
``_read_rel``), barriers (``_barriers`` and ``_barrier_waiting``) and
wait/notify (``_notify_clocks``) -- with no Rule (a), Rule (b),
sections or logs, and the frozen snapshot cached in C.  It shares WCP's
lifecycle (:class:`~repro.core.wcp_compiled.CompiledPass`): the kernel
starts at the pass's first block when that block has at least
``_KERNEL_MIN_ROWS`` rows and runs the whole pass; ``mark_foreign``
hands over for good -- one transcription into those fields, ``_clocks``,
``_pending``, ``_snap``, ``_lock_clocks`` and the history -- to
:meth:`HBDetector.process_batch`, which stays the specification.  While
it is live, and after a ``finish`` that leaves the state in C,
``state_snapshot``, ``sync_clock_state`` and pickling transcribe first.
A pending restore and ``REPRO_CLOCK_KERNEL=python`` never start it.

Thread-local access elision: on a complete trace the detector reads the
trace's :class:`~repro.trace.trace.ThreadCensus`, and an access to a
variable that only one thread reads or writes runs the per-event
prologue (intern, the deferred bump, the barrier re-join) and then stops
-- no snapshot copy, no access history.
Such a variable has no conflicting pair and accesses move no HB clock, so
races, clocks and ``timestamps()`` are unchanged.  ``local_accesses``
counts the skipped accesses; stream contexts, shards, serve and a pending
restore take no census, and snapshots carry the local-variable set.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro.core.detector import Detector
from repro.core.history import AccessHistory, VariableHistory
from repro.core.races import RaceReport
from repro.core.snapshot import adopt_registry_names, pack_state, unpack_for
from repro.core.wcp_compiled import CompiledPass
from repro.trace.columns import as_block
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.vectorclock.codec import encode_clock
from repro.vectorclock.dense import DenseClock
from repro.vectorclock.registry import ThreadRegistry


class HBDetector(CompiledPass, Detector):
    """Linear-time, un-windowed happens-before race detector."""

    name = "HB"

    #: The compiled kernel runs in its HB mode (see the module docstring).
    _hb_kernel = True

    #: HB clocks move only on synchronization events, so the sharded
    #: engine's replicate-sync / route-accesses split is exact for HB and
    #: foreign accesses need not even be transported for it.
    shardable = True

    #: Per-thread/per-lock clocks plus the access history: all bounded,
    #: all incrementally maintained, so snapshots are supported in full.
    supports_snapshot = True
    snapshot_version = 4

    def reset(self, trace: Trace) -> None:
        self._trace = trace
        self._new_report(trace)
        registry = getattr(trace, "registry", None)
        self._registry: ThreadRegistry = (
            registry if registry is not None else ThreadRegistry()
        )
        # Per-thread state indexed by tid (None = not initialised).
        self._clocks: List[object] = []
        # Local-clock increments are deferred to the thread's next event so
        # that the clock observed right after an event is its timestamp.
        self._pending: List[bool] = []
        # Frozen per-thread snapshot shared with the access history; None
        # after any mutation of the live clock.
        self._snap: List[object] = []
        self._lock_clocks: Dict[str, object] = {}
        # Joined clocks of read-mode rwlock releases per lock, consumed and
        # cleared by the next write-acquire (read sections stay unordered).
        self._read_rel: Dict[str, object] = {}
        # Joined clocks of every notify per monitor (never cleared).
        self._notify_clocks: Dict[str, object] = {}
        # Per-barrier generation state:
        # [accumulator clock, participant tids, accumulator version].
        self._barriers: Dict[str, list] = {}
        # tid -> {barrier: accumulator version already merged} while the
        # thread has an outstanding arrival in a still-open generation: a
        # real barrier keeps it blocked until every party arrives, so its
        # subsequent events re-join the grown accumulator (version-gated).
        self._barrier_waiting: Dict[int, Dict[str, int]] = {}
        # Per-thread set of rwlocks currently held in read mode.
        self._read_held: List[Optional[set]] = []
        self._history = AccessHistory()
        #: Variables only one thread accesses (census); their accesses
        #: skip the race check.
        census = self._thread_census(trace)
        self._local_variables: FrozenSet[str] = (
            census.local_variables if census is not None else frozenset()
        )
        self._local_accesses = 0
        intern = self._registry.intern
        for thread in trace.threads:
            self._ensure_thread(intern(thread))
        self._arm_kernel()

    def _ensure_thread(self, tid: int):
        clocks = self._clocks
        if tid >= len(clocks):
            grow = tid + 1 - len(clocks)
            clocks.extend([None] * grow)
            self._pending.extend([False] * grow)
            self._snap.extend([None] * grow)
            self._read_held.extend([None] * grow)
        clock = clocks[tid]
        if clock is None:
            clock = clocks[tid] = DenseClock.single(tid, 1)
            self._read_held[tid] = set()
        return clock

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #

    def process(self, event: Event) -> None:
        """Process one event: a one-event :meth:`process_batch`."""
        self.process_batch((event,))

    def process_batch(self, events: Sequence[Event]) -> None:
        """The detector: prologue and hot kinds inline, rare kinds by method.

        Runs over the columns of ``events`` (a
        :class:`~repro.trace.columns.ColumnBlock`; any other sequence
        goes through :func:`~repro.trace.columns.as_block`) and builds an
        :class:`Event` only for a checked access or a rare kind.
        Per-thread lists, lock clocks and the history are bound once per
        batch (a pass only grows or mutates them in place).  Each row
        runs the prologue (initialise, the deferred bump, the barrier
        re-join) inline; reads, writes, acquires and releases are handled
        here (an access to a thread-local variable stops after the
        prologue), every other kind by its method in :attr:`_RARE`.
        """
        block = self._run_kernel(as_block(events, self._registry))
        if block is None:
            return
        tids, ops = block.columns()
        optable = block.table.ops
        row = block.row
        clocks = self._clocks
        pending = self._pending
        snaps = self._snap
        lock_clocks = self._lock_clocks
        barrier_waiting = self._barrier_waiting
        local_variables = self._local_variables
        local_accesses = 0
        variables = self._history._variables
        report_add = self.report.add
        ensure = self._ensure_thread
        rare = self._RARE
        read = EventType.READ
        write = EventType.WRITE
        acquire = EventType.ACQUIRE
        release = EventType.RELEASE
        for j, tid, op in zip(count(), tids, ops):
            clock = clocks[tid] if tid < len(clocks) else None
            if clock is None:
                clock = ensure(tid)
            if pending[tid]:
                clock.increment(tid)
                pending[tid] = False
                snaps[tid] = None
            if barrier_waiting:
                waiting = barrier_waiting.get(tid)
                if waiting:
                    self._join_open_barriers(tid, clock, waiting)
            etype, target = optable[op]
            if etype is read or etype is write:
                if target in local_variables:
                    local_accesses += 1
                    continue
                event = row(j)
                snap = snaps[tid]
                if snap is None:
                    snap = snaps[tid] = clock.copy()
                history = variables.get(target)
                if history is None:
                    history = variables[target] = VariableHistory()
                if etype is read:
                    racy = history.observe_read(event, snap, tid)
                else:
                    racy = history.observe_write(event, snap, tid)
                for earlier in racy:
                    report_add(earlier, event)
            elif etype is acquire:
                lock_clock = lock_clocks.get(target)
                if lock_clock is not None and clock.merge(lock_clock):
                    snaps[tid] = None
            elif etype is release:
                lock_clocks[target] = clock.copy()
                pending[tid] = True
            else:
                handler = rare.get(id(etype))
                if handler is not None:
                    handler(self, row(j), tid, clock)
                # BEGIN / END: no clock effect.
        self._local_accesses += local_accesses

    def finish(self) -> None:
        self._end_pass()
        self.report.stats["local_accesses"] = float(self._local_accesses)

    def _fork(self, event: Event, tid: int, clock) -> None:
        child_tid = self._registry.intern(event.target)
        child = self._ensure_thread(child_tid)
        child.merge(clock)
        child.assign(child_tid, max(child.get(child_tid), 1))
        self._snap[child_tid] = None
        self._pending[tid] = True

    def _join(self, event: Event, tid: int, clock) -> None:
        child_tid = self._registry.intern(event.target)
        child = self._ensure_thread(child_tid)
        clock.merge(child)
        clock.assign(tid, max(clock.get(tid), 1))
        self._snap[tid] = None
        # Any (unusual) child events after the join start a new interval.
        self._pending[child_tid] = True

    def _racq_r(self, event: Event, tid: int, clock) -> None:
        # Ordered after the last write-mode/mutex release only; read
        # sections do not order each other.
        lock_clock = self._lock_clocks.get(event.target)
        if lock_clock is not None and clock.merge(lock_clock):
            self._snap[tid] = None
        self._read_held[tid].add(event.target)

    def _racq_w(self, event: Event, tid: int, clock) -> None:
        # A mutex acquire that also waits for all published readers.
        lock_clock = self._lock_clocks.get(event.target)
        if lock_clock is not None and clock.merge(lock_clock):
            self._snap[tid] = None
        read_join = self._read_rel.pop(event.target, None)
        if read_join is not None and clock.merge(read_join):
            self._snap[tid] = None

    def _rrel(self, event: Event, tid: int, clock) -> None:
        lock = event.target
        if lock in self._read_held[tid]:
            # Read sections publish into the read accumulator (seen by
            # the next write-acquire), not into the lock clock.
            self._read_held[tid].discard(lock)
            read_join = self._read_rel.get(lock)
            if read_join is None:
                self._read_rel[lock] = clock.copy()
            else:
                read_join.merge(clock)
        else:
            self._lock_clocks[lock] = clock.copy()
        self._pending[tid] = True

    def _barrier(self, event: Event, tid: int, clock) -> None:
        """All-to-all join at each barrier generation (see WCP counterpart).

        A generation closes when some participant arrives again: every
        participant of the closed generation receives the accumulated join
        of all its arrival clocks, then a fresh generation starts with the
        repeat arriver.  Arrivals also merge the open generation's
        accumulator so far.  An arrival ends the thread's interval.
        """
        barrier = event.target
        entry = self._barriers.get(barrier)
        if entry is None:
            entry = self._barriers[barrier] = [None, set(), 0]
        participants = entry[1]
        if tid in participants:
            acc = entry[0]
            for member in participants:
                if self._clocks[member].merge(acc):
                    self._snap[member] = None
                waiting = self._barrier_waiting.get(member)
                if waiting is not None:
                    waiting.pop(barrier, None)
            entry[0] = None
            participants = entry[1] = set()
        acc = entry[0]
        if acc is not None and clock.merge(acc):
            self._snap[tid] = None
        if entry[0] is None:
            entry[0] = clock.copy()
        else:
            entry[0].merge(clock)
        participants.add(tid)
        entry[2] += 1
        self._barrier_waiting.setdefault(tid, {})[barrier] = entry[2]
        self._pending[tid] = True

    def _wait(self, event: Event, tid: int, clock) -> None:
        # Wake-side re-acquire plus the notify edge (the producer
        # emitted rel(m) at wait-start, the RVPredict desugaring).
        merged = False
        lock_clock = self._lock_clocks.get(event.target)
        if lock_clock is not None and clock.merge(lock_clock):
            merged = True
        notify = self._notify_clocks.get(event.target)
        if notify is not None and clock.merge(notify):
            merged = True
        if merged:
            self._snap[tid] = None

    def _notify(self, event: Event, tid: int, clock) -> None:
        notify = self._notify_clocks.get(event.target)
        if notify is None:
            self._notify_clocks[event.target] = clock.copy()
        else:
            notify.merge(clock)
        self._pending[tid] = True

    #: id(kind) -> the method handling it (the batch loop inlines the rest).
    _RARE = {
        id(EventType.FORK): _fork,
        id(EventType.JOIN): _join,
        id(EventType.RACQ_R): _racq_r,
        id(EventType.RACQ_W): _racq_w,
        id(EventType.RREL): _rrel,
        id(EventType.BARRIER): _barrier,
        id(EventType.WAIT): _wait,
        id(EventType.NOTIFY): _notify,
    }

    def _join_open_barriers(
        self, tid: int, clock, waiting: Dict[str, int]
    ) -> None:
        """Re-join the (grown) accumulator of each open generation.

        A thread with an outstanding arrival was really blocked until the
        generation completed, so every event it performs afterwards is
        ordered after all arrivals recorded so far -- also the ones that
        appear in the stream after its own (see the WCP counterpart).
        """
        for name, seen in waiting.items():
            entry = self._barriers.get(name)
            if entry is None or entry[2] == seen:
                continue
            waiting[name] = entry[2]
            if entry[0] is not None and clock.merge(entry[0]):
                self._snap[tid] = None

    def mark_foreign(self, variable: str) -> None:
        """Drop ``variable``'s race checks; its accesses still apply a
        deferred bump, which must advance on every shard alike."""
        self._hand_over("mark_foreign")
        self._history.mark_foreign(variable)

    # ------------------------------------------------------------------ #
    # Snapshot protocol (checkpoint/resume, sharded worker restore)
    # ------------------------------------------------------------------ #

    def state_snapshot(self) -> bytes:
        self._sync()
        return pack_state(
            type(self).__name__, self.snapshot_version,
            self.snapshot_config(), self._state_dict(),
        )

    def restore_state(self, blob: bytes) -> None:
        if self._report is None:
            raise RuntimeError(
                "restore_state() requires reset() first (the reset binds "
                "the pass context and its shared thread registry)"
            )
        state = unpack_for(self).unpack(blob)
        adopt_registry_names(self._registry, state["names"])
        self._arm_kernel("restore")  # a restored pass stays in Python
        self._restore_dict(state)
        self.restore_pending = False

    def _state_dict(self) -> dict:
        """The codec-encodable state :meth:`state_snapshot` packs."""
        return {
            "names": self._registry.names(),
            "clocks": list(self._clocks),
            "pending": list(self._pending),
            "lock_clocks": dict(self._lock_clocks),
            "read_rel": dict(self._read_rel),
            "notify": dict(self._notify_clocks),
            "barriers": {
                barrier: (entry[0], set(entry[1]), entry[2])
                for barrier, entry in self._barriers.items()
            },
            "barrier_waiting": {
                tid: dict(waiting)
                for tid, waiting in self._barrier_waiting.items()
                if waiting
            },
            "read_held": [
                None if held is None else set(held)
                for held in self._read_held
            ],
            "history": self._history.state_dict(),
            "report": self.report.state_dict(),
            "local_variables": self._local_variables,
            "local_accesses": self._local_accesses,
        }

    def _restore_dict(self, state: dict) -> None:
        """Inverse of :meth:`_state_dict` (names already adopted)."""
        self._clocks = list(state["clocks"])
        self._pending = list(state["pending"])
        # Frozen per-thread snapshots are a sharing optimisation; the next
        # access of each thread takes a fresh copy.
        self._snap = [None] * len(self._clocks)
        self._lock_clocks = dict(state["lock_clocks"])
        self._read_rel = dict(state["read_rel"])
        self._notify_clocks = dict(state["notify"])
        self._barriers = {
            barrier: [acc, set(participants), version]
            for barrier, (acc, participants, version)
            in state["barriers"].items()
        }
        self._barrier_waiting = {
            tid: dict(waiting)
            for tid, waiting in state["barrier_waiting"].items()
        }
        self._read_held = [
            None if held is None else set(held)
            for held in state["read_held"]
        ]
        self._history = AccessHistory.from_state(state["history"])
        self._report = RaceReport.from_state(state["report"])
        self._local_variables = frozenset(state["local_variables"])
        self._local_accesses = state["local_accesses"]

    def sync_clock_state(self) -> dict:
        """Serialized per-thread HB clocks (shard-boundary protocol).

        Deferred local increments (pending after release/fork) are applied
        to the exported copies so the state is a pure function of the
        synchronization skeleton, which every shard sees in full.
        """
        self._sync()
        state = {}
        name_of = self._registry.name_of
        for tid, clock in enumerate(self._clocks):
            if clock is None:
                continue
            snap = clock.copy()
            if self._pending[tid]:
                snap.increment(tid)
            state[name_of(tid)] = encode_clock(snap)
        return state

    def timestamps(self, trace: Trace) -> list:
        """Run over ``trace`` and return the HB timestamp of every event.

        Timestamps are converted from the internal tid-keyed clocks to the
        public name-keyed :class:`~repro.vectorclock.clock.VectorClock`.
        Used by tests to cross-validate against
        :class:`repro.core.closure.HBClosure`.
        """
        self.reset(trace)
        clocks = []
        to_public = self._registry.to_public
        intern = self._registry.intern
        for event in trace:
            self.process(event)
            clocks.append(to_public(self._clock_h(intern(event.thread))))
        self.finish()
        return clocks

    def _clock_h(self, tid: int):
        """Thread ``tid``'s clock as it stands (read from C while the
        kernel holds the state); the caller must not mutate it."""
        kernel = self._kernel
        return self._clocks[tid] if kernel is None else kernel.clock_c(tid)

"""FastTrack: epoch-optimised happens-before race detection.

FastTrack (Flanagan & Freund, PLDI 2009) observes that for most variables
the last write -- and usually the last read -- is totally ordered with all
later accesses, so a full vector clock per variable is unnecessary: a
single *epoch* ``c@t`` suffices, and the common-case check is O(1) instead
of O(T).

The WCP paper cites epoch optimisations as future work for its own
algorithm (Section 6); we provide the HB variant so the repository can
quantify the time/memory trade-off (see ``benchmarks/bench_ablation_epochs``),
and the shared access history (:mod:`repro.core.history`) now applies the
same idea to the WCP detector's race checks.

The detector reports the same HB races as :class:`repro.hb.hb.HBDetector`;
the per-variable state is:

* ``write``: epoch of the last write (plus the writing event, so that race
  pairs can be attributed to program locations);
* ``reads``: either a single read epoch (shared-exclusive mode) or a map
  from thread to its last read (read-shared mode), mirroring FastTrack's
  adaptive representation.

Epochs, clock components and the read map are keyed by interned integer
tids (:class:`~repro.vectorclock.registry.ThreadRegistry`); clocks are
array-backed :class:`~repro.vectorclock.dense.DenseClock`\\ s.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.detector import Detector
from repro.core.races import RaceReport
from repro.core.snapshot import adopt_registry_names, pack_state, unpack_for
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.vectorclock.codec import encode_clock
from repro.vectorclock.dense import DenseClock
from repro.vectorclock.epoch import Epoch
from repro.vectorclock.registry import ThreadRegistry


class _VariableState:
    """Per-variable FastTrack metadata."""

    __slots__ = ("write_epoch", "write_event", "read_epoch", "read_event", "read_map")

    def __init__(self) -> None:
        self.write_epoch = Epoch.bottom()
        self.write_event: Optional[Event] = None
        self.read_epoch = Epoch.bottom()
        self.read_event: Optional[Event] = None
        # tid -> (time, event); non-empty only in read-shared mode.
        self.read_map: Optional[Dict[int, Tuple[int, Event]]] = None

    def in_shared_mode(self) -> bool:
        return self.read_map is not None


class FastTrackDetector(Detector):
    """Epoch-optimised HB detector (FastTrack)."""

    name = "FastTrack"

    #: Like HB, FastTrack's clocks move only on synchronization events, so
    #: sharding by variable with a replicated sync skeleton is exact.
    shardable = True

    #: Epoch-compressed per-variable state is the smallest in the library;
    #: snapshots are supported in full.
    supports_snapshot = True
    snapshot_version = 3

    def reset(self, trace: Trace) -> None:
        self._trace = trace
        self._new_report(trace)
        registry = getattr(trace, "registry", None)
        self._trust_tids = registry is not None
        self._registry: ThreadRegistry = (
            registry if registry is not None else ThreadRegistry()
        )
        self._clocks: List[object] = []
        self._lock_clocks: Dict[str, object] = {}
        self._variables: Dict[str, _VariableState] = {}
        # Extended-vocabulary state (mirrors HBDetector; see hb.py).
        self._read_rel: Dict[str, object] = {}
        self._notify: Dict[str, object] = {}
        self._barriers: Dict[str, list] = {}
        self._barrier_waiting: Dict[int, Dict[str, int]] = {}
        self._read_held: List[Optional[set]] = []
        #: Number of accesses handled entirely with O(1) epoch comparisons.
        self.fast_path_hits = 0
        #: Number of accesses that needed a vector-clock comparison.
        self.slow_path_hits = 0
        intern = self._registry.intern
        for thread in trace.threads:
            self._ensure_thread(intern(thread))

    def _ensure_thread(self, tid: int):
        clocks = self._clocks
        if tid >= len(clocks):
            grow = tid + 1 - len(clocks)
            clocks.extend([None] * grow)
            self._read_held.extend([None] * grow)
        clock = clocks[tid]
        if clock is None:
            clock = clocks[tid] = DenseClock.single(tid, 1)
            self._read_held[tid] = set()
        return clock

    def _state(self, variable: str) -> _VariableState:
        state = self._variables.get(variable)
        if state is None:
            state = _VariableState()
            self._variables[variable] = state
        return state

    # ------------------------------------------------------------------ #
    # Event handling
    # ------------------------------------------------------------------ #

    def process(self, event: Event) -> None:
        tid = event.tid
        if tid is None or not self._trust_tids:
            tid = self._registry.intern(event.thread)
        clock = (
            self._clocks[tid]
            if tid < len(self._clocks) and self._clocks[tid] is not None
            else self._ensure_thread(tid)
        )
        waiting = self._barrier_waiting.get(tid)
        if waiting:
            self._join_open_barriers(tid, clock, waiting)
        etype = event.etype

        if etype is EventType.READ:
            self._read(event, tid, clock)
        elif etype is EventType.WRITE:
            self._write(event, tid, clock)
        elif etype is EventType.ACQUIRE:
            lock_clock = self._lock_clocks.get(event.lock)
            if lock_clock is not None:
                clock.merge(lock_clock)
        elif etype is EventType.RELEASE:
            self._lock_clocks[event.lock] = clock.copy()
            clock.increment(tid)
        elif etype is EventType.FORK:
            child = self._ensure_thread(self._registry.intern(event.other_thread))
            child.merge(clock)
            clock.increment(tid)
        elif etype is EventType.JOIN:
            clock.merge(
                self._ensure_thread(self._registry.intern(event.other_thread))
            )
        elif etype is EventType.RACQ_R:
            lock_clock = self._lock_clocks.get(event.lock)
            if lock_clock is not None:
                clock.merge(lock_clock)
            self._read_held[tid].add(event.lock)
        elif etype is EventType.RACQ_W:
            lock_clock = self._lock_clocks.get(event.lock)
            if lock_clock is not None:
                clock.merge(lock_clock)
            read_join = self._read_rel.pop(event.lock, None)
            if read_join is not None:
                clock.merge(read_join)
        elif etype is EventType.RREL:
            if event.lock in self._read_held[tid]:
                self._read_held[tid].discard(event.lock)
                read_join = self._read_rel.get(event.lock)
                if read_join is None:
                    self._read_rel[event.lock] = clock.copy()
                else:
                    read_join.merge(clock)
            else:
                self._lock_clocks[event.lock] = clock.copy()
            clock.increment(tid)
        elif etype is EventType.BARRIER:
            self._barrier_arrive(event.barrier, tid, clock)
            clock.increment(tid)
        elif etype is EventType.WAIT:
            lock_clock = self._lock_clocks.get(event.lock)
            if lock_clock is not None:
                clock.merge(lock_clock)
            notify = self._notify.get(event.lock)
            if notify is not None:
                clock.merge(notify)
        elif etype is EventType.NOTIFY:
            notify = self._notify.get(event.lock)
            if notify is None:
                self._notify[event.lock] = clock.copy()
            else:
                notify.merge(clock)
            clock.increment(tid)

    def _barrier_arrive(self, barrier: str, tid: int, clock) -> None:
        """All-to-all join at each barrier generation (see hb.py)."""
        entry = self._barriers.get(barrier)
        if entry is None:
            entry = self._barriers[barrier] = [None, set(), 0]
        participants = entry[1]
        if tid in participants:
            acc = entry[0]
            for member in participants:
                self._clocks[member].merge(acc)
                waiting = self._barrier_waiting.get(member)
                if waiting is not None:
                    waiting.pop(barrier, None)
            entry[0] = None
            participants = entry[1] = set()
        acc = entry[0]
        if acc is not None:
            clock.merge(acc)
        if entry[0] is None:
            entry[0] = clock.copy()
        else:
            entry[0].merge(clock)
        participants.add(tid)
        entry[2] += 1
        self._barrier_waiting.setdefault(tid, {})[barrier] = entry[2]

    def _join_open_barriers(
        self, tid: int, clock, waiting: Dict[str, int]
    ) -> None:
        """Re-join the grown accumulator of each open generation (see hb.py)."""
        for name, seen in waiting.items():
            entry = self._barriers.get(name)
            if entry is None or entry[2] == seen:
                continue
            waiting[name] = entry[2]
            if entry[0] is not None:
                clock.merge(entry[0])

    # ------------------------------------------------------------------ #
    # FastTrack access rules
    # ------------------------------------------------------------------ #

    def _read(self, event: Event, tid: int, clock) -> None:
        state = self._state(event.variable)

        # Same-epoch fast path: repeated read by the same thread interval.
        if state.read_epoch.same_thread(tid) and (
            state.read_epoch.time == clock.get(tid)
        ):
            self.fast_path_hits += 1
            return

        # write-read race check.
        if not state.write_epoch.happens_before(clock):
            if state.write_event is not None:
                self.report.add(state.write_event, event)
        self.fast_path_hits += 1

        if state.in_shared_mode():
            state.read_map[tid] = (clock.get(tid), event)  # type: ignore[index]
            return

        if state.read_epoch.happens_before(clock):
            # Exclusive mode: the previous read is ordered before this one.
            state.read_epoch = Epoch(tid, clock.get(tid))
            state.read_event = event
        else:
            # Switch to read-shared mode.
            self.slow_path_hits += 1
            state.read_map = {}
            if state.read_event is not None and state.read_epoch.thread is not None:
                state.read_map[state.read_epoch.thread] = (
                    state.read_epoch.time, state.read_event
                )
            state.read_map[tid] = (clock.get(tid), event)

    def _write(self, event: Event, tid: int, clock) -> None:
        state = self._state(event.variable)

        # Same-epoch fast path.
        if state.write_epoch.same_thread(tid) and (
            state.write_epoch.time == clock.get(tid)
        ):
            self.fast_path_hits += 1
            return

        # write-write race check.
        if not state.write_epoch.happens_before(clock):
            if state.write_event is not None:
                self.report.add(state.write_event, event)

        # read-write race check.
        if state.in_shared_mode():
            self.slow_path_hits += 1
            for reader, (time, read_event) in state.read_map.items():  # type: ignore[union-attr]
                if reader != tid and time > clock.get(reader):
                    self.report.add(read_event, event)
            state.read_map = None
            state.read_epoch = Epoch.bottom()
            state.read_event = None
        else:
            self.fast_path_hits += 1
            if not state.read_epoch.happens_before(clock):
                if state.read_event is not None:
                    self.report.add(state.read_event, event)

        state.write_epoch = Epoch(tid, clock.get(tid))
        state.write_event = event

    # ------------------------------------------------------------------ #
    # Snapshot protocol (checkpoint/resume, sharded worker restore)
    # ------------------------------------------------------------------ #

    def state_snapshot(self) -> bytes:
        report = self.report  # raises before reset()
        variables = {}
        for variable, var_state in self._variables.items():
            variables[variable] = {
                "write_epoch": var_state.write_epoch,
                "write_event": var_state.write_event,
                "read_epoch": var_state.read_epoch,
                "read_event": var_state.read_event,
                "read_map": (
                    dict(var_state.read_map)
                    if var_state.read_map is not None else None
                ),
            }
        state = {
            "names": self._registry.names(),
            "clocks": list(self._clocks),
            "lock_clocks": dict(self._lock_clocks),
            "variables": variables,
            "read_rel": dict(self._read_rel),
            "notify": dict(self._notify),
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
            "counters": (self.fast_path_hits, self.slow_path_hits),
            "report": report.state_dict(),
        }
        return pack_state(
            type(self).__name__, self.snapshot_version,
            self.snapshot_config(), state,
        )

    def restore_state(self, blob: bytes) -> None:
        if self._report is None:
            raise RuntimeError(
                "restore_state() requires reset() first (the reset binds "
                "the pass context and its shared thread registry)"
            )
        state = unpack_for(self).unpack(blob)
        adopt_registry_names(self._registry, state["names"])
        self._clocks = list(state["clocks"])
        self._lock_clocks = dict(state["lock_clocks"])
        variables = {}
        for variable, entry in state["variables"].items():
            var_state = _VariableState()
            var_state.write_epoch = entry["write_epoch"]
            var_state.write_event = entry["write_event"]
            var_state.read_epoch = entry["read_epoch"]
            var_state.read_event = entry["read_event"]
            var_state.read_map = (
                dict(entry["read_map"])
                if entry["read_map"] is not None else None
            )
            variables[variable] = var_state
        self._variables = variables
        self._read_rel = dict(state["read_rel"])
        self._notify = dict(state["notify"])
        self._barriers = {
            barrier: [acc, set(participants), version]
            for barrier, (acc, participants, version)
            in state["barriers"].items()
        }
        self._barrier_waiting = {
            tid: dict(waiting)
            for tid, waiting in dict(state.get("barrier_waiting", {})).items()
        }
        self._read_held = [
            None if held is None else set(held)
            for held in state["read_held"]
        ]
        self.fast_path_hits, self.slow_path_hits = state["counters"]
        self._report = RaceReport.from_state(state["report"])
        self.restore_pending = False

    def sync_clock_state(self) -> dict:
        """Serialized per-thread clocks (shard-boundary protocol).

        FastTrack increments eagerly at release/fork, so the live clocks
        are already a pure function of the synchronization skeleton.
        """
        state = {}
        name_of = self._registry.name_of
        for tid, clock in enumerate(self._clocks):
            if clock is not None:
                state[name_of(tid)] = encode_clock(clock)
        return state

    def finish(self) -> None:
        total = self.fast_path_hits + self.slow_path_hits
        self.report.stats["fast_path_hits"] = float(self.fast_path_hits)
        self.report.stats["slow_path_hits"] = float(self.slow_path_hits)
        if total:
            self.report.stats["fast_path_ratio"] = self.fast_path_hits / float(total)

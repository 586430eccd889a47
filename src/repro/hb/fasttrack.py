"""FastTrack: epoch-optimised happens-before race detection.

FastTrack (Flanagan & Freund, PLDI 2009) observes that for most variables
the last write -- and usually the last read -- is totally ordered with all
later accesses, so a full vector clock per variable is unnecessary: a
single *epoch* ``c@t`` suffices, and the common-case check is O(1) instead
of O(T).

The WCP paper cites epoch optimisations as future work for its own
algorithm (Section 6); we provide the HB variant so the repository can
quantify the time/memory trade-off
(``test_fasttrack_epochs_vs_vector_clocks`` in
``benchmarks/bench_ablations.py``), and the shared access history
(:mod:`repro.core.history`) now applies the same idea to the WCP
detector's race checks.

Synchronization is HB's: :class:`FastTrackDetector` subclasses
:class:`repro.hb.hb.HBDetector`, whose clocks, deferred local bumps,
lock/fork/join/rwlock/barrier/wait/notify rules and snapshot layout it
inherits unchanged.  It replaces only the per-access race check -- the
``_access`` hook of HB's batch loop -- so it reports the same HB races;
the per-variable state is:

* ``write``: epoch of the last write (plus the writing event, so that race
  pairs can be attributed to program locations);
* ``reads``: either a single read epoch (shared-exclusive mode) or a map
  from thread to its last read (read-shared mode), mirroring FastTrack's
  adaptive representation.

Epochs, clock components and the read map are keyed by interned integer
tids (:class:`~repro.vectorclock.registry.ThreadRegistry`).

HB's thread-local access elision applies unchanged: on a complete trace
an access to a variable only one thread touches never reaches the hook,
keeps no ``_VariableState`` and is counted in ``local_accesses`` instead
of ``fast_path_hits`` (such a variable never enters read-shared mode, so
``slow_path_hits`` is unchanged).  A variable another shard owns
(:meth:`FastTrackDetector.mark_foreign`) stops at the top of the hook the
same way: its accesses keep HB's clock effects and no state, and a
snapshot writes its entry as None.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.hb.hb import HBDetector
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.vectorclock.epoch import Epoch


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


class FastTrackDetector(HBDetector):
    """Epoch-optimised HB detector (FastTrack)."""

    name = "FastTrack"

    #: HB's state layout plus the per-variable epochs.
    snapshot_version = 5

    def reset(self, trace: Trace) -> None:
        super().reset(trace)
        self._variables: Dict[str, _VariableState] = {}
        #: Variables another shard owns (:meth:`mark_foreign`).
        self._foreign: Set[str] = set()
        #: Number of checked accesses (thread-local ones are not checked)
        #: handled entirely with O(1) epoch comparisons.
        self.fast_path_hits = 0
        #: Number of accesses that needed a vector-clock comparison.
        self.slow_path_hits = 0

    def _state(self, variable: str) -> _VariableState:
        state = self._variables.get(variable)
        if state is None:
            state = _VariableState()
            self._variables[variable] = state
        return state

    def mark_foreign(self, variable: str) -> None:
        """Skip ``variable`` in the access hook: another shard owns it."""
        self._foreign.add(variable)

    def _access(self, event: Event, tid: int, clock) -> None:
        """The access hook of HB's batch loop: FastTrack's epoch rules."""
        if event.target in self._foreign:
            return
        if event.etype is EventType.READ:
            self._read(event, tid, clock)
        else:
            self._write(event, tid, clock)

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
    # Snapshot protocol: HB's state plus the per-variable epochs
    # ------------------------------------------------------------------ #

    def _state_dict(self) -> dict:
        state = super()._state_dict()
        state["variables"] = {
            variable: {
                "write_epoch": var_state.write_epoch,
                "write_event": var_state.write_event,
                "read_epoch": var_state.read_epoch,
                "read_event": var_state.read_event,
                "read_map": (
                    dict(var_state.read_map)
                    if var_state.read_map is not None else None
                ),
            }
            for variable, var_state in self._variables.items()
        }
        # A foreign variable keeps no state; its entry is None (sorted:
        # equal states give equal bytes).
        state["variables"].update(dict.fromkeys(sorted(self._foreign)))
        state["counters"] = (self.fast_path_hits, self.slow_path_hits)
        return state

    def _restore_dict(self, state: dict) -> None:
        super()._restore_dict(state)
        variables = {}
        self._foreign = set()
        for variable, entry in state["variables"].items():
            if entry is None:
                self._foreign.add(variable)
                continue
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
        self.fast_path_hits, self.slow_path_hits = state["counters"]

    def finish(self) -> None:
        super().finish()
        total = self.fast_path_hits + self.slow_path_hits
        self.report.stats["fast_path_hits"] = float(self.fast_path_hits)
        self.report.stats["slow_path_hits"] = float(self.slow_path_hits)
        if total:
            self.report.stats["fast_path_ratio"] = self.fast_path_hits / float(total)

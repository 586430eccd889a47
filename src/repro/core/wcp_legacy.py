"""The pre-optimisation WCP detector, kept frozen for differential testing.

This is the string-keyed, sparse-``VectorClock`` implementation of
Algorithm 1 exactly as it stood before the hot-path overhaul that
introduced interned thread ids, :class:`~repro.vectorclock.dense.DenseClock`
and the epoch-accelerated access history (see :mod:`repro.core.wcp` for
the current implementation and the full algorithmic commentary).

It exists for two reasons:

* **differential testing** -- the parity suite
  (``tests/test_backend_parity.py``) runs random traces through this
  detector and the optimised one and asserts identical race reports,
  timestamps and queue statistics, so any behavioural drift in the hot
  path is caught immediately;
* **benchmark baseline** -- ``benchmarks/bench_hotpath.py`` measures the
  optimised detector's events/sec against this implementation to produce
  the checked-in ``BENCH_hotpath.json`` speedup trajectory.

Do not add features here; it intentionally allocates a fresh ``C_t`` per
event, keys every per-thread structure by the raw string identifier, and
re-derives ``_clock_c`` inside the Rule (b) cursor walk, because that is
the cost profile being measured against.  The pre-overhaul access history
is frozen here as well (:class:`_LegacyAccessHistory`): sharing the live,
epoch-accelerated :mod:`repro.core.history` would make the differential
blind to regressions in the rewritten history itself.

The one change made since it was frozen is semantic, not a speed-up:
fork ends the parent's local interval and join the child's (the event
registry's ``bumps`` rule), exactly as in the current detector.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.core.detector import Detector
from repro.core.races import RaceReport
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.vectorclock.clock import VectorClock

# (event, clock) of the latest access at one (thread, location).
_Cell = Tuple[Event, VectorClock]


class _LegacyVariableHistory:
    """Pre-overhaul access history for a single shared variable (frozen)."""

    __slots__ = ("read_join", "write_join", "reads", "writes")

    def __init__(self) -> None:
        self.read_join = VectorClock.bottom()
        self.write_join = VectorClock.bottom()
        # thread -> location -> (event, clock)
        self.reads: Dict[str, Dict[str, _Cell]] = {}
        self.writes: Dict[str, Dict[str, _Cell]] = {}

    def record_read(self, event: Event, clock: VectorClock) -> None:
        self.read_join.join(clock)
        cells = self.reads.setdefault(event.thread, {})
        cells[event.location()] = (event, clock.copy())

    def record_write(self, event: Event, clock: VectorClock) -> None:
        self.write_join.join(clock)
        cells = self.writes.setdefault(event.thread, {})
        cells[event.location()] = (event, clock.copy())

    def _unordered_cells(
        self, cells: Dict[str, Dict[str, _Cell]], event: Event, clock: VectorClock
    ) -> List[Event]:
        racy = []
        for thread, by_loc in cells.items():
            if thread == event.thread:
                continue
            for prior_event, prior_clock in by_loc.values():
                if not prior_clock <= clock:
                    racy.append(prior_event)
        return racy

    def check_read(self, event: Event, clock: VectorClock) -> List[Event]:
        if self.write_join <= clock:
            return []
        return self._unordered_cells(self.writes, event, clock)

    def check_write(self, event: Event, clock: VectorClock) -> List[Event]:
        racy: List[Event] = []
        if not (self.write_join <= clock):
            racy.extend(self._unordered_cells(self.writes, event, clock))
        if not (self.read_join <= clock):
            racy.extend(self._unordered_cells(self.reads, event, clock))
        return racy


class _LegacyAccessHistory:
    """Pre-overhaul join-based access history (no epochs, copying records)."""

    def __init__(self) -> None:
        self._variables: Dict[str, _LegacyVariableHistory] = {}

    def _history(self, variable: str) -> _LegacyVariableHistory:
        history = self._variables.get(variable)
        if history is None:
            history = _LegacyVariableHistory()
            self._variables[variable] = history
        return history

    def observe(
        self,
        event: Event,
        clock: VectorClock,
        report: RaceReport,
        on_race: Optional[Callable[[Event, Event], None]] = None,
    ) -> int:
        history = self._history(event.variable)
        if event.is_read():
            racy = history.check_read(event, clock)
        else:
            racy = history.check_write(event, clock)
        for earlier in racy:
            report.add(earlier, event)
            if on_race is not None:
                on_race(earlier, event)
        if event.is_read():
            history.record_read(event, clock)
        else:
            history.record_write(event, clock)
        return len(racy)


class LegacyWCPDetector(Detector):
    """The pre-overhaul streaming WCP detector (Algorithm 1).

    Same parameters and observable behaviour as
    :class:`repro.core.wcp.WCPDetector`; see the module docstring for why
    it is kept.
    """

    name = "WCP-legacy"

    #: Frozen baseline: deliberately excluded from the snapshot protocol
    #: (no features are added here), so the engine refuses to checkpoint
    #: it with a capability error instead of a pickle traceback.
    supports_snapshot = False

    def __init__(
        self,
        track_queue_stats: bool = True,
        strict_pseudocode: bool = False,
        prune_queues: bool = True,
    ) -> None:
        super().__init__()
        self._track_queue_stats = track_queue_stats
        self._strict_pseudocode = strict_pseudocode
        self._prune_queues = prune_queues
        self._trace: Optional[Trace] = None

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #

    def reset(self, trace: Trace) -> None:
        self._trace = trace
        self._new_report(trace)
        self._threads: List[str] = trace.threads

        # Local clocks and thread clocks.
        self._nt: Dict[str, int] = {}
        self._pt: Dict[str, VectorClock] = {}
        self._ht: Dict[str, VectorClock] = {}
        self._prev_was_release: Dict[str, bool] = {}

        # Per-lock clocks.
        self._pl: Dict[str, VectorClock] = defaultdict(VectorClock.bottom)
        self._hl: Dict[str, VectorClock] = defaultdict(VectorClock.bottom)

        # Per (lock, variable) release-time joins for Rule (a), keyed by the
        # releasing thread.
        self._lr: Dict[Tuple[str, str], Dict[str, VectorClock]] = defaultdict(dict)
        self._lw: Dict[Tuple[str, str], Dict[str, VectorClock]] = defaultdict(dict)

        # Rule (b) state: per-lock shared log of critical sections.
        self._cs_log: Dict[str, Deque[list]] = defaultdict(deque)
        self._cs_base: Dict[str, int] = defaultdict(int)
        self._cursor: Dict[Tuple[str, str], int] = {}
        self._open_entry: Dict[Tuple[str, str], int] = {}

        # Per-thread stack of open critical sections:
        # (lock, variables read, variables written).
        self._open_sections: Dict[str, List[Tuple[str, Set[str], Set[str]]]] = (
            defaultdict(list)
        )

        self._history = _LegacyAccessHistory()
        self._queue_total = 0
        self._max_queue_total = 0

        self._releasers: Dict[str, Set[str]] = defaultdict(set)
        self._effective_prune = (
            self._prune_queues and getattr(trace, "is_complete", True)
        )
        if self._effective_prune:
            for event in trace:
                if event.is_release():
                    self._releasers[event.lock].add(event.thread)

        for thread in self._threads:
            self._init_thread(thread)

    def _init_thread(self, thread: str) -> None:
        if thread in self._nt:
            return
        self._nt[thread] = 1
        self._pt[thread] = VectorClock.bottom()
        self._ht[thread] = VectorClock.single(thread, 1)
        self._prev_was_release[thread] = False
        if thread not in self._threads:
            self._threads.append(thread)

    # ------------------------------------------------------------------ #
    # Clock helpers
    # ------------------------------------------------------------------ #

    def _clock_c(self, thread: str) -> VectorClock:
        """Return ``C_t = P_t[t := N_t]`` as a fresh clock."""
        return self._pt[thread].copy().assign(thread, self._nt[thread])

    def _maybe_increment(self, thread: str) -> None:
        """Increment ``N_t`` iff the previous event of ``t`` was a release."""
        if self._prev_was_release.get(thread):
            self._nt[thread] += 1
            self._ht[thread].assign(thread, self._nt[thread])
            self._prev_was_release[thread] = False

    def _bump_queue_total(self, delta: int) -> None:
        if not self._track_queue_stats:
            return
        self._queue_total += delta
        if self._queue_total > self._max_queue_total:
            self._max_queue_total = self._queue_total

    # ------------------------------------------------------------------ #
    # Event dispatch
    # ------------------------------------------------------------------ #

    def process(self, event: Event) -> None:
        thread = event.thread
        self._init_thread(thread)
        self._maybe_increment(thread)

        etype = event.etype
        if etype is EventType.ACQUIRE:
            self._acquire(event)
        elif etype is EventType.RELEASE:
            self._release(event)
        elif etype is EventType.READ:
            self._read(event)
        elif etype is EventType.WRITE:
            self._write(event)
        elif etype is EventType.FORK:
            self._fork(event)
        elif etype is EventType.JOIN:
            self._join(event)
        # BEGIN / END need no clock work.

        # Release and fork end this thread's local interval (a join ends
        # the child's; see _join).
        self._prev_was_release[thread] = (
            etype is EventType.RELEASE or etype is EventType.FORK
        )

    # ------------------------------------------------------------------ #
    # Algorithm 1 procedures
    # ------------------------------------------------------------------ #

    def _acquire(self, event: Event) -> None:
        thread, lock = event.thread, event.lock
        self._ht[thread].join(self._hl[lock])
        self._pt[thread].join(self._pl[lock])
        log = self._cs_log[lock]
        self._open_entry[(lock, thread)] = self._cs_base[lock] + len(log)
        log.append([self._clock_c(thread), None, thread])
        self._bump_queue_total(self._audience_size(lock, thread))
        self._open_sections[thread].append((lock, set(), set()))

    def _release(self, event: Event) -> None:
        thread, lock = event.thread, event.lock
        pt = self._pt[thread]

        log = self._cs_log[lock]
        base = self._cs_base[lock]
        cursor = max(self._cursor.get((lock, thread), 0), base)
        while cursor - base < len(log):
            acq_clock, release_time, owner = log[cursor - base]
            if owner == thread:
                cursor += 1
                continue
            if not (acq_clock <= self._clock_c(thread)):
                break
            if release_time is None:
                break
            pt.join(release_time)
            self._bump_queue_total(-2)
            cursor += 1
        self._cursor[(lock, thread)] = cursor

        reads: Set[str] = set()
        writes: Set[str] = set()
        stack = self._open_sections[thread]
        if stack and stack[-1][0] == lock:
            _, reads, writes = stack.pop()
        elif stack:
            for position in range(len(stack) - 1, -1, -1):
                if stack[position][0] == lock:
                    _, reads, writes = stack.pop(position)
                    break

        ht_full = self._ht[thread]
        for variable in reads:
            self._join_release_time(self._lr[(lock, variable)], thread, ht_full)
        for variable in writes:
            self._join_release_time(self._lw[(lock, variable)], thread, ht_full)

        self._hl[lock] = ht_full.copy()
        self._pl[lock] = pt.copy()

        open_index = self._open_entry.pop((lock, thread), None)
        if open_index is not None and open_index >= self._cs_base[lock]:
            log[open_index - self._cs_base[lock]][1] = ht_full.copy()
        self._bump_queue_total(self._audience_size(lock, thread))

        if self._effective_prune:
            self._reclaim(lock)

    def _audience_size(self, lock: str, thread: str) -> int:
        if self._effective_prune:
            audience = self._releasers.get(lock, ())
        else:
            audience = self._threads
        size = len(audience)
        return size - 1 if thread in audience else size

    def _reclaim(self, lock: str) -> None:
        log = self._cs_log[lock]
        base = self._cs_base[lock]
        releasers = self._releasers.get(lock, ())
        while log:
            _, release_time, owner = log[0]
            if release_time is None:
                break
            if any(
                consumer != owner
                and self._cursor.get((lock, consumer), 0) <= base
                for consumer in releasers
            ):
                break
            log.popleft()
            base += 1
        self._cs_base[lock] = base

    @staticmethod
    def _join_release_time(
        cell: Dict[str, VectorClock], thread: str, time: VectorClock
    ) -> None:
        existing = cell.get(thread)
        if existing is None:
            cell[thread] = time.copy()
        else:
            existing.join(time)

    def _join_rule_a(
        self, target: VectorClock, cell: Dict[str, VectorClock], thread: str
    ) -> None:
        for releasing_thread, clock in cell.items():
            if releasing_thread == thread and not self._strict_pseudocode:
                continue
            target.join(clock)

    def _held_locks(self, thread: str) -> List[str]:
        return [section[0] for section in self._open_sections[thread]]

    def _note_access(self, thread: str, variable: str, is_write: bool) -> None:
        for _, reads, writes in self._open_sections[thread]:
            (writes if is_write else reads).add(variable)

    def _read(self, event: Event) -> None:
        thread, variable = event.thread, event.variable
        pt = self._pt[thread]
        for lock in self._held_locks(thread):
            self._join_rule_a(pt, self._lw[(lock, variable)], thread)
        self._note_access(thread, variable, is_write=False)
        self._check_access(event)

    def _write(self, event: Event) -> None:
        thread, variable = event.thread, event.variable
        pt = self._pt[thread]
        for lock in self._held_locks(thread):
            self._join_rule_a(pt, self._lr[(lock, variable)], thread)
            self._join_rule_a(pt, self._lw[(lock, variable)], thread)
        self._note_access(thread, variable, is_write=True)
        self._check_access(event)

    def _fork(self, event: Event) -> None:
        parent, child = event.thread, event.other_thread
        self._init_thread(child)
        parent_clock = self._clock_c(parent)
        self._pt[child].join(parent_clock)
        self._ht[child].join(self._ht[parent])
        self._ht[child].assign(child, self._nt[child])

    def _join(self, event: Event) -> None:
        parent, child = event.thread, event.other_thread
        self._init_thread(child)
        self._pt[parent].join(self._clock_c(child))
        self._ht[parent].join(self._ht[child])
        self._ht[parent].assign(parent, self._nt[parent])
        self._prev_was_release[child] = True

    # ------------------------------------------------------------------ #
    # Race checking
    # ------------------------------------------------------------------ #

    def _check_access(self, event: Event) -> None:
        clock = self._clock_c(event.thread)
        self._history.observe(event, clock, self.report)

    def finish(self) -> None:
        if self._track_queue_stats:
            events = max(1, len(self._trace) if self._trace is not None else 1)
            self.report.stats["max_queue_total"] = float(self._max_queue_total)
            self.report.stats["max_queue_fraction"] = (
                self._max_queue_total / float(events)
            )

    # ------------------------------------------------------------------ #
    # Introspection helpers used by the differential tests
    # ------------------------------------------------------------------ #

    def timestamps(self, trace: Trace) -> List[VectorClock]:
        """Run over ``trace`` and return the WCP timestamp ``C_e`` per event."""
        self.reset(trace)
        clocks: List[VectorClock] = []
        for event in trace:
            self.process(event)
            clocks.append(self._clock_c(event.thread))
        self.finish()
        return clocks

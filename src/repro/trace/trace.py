"""The :class:`Trace` container.

A trace (Section 2.1) is a sequence of events satisfying two properties:

1. *lock semantics* -- critical sections over the same lock do not overlap:
   between two acquires of the same lock there is a release by the first
   acquiring thread;
2. *well nestedness* -- critical sections of a single thread are properly
   nested.

:class:`Trace` validates both properties on construction (validation can be
disabled for performance when the producer is trusted, e.g. the benchmark
generators).  Construction does only what every caller needs: it renumbers
and interns the events, records the first-appearance order of threads,
locks, variables and barriers (detectors iterate ``trace.threads``, so
their reports depend on it) and takes the per-kind census.

The detectors read nothing else.  The per-event lock structure the
definitional oracles (:mod:`repro.core.closure`,
:mod:`repro.reordering.witness`) need --

* ``match`` of each acquire/release,
* the set of locks held at each event (``e in l``) and their acquires,
* per-thread event indices --

is built in one pass the first time one of :meth:`Trace.match`,
:meth:`Trace.held_locks`, :meth:`Trace.enclosing_acquire`,
:meth:`Trace.critical_section`, :meth:`Trace.thread_events` or
:meth:`Trace.thread_indices` is called.

The batch clock detectors (WCP, HB, FastTrack) read one more whole-trace
fact, :attr:`Trace.thread_census` (:class:`ThreadCensus`): which threads
touch each variable and lock.  It too is built in one pass on first use,
so every detector of a multi-detector pass shares it and a run that never
asks (``--stream``, shards, serve) never pays for it.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.trace.event import ACCESS_EVENTS, LOCK_EVENTS, Event, EventType
from repro.trace.semantics import (
    REGISTRY,
    LockDiscipline,
    LockSemanticsError,
    TraceError,
    WellNestednessError,
)
from repro.vectorclock.registry import ThreadRegistry

# Re-exported for backward compatibility: the error classes are defined in
# :mod:`repro.trace.semantics` (next to the shared LockDiscipline state
# machine that raises them) but have always been importable from here.
__all__ = [
    "Trace", "ThreadCensus", "TraceError", "LockSemanticsError",
    "WellNestednessError",
]


class Trace:
    """An immutable, validated sequence of :class:`~repro.trace.event.Event`.

    A trace is *complete*: the whole event sequence is materialised and may
    be iterated any number of times (``is_complete`` is the protocol flag
    detectors check before pre-scanning; the streaming engine's contexts
    set it to False).

    Parameters
    ----------
    events:
        The events in program (temporal) order.  Events are re-indexed so
        that ``trace[i].index == i``.
    validate:
        When True (default) check lock semantics and well nestedness and
        raise :class:`LockSemanticsError` / :class:`WellNestednessError` on
        violation.
    name:
        Optional human-readable name used in reports.
    registry:
        Optional :class:`~repro.vectorclock.registry.ThreadRegistry` to
        intern thread identifiers into (a fresh one is created otherwise).
        Every event is stamped with its interned ``tid`` during indexing;
        events that already carry a *conflicting* tid (stamped by a
        different registry) are replaced by fresh copies so the original
        producer's stamps stay intact.
    """

    #: A materialised trace can always be re-iterated / pre-scanned.
    is_complete = True

    def __init__(
        self,
        events: Iterable[Event],
        validate: bool = True,
        name: Optional[str] = None,
        registry: Optional[ThreadRegistry] = None,
    ) -> None:
        self.name = name or "trace"
        self.registry = registry if registry is not None else ThreadRegistry()
        intern = self.registry.intern
        self._events: List[Event] = []
        append = self._events.append
        threads: Dict[str, None] = {}
        locks: Dict[str, None] = {}
        variables: Dict[str, None] = {}
        barriers: Dict[str, None] = {}
        census: Dict[str, int] = {}
        # Bind each kind's first-appearance record to this trace's dicts.
        seen_by_operand = {
            "thread": threads, "lock": locks,
            "variable": variables, "barrier": barriers,
        }
        kinds = {
            key: (token, seen_by_operand.get(operand), has_role)
            for key, (token, operand, has_role) in _KINDS.items()
        }
        # Events with a lock-discipline role, validated after the input is
        # exhausted so a parse error later in the input still wins.
        sync: List[Event] = []
        for position, event in enumerate(events):
            thread = event.thread
            tid = intern(thread)
            if event.index != position or (
                event.tid is not None and event.tid != tid
            ):
                event = Event(
                    position, thread, event.etype, event.target,
                    event.loc, tid=tid,
                )
            else:
                event.tid = tid
            append(event)
            threads[thread] = None
            token, seen, has_role = kinds[id(event.etype)]
            census[token] = census.get(token, 0) + 1
            if seen is not None:
                seen[event.target] = None
            if has_role and validate:
                sync.append(event)

        if validate:
            # The shared lock-semantics / well-nestedness state machine;
            # the streaming OnlineValidator drives the identical machine,
            # so both paths raise the same exception class and message.
            step = LockDiscipline().step
            for event in sync:
                step(event.etype, event.thread, event.target, event.index)

        self._threads: List[str] = list(threads)
        self._locks: List[str] = list(locks)
        self._variables: List[str] = list(variables)
        self._barriers: List[str] = list(barriers)
        self._census = census

    @cached_property
    def _oracle(self) -> "_OracleIndex":
        return _OracleIndex(self._events)

    @cached_property
    def thread_census(self) -> "ThreadCensus":
        """Which threads touch each variable and lock (one pass, cached)."""
        return ThreadCensus(self._events)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __getitem__(self, index: int) -> Event:
        return self._events[index]

    @property
    def events(self) -> Sequence[Event]:
        """The events in temporal order."""
        return self._events

    @property
    def threads(self) -> List[str]:
        """Thread identifiers in order of first appearance."""
        return list(self._threads)

    @property
    def locks(self) -> List[str]:
        """Lock identifiers in order of first appearance."""
        return list(self._locks)

    @property
    def variables(self) -> List[str]:
        """Variable identifiers in order of first appearance."""
        return list(self._variables)

    @property
    def barriers(self) -> List[str]:
        """Barrier identifiers in order of first appearance."""
        return list(self._barriers)

    def thread_events(self, thread: str) -> List[Event]:
        """Return the projection of the trace onto ``thread`` (sigma|t)."""
        indices = self._oracle.by_thread.get(thread, [])
        return [self._events[i] for i in indices]

    def thread_indices(self, thread: str) -> List[int]:
        """Return the indices of events performed by ``thread``."""
        return list(self._oracle.by_thread.get(thread, []))

    # ------------------------------------------------------------------ #
    # Lock structure
    # ------------------------------------------------------------------ #

    def match(self, event: Event) -> Optional[Event]:
        """Return the matching release of an acquire (or vice versa).

        Returns None when the matching event does not exist in the trace
        (e.g. a lock held until the end of the recorded execution).
        """
        partner = self._oracle.match.get(event.index)
        if partner is None:
            return None
        return self._events[partner]

    def held_locks(self, event: Event) -> Tuple[str, ...]:
        """Return the locks whose critical sections contain ``event``.

        The acquire and release of a critical section are both considered
        contained in it (``e in l`` in the paper's notation).
        """
        return self._oracle.held_locks[event.index]

    def enclosing_acquire(self, event: Event, lock: str) -> Optional[Event]:
        """Return the acquire of ``lock`` whose critical section contains ``event``."""
        acquire_index = self._oracle.acquire_at[event.index].get(lock)
        if acquire_index is None:
            return None
        return self._events[acquire_index]

    def critical_section(self, event: Event) -> List[Event]:
        """Return the events of the critical section started/ended at ``event``.

        ``event`` must open or close a critical section (acquire/release,
        including their rwlock and wait counterparts).  When the matching
        release is absent (the lock is never released), the critical section
        extends to the end of the thread.
        """
        semantics = REGISTRY[event.etype]
        if semantics.opens is None and semantics.closes is None:
            raise ValueError("critical_section expects an acquire or release event")
        if semantics.opens is not None:
            acquire = event
            release = self.match(event)
        else:
            release = event
            acquire = self.match(event)
            if acquire is None:
                raise TraceError(
                    "release at %d has no matching acquire" % event.index
                )
        thread_idx = self._oracle.by_thread[acquire.thread]
        start = acquire.index
        end = release.index if release is not None else self._events[-1].index
        return [
            self._events[i]
            for i in thread_idx
            if start <= i <= end
        ]

    def section_accesses(self, release: Event) -> Tuple[Set[str], Set[str]]:
        """Return (read variables, written variables) of ``release``'s critical section."""
        reads: Set[str] = set()
        writes: Set[str] = set()
        for section_event in self.critical_section(release):
            if section_event.is_read():
                reads.add(section_event.variable)
            elif section_event.is_write():
                writes.add(section_event.variable)
        return reads, writes

    # ------------------------------------------------------------------ #
    # Access structure
    # ------------------------------------------------------------------ #

    def accesses(self, variable: str) -> List[Event]:
        """Return all read/write events on ``variable`` in temporal order."""
        return [
            event for event in self._events
            if event.is_access() and event.variable == variable
        ]

    def last_write_before(self, event: Event) -> Optional[Event]:
        """Return the last write to ``event.variable`` strictly before ``event``."""
        if not event.is_access():
            raise ValueError("last_write_before expects a read/write event")
        variable = event.variable
        for i in range(event.index - 1, -1, -1):
            candidate = self._events[i]
            if candidate.is_write() and candidate.variable == variable:
                return candidate
        return None

    def conflicting_pairs(self) -> Iterator[Tuple[Event, Event]]:
        """Yield all conflicting pairs (e1, e2) with e1 earlier than e2.

        Quadratic in the number of accesses per variable; intended for small
        traces (tests, examples), not for the streaming detectors.
        """
        by_variable: Dict[str, List[Event]] = defaultdict(list)
        for event in self._events:
            if event.is_access():
                by_variable[event.variable].append(event)
        for events in by_variable.values():
            for i, first in enumerate(events):
                for second in events[i + 1:]:
                    if first.conflicts_with(second):
                        yield first, second

    # ------------------------------------------------------------------ #
    # Slicing / transformation
    # ------------------------------------------------------------------ #

    def window(self, start: int, size: int) -> "Trace":
        """Return the sub-trace of ``size`` events starting at ``start``.

        Windowed sub-traces may violate lock semantics at their boundaries
        (an acquire without its release, or vice versa); validation is
        therefore disabled, matching how windowed tools treat fragments.
        """
        chunk = self._events[start:start + size]
        return Trace(
            [Event(-1, e.thread, e.etype, e.target, e.loc) for e in chunk],
            validate=False,
            name="%s[%d:%d]" % (self.name, start, start + size),
        )

    def windows(self, size: int) -> Iterator["Trace"]:
        """Yield consecutive non-overlapping windows of ``size`` events."""
        for start in range(0, len(self._events), size):
            yield self.window(start, size)

    def stats(self) -> Dict[str, int]:
        """Return basic counts (events, threads, locks, variables, accesses)."""
        census = self._census
        accesses = sum(census.get(token, 0) for token in _ACCESS_TOKENS)
        return {
            "events": len(self._events),
            "threads": len(self._threads),
            "locks": len(self._locks),
            "variables": len(self._variables),
            "accesses": accesses,
        }

    def census(self) -> Dict[str, int]:
        """Return the per-event-type census (canonical token -> count).

        Only event kinds that actually occur appear; computed during
        indexing, so this is O(1) per call.
        """
        return dict(self._census)

    def __repr__(self) -> str:
        return "Trace(%r, events=%d, threads=%d, locks=%d)" % (
            self.name, len(self._events), len(self._threads), len(self._locks)
        )


#: ``id(etype)`` -> (census token, operand kind, has a lock-discipline
#: role), built once from the registry.  Keying by identity keeps the
#: construction loop free of ``Enum.__hash__`` and ``EventType.value``.
_KINDS: Dict[int, Tuple[str, Optional[str], bool]] = {
    id(etype): (sem.token, sem.operand, sem.role is not None)
    for etype, sem in REGISTRY.items()
}


#: Census tokens of the access kinds (``Trace.stats()["accesses"]``).
_ACCESS_TOKENS = tuple(REGISTRY[etype].token for etype in ACCESS_EVENTS)

#: ``id(kind)`` of every event kind whose operand names a lock.
_LOCK_KIND_IDS = frozenset(map(id, LOCK_EVENTS))


class ThreadCensus:
    """Which threads touch each variable and lock, over a whole trace.

    The batch clock detectors use it to skip state only other threads
    could read (see the exactness notes in :mod:`repro.core.wcp`):

    ``variable_thread``
        variable -> the one thread that reads or writes it, or None when
        two or more threads do.  ``local_variables`` is the set of
        variables with a sole thread.
    ``lock_thread``
        lock -> the one thread naming it when every event naming it is a
        mutex ``acq``/``rel`` of that thread, else None (a second thread
        -- even one that acquires and never releases -- or any rwlock,
        ``wait`` or ``notify`` event).  ``local_locks`` lists the locks
        with a sole thread, in first-appearance order.
    ``releasers``
        lock -> the threads that release it (``rel`` or ``rrel``), in
        order of their first release; locks in order of first release.

    Read-only once built.
    """

    __slots__ = (
        "variable_thread", "lock_thread", "releasers",
        "local_variables", "local_locks",
    )

    def __init__(self, events: Iterable[Event]) -> None:
        read = EventType.READ
        write = EventType.WRITE
        acquire = EventType.ACQUIRE
        release = EventType.RELEASE
        rrel = EventType.RREL
        lock_kinds = _LOCK_KIND_IDS
        variable_thread: Dict[str, Optional[str]] = {}
        lock_thread: Dict[str, Optional[str]] = {}
        # (lock, thread) of every release; a dict, not a set, so the
        # result keeps trace order.
        released: Dict[Tuple[str, str], None] = {}
        owner_of = variable_thread.setdefault
        for event in events:
            etype = event.etype
            thread = event.thread
            if etype is read or etype is write:
                if owner_of(event.target, thread) != thread:
                    variable_thread[event.target] = None
            elif etype is acquire or etype is release:
                lock = event.target
                if lock_thread.setdefault(lock, thread) != thread:
                    lock_thread[lock] = None
                if etype is release:
                    released[lock, thread] = None
            elif id(etype) in lock_kinds:
                lock = event.target
                lock_thread[lock] = None
                if etype is rrel:
                    released[lock, thread] = None
        releasers: Dict[str, List[str]] = {}
        for lock, thread in released:
            releasers.setdefault(lock, []).append(thread)
        self.variable_thread = variable_thread
        self.lock_thread = lock_thread
        self.releasers = releasers
        self.local_variables: FrozenSet[str] = frozenset(
            variable for variable, thread in variable_thread.items()
            if thread is not None
        )
        self.local_locks: Tuple[str, ...] = tuple(
            lock for lock, thread in lock_thread.items() if thread is not None
        )


class _OracleIndex:
    """The per-event lock structure only the definitional oracles read.

    Built in one pass by replaying a non-validating
    :class:`~repro.trace.semantics.LockDiscipline`.  On a validated trace
    no step could have raised, so the result is what validation saw; on a
    ``validate=False`` trace unmatched acquires and releases get the
    discipline's best-effort pairing (``match`` is None for them).
    """

    __slots__ = ("by_thread", "match", "held_locks", "acquire_at")

    def __init__(self, events: Sequence[Event]) -> None:
        #: thread -> indices of its events.
        self.by_thread: Dict[str, List[int]] = defaultdict(list)
        #: acquire/release index -> partner index (None when absent).
        self.match: Dict[int, Optional[int]] = {}
        #: per event: exclusively held locks containing it, innermost last.
        self.held_locks: List[Tuple[str, ...]] = []
        #: per event: held lock -> index of the acquire containing it.
        self.acquire_at: List[Dict[str, int]] = []
        discipline = LockDiscipline()
        for event in events:
            thread = event.thread
            index = event.index
            self.by_thread[thread].append(index)
            # Read-mode rwlock sections participate in nestedness but do
            # not confer mutual exclusion, so they are not "held".
            sections = discipline.open_sections(thread)
            held = tuple(lock for lock, _, mode in sections if mode != "read")
            acquires = {lock: i for lock, i, mode in sections if mode != "read"}
            result = discipline.step(
                event.etype, thread, event.target, index, validate=False
            )
            if result is not None:
                action = result[0]
                if action == "open":
                    self.match[index] = None
                    if result[1] != "read":
                        # The acquire is inside its own critical section.
                        held += (event.target,)
                        acquires[event.target] = index
                elif action == "close":
                    # The release is inside its own critical section too:
                    # the pre-step ``held``/``acquires`` already include it.
                    self.match[result[1]] = index
                    self.match[index] = result[1]
                else:  # "unmatched"
                    self.match[index] = None
            self.held_locks.append(held)
            self.acquire_at.append(acquires)

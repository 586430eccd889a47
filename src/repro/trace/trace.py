"""The :class:`Trace` container.

A trace (Section 2.1) is a sequence of events satisfying two properties:

1. *lock semantics* -- critical sections over the same lock do not overlap:
   between two acquires of the same lock there is a release by the first
   acquiring thread;
2. *well nestedness* -- critical sections of a single thread are properly
   nested.

:class:`Trace` validates both properties on construction (validation can be
disabled for performance when the producer is trusted, e.g. the benchmark
generators).  A trace holds one :class:`~repro.trace.columns.ColumnBlock`
-- thread ids, op ids and locations as columns -- and builds each
:class:`~repro.trace.event.Event` only when something asks for it
(``trace[i]``, iteration, the oracles, race witnesses), once.  The file
loaders hand it the decoders' block; ``Trace(events)`` reaches the same
columns through the one Event adapter,
:meth:`ColumnBlock.from_events <repro.trace.columns.ColumnBlock.from_events>`,
so there is one index, census and validation path.  Construction does
only what every caller needs, all from the columns: it records the
first-appearance order of threads (fork/join operands included), locks,
variables and barriers (detectors iterate ``trace.threads``, so their
reports depend on it) from the distinct ``(thread, op)`` rows (one
:class:`~repro.vectorclock.kernels.DistinctPairs` call), takes the
per-kind census with one ``Counter`` over the op column, and validates
the rows whose kind has a lock-discipline role with a fresh
:class:`~repro.trace.lockcheck.OnlineValidator`: the compiled validator
over the columns, which hands the first row it declines to
:class:`~repro.trace.semantics.LockDiscipline`, the specification, to
raise the error (``LockDiscipline`` alone without the kernels).  The
streaming paths run the same validator block by block.

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

The clock detectors (WCP and HB) read one more whole-trace
fact, :attr:`Trace.thread_census` (:class:`ThreadCensus`): which threads
touch each variable and lock.  It is built on first use from the same
distinct ``(thread, op)`` rows, so every detector of a multi-detector
pass shares it and a run that never asks never pays for it.  A stream
pass over a regular file (``analyze FILE``) takes the same census from
a first pass that decodes the file and keeps only those rows
(:meth:`FileSource.take_census <repro.engine.sources.FileSource.take_census>`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.trace.columns import ColumnBlock
from repro.trace.event import ACCESS_EVENTS, LOCK_EVENTS, Event, EventType
from repro.trace.lockcheck import OnlineValidator
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
        The events in program (temporal) order: a column block (the
        decoders' output) or any iterable of events.  Rows are numbered
        so that ``trace[i].index == i``; an event whose index disagrees
        is rebuilt as a renumbered copy on first access.
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
        producer's stamps stay intact.  A column block is re-interned
        into it when its own registry differs.
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
        if isinstance(events, ColumnBlock):
            if registry is None:
                registry = events.registry
            block = events.rebased(0, registry)
        else:
            if registry is None:
                registry = ThreadRegistry()
            block = ColumnBlock.from_events(events, registry, start=0)
        self.registry = registry
        self._block = block
        tids, ops = block.columns()
        optable = block.table.ops
        name_of = registry.name_of
        from repro.vectorclock.kernels import DistinctPairs

        # Every distinct (thread, op) row in order of first appearance:
        # a thread, lock, variable or barrier first appears in the first
        # pair naming it, so the orders below (and the thread census)
        # come from the pairs, never from the rows.
        self._pairs = DistinctPairs().add(tids, ops)
        threads: Dict[str, None] = {}
        locks: Dict[str, None] = {}
        variables: Dict[str, None] = {}
        barriers: Dict[str, None] = {}
        seen_by_operand = {
            "thread": threads, "lock": locks,
            "variable": variables, "barrier": barriers,
        }
        semantics = [REGISTRY[etype] for etype, _ in optable]
        for tid, op in self._pairs:
            threads[name_of(tid)] = None
            seen = seen_by_operand.get(semantics[op].operand)
            if seen is not None:
                seen[optable[op][1]] = None
        # Counter keeps first-appearance order, so the tokens do too.
        census: Dict[str, int] = {}
        for op, number in Counter(ops).items():
            token = semantics[op].token
            census[token] = census.get(token, 0) + number

        if validate:
            # The streaming paths run the same validator block by block,
            # so every path raises the same class and message.
            error = OnlineValidator().check_batch(block)[1]
            if error is not None:
                raise error

        self._threads: List[str] = list(threads)
        self._locks: List[str] = list(locks)
        self._variables: List[str] = list(variables)
        self._barriers: List[str] = list(barriers)
        self._census = census

    @cached_property
    def _oracle(self) -> "_OracleIndex":
        return _OracleIndex(self._block)

    @cached_property
    def thread_census(self) -> "ThreadCensus":
        """Which threads touch each variable and lock (cached)."""
        return ThreadCensus(self._block, self._pairs)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._block)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._block)

    def __getitem__(self, index: int) -> Event:
        return self._block[index]

    @property
    def events(self) -> ColumnBlock:
        """The events in temporal order: the trace's column block, whose
        rows are built as :class:`Event`\\ s on first access."""
        return self._block

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
        return [self._block[i] for i in indices]

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
        return self._block[partner]

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
        return self._block[acquire_index]

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
        end = release.index if release is not None else self._block[-1].index
        return [
            self._block[i]
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
            event for event in self._block
            if event.is_access() and event.variable == variable
        ]

    def last_write_before(self, event: Event) -> Optional[Event]:
        """Return the last write to ``event.variable`` strictly before ``event``."""
        if not event.is_access():
            raise ValueError("last_write_before expects a read/write event")
        variable = event.variable
        for i in range(event.index - 1, -1, -1):
            candidate = self._block[i]
            if candidate.is_write() and candidate.variable == variable:
                return candidate
        return None

    def conflicting_pairs(self) -> Iterator[Tuple[Event, Event]]:
        """Yield all conflicting pairs (e1, e2) with e1 earlier than e2.

        Quadratic in the number of accesses per variable; intended for small
        traces (tests, examples), not for the streaming detectors.
        """
        by_variable: Dict[str, List[Event]] = defaultdict(list)
        for event in self._block:
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
        return Trace(
            self._block[start:start + size],
            validate=False,
            name="%s[%d:%d]" % (self.name, start, start + size),
            registry=ThreadRegistry(),
        )

    def windows(self, size: int) -> Iterator["Trace"]:
        """Yield consecutive non-overlapping windows of ``size`` events."""
        for start in range(0, len(self._block), size):
            yield self.window(start, size)

    def stats(self) -> Dict[str, int]:
        """Return basic counts (events, threads, locks, variables, accesses)."""
        census = self._census
        accesses = sum(census.get(token, 0) for token in _ACCESS_TOKENS)
        return {
            "events": len(self._block),
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
            self.name, len(self._block), len(self._threads), len(self._locks)
        )


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

    def __init__(
        self,
        events: Iterable[Event],
        pairs: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> None:
        """Take the census of ``events`` (a column block or any event
        sequence).  ``pairs`` are the block's distinct ``(tid, op)`` rows
        in first-appearance order when the caller already has them: each
        rule below only depends on which thread names which operand and
        in what order that first happens, so the pairs stand for the
        rows.  They may be a whole decode's, with ``events`` its last
        block: the blocks of one decode share the op table and registry
        the pairs are read through."""
        block = (
            events if isinstance(events, ColumnBlock)
            else ColumnBlock.from_events(events)
        )
        if pairs is None:
            from repro.vectorclock.kernels import DistinctPairs

            pairs = DistinctPairs().add(*block.columns())
        optable = block.table.ops
        name_of = block.registry.name_of
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
        for tid, op in pairs:
            etype, target = optable[op]
            thread = name_of(tid)
            if etype is read or etype is write:
                if owner_of(target, thread) != thread:
                    variable_thread[target] = None
            elif etype is acquire or etype is release:
                if lock_thread.setdefault(target, thread) != thread:
                    lock_thread[target] = None
                if etype is release:
                    released[target, thread] = None
            elif id(etype) in lock_kinds:
                lock_thread[target] = None
                if etype is rrel:
                    released[target, thread] = None
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

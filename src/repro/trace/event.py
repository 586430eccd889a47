"""Events.

An event is a single operation performed by a thread.  The paper's formal
model (Section 2.1) uses lock acquire/release and variable read/write
events; the RAPID implementation additionally consumes thread fork/join
events from the RVPredict logger, and we support those too (they induce
happens-before edges between the forking/forked and joined/joining
threads).  The extended vocabulary (reader/writer locks, barriers,
wait/notify) is declared in :mod:`repro.trace.semantics`; this module
re-exports the :class:`EventType` enum and the derived classification
sets from there, so the registry stays the single source of truth.

Every event may carry an optional *program location* (``loc``), a string
identifying the source line that produced it.  Race pairs are reported as
unordered pairs of program locations, exactly as in the paper's Table 1
("distinct race pairs ... of program locations").
"""

from __future__ import annotations

from typing import Optional

from repro.trace.semantics import (
    ACCESS_EVENTS,
    BARRIER_EVENTS,
    LOCK_EVENTS,
    OPERAND_ERRORS,
    REGISTRY,
    THREAD_EVENTS,
    EventType,
)

__all__ = [
    "Event", "EventType",
    "LOCK_EVENTS", "ACCESS_EVENTS", "THREAD_EVENTS", "BARRIER_EVENTS",
]

#: Kind sets keyed by ``id(etype)``: the per-event predicates below stay
#: off Enum's Python-level ``__hash__``.
_ACCESS_IDS = frozenset(map(id, ACCESS_EVENTS))
_LOCK_IDS = frozenset(map(id, LOCK_EVENTS))


class Event:
    """A single trace event.

    Parameters
    ----------
    index:
        Zero-based position of the event in its trace.  Assigned by
        :class:`repro.trace.trace.Trace`; builders may pass ``-1`` and let
        the trace renumber.
    thread:
        Identifier of the performing thread (``t(e)`` in the paper).
    etype:
        The :class:`EventType`.
    target:
        The object operated on: a lock name for lock events (including
        rwlock and wait/notify events), a variable name for read/write, the
        child/peer thread for fork/join, a barrier name for barrier events,
        ``None`` for begin/end.  Arity is validated against the event
        kind's declared operand in :data:`repro.trace.semantics.REGISTRY`.
    loc:
        Optional program location (source line) used for race de-duplication.
    tid:
        Optional interned integer id of ``thread``, stamped at the
        trace/parser/source boundary by a
        :class:`~repro.vectorclock.registry.ThreadRegistry` so detectors
        can skip per-event string hashing.  ``None`` means "not interned";
        the field is a cache and takes no part in equality or hashing.
    """

    __slots__ = ("index", "thread", "etype", "target", "loc", "tid")

    def __init__(
        self,
        index: int,
        thread: str,
        etype: EventType,
        target: Optional[str] = None,
        loc: Optional[str] = None,
        tid: Optional[int] = None,
    ) -> None:
        if target is None:
            operand = REGISTRY[etype].operand
            if operand is not None:
                raise ValueError(OPERAND_ERRORS[operand])
        self.index = index
        self.thread = thread
        self.etype = etype
        self.target = target
        self.loc = loc
        self.tid = tid

    # ------------------------------------------------------------------ #
    # Classification helpers
    # ------------------------------------------------------------------ #

    def is_acquire(self) -> bool:
        """Return True for lock-acquire events."""
        return self.etype is EventType.ACQUIRE

    def is_release(self) -> bool:
        """Return True for lock-release events."""
        return self.etype is EventType.RELEASE

    def is_read(self) -> bool:
        """Return True for variable-read events."""
        return self.etype is EventType.READ

    def is_write(self) -> bool:
        """Return True for variable-write events."""
        return self.etype is EventType.WRITE

    def is_access(self) -> bool:
        """Return True for read or write events."""
        return id(self.etype) in _ACCESS_IDS

    def is_lock_event(self) -> bool:
        """Return True for events operating on a lock (acquire/release,
        rwlock and wait/notify events)."""
        return id(self.etype) in _LOCK_IDS

    def is_fork(self) -> bool:
        """Return True for fork events."""
        return self.etype is EventType.FORK

    def is_join(self) -> bool:
        """Return True for join events."""
        return self.etype is EventType.JOIN

    def is_barrier(self) -> bool:
        """Return True for barrier events."""
        return self.etype is EventType.BARRIER

    @property
    def lock(self) -> str:
        """The lock operated on (``l(e)``); only valid for lock events."""
        if not self.is_lock_event():
            raise AttributeError("event %r is not a lock event" % (self,))
        return self.target  # type: ignore[return-value]

    @property
    def variable(self) -> str:
        """The variable accessed; only valid for read/write events."""
        if not self.is_access():
            raise AttributeError("event %r is not an access event" % (self,))
        return self.target  # type: ignore[return-value]

    @property
    def other_thread(self) -> str:
        """The forked/joined thread; only valid for fork/join events."""
        if self.etype not in THREAD_EVENTS:
            raise AttributeError("event %r is not a fork/join event" % (self,))
        return self.target  # type: ignore[return-value]

    @property
    def barrier(self) -> str:
        """The barrier arrived at; only valid for barrier events."""
        if self.etype not in BARRIER_EVENTS:
            raise AttributeError("event %r is not a barrier event" % (self,))
        return self.target  # type: ignore[return-value]

    def conflicts_with(self, other: "Event") -> bool:
        """Return True when the two events are conflicting (``e1 ~ e2``).

        Conflicting means: accesses to the same variable, by different
        threads, at least one of which is a write (Section 2.1).
        """
        if not (self.is_access() and other.is_access()):
            return False
        if self.thread == other.thread:
            return False
        if self.variable != other.variable:
            return False
        return self.is_write() or other.is_write()

    def location(self) -> str:
        """Return the program location, falling back to a synthesised one."""
        if self.loc is not None:
            return self.loc
        return "%s:%s(%s)@%d" % (self.thread, self.etype.value, self.target, self.index)

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        return "Event(%d, %s, %s(%s))" % (
            self.index,
            self.thread,
            self.etype.value,
            self.target if self.target is not None else "",
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.index == other.index
            and self.thread == other.thread
            and self.etype is other.etype
            and self.target == other.target
        )

    def __hash__(self) -> int:
        return hash((self.index, self.thread, self.etype, self.target))

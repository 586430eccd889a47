"""Declarative event semantics: one registry driving the whole stack.

Historically, per-event-type behaviour was scattered as ``etype``
if-chains and frozensets across six layers: the parsers (wire tokens),
``Event`` construction (operand arity), ``Trace`` validation and the online
validator (lock-semantics checks), the three detectors (clock rules),
the stream partitioner (replicate/route taxonomy) and the CLI.  Adding
an event kind meant touching all of them and hoping nothing was missed.

This module is the single source of truth.  Every :class:`EventType`
has exactly one :class:`EventSemantics` entry declaring:

``tokens``
    The wire spellings accepted by every parser (first one canonical;
    it equals ``EventType.value`` so codec/STD round-trips are free).
``operand``
    What the target names (``"lock"``/``"variable"``/``"thread"``/
    ``"barrier"``/None) -- drives ``Event`` arity validation, parser
    operand checks and the derived ``LOCK_EVENTS``/``ACCESS_EVENTS``/
    ``THREAD_EVENTS`` sets.
``clock_action``
    A label for the detector-side rule (acquire-like, release-like,
    access-like, barrier, wait, notify, none).  Detectors are tested to
    dispatch on every registered kind; this field documents which rule
    family they must apply.
``shard_class``
    ``"route"`` (partitioned to an owner shard by variable) or
    ``"replicate"`` (part of the synchronization skeleton every shard
    replays) -- the partitioner derives its taxonomy from this plus the
    ``opens``/``closes``/``bumps`` structure below.
``role``
    The lock-discipline transition the validator applies (None for
    events with no lock-discipline obligations).
``opens`` / ``closes``
    Critical-section structure: what kind of section the event opens
    (``"excl"``/``"write"``/``"read"``) or closes (``"excl"`` for
    ``rel``, ``"rw"`` for ``rrel``).
``bumps``
    Which local clock the event's epilogue bumps (``"self"`` for
    release-like events and fork, ``"target"`` for join, None
    otherwise).  Every vector-clock detector (WCP and HB) obeys
    it: the bump is deferred to the bumped thread's next event, so a
    thread's clock only escapes at the end of a local interval, which is
    what keeps the access history's epoch checks exact.  It is also
    exactly the "pending bump" set the partitioner must track so
    accesses that carry a deferred bump are routed with clock state.

The extended vocabulary (beyond the paper's acq/rel/r/w/fork/join):

* **rwlocks** ``racq_r``/``racq_w``/``rrel`` -- read-sections do not
  order each other; write-sections behave exactly like today's locks.
* **barriers** ``barrier`` -- all-to-all join at each generation: a
  generation closes when some participant arrives *again*, at which
  point every participant of the closed generation receives the join of
  all arrival clocks.
* **wait/notify** ``wait``/``notify`` -- producers desugar a wait into
  ``rel(m)`` at wait-start and ``wait(m)`` at wake (the RVPredict
  convention); ``wait`` re-acquires the monitor and additionally
  receives a hard edge from every prior ``notify(m)``.

:class:`LockDiscipline` is the lock-semantics / well-nestedness state
machine: the specification of
:class:`~repro.trace.lockcheck.OnlineValidator`, the one check both
``Trace`` validation and the streaming paths run, and the code that
raises its every error, so all paths raise identical exception classes
and messages by construction.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Tuple


class TraceError(ValueError):
    """Base class for trace well-formedness violations."""


class LockSemanticsError(TraceError):
    """Raised when two critical sections over the same lock overlap."""


class WellNestednessError(TraceError):
    """Raised when critical sections of a thread are not properly nested."""


class EventType(enum.Enum):
    """The kind of operation an event performs."""

    ACQUIRE = "acq"
    RELEASE = "rel"
    READ = "r"
    WRITE = "w"
    FORK = "fork"
    JOIN = "join"
    BEGIN = "begin"
    END = "end"
    # Extended vocabulary (reader/writer locks, barriers, wait/notify).
    RACQ_R = "racq_r"
    RACQ_W = "racq_w"
    RREL = "rrel"
    BARRIER = "barrier"
    WAIT = "wait"
    NOTIFY = "notify"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class EventSemantics:
    """The declarative description of one event kind (see module docs)."""

    __slots__ = (
        "etype", "tokens", "operand", "clock_action", "shard_class",
        "role", "opens", "closes", "bumps",
    )

    def __init__(
        self,
        etype: EventType,
        tokens: Tuple[str, ...],
        operand: Optional[str],
        clock_action: str,
        shard_class: str,
        role: Optional[str] = None,
        opens: Optional[str] = None,
        closes: Optional[str] = None,
        bumps: Optional[str] = None,
    ) -> None:
        self.etype = etype
        self.tokens = tokens
        self.operand = operand
        self.clock_action = clock_action
        self.shard_class = shard_class
        self.role = role
        self.opens = opens
        self.closes = closes
        self.bumps = bumps

    @property
    def token(self) -> str:
        """The canonical wire spelling (== ``etype.value``)."""
        return self.tokens[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "EventSemantics(%s, operand=%r, clock=%r, shard=%r)" % (
            self.etype.value, self.operand, self.clock_action, self.shard_class,
        )


#: etype -> semantics.  The one table everything else derives from.
REGISTRY: Dict[EventType, EventSemantics] = {
    sem.etype: sem
    for sem in (
        EventSemantics(
            EventType.ACQUIRE, ("acq", "acquire", "lock"), "lock",
            clock_action="acquire", shard_class="replicate",
            role="acquire", opens="excl",
        ),
        EventSemantics(
            EventType.RELEASE, ("rel", "release", "unlock"), "lock",
            clock_action="release", shard_class="replicate",
            role="release", closes="excl", bumps="self",
        ),
        EventSemantics(
            EventType.READ, ("r", "read"), "variable",
            clock_action="access", shard_class="route",
        ),
        EventSemantics(
            EventType.WRITE, ("w", "write"), "variable",
            clock_action="access", shard_class="route",
        ),
        EventSemantics(
            EventType.FORK, ("fork",), "thread",
            clock_action="fork", shard_class="replicate", bumps="self",
        ),
        EventSemantics(
            EventType.JOIN, ("join",), "thread",
            clock_action="join", shard_class="replicate", bumps="target",
        ),
        EventSemantics(
            EventType.BEGIN, ("begin",), None,
            clock_action="none", shard_class="replicate",
        ),
        EventSemantics(
            EventType.END, ("end",), None,
            clock_action="none", shard_class="replicate",
        ),
        EventSemantics(
            EventType.RACQ_R, ("racq_r", "read_acquire", "rdlock"), "lock",
            clock_action="read-acquire", shard_class="replicate",
            role="read-acquire", opens="read",
        ),
        EventSemantics(
            EventType.RACQ_W, ("racq_w", "write_acquire", "wrlock"), "lock",
            clock_action="write-acquire", shard_class="replicate",
            role="write-acquire", opens="write",
        ),
        EventSemantics(
            EventType.RREL, ("rrel", "rw_release", "rwunlock"), "lock",
            clock_action="rw-release", shard_class="replicate",
            role="rw-release", closes="rw", bumps="self",
        ),
        EventSemantics(
            EventType.BARRIER, ("barrier", "barrier_wait"), "barrier",
            clock_action="barrier", shard_class="replicate", bumps="self",
        ),
        EventSemantics(
            EventType.WAIT, ("wait",), "lock",
            clock_action="wait", shard_class="replicate",
            role="acquire", opens="excl",
        ),
        EventSemantics(
            EventType.NOTIFY, ("notify", "signal"), "lock",
            clock_action="notify", shard_class="replicate", bumps="self",
        ),
    )
}

assert set(REGISTRY) == set(EventType), "every EventType needs a registry entry"


def _derive(operand: str) -> "frozenset[EventType]":
    return frozenset(e for e, sem in REGISTRY.items() if sem.operand == operand)


#: Event types that operate on a lock (incl. rwlocks and monitors).
LOCK_EVENTS = _derive("lock")

#: Event types that access a shared variable.
ACCESS_EVENTS = _derive("variable")

#: Event types that reference another thread.
THREAD_EVENTS = _derive("thread")

#: Event types that operate on a barrier.
BARRIER_EVENTS = _derive("barrier")

#: The paper's original six-event vocabulary plus begin/end markers.
CORE_VOCABULARY = frozenset({
    EventType.ACQUIRE, EventType.RELEASE, EventType.READ, EventType.WRITE,
    EventType.FORK, EventType.JOIN, EventType.BEGIN, EventType.END,
})

#: Event types whose processing moves vector clocks (the sync skeleton).
MOVES_CLOCKS = frozenset(
    e for e, sem in REGISTRY.items()
    if sem.shard_class == "replicate" and sem.clock_action != "none"
)

#: Event types whose epilogue bumps a local clock (release-like events);
#: the partitioner mirrors this as its "pending bump" set.
BUMPS_CLOCK = frozenset(e for e, sem in REGISTRY.items() if sem.bumps is not None)


def _build_token_map() -> Dict[str, EventType]:
    tokens: Dict[str, EventType] = {}
    for sem in REGISTRY.values():
        for token in sem.tokens:
            if token in tokens:  # pragma: no cover - defensive
                raise ValueError("duplicate wire token %r" % token)
            tokens[token] = sem.etype
    return tokens


#: Wire token (lower-case) -> EventType, for every accepted spelling.
TOKEN_TO_ETYPE = _build_token_map()

assert all(
    sem.token == sem.etype.value for sem in REGISTRY.values()
), "canonical tokens must round-trip through EventType.value"


#: operand kind -> Event-construction error message.
OPERAND_ERRORS = {
    "lock": "lock events require a lock target",
    "variable": "read/write events require a variable target",
    "thread": "fork/join events require a thread target",
    "barrier": "barrier events require a barrier target",
}

#: ``id(etype)`` -> lock-discipline role.  Identity keys keep the
#: per-event lookup free of the Python-level ``Enum.__hash__``.
_ROLES = {id(etype): sem.role for etype, sem in REGISTRY.items()}

#: validator role -> the verb quoted in release-side error messages.
_CLOSE_VERBS = {"release": "release", "rw-release": "rwlock release"}

#: validator role -> the modes it may close.
_CLOSE_MODES = {"release": ("excl",), "rw-release": ("read", "write")}

#: section mode -> human label used in wrong-release-kind messages.
_MODE_LABELS = {"excl": "mutex", "read": "read-lock", "write": "write-lock"}


class LockDiscipline:
    """The shared lock-semantics / well-nestedness state machine.

    Both ``Trace`` construction (batch validation) and the streaming
    paths check through :class:`~repro.trace.lockcheck.OnlineValidator`,
    which runs one of these without the compiled kernels, and with them
    hands it the compiled state at the first row the C pass declines, so
    every path raises the identical exception class and message for the
    same violation.

    State:

    ``holder``
        lock -> ``(thread, open position)`` for locks held exclusively
        (``acq``, ``wait`` or ``racq_w``);
    ``read_holders``
        lock -> ``{thread: open position}`` for read-mode holders;
    ``open``
        thread -> stack of ``(lock, open position, mode)`` open
        sections, innermost last, where mode is ``"excl"``/``"read"``/
        ``"write"``.  A thread's entry is removed as soon as its stack
        empties, so lock-free stream suffixes hold zero state.

    :meth:`step` returns what happened structurally -- ``("open",
    mode)``, ``("close", open_position, mode)`` or ``("unmatched",
    None, None)`` for the best-effort non-validating path -- and None
    for event kinds with no lock-discipline role.
    """

    __slots__ = ("holder", "read_holders", "open")

    def __init__(self) -> None:
        self.holder: Dict[str, Tuple[str, int]] = {}
        self.read_holders: Dict[str, Dict[str, int]] = {}
        self.open: Dict[str, List[Tuple[str, int, str]]] = {}

    # ------------------------------------------------------------------ #
    # Transitions
    # ------------------------------------------------------------------ #

    def step(
        self,
        etype: EventType,
        thread: str,
        lock: Optional[str],
        index: int,
        validate: bool = True,
    ) -> Optional[Tuple]:
        """Apply one event; raises on the first violation when validating."""
        role = _ROLES[id(etype)]
        if role is None:
            return None
        if role == "acquire":
            return self._open_excl(thread, lock, index, validate, verb="acquired")
        if role == "write-acquire":
            return self._open_write(thread, lock, index, validate)
        if role == "read-acquire":
            return self._open_read(thread, lock, index, validate)
        return self._close(role, thread, lock, index, validate)

    def _open_excl(self, thread, lock, index, validate, verb):
        if validate:
            held = self.holder.get(lock)
            if held is not None:
                if held[0] != thread:
                    raise LockSemanticsError(
                        "lock %r %s at event %d while held by thread %r "
                        "(acquired at event %d)"
                        % (lock, verb, index, held[0], held[1])
                    )
                raise LockSemanticsError(
                    "re-entrant %s of lock %r at event %d; re-entrant "
                    "locking must be flattened by the trace producer"
                    % ("acquire" if verb == "acquired" else "write-acquire",
                       lock, index)
                )
            readers = self.read_holders.get(lock)
            if readers:
                rthread, rindex = next(iter(readers.items()))
                raise LockSemanticsError(
                    "lock %r %s at event %d while read-held by thread %r "
                    "(read-acquired at event %d)"
                    % (lock, verb, index, rthread, rindex)
                )
        mode = "excl" if verb == "acquired" else "write"
        self.holder[lock] = (thread, index)
        self.open.setdefault(thread, []).append((lock, index, mode))
        return ("open", mode)

    def _open_write(self, thread, lock, index, validate):
        return self._open_excl(thread, lock, index, validate, verb="write-acquired")

    def _open_read(self, thread, lock, index, validate):
        if validate:
            held = self.holder.get(lock)
            if held is not None:
                raise LockSemanticsError(
                    "lock %r read-acquired at event %d while held by thread "
                    "%r (acquired at event %d)"
                    % (lock, index, held[0], held[1])
                )
            readers = self.read_holders.get(lock)
            if readers is not None and thread in readers:
                raise LockSemanticsError(
                    "re-entrant read-acquire of lock %r at event %d; "
                    "re-entrant locking must be flattened by the trace "
                    "producer" % (lock, index)
                )
        self.read_holders.setdefault(lock, {})[thread] = index
        self.open.setdefault(thread, []).append((lock, index, "read"))
        return ("open", "read")

    def _close(self, role, thread, lock, index, validate):
        verb = _CLOSE_VERBS[role]
        modes = _CLOSE_MODES[role]
        stack = self.open.get(thread)
        if not stack:
            if validate:
                raise LockSemanticsError(
                    "%s of %r at event %d with no lock held" % (verb, lock, index)
                )
            return ("unmatched", None, None)
        top_lock, top_index, top_mode = stack[-1]
        if top_lock != lock or top_mode not in modes:
            if validate:
                if top_lock != lock:
                    raise WellNestednessError(
                        "%s of %r at event %d does not match innermost "
                        "open acquire of %r at event %d"
                        % (verb, lock, index, top_lock, top_index)
                    )
                raise WellNestednessError(
                    "%s of %r at event %d closes the %s section opened at "
                    "event %d (wrong release kind)"
                    % (verb, lock, index, _MODE_LABELS[top_mode], top_index)
                )
            # Best-effort: find a closable open section of this lock anywhere.
            found = None
            for entry in reversed(stack):
                if entry[0] == lock and entry[2] in modes:
                    found = entry
                    break
            if found is not None:
                stack.remove(found)
                if not stack:
                    del self.open[thread]
                self._drop_holder(lock, thread, found[2])
            self.holder.pop(lock, None)
            if found is not None:
                return ("close", found[1], found[2])
            return ("unmatched", None, None)
        stack.pop()
        if not stack:
            del self.open[thread]
        self._drop_holder(lock, thread, top_mode)
        return ("close", top_index, top_mode)

    def _drop_holder(self, lock, thread, mode):
        if mode == "read":
            readers = self.read_holders.get(lock)
            if readers is not None:
                readers.pop(thread, None)
                if not readers:
                    del self.read_holders[lock]
        else:
            self.holder.pop(lock, None)

    # ------------------------------------------------------------------ #
    # Introspection / snapshot helpers
    # ------------------------------------------------------------------ #

    def open_sections(self, thread: str) -> List[Tuple[str, int, str]]:
        """The thread's open sections, innermost last (empty when none)."""
        return self.open.get(thread, [])

    def state_size(self) -> int:
        """Entries currently held; zero on a fully closed stream."""
        return (
            len(self.holder)
            + sum(len(readers) for readers in self.read_holders.values())
            + sum(len(stack) for stack in self.open.values())
        )

    def state_dict(self) -> dict:
        """Codec-encodable state (see ``OnlineValidator.state_dict``)."""
        return {
            "holder": dict(self.holder),
            "open": {thread: list(stack) for thread, stack in self.open.items()},
            "read_holders": {
                lock: dict(readers)
                for lock, readers in self.read_holders.items()
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "LockDiscipline":
        """Inverse of :meth:`state_dict`; accepts pre-rwlock checkpoints
        whose open-stack entries lack the mode field."""
        discipline = cls()
        discipline.holder = {
            lock: tuple(entry) for lock, entry in state["holder"].items()
        }
        discipline.open = {
            thread: [
                tuple(entry) if len(entry) == 3 else (entry[0], entry[1], "excl")
                for entry in stack
            ]
            for thread, stack in state["open"].items()
        }
        discipline.read_holders = {
            lock: dict(readers)
            for lock, readers in state.get("read_holders", {}).items()
        }
        return discipline

"""Deterministic fault injection for the sharded engine and serve tier.

Fault tolerance that is only ever exercised by real crashes is fault
tolerance that regresses silently.  This module makes every failure mode
the supervision layer (:mod:`repro.engine.supervision`) handles
*constructible*: a :class:`FaultPlan` is a list of one-shot
:class:`Fault` triggers -- kill shard worker ``k`` once it reaches event
``n``, drop or duplicate the ``m``-th batch ack, corrupt the ``j``-th
collected snapshot blob, close a worker pipe after batch ``b``,
disconnect a serve client at event ``n`` -- that the engine's injection
points consult at deterministic positions in the run.  The same plan
therefore produces the same failure on every execution, which is what
lets the parity suite assert byte-identical reports *through* a failure
instead of merely observing recovery in CI chaos runs.

Plans are coordinator-side objects; the only thing that crosses into a
worker is the plain kill threshold (an int), so nothing here needs to be
picklable.  All triggers are one-shot: a restarted worker does not
re-inherit the fault that killed it (bounded-retry exhaustion is tested
by lowering the retry budget, not by a recurring fault).
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "Fault",
    "FaultPlan",
    "InjectedDeath",
    "WorkerDied",
]


class WorkerDied(RuntimeError):
    """A shard worker vanished mid-run (process death, pipe EOF, hang).

    Raised by the transports when the worker side of the protocol is
    gone -- as opposed to a worker-*reported* exception, which is
    deterministic and therefore never retried.  Under supervision this
    triggers failover; with ``shard_retries=0`` (or the budget spent) it
    surfaces wrapped in an actionable
    :class:`~repro.engine.supervision.WorkerFailure` instead of a raw
    ``EOFError`` traceback.
    """

    def __init__(self, shard: int, cause: str) -> None:
        super().__init__(
            "shard %d worker died unexpectedly (%s)" % (shard, cause)
        )
        self.shard = shard
        self.cause = cause


class InjectedDeath(BaseException):
    """Simulated abrupt worker death (the serial transport).

    A ``BaseException`` so the worker loops' ordinary ``except
    Exception`` error reporting -- which is reserved for deterministic
    detector failures -- cannot mistake an injected crash for one.
    Process workers do not raise it: they ``os._exit`` so the
    coordinator observes a genuine pipe EOF.
    """


#: Fault kinds understood by the injection points.
KILL_WORKER = "kill_worker"
DROP_ACK = "drop_ack"
DUPLICATE_ACK = "duplicate_ack"
CORRUPT_SNAPSHOT = "corrupt_snapshot"
PIPE_EOF = "pipe_eof"
DISCONNECT = "disconnect"
KILL_COORDINATOR = "kill_coordinator"
CONNECT_REFUSE = "connect_refuse"
CONNECTION_RESET = "connection_reset"
CONNECTION_STALL = "connection_stall"

_KINDS = (
    KILL_WORKER, DROP_ACK, DUPLICATE_ACK, CORRUPT_SNAPSHOT, PIPE_EOF,
    DISCONNECT, KILL_COORDINATOR, CONNECT_REFUSE, CONNECTION_RESET,
    CONNECTION_STALL,
)


class Fault:
    """One deterministic one-shot failure trigger.

    Use the classmethod constructors; ``at`` is the trigger position in
    the unit natural to the kind (absolute event offset for
    ``kill_worker``/``disconnect``, 0-based ack ordinal for the ack
    faults, 0-based collected-snapshot ordinal for
    ``corrupt_snapshot``, 0-based sent-batch ordinal for ``pipe_eof``).
    """

    def __init__(self, kind: str, shard: Optional[int], at: int) -> None:
        if kind not in _KINDS:
            raise ValueError(
                "unknown fault kind %r; available: %s"
                % (kind, ", ".join(_KINDS))
            )
        if at < 0:
            raise ValueError("fault trigger position must be >= 0")
        self.kind = kind
        self.shard = shard
        self.at = at
        self.fired = False

    # -- constructors ---------------------------------------------------- #

    @classmethod
    def kill_worker(cls, shard: int, at_event: int) -> "Fault":
        """Kill shard ``shard``'s worker once it reaches event ``at_event``.

        ``at_event`` counts the worker's *own* processed events (its
        substream position).  Process workers hard-exit (the coordinator
        sees pipe EOF); serial workers die with
        :class:`InjectedDeath`.
        """
        return cls(KILL_WORKER, shard, at_event)

    @classmethod
    def drop_ack(cls, shard: int, ack: int) -> "Fault":
        """Swallow shard ``shard``'s ``ack``-th batch acknowledgement."""
        return cls(DROP_ACK, shard, ack)

    @classmethod
    def duplicate_ack(cls, shard: int, ack: int) -> "Fault":
        """Deliver shard ``shard``'s ``ack``-th acknowledgement twice."""
        return cls(DUPLICATE_ACK, shard, ack)

    @classmethod
    def corrupt_snapshot(cls, shard: int, snapshot: int = 0) -> "Fault":
        """Bit-flip shard ``shard``'s ``snapshot``-th collected blob."""
        return cls(CORRUPT_SNAPSHOT, shard, snapshot)

    @classmethod
    def pipe_eof(cls, shard: int, at_batch: int) -> "Fault":
        """Close shard ``shard``'s transport after sending batch ``at_batch``."""
        return cls(PIPE_EOF, shard, at_batch)

    @classmethod
    def disconnect(cls, at_event: int) -> "Fault":
        """Serve tier: drop the client connection at event ``at_event``."""
        return cls(DISCONNECT, None, at_event)

    @classmethod
    def kill_coordinator(cls, at_event: int) -> "Fault":
        """Hard-kill the supervised engine process at event ``at_event``.

        Consumed by the run supervisor
        (:class:`~repro.engine.runner.RunSupervisor`): the next child
        process it spawns ``os._exit``\\ s once its source has emitted
        ``at_event`` events (an absolute stream offset, resumes
        included) -- indistinguishable from a SIGKILL/OOM from the
        supervisor's side.  One-shot per fault: plan N kills to crash N
        successive children.
        """
        return cls(KILL_COORDINATOR, None, at_event)

    @classmethod
    def refuse_connect(cls, attempt: int) -> "Fault":
        """Client: refuse the ``attempt``-th connection attempt (0-based)."""
        return cls(CONNECT_REFUSE, None, attempt)

    @classmethod
    def reset_connection(cls, at_event: int) -> "Fault":
        """Client: reset the connection mid-line at sent event ``at_event``."""
        return cls(CONNECTION_RESET, None, at_event)

    @classmethod
    def stall_connection(cls, read: int) -> "Fault":
        """Client: time out the ``read``-th response read (0-based)."""
        return cls(CONNECTION_STALL, None, read)

    def __repr__(self) -> str:
        return "Fault(%s, shard=%r, at=%d%s)" % (
            self.kind, self.shard, self.at, ", fired" if self.fired else "",
        )


class FaultPlan:
    """A deterministic set of :class:`Fault` triggers for one run.

    Attach it to a run with
    :meth:`~repro.engine.config.EngineConfig.with_fault_plan` (or
    ``ServeSettings.fault_plan`` for the serve tier).  The engine's
    injection points call the query methods below at fixed positions;
    each matching fault fires exactly once.  After the run,
    :meth:`unfired` lets a test assert every planned fault was actually
    reached.
    """

    def __init__(self, faults: Optional[List[Fault]] = None) -> None:
        self.faults: List[Fault] = list(faults or [])

    def add(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        return self

    # -- convenience builders -------------------------------------------- #

    @classmethod
    def kill(cls, shard: int, at_event: int) -> "FaultPlan":
        return cls([Fault.kill_worker(shard, at_event)])

    # -- queries (the engine's injection points) ------------------------- #

    def _fire(self, kind: str, shard: Optional[int], position: int) -> bool:
        for fault in self.faults:
            if (
                not fault.fired
                and fault.kind == kind
                and fault.shard == shard
                and fault.at == position
            ):
                fault.fired = True
                return True
        return False

    def take_kill_event(self, shard: int) -> Optional[int]:
        """Consume and return the kill threshold armed for ``shard``."""
        for fault in self.faults:
            if (
                not fault.fired
                and fault.kind == KILL_WORKER
                and fault.shard == shard
            ):
                fault.fired = True
                return fault.at
        return None

    def drop_ack(self, shard: int, ack: int) -> bool:
        """True when shard ``shard``'s ``ack``-th ack must be swallowed."""
        return self._fire(DROP_ACK, shard, ack)

    def duplicate_ack(self, shard: int, ack: int) -> bool:
        """True when shard ``shard``'s ``ack``-th ack arrives twice."""
        return self._fire(DUPLICATE_ACK, shard, ack)

    def corrupt_snapshot(self, shard: int, snapshot: int) -> bool:
        """True when this collected snapshot blob must be bit-flipped."""
        return self._fire(CORRUPT_SNAPSHOT, shard, snapshot)

    def break_pipe(self, shard: int, batch: int) -> bool:
        """True when the transport must lose its pipe after this batch."""
        return self._fire(PIPE_EOF, shard, batch)

    def disconnect_at(self, events: int) -> bool:
        """Serve tier: True when the client connection drops at ``events``."""
        return self._fire(DISCONNECT, None, events)

    def take_coordinator_kill(self) -> Optional[int]:
        """Consume and return the coordinator-kill event threshold."""
        for fault in self.faults:
            if not fault.fired and fault.kind == KILL_COORDINATOR:
                fault.fired = True
                return fault.at
        return None

    def refuse_connect(self, attempt: int) -> bool:
        """Client: True when connection attempt ``attempt`` must be refused."""
        return self._fire(CONNECT_REFUSE, None, attempt)

    def reset_connection_at(self, events: int) -> bool:
        """Client: True when the connection resets at sent event ``events``."""
        return self._fire(CONNECTION_RESET, None, events)

    def stall_read_at(self, read: int) -> bool:
        """Client: True when response read ``read`` must time out."""
        return self._fire(CONNECTION_STALL, None, read)

    # -- bookkeeping ----------------------------------------------------- #

    def fired(self) -> List[Fault]:
        """The faults that have fired so far."""
        return [fault for fault in self.faults if fault.fired]

    def unfired(self) -> List[Fault]:
        """The faults never reached (a test asserting coverage wants [])."""
        return [fault for fault in self.faults if not fault.fired]

    def __repr__(self) -> str:
        return "FaultPlan(%d fault(s), %d fired)" % (
            len(self.faults), len(self.fired()),
        )


def corrupt_blob(blob: bytes, position: Optional[int] = None) -> bytes:
    """Return ``blob`` with one byte bit-flipped (test/injection helper).

    ``position`` defaults to the middle of the blob, which lands inside
    the payload rather than the framing header -- the corruption the CRC
    frame exists to catch.
    """
    if not blob:
        return blob
    index = len(blob) // 2 if position is None else position % len(blob)
    mutated = bytearray(blob)
    mutated[index] ^= 0x55
    return bytes(mutated)

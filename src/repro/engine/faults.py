"""Deterministic fault injection for the engine, the serve tier and the client.

Fault tolerance that is only ever exercised by real crashes is fault
tolerance that regresses silently.  This module makes every failure the
recovery paths handle *constructible*: a :class:`FaultPlan` is a list of
one-shot :class:`Fault` triggers -- kill shard worker ``k`` once it
reaches event ``n``, kill the supervised engine process at event ``n``,
disconnect a serve client at event ``n``, refuse, reset or stall a
client connection -- that the injection points consult at deterministic
positions in the run.  The same plan therefore produces the same failure
on every execution, which is what lets the parity suites assert
byte-identical reports *through* a failure instead of merely observing
recovery in CI chaos runs.

A killed shard worker ends its sharded pass with one
:class:`~repro.engine.sharding.WorkerFailure`; the run supervisor
(:class:`~repro.engine.runner.RunSupervisor`, ``analyze
--auto-resume``) recovers it by resuming from the newest checkpoint.
The supervisor takes the engine-side faults out of the plan in its own
process, at most one coordinator kill and one worker kill per attempt,
so a resumed attempt does not die again at a fault that already fired.
The only thing that crosses into a worker is the plain kill threshold
(an int), so nothing here needs to be picklable.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "Fault",
    "FaultPlan",
]


#: Fault kinds understood by the injection points.
KILL_WORKER = "kill_worker"
DISCONNECT = "disconnect"
KILL_COORDINATOR = "kill_coordinator"
CONNECT_REFUSE = "connect_refuse"
CONNECTION_RESET = "connection_reset"
CONNECTION_STALL = "connection_stall"

_KINDS = (
    KILL_WORKER, DISCONNECT, KILL_COORDINATOR, CONNECT_REFUSE,
    CONNECTION_RESET, CONNECTION_STALL,
)


class Fault:
    """One deterministic one-shot failure trigger.

    Use the classmethod constructors; ``at`` is the trigger position in
    the unit natural to the kind (the worker's own event count for
    ``kill_worker``, an absolute event offset for ``kill_coordinator``,
    ``disconnect`` and ``reset_connection``, a 0-based attempt or read
    ordinal for ``refuse_connect`` and ``stall_connection``).
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
        substream position, restored on a resumed run).  Process workers
        hard-exit (the coordinator sees pipe EOF); serial workers raise
        :class:`~repro.engine.sharding.WorkerFailure`.  Either way the
        sharded pass ends with that error; under
        :class:`~repro.engine.runner.RunSupervisor` the run resumes from
        its newest checkpoint.
        """
        return cls(KILL_WORKER, shard, at_event)

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

    def _fire(self, kind: str, position: int) -> bool:
        for fault in self.faults:
            if not fault.fired and fault.kind == kind and fault.at == position:
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

    def disconnect_at(self, events: int) -> bool:
        """Serve tier: True when the client connection drops at ``events``."""
        return self._fire(DISCONNECT, events)

    def take_coordinator_kill(self) -> Optional[int]:
        """Consume and return the coordinator-kill event threshold."""
        fault = self._take(KILL_COORDINATOR)
        return fault.at if fault is not None else None

    def take_worker_kill(self) -> Optional[Fault]:
        """Consume and return the next worker-kill fault, any shard."""
        return self._take(KILL_WORKER)

    def _take(self, kind: str) -> Optional[Fault]:
        for fault in self.faults:
            if not fault.fired and fault.kind == kind:
                fault.fired = True
                return fault
        return None

    def refuse_connect(self, attempt: int) -> bool:
        """Client: True when connection attempt ``attempt`` must be refused."""
        return self._fire(CONNECT_REFUSE, attempt)

    def reset_connection_at(self, events: int) -> bool:
        """Client: True when the connection resets at sent event ``events``."""
        return self._fire(CONNECTION_RESET, events)

    def stall_read_at(self, read: int) -> bool:
        """Client: True when response read ``read`` must time out."""
        return self._fire(CONNECTION_STALL, read)

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
    """Return ``blob`` with one byte bit-flipped (a test helper).

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

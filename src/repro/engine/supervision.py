"""Worker supervision and checkpoint-based failover for the sharded engine.

:class:`~repro.engine.sharding.ShardedEngine` splits one pass across N
worker engines; before this module, any worker death (OOM kill, crashed
interpreter, severed pipe) surfaced as a raw ``EOFError`` and lost every
shard's work.  Supervision turns worker death into a bounded, *exact*
recovery:

* **Health tracking** -- every batch a worker processes is acknowledged
  on the existing batch-ack protocol; the supervisor counts outstanding
  batches per shard and treats a configurable silence
  (``shard_heartbeat_s``) with work outstanding, a worker that leaves a
  snapshot or finish request unanswered for as long, or a worker whose
  process is simply gone, as death.
* **Periodic shard snapshots** -- the PR 5 ``("snapshot",)`` message is
  driven on a cadence (``shard_snapshot_every`` batches): the supervisor
  keeps each shard's two newest snapshots in memory, CRC-framed
  (:func:`~repro.engine.checkpoint.frame_blob`), plus every batch sent
  since the *older* of the two, so a single corrupt blob never makes a
  shard unrecoverable.
* **Failover** -- on death the supervisor restarts the worker (bounded
  retries, exponential backoff), restores it from the newest intact
  snapshot and replays the buffered batches.  Workers are deterministic
  functions of their restored state and replayed substream, so the
  merged report is byte-identical to the uninterrupted run -- witnesses
  and distances included.  ``shard_retries=0`` (or an exhausted retry
  budget) raises one actionable :class:`WorkerFailure` instead.

The knobs are :class:`~repro.engine.config.EngineConfig`'s
``shard_retries``, ``shard_heartbeat_s``, ``shard_snapshot_every`` and
``shard_backoff_s`` (the restart delay doubles per attempt, up to
:data:`BACKOFF_MAX_S`), validated once by
:meth:`~repro.engine.config.EngineConfig.with_shard_supervision`.

Every failure mode is reproducible through the deterministic
:class:`~repro.engine.faults.FaultPlan` harness; the parity suite in
``tests/test_supervision.py`` asserts report identity through each one.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, List, Optional

from repro.engine.checkpoint import (
    CheckpointError,
    frame_blob,
    unframe_blob,
)
from repro.engine.faults import FaultPlan, WorkerDied, corrupt_blob
from repro.vectorclock.codec import decode, encode

__all__ = [
    "SupervisedTransport",
    "WorkerFailure",
    "new_supervision_stats",
]

logger = logging.getLogger("repro.engine.supervision")


class WorkerFailure(RuntimeError):
    """A shard worker could not be (or was configured not to be) recovered.

    The single actionable error the sharded engine raises for worker
    death: it names the shard, the cause, and what to do about it --
    never a raw ``EOFError`` out of a pipe.
    """


#: Cap of the exponential restart backoff, in seconds.
BACKOFF_MAX_S = 2.0


def new_supervision_stats() -> dict:
    """A fresh run-level supervision counter bag (shared by all shards)."""
    return {
        "worker_restarts": 0,
        "heartbeat_timeouts": 0,
        "snapshot_fallbacks": 0,
        "shutdown_escalations": 0,
        "restarts_by_shard": {},
    }


class SupervisedTransport:
    """One shard's transport, wrapped with health tracking and failover.

    Speaks the exact transport protocol the coordinator already uses
    (``send`` / ``poll_progress`` / ``snapshot_begin`` / ``snapshot_end``
    / ``snapshot`` / ``finish`` / ``abort``), so the coordinator loop is
    oblivious to recovery.  ``factory(restore)`` rebuilds the underlying
    transport -- process or serial -- from a worker-state dict (or
    fresh, on ``None``).  ``config`` is the run's
    :class:`~repro.engine.config.EngineConfig`: the ``shard_*``
    supervision fields and the fault plan are read off it.

    ``recoverable=False`` (a detector without snapshot support) keeps
    the health tracking and error normalization but disables buffering
    and failover: death raises an actionable :class:`WorkerFailure`
    immediately instead of accumulating an unbounded replay buffer.
    """

    def __init__(
        self,
        shard: int,
        factory: Callable[[Optional[dict]], object],
        config,
        stats: dict,
        recoverable: bool = True,
    ) -> None:
        self.shard = shard
        self.factory = factory
        self.config = config
        self.stats = stats
        self.plan: Optional[FaultPlan] = config.fault_plan
        self.recoverable = recoverable and config.shard_retries > 0
        self.transport = factory(None)
        self.restarts = 0
        #: Batches sent over the run (global sequence; replay-invariant).
        self._sent = 0
        #: Batches sent on the *current* underlying transport incarnation.
        self._sent_on_transport = 0
        #: (sequence, batch) pairs since the older retained snapshot.
        self._buffer: List[tuple] = []
        #: Up to two newest snapshots: (covered_sequence, framed_bytes).
        self._snapshots: List[tuple] = []
        self._snapshot_count = 0
        self._last_snapshot_seq = 0
        self._seen_acks = 0
        self._last_ack_change = time.monotonic()
        self._finished = False

    # ------------------------------------------------------------------ #
    # The coordinator-facing transport protocol
    # ------------------------------------------------------------------ #

    def send(self, batch: List[tuple]) -> None:
        # Liveness first, buffer second: a failover triggered here must
        # replay only *previous* batches -- the current one is sent (or
        # re-sent via the except path) below, exactly once.
        self._check_liveness()
        self._sent += 1
        if self.recoverable:
            self._buffer.append((self._sent, batch))
        try:
            self._raw_send(batch)
        except WorkerDied as death:
            self._handle_death(death)
        every = self.config.shard_snapshot_every
        if (
            self.recoverable
            and every
            and self._sent - self._last_snapshot_seq >= every
        ):
            self._refresh_snapshot()

    def poll_progress(self):
        try:
            return self.transport.poll_progress()
        except WorkerDied as death:
            self._handle_death(death)
            return self.transport.poll_progress()

    def snapshot_begin(self):
        try:
            return ("ok", self.transport.snapshot_begin())
        except WorkerDied as death:
            self._handle_death(death)
            return ("failed", None)

    def snapshot_end(self, token) -> dict:
        status, inner = token
        if status == "ok":
            try:
                state = self.transport.snapshot_end(inner)
                self._store_snapshot(state)
                return state
            except WorkerDied as death:
                self._handle_death(death)
        # The worker died mid-request (or before it): the restarted
        # worker has replayed everything sent, so its state is the state
        # the dead one would have reported.
        state = self.snapshot()
        return state

    def snapshot(self) -> dict:
        try:
            state = self.transport.snapshot()
        except WorkerDied as death:
            self._handle_death(death)
            state = self.transport.snapshot()
        self._store_snapshot(state)
        return state

    def finish(self) -> dict:
        try:
            payload = self.transport.finish()
        except WorkerDied as death:
            self._handle_death(death)
            payload = self.transport.finish()
        self._finished = True
        self._buffer = []
        self._harvest_escalations()
        return payload

    def abort(self) -> None:
        """Hard-stop the worker (coordinator-side exception teardown)."""
        self.transport.abort()
        self._harvest_escalations()

    # ------------------------------------------------------------------ #
    # Health tracking
    # ------------------------------------------------------------------ #

    def outstanding(self) -> int:
        """Batches sent to the current worker and not yet acknowledged."""
        return max(0, self._sent_on_transport - self.transport.acked())

    def _check_liveness(self) -> None:
        """The heartbeat: acks must keep flowing while work is in flight."""
        try:
            self.transport.poll_progress()
        except WorkerDied as death:
            self._handle_death(death)
            return
        now = time.monotonic()
        acked = self.transport.acked()
        if acked != self._seen_acks:
            self._seen_acks = acked
            self._last_ack_change = now
        if self._sent_on_transport - acked <= 0:
            self._last_ack_change = now
            return
        if not self.transport.alive():
            self._failover("worker is no longer alive")
        elif now - self._last_ack_change > self.config.shard_heartbeat_s:
            self.stats["heartbeat_timeouts"] += 1
            self._failover(
                "no batch ack for %.1fs with %d batch(es) outstanding"
                % (now - self._last_ack_change, self.outstanding())
            )

    def _handle_death(self, death: WorkerDied) -> None:
        """Classify a transport-raised death, then fail over.

        A death tagged ``stalled`` (a hung-but-alive worker process
        condemned on heartbeat expiry by the transport itself) is a
        heartbeat timeout, not a crash -- counted as such so operators
        can tell wedged workers from dying ones.
        """
        if getattr(death, "stalled", False):
            self.stats["heartbeat_timeouts"] += 1
        self._failover(death.cause)

    # ------------------------------------------------------------------ #
    # Snapshots and the replay buffer
    # ------------------------------------------------------------------ #

    def _refresh_snapshot(self) -> None:
        self._last_snapshot_seq = self._sent
        try:
            state = self.transport.snapshot()
        except WorkerDied as death:
            self._handle_death(death)
            return
        self._store_snapshot(state)

    def _store_snapshot(self, state: dict) -> None:
        """Frame, (maybe) corrupt, retain-2, and trim the replay buffer."""
        if not self.recoverable:
            return
        framed = frame_blob(encode(state))
        index = self._snapshot_count
        self._snapshot_count = index + 1
        if self.plan is not None and self.plan.corrupt_snapshot(
            self.shard, index
        ):
            framed = corrupt_blob(framed)
        self._snapshots.append((self._sent, framed))
        if len(self._snapshots) > 2:
            del self._snapshots[0]
        if len(self._snapshots) == 2:
            # The buffer must reach back to the *older* retained
            # snapshot: that is what makes a single corrupt newest blob
            # recoverable instead of fatal.
            horizon = self._snapshots[0][0]
            self._buffer = [
                entry for entry in self._buffer if entry[0] > horizon
            ]

    def _pick_restore(self):
        """Newest intact snapshot as ``(covered_sequence, state_or_None)``."""
        while self._snapshots:
            covered, framed = self._snapshots[-1]
            try:
                state = decode(
                    unframe_blob(framed, what="shard %d snapshot" % self.shard)
                )
                return covered, state
            except (CheckpointError, ValueError) as error:
                self.stats["snapshot_fallbacks"] += 1
                logger.warning(
                    "shard %d: snapshot covering batch %d is corrupt (%s); "
                    "falling back to the previous one",
                    self.shard, covered, error,
                )
                self._snapshots.pop()
        return 0, None

    # ------------------------------------------------------------------ #
    # Failover
    # ------------------------------------------------------------------ #

    def _failover(self, cause: str) -> None:
        retries = self.config.shard_retries
        if not self.recoverable:
            if retries == 0:
                raise WorkerFailure(
                    "shard %d worker died (%s); failover is disabled "
                    "(shard retries = 0) -- raise --shard-retries to "
                    "recover automatically" % (self.shard, cause)
                )
            raise WorkerFailure(
                "shard %d worker died (%s) and cannot be recovered: "
                "failover needs snapshot-capable detectors"
                % (self.shard, cause)
            )
        if self.restarts >= retries:
            raise WorkerFailure(
                "shard %d worker died again (%s) after %d restart(s); "
                "retry budget exhausted -- raise the shard retry budget "
                "(--shard-retries) or investigate the crash cause"
                % (self.shard, cause, self.restarts)
            )
        self.transport.abort()
        self._harvest_escalations()
        delay = min(
            BACKOFF_MAX_S, self.config.shard_backoff_s * (2 ** self.restarts)
        )
        if delay > 0:
            time.sleep(delay)
        covered, state = self._pick_restore()
        if state is None and self._buffer and self._buffer[0][0] > 1:
            raise WorkerFailure(
                "shard %d worker died (%s) and no intact snapshot remains; "
                "the replay buffer no longer reaches the stream start -- "
                "re-run the analysis" % (self.shard, cause)
            )
        self.restarts += 1
        self.stats["worker_restarts"] += 1
        by_shard = self.stats["restarts_by_shard"]
        by_shard[self.shard] = by_shard.get(self.shard, 0) + 1
        logger.warning(
            "shard %d worker died (%s); restart %d/%d from %s, replaying "
            "%d buffered batch(es)",
            self.shard, cause, self.restarts, retries,
            "snapshot at batch %d" % covered if state is not None
            else "stream start",
            sum(1 for seq, _ in self._buffer if seq > covered),
        )
        self.transport = self.factory(state)
        self._sent_on_transport = 0
        self._seen_acks = 0
        self._last_ack_change = time.monotonic()
        for seq, batch in self._buffer:
            if seq > covered:
                try:
                    self._raw_send(batch)
                except WorkerDied as death:
                    # Died again mid-replay: recurse (budget-bounded).
                    self._handle_death(death)
                    return

    def _raw_send(self, batch: List[tuple]) -> None:
        self.transport.send(batch)
        self._sent_on_transport += 1
        if self.plan is not None and self.plan.break_pipe(
            self.shard, self._sent - 1
        ):
            self.transport.break_pipe()

    def _harvest_escalations(self) -> None:
        taken = self.transport.take_escalations()
        if taken:
            self.stats["shutdown_escalations"] += taken

    def __repr__(self) -> str:
        return "SupervisedTransport(shard=%d, restarts=%d, sent=%d)" % (
            self.shard, self.restarts, self._sent,
        )

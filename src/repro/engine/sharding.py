"""Sharded multi-core race prediction: N worker engines over one stream.

:class:`ShardedEngine` splits a single event source across N shard
workers following the replication-vs-routing taxonomy of
:mod:`repro.engine.partition`: the synchronization skeleton is replicated
to every shard, memory accesses are routed to the shard that owns the
variable (plus clock-only *foreign* copies of in-critical-section accesses
when a detector needs them, i.e. WCP).  Each worker drives its own
detector instances over its substream in original trace order, so its
clock state matches the single engine's and its race verdicts for owned
variables are exactly the single engine's verdicts for those variables.

Transport modes
---------------
``process`` (default)
    One persistent ``multiprocessing`` worker process per shard, fed
    batches of compactly encoded events over a pipe.  This is the
    multi-core mode: Python's GIL never serializes the detectors.
``serial``
    Workers run inline in the calling thread, one batch at a time --
    deterministic and debuggable; the reference mode for the parity suite.

Shard-boundary protocol
-----------------------
Workers and the coordinator exchange two kinds of messages at batch
boundaries, plus the final results:

* **progress** -- events processed and per-detector ``(distinct, raw)``
  race counts, used for merged incremental snapshots and batch-granular
  early stop;
* **clock/registry state** -- each worker's interning table
  (:meth:`~repro.vectorclock.registry.ThreadRegistry.names`) plus its
  detectors' serialized per-thread clocks
  (:meth:`~repro.core.detector.Detector.sync_clock_state`), shipped in
  the finish payload.  The
  coordinator folds them into one view by interning the worker's names
  into the merged registry
  (:meth:`~repro.vectorclock.registry.ThreadRegistry.merge_names`),
  remapping each clock's tids
  (:meth:`~repro.vectorclock.dense.DenseClock.remapped`) and joining.
  Because the clock-relevant stream is replicated, all workers must agree
  on this state -- the parity tests assert it, making taxonomy bugs
  observable instead of silent;
* **results** -- the worker's final :class:`~repro.core.races.RaceReport`
  per detector, merged into one report per detector (dedup by location
  pair, earliest-shard witness, maximum distance -- identical to the
  single engine because every raw racy pair is found exactly once, on the
  variable's owner shard).

``shards=1`` bypasses all of this and delegates to
:class:`~repro.engine.engine.RaceEngine`, so single-shard output is
byte-identical to the unsharded engine by construction.

Worker state never travels by pickle.  Fresh workers construct their
private detector instances from configuration stamps
(:func:`~repro.engine.checkpoint.detector_stamp` /
:func:`~repro.engine.checkpoint.build_detector`); mid-run state crosses
process boundaries only as versioned snapshot blobs
(:meth:`~repro.core.detector.Detector.state_snapshot`), which is also
how the coordinator's checkpoint/resume works: at the configured cadence
it flushes all in-flight batches, collects every worker's snapshot, and
persists one sharded :class:`~repro.engine.checkpoint.Checkpoint`
(worker snapshots + partitioner state) through the same
:class:`~repro.engine.checkpoint.Checkpointer` the single-engine path
uses.  :meth:`ShardedEngine.resume` restores each worker from its blob
and replays the source suffix -- the merged report equals the
uninterrupted run's exactly.

Worker death
------------
A worker that dies (its process exits or is killed, its pipe breaks, or
it stays silent past :data:`STALL_TIMEOUT_S` while the coordinator
waits on it: for a snapshot or finish reply, or for a batch
acknowledgement once its unread batches fill half the pipe's send
buffer) ends the pass at once: the coordinator tears every worker down
and raises one :class:`WorkerFailure` that names the shard and the
cause.  The sharded engine restarts nothing itself.  Recovery is the run
supervisor's job (:class:`~repro.engine.runner.RunSupervisor`, ``analyze
--auto-resume``): it treats the failure as a crash of the run and
resumes it from the newest checkpoint, whose report equals the
uninterrupted run's.
"""

from __future__ import annotations

import os
import socket
import time
import traceback
from array import array
from collections import deque
from multiprocessing.reduction import ForkingPickler
from typing import Dict, List, Optional, Sequence

from repro.core.detector import Detector
from repro.core.races import RaceReport, ReportSnapshot
from repro.engine.checkpoint import (
    Checkpoint,
    Checkpointer,
    CheckpointMismatchError,
    build_detector,
    check_reconstructible,
    check_snapshot_support,
    detector_stamp,
    open_for_resume,
    restore_source_state,
    seek_source,
)
from repro.engine.config import DetectorSpec, EngineConfig
from repro.engine.engine import (
    STOP_EVENT_BUDGET,
    STOP_EXHAUSTED,
    STOP_RACE_BUDGET,
    EnginePass,
    EngineResult,
    RaceEngine,
)
from repro.engine.partition import REPLICATE, ROUTE, StreamPartitioner
from repro.engine.sources import as_source
from repro.trace.columns import ColumnBlock, OpTable
from repro.trace.event import Event, EventType
from repro.vectorclock.clock import VectorClock
from repro.vectorclock.codec import decode_clock
from repro.vectorclock.dense import DenseClock
from repro.vectorclock.registry import ThreadRegistry

#: Wire value -> EventType (EventType(...) does a linear scan; this is a dict).
_ETYPE_OF_VALUE = {etype.value: etype for etype in EventType}
#: ``id(etype)`` -> wire value (``.value`` is a DynamicClassAttribute
#: descriptor call and an EventType key hashes through Enum's Python-level
#: ``__hash__``; the coordinator reads it once per event).
_VALUE_OF_ETYPE = {id(etype): etype.value for etype in EventType}


class WorkerFailure(RuntimeError):
    """A shard worker died, and with it the sharded pass.

    The one error the sharded engine raises for a dead, killed or
    stalled worker, never a raw ``EOFError`` out of a pipe.  Its message
    is one line that names the shard and the cause and points to
    ``--auto-resume``, under which
    :class:`~repro.engine.runner.RunSupervisor` resumes the run from its
    newest checkpoint.
    """

    def __init__(self, shard: int, cause: str) -> None:
        # Both fields in ``args``: the run supervisor's child process
        # pickles the error back to its parent.
        super().__init__(shard, cause)
        self.shard = shard
        self.cause = cause

    def __str__(self) -> str:
        return (
            "shard %d worker died (%s); the sharded pass stopped -- run it "
            "under --auto-resume to resume from the newest checkpoint"
            % (self.shard, self.cause)
        )


class ShardedResult(EngineResult):
    """An :class:`EngineResult` plus shard-level metadata.

    Additional attributes:

    ``shards`` / ``mode``
        Worker count and transport mode of the run.
    ``shard_events`` / ``shard_busy_s``
        Per-shard processed-event counts and busy time (the per-shard
        event count exceeds ``events / shards`` by the replication
        overhead; ``max(shard_events) / events`` bounds the achievable
        speedup).
    ``partition_stats``
        The taxonomy census from :class:`StreamPartitioner.stats`.
    ``registry``
        The merged :class:`ThreadRegistry` over all workers.
    ``clock_state``
        Per detector key, the merged (joined) per-thread clocks as public
        name-keyed :class:`VectorClock`\\ s -- the coordinator's view of
        the global synchronization frontier.
    ``shard_clock_states`` / ``shard_names``
        The raw per-shard protocol payloads (``[shard][detector]`` ->
        ``{thread_name: serialized clock}``) and each worker's tid-ordered
        name table, kept so the parity suite can assert cross-shard clock
        agreement (worker clocks are keyed by *private* tids and only
        comparable after remapping through the name tables).
    """

    def __init__(
        self,
        *,
        shards: int,
        mode: str,
        shard_events: List[int],
        shard_busy_s: List[float],
        partition_stats: Dict[str, int],
        registry: ThreadRegistry,
        clock_state: Dict[str, Dict[object, VectorClock]],
        shard_clock_states: List[List[Optional[Dict[object, bytes]]]],
        shard_names: List[List[object]],
        **kwargs,
    ) -> None:
        super().__init__(census="none taken (sharded)", **kwargs)
        self.shards = shards
        self.mode = mode
        self.shard_events = shard_events
        self.shard_busy_s = shard_busy_s
        self.partition_stats = partition_stats
        self.registry = registry
        self.clock_state = clock_state
        self.shard_clock_states = shard_clock_states
        self.shard_names = shard_names

    def shard_clock_views(self, position: int) -> List[Dict[object, VectorClock]]:
        """Per-shard name-keyed clock views for detector ``position``.

        Deserializes each worker's boundary-protocol clocks and re-keys
        their components by thread *name* (worker tids are private), which
        makes the views directly comparable: on threads present in several
        views they must agree -- the observable form of the taxonomy's
        guarantee that every shard's clock state matches the full run.
        """
        views: List[Dict[object, VectorClock]] = []
        for names, clocks in zip(self.shard_names, self.shard_clock_states):
            worker_clocks = clocks[position]
            if not worker_clocks:
                continue
            view = {}
            for thread, blob in worker_clocks.items():
                clock = decode_clock(blob)
                view[thread] = VectorClock(
                    {names[tid]: value for tid, value in clock.items()}
                )
            views.append(view)
        return views

    def replication_factor(self) -> float:
        """Total shard-side events divided by source events (>= 1.0)."""
        if not self.events:
            return 1.0
        return sum(self.shard_events) / float(self.events)

    def work_speedup_bound(self) -> float:
        """Source events over the largest single-shard load.

        The partition-quality bound on parallel speedup: wall-clock gain
        can never exceed it, and approaches it as transport overhead
        vanishes.
        """
        busiest = max(self.shard_events) if self.shard_events else 0
        if not busiest:
            return 1.0
        return self.events / float(busiest)

    def summary(self) -> str:
        lines = [super().summary()]
        lines.append(
            "  %d shard(s) [%s]: events per shard %s, replication x%.2f, "
            "work-bound speedup x%.2f" % (
                self.shards, self.mode, self.shard_events,
                self.replication_factor(), self.work_speedup_bound(),
            )
        )
        return "\n".join(lines)


class _ShardWorker:
    """The in-process worker core shared by every transport mode.

    Owns the shard's detector instances, a private
    :class:`ThreadRegistry`, and -- through a shared
    :class:`~repro.engine.engine.EnginePass` -- the reset/finish
    semantics of the unsharded engine (shard substreams are genuine
    streams: no pre-scan, threads discovered lazily; snapshotting and
    early stop are coordinator-side, so the worker never steps the pass:
    it hands each transport batch whole to every detector's
    ``process_batch``).  Before that it marks each variable of a
    *foreign* access (owned by another shard) in every detector, once:
    :meth:`~repro.core.detector.Detector.mark_foreign`.
    """

    def __init__(
        self,
        shard_id: int,
        detectors: List[Detector],
        source_name: str,
        kill_at: Optional[int] = None,
        hard_exit: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self.detectors = detectors
        self.source_name = source_name
        #: Fault injection: die once the worker has processed this many
        #: events (process workers hard-exit so the coordinator sees a
        #: genuine pipe EOF; serial workers raise WorkerFailure).
        self.kill_at = kill_at
        self.hard_exit = hard_exit
        self.registry = ThreadRegistry()
        #: Wire ``(etype value, target)`` -> op id, across batches.
        self.op_table = OpTable()
        # Workers never step the pass (their detectors' cost covers only
        # reset and finish): busy time is measured per batch and shipped
        # in the finish payload.
        self.pass_ = EnginePass(
            None, detectors, source_name, registry=self.registry,
        )
        self.context = self.pass_.context
        self.events = 0
        self.busy_s = 0.0
        #: Variables marked foreign in every detector (empty again after a
        #: restore; marking is idempotent).
        self.foreign: set = set()

    def start(self) -> None:
        self.pass_.start()

    def restore(self, state: dict) -> None:
        """Restore the shard's detectors from a checkpointed worker state.

        ``state`` is one entry of a sharded checkpoint's ``shard_states``:
        the shard's processed-event count plus one snapshot blob per
        detector.  Must run after :meth:`start` (the blobs re-populate the
        worker's private registry through the restored name tables).
        """
        for detector, blob in zip(self.detectors, state["blobs"]):
            detector.restore_state(blob)
        self.events = state["events"]
        self.context.events_seen = self.events

    def snapshot_state(self) -> dict:
        """Freeze the shard for a coordinator checkpoint."""
        return {
            "events": self.events,
            "blobs": [
                detector.state_snapshot() for detector in self.detectors
            ],
        }

    def process_batch(self, batch: List[tuple]) -> None:
        if self.kill_at is not None and self.events + len(batch) >= self.kill_at:
            # Injected abrupt death: process the prefix up to the
            # threshold (the realistic mid-batch crash), then die without
            # acking; resuming from a checkpoint must absorb the partial
            # work.
            prefix = self.kill_at - self.events
            self.kill_at = None
            if prefix > 0:
                self.process_batch(batch[:prefix])
            if self.hard_exit:
                os._exit(17)
            raise WorkerFailure(
                self.shard_id, "injected kill at event %d" % self.events
            )
        started = time.perf_counter()
        if batch:
            block = self._block_of(batch)
            for detector in self.detectors:
                detector.process_batch(block)
        self.events += len(batch)
        self.context.events_seen = self.events
        self.busy_s += time.perf_counter() - started

    def _block_of(self, batch: List[tuple]) -> ColumnBlock:
        """The wire tuples as one column block, in one pass.

        A shard's substream is mostly accesses, which its detectors
        check (no census in a stream), so each row's event is assembled
        along with its columns and the detectors find it built.  The
        tuples come from real events, so neither needs validation;
        threads are interned and ops memoised in the worker's own
        tables, and the stream indices become the block's index column
        (a shard sees a subsequence).  The variable of a non-owned
        access is marked foreign in every detector on first sight:
        ownership is fixed per variable, so marking ahead of the
        variable's earlier accesses in this batch changes nothing.
        """
        detectors = self.detectors
        foreign = self.foreign
        intern = self.registry.intern
        table = self.op_table
        op_ids = table.ids
        op_of = op_ids.get
        kinds = table.ops
        new_event = Event.__new__
        tid_of: Dict[str, int] = {}
        tids: List[int] = []
        ops: List[int] = []
        locs: List[Optional[str]] = []
        indices: List[int] = []
        events: List[Event] = []
        for index, thread, etype_value, target, loc, owned in batch:
            tid = tid_of.get(thread)
            if tid is None:
                tid = tid_of[thread] = intern(thread)
            key = (etype_value, target)
            op = op_of(key)
            if op is None:
                op = op_ids[key] = len(kinds)
                kinds.append((_ETYPE_OF_VALUE[etype_value], target))
            event = new_event(Event)
            event.index = index
            event.thread = thread
            event.etype = kinds[op][0]
            event.target = target
            event.loc = loc
            event.tid = tid
            tids.append(tid)
            ops.append(op)
            locs.append(loc)
            indices.append(index)
            events.append(event)
            if not owned and target not in foreign:
                foreign.add(target)
                for detector in detectors:
                    detector.mark_foreign(target)
        return ColumnBlock(
            array("i", tids), array("i", ops), table, locs, self.registry,
            indices[0], events, indices,
        )

    def progress(self) -> List[tuple]:
        """Per-detector ``(distinct, raw)`` race counts so far."""
        return [
            (detector.report.count(), detector.report.raw_race_count)
            for detector in self.detectors
        ]

    def finish(self) -> dict:
        started = time.perf_counter()
        self.pass_.finish_detectors()
        self.busy_s += time.perf_counter() - started
        return {
            "shard": self.shard_id,
            "events": self.events,
            "busy_s": self.busy_s,
            "reports": [detector.report for detector in self.detectors],
            "names": self.registry.names(),
            "clocks": [
                detector.sync_clock_state() for detector in self.detectors
            ],
        }


# --------------------------------------------------------------------- #
# Transports
# --------------------------------------------------------------------- #

class _SerialTransport:
    """Run the worker inline; the deterministic reference transport."""

    def __init__(
        self, worker: _ShardWorker, restore: Optional[dict] = None,
    ) -> None:
        self.worker = worker
        worker.start()
        if restore is not None:
            worker.restore(restore)

    def send(self, batch: List[tuple]) -> None:
        self.worker.process_batch(batch)

    def poll_progress(self):
        return self.worker.progress()

    def snapshot_begin(self):
        return self.worker.snapshot_state()

    def snapshot_end(self, token) -> dict:
        return token

    def finish(self) -> dict:
        return self.worker.finish()

    def abort(self) -> None:
        pass


def _process_worker_main(
    conn, shard_id: int, specs: List[dict], source_name: str,
    restore: Optional[dict] = None, kill_at: Optional[int] = None,
) -> None:
    """Entry point of a shard worker process (pipe protocol).

    The worker builds its private detector instances from configuration
    stamps (never from pickled live objects) and, on a resumed run,
    restores them from the checkpoint's snapshot blobs.

    Messages from the coordinator: ``("batch", [encoded events])``,
    ``("snapshot",)`` and ``("finish",)``.  The worker acknowledges every
    batch with a progress message, answers ``snapshot`` with a
    ``("state", ...)`` payload of snapshot blobs, and answers ``finish``
    with its result payload.
    """
    try:
        detectors: List[Detector] = [build_detector(spec) for spec in specs]
        worker = _ShardWorker(
            shard_id, detectors, source_name,
            kill_at=kill_at, hard_exit=True,
        )
        worker.start()
        if restore is not None:
            worker.restore(restore)
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "batch":
                worker.process_batch(message[1])
                conn.send(("progress", shard_id, worker.events, worker.progress()))
            elif kind == "snapshot":
                conn.send(("state", shard_id, worker.snapshot_state()))
            elif kind == "finish":
                conn.send(("result", shard_id, worker.finish()))
                return
            else:
                raise ValueError("unknown coordinator message %r" % (kind,))
    except EOFError:
        pass
    except Exception:
        try:
            conn.send(("error", shard_id, traceback.format_exc()))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


#: Transport-level failures: the worker side of the pipe is simply gone.
#: Everything else a worker sends is an explicit protocol message (its
#: deterministic failures arrive as ``("error", ...)`` reports).
_PIPE_FAILURES = (EOFError, ConnectionResetError, BrokenPipeError, OSError)

#: Per-stage worker shutdown patience, in seconds, before escalating
#: (join -> terminate -> kill).
SHUTDOWN_TIMEOUT_S = 30.0

#: Longest the coordinator waits on a silent worker for a batch
#: acknowledgement, a snapshot or a finish reply before declaring a
#: hung-but-alive process dead; every message from the worker restarts
#: the clock.
STALL_TIMEOUT_S = 30.0

def _send_budget(conn) -> int:
    """Bytes of batches the coordinator may leave unacknowledged on
    ``conn``: half the pipe's send buffer.  A batch is sent only while
    the unacknowledged ones and it fit (or when none is unacknowledged,
    so the worker is back reading), each wait bounded by
    :data:`STALL_TIMEOUT_S`: no send can fill the pipe and block for good
    on a hung worker, however large the batch, and a hung worker ends
    the pass instead.  Zero (one batch at a time) where the pipe is not
    a socket."""
    try:
        with socket.socket(fileno=os.dup(conn.fileno())) as sock:
            return sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF) // 2
    except OSError:
        return 0


class _ProcessTransport:
    """One persistent worker process per shard over a duplex pipe.

    Every pipe failure and every stall raises :class:`WorkerFailure`;
    the coordinator then calls :meth:`abort` on every transport.
    """

    def __init__(self, worker_args: tuple, shard_id: int, mp_context) -> None:
        self.shard_id = shard_id
        self.conn, child_conn = mp_context.Pipe(duplex=True)
        self.process = mp_context.Process(
            target=_process_worker_main,
            args=(child_conn,) + worker_args,
            name="shard-%d" % shard_id,
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self._progress = None
        self._result = None
        self._state = None
        self._budget = _send_budget(self.conn)
        #: Byte sizes of the batches sent and not acknowledged, oldest first.
        self._unacked: deque = deque()
        self._unacked_bytes = 0

    def _died(self, error: Exception) -> WorkerFailure:
        # The pipe can fail a moment before the dead worker is reapable;
        # wait up to a second so the cause names its exit code.
        self.process.join(timeout=1.0)
        code = self.process.exitcode
        cause = "%s: %s" % (type(error).__name__, error) if str(error) else (
            type(error).__name__
        )
        if code is not None:
            cause += " [worker exit code %s]" % code
        return WorkerFailure(self.shard_id, cause)

    def _drain(self, awaiting: Optional[str] = None) -> None:
        """Absorb pending worker messages (progress / state / errors).

        With ``awaiting`` (a description of the reply), wait at most
        :data:`STALL_TIMEOUT_S` for the next message and return after
        it; callers loop until the reply they need has arrived.
        """
        conn = self.conn
        timeout = STALL_TIMEOUT_S if awaiting else 0
        try:
            while self._result is None:
                if not conn.poll(timeout):
                    if awaiting is None:
                        return
                    raise WorkerFailure(
                        self.shard_id,
                        "no %s for %.1fs; the worker process is alive but "
                        "stalled" % (awaiting, timeout),
                    )
                message = conn.recv()
                kind = message[0]
                if kind == "progress":
                    self._progress = message[3]
                    self._unacked_bytes -= self._unacked.popleft()
                elif kind == "state":
                    self._state = message[2]
                elif kind == "result":
                    self._result = message[2]
                elif kind == "error":
                    raise RuntimeError(
                        "shard %d worker failed:\n%s"
                        % (self.shard_id, message[2])
                    )
                if awaiting is not None or kind == "state":
                    return
        except _PIPE_FAILURES as error:
            raise self._died(error) from error

    def _post(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except _PIPE_FAILURES as error:
            raise self._died(error) from error

    def send(self, batch: List[tuple]) -> None:
        # Pickled here, as Connection.send would, to know its size.
        message = ForkingPickler.dumps(("batch", batch))
        size = len(message)
        while self._unacked and self._unacked_bytes + size > self._budget:
            self._drain(awaiting="batch acknowledgement")
        try:
            self.conn.send_bytes(message)
        except _PIPE_FAILURES as error:
            raise self._died(error) from error
        self._unacked.append(size)
        self._unacked_bytes += size
        self._drain()

    def poll_progress(self):
        self._drain()
        return self._progress

    def snapshot_begin(self):
        self._post(("snapshot",))

    def snapshot_end(self, token) -> dict:
        while self._state is None:
            self._drain(awaiting="snapshot reply")
        state, self._state = self._state, None
        return state

    def finish(self) -> dict:
        """Collect the result payload, then shut the worker down.

        A dead or stalled worker raises :class:`WorkerFailure` without
        the graceful shutdown; the coordinator then calls :meth:`abort`.
        """
        self._post(("finish",))
        while self._result is None:
            self._drain(awaiting="finish reply")
        self._shutdown()
        return self._result

    def _shutdown(self) -> None:
        """Escalating worker shutdown: close -> join -> terminate -> kill.

        A healthy worker exits on pipe EOF, so the first join is the
        graceful path; SIGTERM and then SIGKILL follow only for a worker
        that outlives each stage's patience.
        """
        timeout = SHUTDOWN_TIMEOUT_S
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5)

    def abort(self) -> None:
        """Hard teardown of a dead or discarded worker (no finish drain).

        Unlike :meth:`_shutdown` there is no reason to wait the full
        graceful timeout first: the worker is already presumed gone, so
        escalate to SIGTERM at once, and to SIGKILL if it survives that.
        """
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=SHUTDOWN_TIMEOUT_S)
            if self.process.is_alive():  # pragma: no cover - defensive
                self.process.kill()
                self.process.join(timeout=5)
        else:
            self.process.join(timeout=5)


_TRANSPORT_MODES = ("process", "serial")


class ShardedEngine:
    """Drive N shard workers over one event source (see module docstring).

    Parameters
    ----------
    config:
        An :class:`EngineConfig`; its ``shards`` / ``shard_mode`` /
        ``shard_batch_size`` fields provide the defaults for the keyword
        arguments below.
    shards:
        Worker count.  ``1`` delegates to :class:`RaceEngine` -- output is
        byte-identical to the unsharded engine.
    mode:
        ``"process"`` (multi-core) or ``"serial"`` (inline, the
        deterministic reference).
    batch_size:
        Events per transport batch.
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        shards: Optional[int] = None,
        mode: Optional[str] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.shards = shards if shards is not None else self.config.shards
        self.mode = mode if mode is not None else self.config.shard_mode
        self.batch_size = (
            batch_size if batch_size is not None else self.config.shard_batch_size
        )
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.mode not in _TRANSPORT_MODES:
            raise ValueError(
                "unknown shard mode %r; available: %s"
                % (self.mode, ", ".join(_TRANSPORT_MODES))
            )
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")

    # ------------------------------------------------------------------ #
    # The sharded pass
    # ------------------------------------------------------------------ #

    def run(
        self,
        source,
        detectors: Optional[Sequence[DetectorSpec]] = None,
    ) -> EngineResult:
        """Run the configured detectors over ``source`` across the shards."""
        if self.shards == 1:
            # Byte-identical single-shard guarantee: the unsharded engine.
            return RaceEngine(self.config).run(source, detectors=detectors)
        resolved = self._resolve(detectors)
        return self._run_sharded(source, resolved, None, None)

    def resume(
        self,
        source,
        checkpoint,
        detectors: Optional[Sequence[DetectorSpec]] = None,
    ) -> EngineResult:
        """Resume a sharded pass from a checkpoint.

        ``checkpoint`` is a :class:`~repro.engine.checkpoint.Checkpoint`,
        a :class:`~repro.engine.checkpoint.Checkpointer` or a checkpoint
        directory.  The engine must be configured with the checkpoint's
        shard count (routing must not diverge); the transport ``mode``
        is free to differ -- worker state is
        transport-agnostic.  Each worker is reconstructed from its
        configuration stamps, restored from its snapshot blobs, and the
        source suffix is replayed; the merged report equals an
        uninterrupted sharded (and therefore single-engine) run.
        """
        loaded, checkpointer = open_for_resume(checkpoint, self.config)
        sharded = loaded.sharded
        if sharded is None:
            raise CheckpointMismatchError(
                "checkpoint at offset %d was taken by an unsharded run; "
                "resume it with RaceEngine.resume or resume_engine()"
                % loaded.events
            )
        if sharded["shards"] != self.shards:
            raise CheckpointMismatchError(
                "checkpoint has %d shard(s) but the engine is configured "
                "for %d; construct the engine with the checkpoint's shard "
                "count" % (sharded["shards"], self.shards)
            )
        # Older checkpoints name their partition policy; only the crc32
        # hash remains, and hashing the suffix of a round-robin or custom
        # partition would split a variable's history across shards.
        policy = sharded.get("policy", "hash")
        if policy != "hash":
            raise CheckpointMismatchError(
                "checkpoint was partitioned with the removed %s policy; "
                "only the crc32 hash partition resumes -- re-run the "
                "analysis" % (
                    "custom" if policy is None else repr(policy),
                )
            )
        if detectors is None and self.config.detectors is None:
            resolved = loaded.build_detectors()
            self._check_shardable(resolved)
        else:
            resolved = self._resolve(detectors)
        loaded.match_detectors(resolved)
        return self._run_sharded(source, resolved, loaded, checkpointer)

    def _resolve(self, detectors):
        resolved = self.config.resolve_detectors(detectors)
        if len({id(detector) for detector in resolved}) != len(resolved):
            raise ValueError(
                "the same Detector instance appears more than once in the "
                "selection; pass distinct instances (or names) instead"
            )
        self._check_shardable(resolved)
        return resolved

    @staticmethod
    def _check_shardable(resolved) -> None:
        unshardable = [d.name for d in resolved if not d.shardable]
        if unshardable:
            raise ValueError(
                "detector(s) %s cannot run sharded: their verdicts depend on "
                "accesses outside the replicated synchronization skeleton; "
                "run them with shards=1" % ", ".join(sorted(set(unshardable)))
            )

    def _run_sharded(
        self,
        source,
        resolved: List[Detector],
        loaded: Optional[Checkpoint],
        checkpointer: Optional[Checkpointer],
    ) -> EngineResult:
        config = self.config
        send_foreign = any(d.needs_foreign_accesses for d in resolved)

        event_source = as_source(source)
        source_name = event_source.name
        shards = self.shards
        partitioner = StreamPartitioner(shards)

        # Workers build one private instance set per shard from the
        # detectors' configuration stamps; live detector objects are never
        # pickled.  Mid-run state only ever travels as snapshot blobs.
        specs = [detector_stamp(detector) for detector in resolved]
        check_reconstructible(resolved)

        restore_states = None
        start_events = 0
        if loaded is not None:
            restore_states = loaded.sharded["shard_states"]
            partitioner.load_state(loaded.sharded["partition"])
            seek_source(event_source, loaded.events)
            restore_source_state(event_source, loaded)
            start_events = loaded.events
        elif config.checkpoint_dir is not None:
            checkpointer = Checkpointer(
                config.checkpoint_dir,
                every=config.checkpoint_every,
                keep=config.checkpoint_keep,
            )
        if checkpointer is not None:
            check_snapshot_support(resolved)
            checkpointer.source = event_source

        transports = self._start_transports(specs, source_name, restore_states)

        batch_size = self.batch_size
        race_budget = config.race_budget
        event_budget = config.event_budget
        interval = config.snapshot_interval

        batches: List[List[tuple]] = [[] for _ in range(shards)]
        latest_counts: List[Optional[List[tuple]]] = [None] * shards
        snapshots: List[ReportSnapshot] = []
        detector_names = [detector.name for detector in resolved]

        stop_reason = STOP_EXHAUSTED
        events = start_events
        started = time.perf_counter()

        def flush(shard: int) -> None:
            transports[shard].send(batches[shard])
            batches[shard] = []

        def take_snapshot() -> None:
            for shard, transport in enumerate(transports):
                counts = transport.poll_progress()
                if counts is not None:
                    latest_counts[shard] = counts
            for position, name in enumerate(detector_names):
                races = raw = 0
                for counts in latest_counts:
                    if counts is not None:
                        races += counts[position][0]
                        raw += counts[position][1]
                snap = ReportSnapshot(
                    detector_name=name,
                    trace_name=source_name,
                    events=events,
                    races=races,
                    raw_races=raw,
                )
                snapshots.append(snap)
                if config.snapshot_callback is not None:
                    config.snapshot_callback(snap)

        classify = partitioner.classify
        value_of = _VALUE_OF_ETYPE
        try:
            for event in event_source:
                kind, owner = classify(event)
                # The wire index is the stream position -- the same
                # renumbering the unsharded engine applies, so distances
                # and witness indices come out identical.
                encoded = (
                    events, event.thread, value_of[id(event.etype)],
                    event.target, event.loc, True,
                )
                if kind is REPLICATE:
                    for shard in range(shards):
                        batch = batches[shard]
                        batch.append(encoded)
                        if len(batch) >= batch_size:
                            flush(shard)
                elif kind is ROUTE or not send_foreign:
                    batch = batches[owner]
                    batch.append(encoded)
                    if len(batch) >= batch_size:
                        flush(owner)
                else:  # ROUTE_CLOCK with a foreign-hungry detector (WCP)
                    foreign = encoded[:5] + (False,)
                    for shard in range(shards):
                        batch = batches[shard]
                        batch.append(encoded if shard == owner else foreign)
                        if len(batch) >= batch_size:
                            flush(shard)
                events += 1

                if interval is not None and events % interval == 0:
                    take_snapshot()
                if (
                    checkpointer is not None
                    and events % checkpointer.every == 0
                ):
                    # Flush every in-flight batch so each worker's state
                    # reflects exactly the first ``events`` events, then
                    # collect one snapshot per shard (transports block
                    # until the worker answers -- pipe messages are
                    # processed in order, so the snapshot is taken after
                    # everything flushed so far).
                    for shard in range(shards):
                        if batches[shard]:
                            flush(shard)
                    checkpointer.save(Checkpoint(
                        events=events,
                        source_name=source_name,
                        stamps=specs,
                        states=None,
                        every=checkpointer.every,
                        source_state=checkpointer.source_state(events),
                        sharded={
                            "shards": shards,
                            "mode": self.mode,
                            "partition": partitioner.state_dict(),
                            "shard_states": self._collect_snapshots(
                                transports
                            ),
                        },
                    ))
                if event_budget is not None and events >= event_budget:
                    stop_reason = STOP_EVENT_BUDGET
                    break
                if race_budget is not None and events % batch_size == 0:
                    # Batch-granular early stop on per-shard counts (an
                    # upper bound of the merged distinct count; the merged
                    # reports are still exact for everything processed).
                    for shard, transport in enumerate(transports):
                        counts = transport.poll_progress()
                        if counts is not None:
                            latest_counts[shard] = counts
                    for position in range(len(resolved)):
                        total = sum(
                            counts[position][0]
                            for counts in latest_counts
                            if counts is not None
                        )
                        if total >= race_budget:
                            stop_reason = STOP_RACE_BUDGET
                            break
                    if stop_reason == STOP_RACE_BUDGET:
                        break

            for shard in range(shards):
                if batches[shard]:
                    flush(shard)
            payloads = [transport.finish() for transport in transports]
        except Exception:
            self._abort_transports(transports)
            raise

        elapsed = time.perf_counter() - started
        result = self._merge(
            resolved, payloads, source_name, events, elapsed, stop_reason,
            snapshots, partitioner,
        )
        if interval is not None and (events == 0 or events % interval != 0):
            # Final snapshot from the exact merged reports.
            for key, report in result.reports.items():
                snap = ReportSnapshot(
                    detector_name=key,
                    trace_name=source_name,
                    events=events,
                    races=report.count(),
                    raw_races=report.raw_race_count,
                )
                snapshots.append(snap)
                if config.snapshot_callback is not None:
                    config.snapshot_callback(snap)
        return result

    # ------------------------------------------------------------------ #
    # Worker management
    # ------------------------------------------------------------------ #

    def _start_transports(
        self,
        specs: List[dict],
        source_name: str,
        restore_states: Optional[List[dict]] = None,
    ):
        """One transport per shard, each worker built from the stamps
        (and restored from its checkpointed state on a resumed run)."""
        plan = self.config.fault_plan
        mp_context = None
        if self.mode == "process":
            import multiprocessing

            mp_context = multiprocessing.get_context()
        transports = []
        for shard in range(self.shards):
            state = restore_states[shard] if restore_states else None
            kill_at = plan.take_kill_event(shard) if plan is not None else None
            if mp_context is not None:
                transports.append(_ProcessTransport(
                    (shard, specs, source_name, state, kill_at),
                    shard, mp_context,
                ))
            else:
                worker = _ShardWorker(
                    shard, [build_detector(spec) for spec in specs],
                    source_name, kill_at=kill_at,
                )
                transports.append(_SerialTransport(worker, state))
        return transports

    @staticmethod
    def _collect_snapshots(transports) -> List[dict]:
        """Collect one worker snapshot per shard, overlapping the waits.

        Every transport gets its snapshot request first, so the workers
        serialize their state concurrently; the coordinator then drains
        the replies in shard order -- the per-checkpoint pause is the
        slowest single worker, not the sum (serial workers answer inline
        at ``snapshot_begin``).
        """
        tokens = [transport.snapshot_begin() for transport in transports]
        return [
            transport.snapshot_end(token)
            for transport, token in zip(transports, tokens)
        ]

    @staticmethod
    def _abort_transports(transports) -> None:
        for transport in transports:
            try:
                transport.abort()
            except Exception:  # pragma: no cover - best-effort teardown
                pass

    # ------------------------------------------------------------------ #
    # Shard-boundary merging
    # ------------------------------------------------------------------ #

    def _merge(
        self,
        resolved: List[Detector],
        payloads: List[dict],
        source_name: str,
        events: int,
        elapsed: float,
        stop_reason: str,
        snapshots: List[ReportSnapshot],
        partitioner: StreamPartitioner,
    ) -> ShardedResult:
        payloads = sorted(payloads, key=lambda payload: payload["shard"])
        registry = ThreadRegistry()
        remaps = [
            registry.merge_names(payload["names"]) for payload in payloads
        ]

        reports: Dict[str, RaceReport] = {}
        clock_state: Dict[str, Dict[object, VectorClock]] = {}
        for position, detector in enumerate(resolved):
            key = RaceEngine._unique_name(reports, detector.name)
            merged = RaceReport(detector.name, source_name)
            for payload in payloads:
                merged.merge(payload["reports"][position])
            busiest = max(payload["busy_s"] for payload in payloads)
            merged.stats["time_s"] = busiest
            merged.stats["events"] = events
            merged.stats["events_per_s"] = (
                events / busiest if busiest > 0.0 else 0.0
            )
            self._merge_stats(
                merged, [payload["reports"][position] for payload in payloads]
            )
            reports[key] = merged

            # Merged clock view: remap every worker's tids into the merged
            # registry and join.  All workers agree on common threads (the
            # replicated skeleton guarantees it), so the join is the state
            # any one worker would report, completed with threads it never
            # saw an owned event for.
            joined: Dict[object, DenseClock] = {}
            for payload, remap in zip(payloads, remaps):
                worker_clocks = payload["clocks"][position]
                if not worker_clocks:
                    continue
                for name, blob in worker_clocks.items():
                    clock = decode_clock(blob).remapped(remap)
                    existing = joined.get(name)
                    if existing is None:
                        joined[name] = clock
                    else:
                        existing.merge(clock)
            clock_state[key] = {
                name: registry.to_public(clock)
                for name, clock in joined.items()
            }

        return ShardedResult(
            source_name=source_name,
            reports=reports,
            events=events,
            elapsed_s=elapsed,
            stop_reason=stop_reason,
            snapshots=snapshots,
            shards=self.shards,
            mode=self.mode,
            shard_events=[payload["events"] for payload in payloads],
            shard_busy_s=[payload["busy_s"] for payload in payloads],
            partition_stats=partitioner.stats(),
            registry=registry,
            clock_state=clock_state,
            shard_clock_states=[payload["clocks"] for payload in payloads],
            shard_names=[payload["names"] for payload in payloads],
        )

    @staticmethod
    def _merge_stats(merged: RaceReport, shard_reports: List[RaceReport]) -> None:
        """Aggregate per-shard detector stats onto the merged report.

        ``max_*`` stats take the maximum across shards; counter stats sum;
        ratio/fraction stats are recomputed from the aggregates where
        possible and dropped otherwise (a mean of ratios means nothing).
        """
        keys = set()
        for report in shard_reports:
            keys.update(report.stats)
        for key in keys:
            values = [
                report.stats[key] for report in shard_reports
                if key in report.stats
            ]
            if key.endswith(("_ratio", "_fraction")) or key in (
                "time_s", "events", "events_per_s"
            ):
                continue
            if key.startswith("max_"):
                merged.stats[key] = max(values)
            else:
                merged.stats[key] = sum(values)
        if "max_queue_total" in merged.stats and merged.stats.get("events"):
            merged.stats["max_queue_fraction"] = (
                merged.stats["max_queue_total"] / merged.stats["events"]
            )

    def __repr__(self) -> str:
        return "ShardedEngine(shards=%d, mode=%r)" % (self.shards, self.mode)

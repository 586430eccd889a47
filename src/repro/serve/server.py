"""The multi-tenant serve tier: session driver + server.

This module turns ``repro-race serve`` from "one engine pass per
connection" into a governed multi-stream service.  Two layers:

:class:`SessionDriver`
    Owns one connection end to end: the handshake peek (``/stats``
    query, ``# stream-id:`` directive, tenant derivation), admission,
    and the pump/drive pair that steps the pass.  The *pump* task
    decodes STD lines off the socket and puts one column block per
    socket read (:meth:`LineProtocolSource.batches
    <repro.engine.sources.LineProtocolSource.batches>`) on a bounded
    :class:`asyncio.Queue`; the *drive* loop takes a batch off the queue,
    validates it and steps it through a shared
    :class:`~repro.engine.engine.EnginePass` in runs
    (:meth:`~repro.engine.engine.EnginePass.step_batch`).  The hand-off
    costs one queue item and one ``wait_for`` per read, not per event: a
    run ends only where the driver must act (a latency sample, a memory
    check, a per-event quota charge, an injected fault), and accounting
    runs once.  Decoupling the two is what buys every serve-tier feature
    in one structure:

    * **backpressure** -- a full queue blocks the pump, which stops
      reading, which makes the transport pause the peer (TCP flow
      control); nothing buffers unboundedly;
    * **quotas** -- the drive loop charges each event to the tenant's
      token bucket: small deficits throttle (sleep), large ones shed
      with an explicit ``error Overloaded: ...; retry after <n>s``;
    * **idle eviction** -- an idle stream (queue empty, no event
      for ``idle_evict_after_s``) is checkpointed through the PR 5
      snapshot protocol and its detectors are *dropped*; the next event
      transparently restores them.  The driver-owned online validator
      stays live and reports its state at the pass position even while
      it is ahead within a batch -- the invariant that makes every
      checkpoint resumable;
    * **graceful drain** -- when the server's drain event is set
      (SIGTERM), the loop checkpoints the pass and replies
      ``resume <offset>``: the client re-attaches to a fresh instance
      through the existing handshake and replays from the offset;
    * **disconnect hardening** -- an abrupt peer reset surfaces as a
      recorded ``disconnected`` stat and a clean close, never a
      traceback through the accept loop.

:class:`RaceServer`
    The accept loop plus the governance singletons: the
    :class:`~repro.serve.sessions.SessionManager` (global connection
    ceiling, per-tenant stream ceilings), the shared
    :class:`~repro.serve.metrics.ServeMetrics`, the optional
    ``--metrics-port`` JSON endpoint, and the SIGTERM drain sequence.

The wire protocol has exactly one implementation: :class:`SessionDriver`.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import re
import signal
import time
from typing import List, Optional

from repro.engine.checkpoint import (
    Checkpoint,
    Checkpointer,
    check_snapshot_support,
    detector_stamp,
)
from repro.engine.config import EngineConfig
from repro.engine.engine import EnginePass, EngineResult
from repro.engine.sources import LineProtocolSource
from repro.engine.validate import NEEDS_VALIDATOR_STATE, OnlineValidator
from repro.serve.metrics import ServeMetrics
from repro.serve.quotas import Overloaded, QuotaManager
from repro.serve.sessions import SessionManager, StreamSession, tenant_of

__all__ = ["ServeSettings", "SessionDriver", "RaceServer"]

logger = logging.getLogger("repro.serve")

#: Queue item kinds produced by the pump.
_BATCH, _ERROR, _EOF = "batch", "error", "eof"

#: Exceptions meaning "the peer went away", not "the stream is bad".
_DISCONNECTS = (
    ConnectionResetError,
    ConnectionAbortedError,
    BrokenPipeError,
    asyncio.IncompleteReadError,
)

_DRAIN_REFUSAL = (
    "error Draining: server is shutting down; retry against a fresh "
    "instance\n"
)

#: First-line directive opting a pushed stream into crash recovery.  The
#: id becomes a directory name under --checkpoint-dir, so the character
#: class excludes separators and the path-special names "." / ".." are
#: rejected after the match (a client must not be able to direct
#: checkpoint writes -- or the clean-completion deletion -- outside its
#: own subdirectory).
_STREAM_ID_LINE = re.compile(
    r"^#\s*stream-id\s*[:=]\s*([A-Za-z0-9._-]{1,64})\s*$"
)


def _safe_stream_id(line: bytes):
    match = _STREAM_ID_LINE.match(line.decode("utf-8", "replace").strip())
    if match is None:
        return None
    stream_id = match.group(1)
    if stream_id in (".", ".."):
        return None
    return stream_id


class _Draining(Exception):
    """Internal control flow: drain fired while a session was mid-handshake."""


class _HandshakeTimeout(Exception):
    """Internal control flow: the first line never arrived in time.

    A connection that never says anything would otherwise pin an
    admission slot forever; it is dropped, counted under the
    ``handshake_timeout`` metric, and never a traceback.
    """


#: Bound of each connection's pump-to-drive queue, in batches (one
#: socket read, <= 64 KiB, each): with the drive loop blocked, a
#: connection buffers at most this many reads, plus the one the pump
#: holds, before TCP pauses the peer.
QUEUE_MAXSIZE = 4
#: When metrics are on, runs end at every Nth event (by stream position,
#: inside or across batches), and the run that starts there is clocked:
#: its mean step time per event is one latency sample.  So the detectors
#: see blocks of N rows, enough to start the compiled kernel.
SAMPLE_EVERY = 64
#: Events between detector-memory estimates when a memory quota is set.
MEM_CHECK_EVERY = 4096


class ServeSettings:
    """Every serve-tier knob in one bag (the CLI maps flags onto this)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        socket_path: Optional[str] = None,
        max_connections: Optional[int] = None,
        quotas: Optional[QuotaManager] = None,
        checkpoint_dir=None,
        idle_evict_after_s: Optional[float] = None,
        metrics_port: Optional[int] = None,
        install_signal_handlers: bool = False,
        fault_plan=None,
        handshake_timeout_s: Optional[float] = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.socket_path = socket_path
        self.max_connections = max_connections
        self.quotas = quotas or QuotaManager()
        self.checkpoint_dir = checkpoint_dir
        self.idle_evict_after_s = idle_evict_after_s
        self.metrics_port = metrics_port
        self.install_signal_handlers = install_signal_handlers
        #: Deterministic fault injection
        #: (:class:`~repro.engine.faults.FaultPlan`): ``disconnect``
        #: faults drop the client connection at an exact event offset,
        #: so the disconnect governance below is testable without timing
        #: games.
        self.fault_plan = fault_plan
        #: Longest a connection may stay silent before its first line;
        #: None disables the bound (the pre-PR-8 behaviour).
        self.handshake_timeout_s = handshake_timeout_s

    def __repr__(self) -> str:
        return "ServeSettings(host=%r, port=%r, socket=%r)" % (
            self.host, self.port, self.socket_path,
        )


class _SessionCheckpointer(Checkpointer):
    """A checkpointer that doubles as the detector-memory estimator.

    Every checkpoint already serializes the complete detector state, so
    its blob size *is* the best available estimate of what the session
    pins -- record it on the session instead of paying for a second
    snapshot pass.
    """

    def __init__(self, directory, session: Optional[StreamSession] = None,
                 **kwargs) -> None:
        super().__init__(directory, **kwargs)
        self._session = session

    def save(self, checkpoint: Checkpoint):
        if self._session is not None and checkpoint.states:
            self._session.detector_memory_bytes = sum(
                len(blob) for blob in checkpoint.states
            )
        return super().save(checkpoint)


class _ValidatorState:
    """Checkpoint source-state bridge for the driver-owned validator.

    Serializes exactly the ``{"validator": ...}`` bundle
    :class:`~repro.engine.validate.ValidatingSource` writes, so
    checkpoints taken by the serve tier restore through the engine's
    normal resume path (and vice versa).
    """

    def __init__(self, driver: "SessionDriver") -> None:
        self._driver = driver

    def checkpoint_state(self, events: Optional[int] = None):
        validator = self._driver.validator
        if validator is None:
            return None
        return {"validator": validator.state_dict(events)}


class SessionDriver:
    """Drive one accepted connection through a governed engine pass.

    The wire contract (one line each, ``utf-8``):

    * request -- STD trace lines (``thread|op(arg)[|loc]``), terminated
      by EOF (half-close the socket after the last event);
    * response -- one ``<detector> <distinct> <raw>`` line per detector,
      then ``done <events>``; or a single ``error <Type>: <message>``
      line when the stream is rejected: malformed (online validation,
      on by default), unparseable, or a line over the reader's buffer
      limit (``asyncio`` raises ValueError for those -- trace and parse
      errors are ValueErrors too, so one handler answers them all).

    Crash recovery (``checkpoint_dir``): a client that may need to
    survive a server restart sends ``# stream-id: <id>`` as its *first*
    line (a legal STD comment).  The server answers immediately with
    ``resume <offset>`` -- the last durable event offset for that id (0
    for a fresh stream) -- and the client replays its events from that
    offset on.  Detector state is checkpointed under
    ``checkpoint_dir/<id>`` at the configured cadence and deleted once
    the stream completes cleanly.

    With ``server`` attached (the :class:`RaceServer` path) the driver
    enforces admission, quotas, eviction and drain; without it the same
    protocol runs with governance off.
    """

    def __init__(
        self,
        reader,
        writer,
        detectors,
        config: Optional[EngineConfig] = None,
        validate: bool = True,
        name: str = "client",
        checkpoint_dir=None,
        session: Optional[StreamSession] = None,
        server: Optional["RaceServer"] = None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.detector_specs = detectors
        self.config = config if config is not None else EngineConfig()
        self.validate = validate
        self.name = name
        self.checkpoint_dir = checkpoint_dir
        self.server = server
        self.session = session
        self.settings = server.settings if server else ServeSettings()
        self.manager = server.manager if server else None
        self.metrics = server.metrics if server else None
        self.drain_event = server.drain_event if server else None

        self.stream_id: Optional[str] = None
        self.tenant: str = session.tenant if session else "-"
        self.stream_dir: Optional[str] = None
        self.initial_lines: List[bytes] = []
        self.validator: Optional[OnlineValidator] = None
        self.registry = session.registry if session is not None else None

        self._resume_checkpoint: Optional[Checkpoint] = None
        self._checkpointer: Optional[_SessionCheckpointer] = None
        self._pass: Optional[EnginePass] = None
        #: In-memory copy of the eviction checkpoint (restore never
        #: needs to re-read the file it just wrote).
        self._evicted: Optional[Checkpoint] = None
        self._bytes_read = 0
        self._bytes_seen = 0
        self._check_memory = False

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    async def run(self) -> Optional[EngineResult]:
        """Handshake, admit, pump+drive; returns the result or None."""
        try:
            proceed = await self._handshake()
        except _Draining:
            await self._reply(_DRAIN_REFUSAL)
            return None
        except _HandshakeTimeout:
            self._count("handshake_timeout")
            if self.session is not None:
                self.session.error = "no handshake line (timed out)"
            logger.info(
                "handshake timeout session=%s after %.0fs",
                self._label(), self.settings.handshake_timeout_s,
            )
            await self._reply(
                "error Timeout: no handshake line within %.0fs; closing\n"
                % self.settings.handshake_timeout_s
            )
            return None
        except _DISCONNECTS:
            self._note_disconnect("handshake")
            return None
        if not proceed:
            return None
        try:
            self._build_pass()
            return await self._drive()
        except Overloaded as error:
            self._count("shed", tenant=self.tenant)
            if self.session is not None:
                self.session.error = str(error)
            logger.info(
                "shed session=%s tenant=%s reason=%s",
                self._label(), self.tenant, error,
            )
            await self._reply_exception(error)
            return None
        except _DISCONNECTS:
            self._note_disconnect("stream")
            return None
        except ValueError as error:
            # TraceError (validation), TraceParseError (grammar),
            # checkpoint mismatches and the reader's over-limit-line
            # error are all ValueErrors: one wire reply answers them all.
            self._count("errored")
            if self.session is not None:
                self.session.error = str(error)
            logger.info(
                "reject session=%s tenant=%s error=%s: %s",
                self._label(), self.tenant, type(error).__name__, error,
            )
            await self._reply_exception(error)
            return None

    # ------------------------------------------------------------------ #
    # Handshake
    # ------------------------------------------------------------------ #

    async def _readline_first(self) -> bytes:
        """Read the handshake line, racing it against drain and the clock."""
        timeout = self.settings.handshake_timeout_s
        if self.drain_event is None:
            if timeout is None:
                return await self.reader.readline()
            try:
                return await asyncio.wait_for(self.reader.readline(), timeout)
            except asyncio.TimeoutError:
                raise _HandshakeTimeout() from None
        read = asyncio.ensure_future(self.reader.readline())
        drain = asyncio.ensure_future(self.drain_event.wait())
        done, _ = await asyncio.wait(
            {read, drain}, timeout=timeout,
            return_when=asyncio.FIRST_COMPLETED,
        )
        if read in done:
            drain.cancel()
            return read.result()
        read.cancel()
        try:
            await read
        except (asyncio.CancelledError, *_DISCONNECTS, ValueError):
            pass
        if drain in done:
            raise _Draining()
        drain.cancel()
        raise _HandshakeTimeout()

    async def _handshake(self) -> bool:
        try:
            first = await self._readline_first()
        except ValueError as error:
            # An over-limit first line raises before the pass exists;
            # reply on the wire exactly like a mid-pass rejection.
            self._count("errored")
            await self._reply_exception(error)
            return False
        if self.server is not None and first.strip() == b"/stats":
            lines = self.metrics.render_lines(self.manager)
            await self._reply("\n".join(lines) + "\n")
            return False
        stream_id = _safe_stream_id(first) if first else None
        if stream_id is None and first:
            # Not a directive: hand the peeked line to the source.
            self.initial_lines.append(first)
        if self.manager is not None:
            try:
                self.manager.bind_stream(self.session, stream_id)
            except Overloaded as error:
                self._count("rejected")
                logger.info(
                    "reject session=%s tenant=%s reason=%s",
                    self._label(), tenant_of(stream_id), error,
                )
                await self._reply_exception(error)
                return False
            self.tenant = self.session.tenant
            self.metrics.record_accept(self.tenant)
            self._check_memory = (
                self.manager.quotas.quota_for(self.tenant).max_detector_bytes
                is not None
            )
        elif stream_id is not None:
            self.tenant = tenant_of(stream_id)
        if stream_id is not None:
            self.stream_id = stream_id
            if self.checkpoint_dir is not None:
                self.stream_dir = os.path.join(
                    str(self.checkpoint_dir), stream_id
                )
                try:
                    self._resume_checkpoint = Checkpointer(
                        self.stream_dir
                    ).load_latest()
                except ValueError as error:
                    # A corrupt or version-drifted checkpoint must reject
                    # the stream on the wire, not kill the handler.
                    self._count("errored")
                    await self._reply_exception(error)
                    return False
                offset = (
                    self._resume_checkpoint.events
                    if self._resume_checkpoint else 0
                )
                if not await self._reply("resume %d\n" % offset):
                    return False
                logger.info(
                    "accept session=%s tenant=%s stream=%s resume=%d",
                    self._label(), self.tenant, stream_id, offset,
                )
                return True
        logger.info(
            "accept session=%s tenant=%s stream=%s",
            self._label(), self.tenant, stream_id,
        )
        return True

    # ------------------------------------------------------------------ #
    # Pass construction (fresh, handshake-resumed, or eviction-restored)
    # ------------------------------------------------------------------ #

    def _build_pass(self) -> None:
        resolved = self.config.resolve_detectors(self.detector_specs)
        if self.validate:
            self.validator = OnlineValidator()
        if self.stream_dir is not None:
            check_snapshot_support(resolved)
            self._checkpointer = _SessionCheckpointer(
                self.stream_dir,
                session=self.session,
                every=self.config.checkpoint_every,
                keep=self.config.checkpoint_keep,
                # The drive loop runs on the event loop thread; the
                # write+fsync must not stall other connections.
                background=True,
            )
            self._checkpointer.source = _ValidatorState(self)

        loaded = self._resume_checkpoint
        if loaded is None:
            self._pass = EnginePass(
                self.config, resolved, self.name,
                registry=self.registry,
                checkpointer=self._checkpointer,
            )
            self._pass.start()
            return

        loaded.match_detectors(resolved)
        if self._checkpointer is not None and loaded.every:
            # Keep checkpoint offsets aligned across restarts.
            self._checkpointer.every = loaded.every
        if self.validate and loaded.events > 0:
            state = (loaded.source_state or {}).get("validator")
            if state is None:
                raise ValueError(NEEDS_VALIDATOR_STATE)
            self.validator = OnlineValidator.from_state(state)
        self._pass = self._restored_pass(loaded, resolved)

    def _restored_pass(self, loaded: Checkpoint, detectors) -> EnginePass:
        """Build a started pass continuing ``loaded`` (resume or restore)."""
        for detector in detectors:
            # Reset-time precomputation would be overwritten by the
            # restore below; let detectors skip it.
            detector.restore_pending = True
        pass_ = EnginePass(
            self.config, detectors, self.name,
            registry=self.registry,
            start_events=loaded.events,
            checkpointer=self._checkpointer,
        )
        pass_.start()
        for detector, blob in zip(detectors, loaded.states):
            detector.restore_state(blob)
        return pass_

    # ------------------------------------------------------------------ #
    # Pump + drive
    # ------------------------------------------------------------------ #

    def _make_source(self) -> LineProtocolSource:
        source = LineProtocolSource(
            self.reader, name=self.name,
            registry=self.registry,
            initial_lines=self.initial_lines,
            on_bytes=self._count_bytes,
        )
        if self.registry is None:
            self.registry = source.registry
        if self._resume_checkpoint is not None:
            # Informational for push sources: the peer replays from here.
            source.seek_events(self._resume_checkpoint.events)
        return source

    def _count_bytes(self, count: int) -> None:
        self._bytes_read += count

    async def _pump(self, source, queue: asyncio.Queue) -> None:
        """Decode the wire into the bounded queue, one batch per read.

        A full queue blocks the ``put``, which stops the reads, which
        makes the transport pause the peer: the backpressure chain.
        Stream errors are forwarded as queue items so the drive loop
        owns every reply.
        """
        session = self.session
        try:
            async for batch in source.batches():
                await queue.put((_BATCH, batch))
                if session is not None:
                    session.queue_depth += len(batch)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # forwarded: the drive loop replies
            await queue.put((_ERROR, error))
        else:
            await queue.put((_EOF, None))

    async def _drive(self) -> Optional[EngineResult]:
        source = self._make_source()
        queue: asyncio.Queue = asyncio.Queue(QUEUE_MAXSIZE)
        pump = asyncio.ensure_future(self._pump(source, queue))
        session = self.session
        # The idle tick (drain and eviction checks): a quarter of the
        # eviction delay, so an idle stream goes within 1.25x of it.
        evict_after = self.settings.idle_evict_after_s
        tick = 0.5 if evict_after is None else min(0.5, evict_after / 4)
        try:
            while True:
                if self._draining():
                    return await self._drain_session()
                try:
                    kind, payload = await asyncio.wait_for(
                        queue.get(), timeout=tick
                    )
                except asyncio.TimeoutError:
                    self._maybe_evict(queue)
                    continue
                if kind is _EOF:
                    break
                if kind is _ERROR:
                    raise payload
                if session is not None:
                    session.queue_depth -= len(payload)
                if self._pass is None:
                    self._restore_evicted()
                if await self._step_batch(payload):
                    break
            return await self._finish()
        finally:
            pump.cancel()
            try:
                await pump
            except (asyncio.CancelledError, *_DISCONNECTS):
                pass

    async def _step_batch(self, batch) -> bool:
        """Validate and step one decoded batch; True when the pass stops.

        The batch is validated first; a violation steps the valid prefix
        and then raises.  The events go through
        :meth:`EnginePass.step_batch` in runs that end at the next offset
        where the driver acts -- a latency sample, a memory check -- and
        a run is a single event under an events/s quota (the token
        bucket is charged per event) or a fault plan.  A run that starts
        at a sample offset is timed whole, and its mean time per event
        is the sample.  Stops, faults,
        sheds and errors therefore land on the same event as with a
        per-event hand-off.  Accounting runs once, for the events
        actually stepped.  A throttle sleep is the only await in here;
        drain set during one ends the batch before its event.
        """
        pass_ = self._pass
        error = None
        if self.validator is not None:
            batch, error = self.validator.check_batch(batch)
        settings = self.settings
        fault_plan = settings.fault_plan
        metrics = self.metrics
        sample_every = SAMPLE_EVERY if metrics is not None else 0
        mem_every = MEM_CHECK_EVERY if self._check_memory else 0
        quotas = self.manager.quotas if self.manager is not None else None
        throttled = (
            quotas is not None
            and quotas.quota_for(self.tenant).events_per_sec is not None
        )
        single = throttled or fault_plan is not None
        clock = time.perf_counter
        total = len(batch)
        position = 0
        stepped = 0
        try:
            while position < total or error is not None:
                if throttled:
                    wait = quotas.throttle(self.tenant)
                    if wait > 0:
                        await asyncio.sleep(wait)
                        if self._draining():
                            return False
                if position == total:
                    raise error
                events = pass_.events
                sampled = sample_every and events % sample_every == 0
                end = total
                if single:
                    end = position + 1
                else:
                    if sample_every:
                        end = min(end, position + sample_every
                                  - events % sample_every)
                    if mem_every:
                        end = min(end, position + mem_every
                                  - events % mem_every)
                began = clock() if sampled else 0.0
                stop = pass_.step_batch(batch[position:end])
                if (
                    fault_plan is not None
                    and fault_plan.disconnect_at(pass_.events)
                ):
                    # Injected mid-stream client disconnect: surfaces
                    # through the same governed path as a real peer reset
                    # (the faulting event is stepped but not accounted).
                    raise ConnectionResetError(
                        "injected disconnect at event %d" % pass_.events
                    )
                if sampled:
                    metrics.observe_latency(
                        (clock() - began) / max(1, pass_.events - events)
                    )
                stepped += pass_.events - events
                if mem_every and pass_.events % mem_every == 0:
                    estimate = sum(
                        len(d.state_snapshot()) for d in pass_.detectors
                    )
                    self.session.detector_memory_bytes = estimate
                    quotas.check_memory(self.tenant, estimate)
                if stop is not None:
                    return True
                position = end
            return False
        finally:
            if stepped:
                self._note_events(stepped)

    def _note_events(self, count: int) -> None:
        delta = self._bytes_read - self._bytes_seen
        self._bytes_seen = self._bytes_read
        if self.session is not None:
            self.session.note_events(count, bytes_=delta)
        if self.metrics is not None:
            self.metrics.add_events(self.tenant, count, delta)

    def _draining(self) -> bool:
        return self.drain_event is not None and self.drain_event.is_set()

    # ------------------------------------------------------------------ #
    # Completion / drain / eviction
    # ------------------------------------------------------------------ #

    async def _finish(self) -> Optional[EngineResult]:
        if self._pass is None:
            # EOF arrived while evicted: restore to produce the report.
            self._restore_evicted()
        result = self._pass.result()
        lines = [
            "%s %d %d" % (key, report.count(), report.raw_race_count)
            for key, report in result.items()
        ]
        lines.append("done %d" % result.events)
        replied = await self._reply("\n".join(lines) + "\n")
        if self.stream_dir is not None:
            # The stream completed cleanly; its recovery state is obsolete.
            (self._checkpointer or Checkpointer(self.stream_dir)).clear()
            try:
                os.rmdir(self.stream_dir)
            except OSError:  # pragma: no cover - non-empty or already gone
                pass
        if self.session is not None:
            self.session.result = result
        if self.metrics is not None:
            self.metrics.count("completed")
            self.metrics.record_result(result)
        logger.info(
            "complete session=%s tenant=%s events=%d races=%d replied=%s",
            self._label(), self.tenant, result.events,
            result.total_distinct_races(), replied,
        )
        return result

    def _snapshot_pass(self) -> Checkpoint:
        """Freeze the live pass into a checkpoint (evict/drain)."""
        pass_ = self._pass
        source_state = self._checkpointer.source_state(pass_.events)
        return Checkpoint(
            events=pass_.events,
            source_name=pass_.source_name,
            stamps=[detector_stamp(d) for d in pass_.detectors],
            states=[d.state_snapshot() for d in pass_.detectors],
            every=self._checkpointer.every,
            source_state=source_state,
        )

    def _maybe_evict(self, queue: asyncio.Queue) -> None:
        """Idle tick: checkpoint and drop an idle session's detectors."""
        if (
            self._pass is None
            or self._checkpointer is None
            or self.settings.idle_evict_after_s is None
            or self.session is None
            or not queue.empty()
        ):
            return
        if self.session.idle_for() < self.settings.idle_evict_after_s:
            return
        checkpoint = self._snapshot_pass()
        self._checkpointer.save(checkpoint)
        self._evicted = checkpoint
        self._pass = None
        self.session.evictions += 1
        self.session.state = "evicted"
        self._count("evicted")
        logger.info(
            "evict session=%s tenant=%s stream=%s offset=%d state_bytes=%d",
            self._label(), self.tenant, self.stream_id, checkpoint.events,
            sum(len(blob) for blob in checkpoint.states or []),
        )

    def _restore_evicted(self) -> None:
        """The evicted stream's next event arrived: rebuild the pass."""
        loaded, self._evicted = self._evicted, None
        detectors = loaded.build_detectors()
        self._pass = self._restored_pass(loaded, detectors)
        self.session.restores += 1
        self.session.state = "active"
        self._count("restored")
        logger.info(
            "restore session=%s tenant=%s stream=%s offset=%d",
            self._label(), self.tenant, self.stream_id, loaded.events,
        )

    async def _drain_session(self) -> None:
        """SIGTERM path: make the session durable, point the client away."""
        if self.session is not None:
            self.session.state = "draining"
        if self._checkpointer is not None:
            if self._pass is not None:
                checkpoint = self._snapshot_pass()
                self._checkpointer.save(checkpoint)
                offset = checkpoint.events
            else:
                offset = self._evicted.events
            # The client reconnects to a *fresh* instance immediately;
            # the checkpoint must be durable before it is advertised.
            self._checkpointer.drain()
            self._count("drained")
            logger.info(
                "drain session=%s tenant=%s stream=%s offset=%d",
                self._label(), self.tenant, self.stream_id, offset,
            )
            await self._reply("resume %d\n" % offset)
            return None
        self._count("drained")
        logger.info(
            "drain session=%s tenant=%s stream=%s offset=-",
            self._label(), self.tenant, self.stream_id,
        )
        await self._reply(_DRAIN_REFUSAL)
        return None

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def _label(self) -> str:
        if self.session is not None:
            return "%d" % self.session.session_id
        return self.name

    def _count(self, name: str, tenant: Optional[str] = None) -> None:
        if self.metrics is not None:
            self.metrics.count(name, tenant=tenant)

    def _note_disconnect(self, where: str) -> None:
        self._count("disconnected")
        if self.session is not None:
            self.session.error = "peer disconnected during %s" % where
        logger.info(
            "disconnect session=%s tenant=%s during=%s events=%d",
            self._label(), self.tenant, where,
            self.session.events if self.session else 0,
        )

    async def _reply(self, text: str) -> bool:
        """Best-effort wire reply; a vanished peer is not a traceback."""
        try:
            self.writer.write(text.encode("utf-8"))
            await self.writer.drain()
            return True
        except (OSError, *_DISCONNECTS):
            self._note_disconnect("reply")
            return False

    async def _reply_exception(self, error: Exception) -> bool:
        return await self._reply(
            "error %s: %s\n" % (type(error).__name__, error)
        )


class RaceServer:
    """The governed accept loop over :class:`SessionDriver`.

    ``detectors`` is either a zero-argument factory returning *fresh*
    detector instances (recommended: streams are independent passes and
    state must never leak between clients) or a sequence of detector
    names resolved freshly per connection.
    """

    def __init__(
        self,
        detectors,
        config: Optional[EngineConfig] = None,
        settings: Optional[ServeSettings] = None,
        validate: bool = True,
        on_session_end=None,
    ) -> None:
        if callable(detectors):
            self.detector_factory = detectors
        else:
            specs = list(detectors)
            self.detector_factory = (
                lambda: EngineConfig().resolve_detectors(specs)
            )
        self.config = config if config is not None else EngineConfig()
        self.settings = settings or ServeSettings()
        self.validate = validate
        #: Called with ``(session, result_or_None)`` after every session.
        self.on_session_end = on_session_end
        self.manager = SessionManager(
            max_connections=self.settings.max_connections,
            quotas=self.settings.quotas,
        )
        self.metrics = ServeMetrics()
        self.drain_event = asyncio.Event()
        self.listener = None
        self.metrics_listener = None
        self._tasks: set = set()

    # -- lifecycle ------------------------------------------------------- #

    async def start(self) -> "RaceServer":
        """Bind the listener(s); optionally install the SIGTERM handler."""
        settings = self.settings
        if settings.socket_path:
            self.listener = await asyncio.start_unix_server(
                self.handle_connection, path=settings.socket_path
            )
        else:
            self.listener = await asyncio.start_server(
                self.handle_connection,
                host=settings.host, port=settings.port or 0,
            )
        if settings.metrics_port is not None:
            self.metrics_listener = await asyncio.start_server(
                self._handle_metrics,
                host=settings.host, port=settings.metrics_port,
            )
        if settings.install_signal_handlers:
            loop = asyncio.get_running_loop()
            try:
                loop.add_signal_handler(signal.SIGTERM, self.request_drain)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        logger.info("listening on %s", self.where)
        return self

    @property
    def where(self) -> str:
        """Human-readable bound address."""
        if self.settings.socket_path:
            return self.settings.socket_path
        return "%s:%d" % self.listener.sockets[0].getsockname()[:2]

    @property
    def metrics_address(self):
        """``(host, port)`` of the metrics endpoint, or None."""
        if self.metrics_listener is None:
            return None
        return self.metrics_listener.sockets[0].getsockname()[:2]

    def request_drain(self) -> None:
        """SIGTERM entry: stop accepting; live sessions checkpoint out."""
        if self.drain_event.is_set():
            return
        logger.info(
            "drain requested: %d live session(s)", self.manager.active_count()
        )
        self.drain_event.set()
        if self.listener is not None:
            self.listener.close()
        if self.metrics_listener is not None:
            self.metrics_listener.close()

    async def wait_closed(self) -> None:
        """Wait for every in-flight session to finish."""
        while True:
            tasks = [
                task for task in self._tasks
                if task is not asyncio.current_task()
            ]
            if not tasks:
                return
            await asyncio.wait(tasks)

    async def close(self) -> None:
        """Tear everything down (tests / embedders)."""
        self.request_drain()
        await self.wait_closed()
        for listener in (self.listener, self.metrics_listener):
            if listener is not None:
                listener.close()
                try:
                    await listener.wait_closed()
                except (OSError, RuntimeError):  # pragma: no cover
                    pass
        if self.settings.socket_path:
            try:
                os.unlink(self.settings.socket_path)
            except OSError:  # pragma: no cover - already removed
                pass

    # -- connection handling --------------------------------------------- #

    async def handle_connection(self, reader, writer) -> None:
        """The accept callback: admission stage 1, then a driver."""
        task = asyncio.current_task()
        if task is not None:
            self._tasks.add(task)
        session = None
        result = None
        try:
            if self.drain_event.is_set():
                writer.write(_DRAIN_REFUSAL.encode("utf-8"))
                await writer.drain()
                return
            try:
                session = self.manager.open_session()
            except Overloaded as error:
                self.metrics.count("rejected")
                logger.info("reject connection reason=%s", error)
                writer.write(
                    ("error Overloaded: %s\n" % error).encode("utf-8")
                )
                await writer.drain()
                return
            driver = SessionDriver(
                reader, writer,
                detectors=self.detector_factory(),
                config=self.config,
                validate=self.validate,
                name="client-%d" % session.session_id,
                checkpoint_dir=self.settings.checkpoint_dir,
                session=session,
                server=self,
            )
            result = await driver.run()
        except (OSError, *_DISCONNECTS):  # pragma: no cover - teardown races
            self.metrics.count("disconnected")
        finally:
            if session is not None:
                self.manager.release(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, *_DISCONNECTS):  # pragma: no cover - teardown
                pass
            if task is not None:
                self._tasks.discard(task)
        if self.on_session_end is not None and session is not None:
            self.on_session_end(session, result)

    async def _handle_metrics(self, reader, writer) -> None:
        """Minimal HTTP/1.1 endpoint: any GET answers the metrics JSON."""
        try:
            request = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            body = json.dumps(
                self.metrics.to_dict(self.manager), indent=2, sort_keys=True
            ).encode("utf-8")
            status = (
                b"200 OK" if request.startswith(b"GET") else b"405 Method Not Allowed"
            )
            writer.write(
                b"HTTP/1.1 " + status + b"\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode("ascii") + b"\r\n"
                b"Connection: close\r\n\r\n" + body
            )
            await writer.drain()
        except (OSError, *_DISCONNECTS):  # pragma: no cover - peer vanished
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, *_DISCONNECTS):  # pragma: no cover - teardown
                pass

    def __repr__(self) -> str:
        return "RaceServer(%s, active=%d)" % (
            self.settings, self.manager.active_count(),
        )

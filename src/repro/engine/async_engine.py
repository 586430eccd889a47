"""The asynchronous race engine: push ingestion without blocking.

:class:`~repro.engine.engine.RaceEngine` *pulls* events: a live logger
feeding it must either materialise its output first or block a thread in
a queue.  :class:`AsyncRaceEngine` is the asyncio-native counterpart --
one coroutine awaits events off any asynchronous source (a socket or
pipe speaking the STD line protocol, a push queue, or any object with
``__aiter__``) and steps them through the detectors as they arrive, so
producers and analysis interleave on one event loop.

The stepping semantics are **shared**, not reimplemented: both engines
drive the same :class:`~repro.engine.engine.EnginePass` block stepper,
so reset/process/snapshot/early-stop/finish behaviour, cost attribution
and the resulting :class:`~repro.engine.engine.EngineResult` are
identical by construction -- the async-vs-sync parity suite asserts
report equality event for event.  Per-event work stays O(1); the only
difference is who waits when the stream runs dry.  Blocks come from
:func:`~repro.engine.sources.async_batches`: a socket source's reads, a
push queue's ready events, a synchronous source's blocks in slices.

Synchronous inputs (traces, files, iterables) are accepted too: they are
adapted through :func:`~repro.engine.sources.as_async_source`, which
periodically surrenders the event loop so a long file pass cannot starve
other tasks.

Serving is layered on top: :func:`serve_connection` runs one engine pass
over an accepted ``(reader, writer)`` stream pair, validating the stream
online by default and answering with a compact per-detector summary --
the core of the ``repro-race serve`` CLI subcommand.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from repro.engine.config import DetectorSpec, EngineConfig
from repro.engine.engine import EnginePass, EngineResult, prepare_resume_pass
from repro.engine.sources import as_async_source, async_batches

__all__ = ["AsyncRaceEngine", "serve_connection"]


class AsyncRaceEngine:
    """Drive N detectors over one asynchronous event source in one pass.

    Usage::

        engine = AsyncRaceEngine(EngineConfig().with_detectors("wcp", "hb"))
        result = await engine.run(source)
        result["WCP"].count()

    ``source`` may be an asynchronous source
    (:class:`~repro.engine.sources.LineProtocolSource`,
    :class:`~repro.engine.sources.QueueSource`, any ``__aiter__``
    object) or anything the synchronous engine accepts (trace, path,
    iterable), adapted cooperatively.  Configuration, early-stop
    policies, snapshots and the result type are exactly
    :class:`~repro.engine.engine.RaceEngine`'s -- both drive the shared
    :class:`~repro.engine.engine.EnginePass`.
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()

    async def run(
        self,
        source,
        detectors: Optional[Sequence[DetectorSpec]] = None,
    ) -> EngineResult:
        """Await events from ``source`` and run the configured detectors.

        With ``config.checkpoint_dir`` set, the pass persists detector
        checkpoints at the configured cadence, exactly like the
        synchronous engine -- both wire the same
        :class:`~repro.engine.checkpoint.Checkpointer` into the shared
        stepper.
        """
        config = self.config
        resolved = config.resolve_detectors(detectors)
        async_source = as_async_source(source)

        checkpointer = None
        if config.checkpoint_dir is not None:
            from repro.engine.checkpoint import (
                Checkpointer,
                check_snapshot_support,
            )

            check_snapshot_support(resolved)
            # background=True: the stepper runs on the event loop thread,
            # so the write+fsync must not stall other connections.
            checkpointer = Checkpointer(
                config.checkpoint_dir,
                every=config.checkpoint_every,
                keep=config.checkpoint_keep,
                background=True,
            )
            checkpointer.source = async_source
        pass_ = EnginePass(
            config, resolved, getattr(async_source, "name", "stream"),
            trace=getattr(async_source, "trace", None),
            registry=getattr(async_source, "registry", None),
            checkpointer=checkpointer,
        )
        pass_.start()
        return await self._drive(pass_, async_source)

    async def resume(
        self,
        source,
        checkpoint,
        detectors: Optional[Sequence[DetectorSpec]] = None,
    ) -> EngineResult:
        """Resume a checkpointed pass over an asynchronous source.

        The asynchronous counterpart of
        :meth:`~repro.engine.engine.RaceEngine.resume`.  Pull sources are
        positioned at the checkpoint offset; push sources
        (:class:`~repro.engine.sources.QueueSource`,
        :class:`~repro.engine.sources.LineProtocolSource`) record it as
        their ``resume_offset`` so the producer can replay from there --
        the resume handshake ``repro-race serve`` speaks on the wire.
        """
        async_source = as_async_source(source)
        pass_ = prepare_resume_pass(
            self.config, checkpoint, detectors, async_source
        )
        if pass_.checkpointer is not None:
            # See run(): writes must not stall the event loop.
            pass_.checkpointer.background = True
        return await self._drive(pass_, async_source)

    @staticmethod
    async def _drive(pass_: EnginePass, async_source) -> EngineResult:
        step_batch = pass_.step_batch
        async for block in async_batches(async_source):
            if step_batch(block) is not None:
                break
        return pass_.result()

    def __repr__(self) -> str:
        return "AsyncRaceEngine(%r)" % (self.config,)


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


async def serve_connection(
    reader,
    writer,
    detectors: Sequence[DetectorSpec],
    config: Optional[EngineConfig] = None,
    validate: bool = True,
    name: str = "client",
    checkpoint_dir=None,
    session=None,
) -> Optional[EngineResult]:
    """Analyse one pushed STD event stream and answer on the same stream.

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
    line (a legal STD comment, so old servers ignore it).  The server
    answers immediately with ``resume <offset>`` -- the last durable
    event offset for that id (0 for a fresh stream) -- and the client
    replays its events from that offset on.  Detector state is
    checkpointed under ``checkpoint_dir/<id>`` at the configured cadence
    and deleted once the stream completes cleanly.

    The implementation is the serve tier's
    :class:`~repro.serve.server.SessionDriver` with governance off: no
    quotas, no eviction, no drain -- one protocol implementation serves
    both this compatibility surface and the multi-tenant
    :class:`~repro.serve.server.RaceServer`.  An optional
    :class:`~repro.serve.sessions.StreamSession` hooks per-stream
    bookkeeping (counters, lifecycle state) into the pass.

    Returns the :class:`~repro.engine.engine.EngineResult`, or None when
    the stream was rejected.  The writer is drained but left open;
    closing is the caller's (the server's) responsibility.
    """
    # Imported lazily: repro.serve.server imports this module at load.
    from repro.serve.server import SessionDriver

    driver = SessionDriver(
        reader, writer,
        detectors=detectors,
        config=config,
        validate=validate,
        name=name,
        checkpoint_dir=checkpoint_dir,
        session=session,
    )
    return await driver.run()

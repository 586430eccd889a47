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

Serving is layered on top: :class:`~repro.serve.server.SessionDriver`
drives one pass per accepted connection of ``repro-race serve``.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from repro.engine.config import DetectorSpec, EngineConfig
from repro.engine.engine import EnginePass, EngineResult, prepare_resume_pass
from repro.engine.sources import as_async_source, async_batches

__all__ = ["AsyncRaceEngine"]


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
            source=async_source,
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

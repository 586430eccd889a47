"""Event sources: pluggable producers of event streams for the engine.

An :class:`EventSource` is anything that can hand the
:class:`~repro.engine.engine.RaceEngine` a sequence of
:class:`~repro.trace.event.Event` objects exactly once.  Concrete sources:

* :class:`TraceSource` -- an in-memory, validated
  :class:`~repro.trace.trace.Trace` (``is_complete``: detectors may
  pre-scan it, e.g. WCP's queue pruning);
* :class:`FileSource` -- a log file parsed lazily, line by line, through
  the streaming entry points of :mod:`repro.trace.parsers`; the full trace
  is never materialised (a regular file is decoded once more, ahead of
  the stream, for its :attr:`FileSource.thread_census`);
* :class:`IterableSource` -- any iterable/generator of events (e.g. an
  instrumentation callback queue);
* :class:`SimulatorSource` -- a simulator program run under a scheduler,
  feeding the emitted events straight into the engine;
* :class:`CountingSource` -- a transparent wrapper that counts iteration
  passes and events, used by tests and benchmarks to *prove* the engine's
  single-pass property;
* :class:`QueueSource` -- a thread-safe **push** source: callback
  producers (e.g. an instrumentation hook on another thread) ``put``
  events into a bounded queue -- blocking when the consumer falls behind,
  which is the backpressure contract -- and the engine drains it, from a
  plain ``for`` loop or an ``async for`` loop;
* :class:`LineProtocolSource` -- an asyncio-native source decoding the
  STD line protocol off an :class:`asyncio.StreamReader` (an accepted
  socket connection, a pipe) through the bytes-level
  :class:`repro.trace.parsers.StdDecoder` the file paths use; backpressure
  comes from the stream's own flow control (the transport pauses the
  peer when the reader's buffer fills).

:func:`as_source` coerces plain traces, paths and iterables, so the
public API accepts all of them interchangeably;
:func:`as_async_source` additionally accepts asynchronous sources and
adapts synchronous ones for cooperative ``async for`` consumption (see
:class:`~repro.engine.async_engine.AsyncRaceEngine`).

Every source hands the engine blocks of events through ``batches()``
(asynchronous sources: an ``async`` generator; :func:`async_batches`
picks the right one for ``async for``): a file's decoded parser blocks,
slices of a trace, whatever a push queue or socket read holds right now.
Iterating a source directly yields the same events one at a time.

Every source exposes a ``registry``
(:class:`~repro.vectorclock.registry.ThreadRegistry`): the interning
table used to stamp the ``tid`` of every yielded event.  The engine hands
the same registry to every detector of a pass (via the backing trace or
the stream context), so thread identifiers are hashed exactly once -- at
the source boundary -- no matter how many detectors run.
"""

from __future__ import annotations

import itertools
import os
import queue as queue_module
import stat
from functools import cached_property
from pathlib import Path
from typing import (
    AsyncIterator, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple, Union,
)

from repro.trace.columns import ColumnBlock
from repro.trace.event import Event
from repro.trace.parsers import (
    BATCH_LINES,
    StdDecoder,
    TraceParseError,
    group_events,
    iter_trace_blocks,
)
from repro.trace.trace import ThreadCensus, Trace
from repro.vectorclock.registry import ThreadRegistry


class EventSource:
    """Base class for event stream producers.

    Attributes
    ----------
    name:
        Human-readable stream name, used as the trace name in reports.
    is_complete:
        True when the underlying events are fully materialised and may be
        iterated repeatedly (detectors may pre-scan); False for genuine
        streams, which the engine guarantees to iterate exactly once.
    """

    name = "stream"
    is_complete = False
    #: Interning table whose tids stamp the yielded events (None when the
    #: source does not stamp; detectors then intern per event themselves).
    registry: Optional[ThreadRegistry] = None
    #: The whole stream's :class:`~repro.trace.trace.ThreadCensus` when
    #: the source can take it ahead of the stream (a regular file), else
    #: None.  The engine's stream context reads it only when a detector
    #: asks, so a pass that resumes from a checkpoint never takes it.
    thread_census: Optional[ThreadCensus] = None

    # A subclass implements ``__iter__`` or ``batches`` (or both); each
    # default is defined in terms of the other.

    def __iter__(self) -> Iterator[Event]:
        return itertools.chain.from_iterable(self.batches())

    def batches(self) -> Iterator[Sequence[Event]]:
        """Yield the stream as blocks of events: the unit the engine steps.

        A block is a :class:`~repro.trace.columns.ColumnBlock` (decoded
        files and sockets, slices of a trace) or a list of events (push
        queues, iterables); the engine adapts a list to columns once.

        Block boundaries carry no meaning (the engine splits blocks
        wherever a snapshot, checkpoint or budget is due), so a source
        yields whatever blocks it has cheaply.  The default groups
        ``iter(self)``; a failing iterator's already-produced events are
        yielded before its exception propagates.
        """
        return group_events(iter(self))

    def length_hint(self) -> Optional[int]:
        """Return the number of events when known up front, else None."""
        return None

    def seek_events(self, events: int) -> None:
        """Position the source so iteration resumes at offset ``events``.

        Part of the checkpoint/resume protocol
        (:mod:`repro.engine.checkpoint`): replayable sources skip the
        first ``events`` events of their stream; push sources instead
        record the offset and advertise it to their producer.  The base
        implementation only accepts offset 0.
        """
        if events:
            raise ValueError(
                "%s cannot seek to event %d; resume requires a seekable "
                "source" % (type(self).__name__, events)
            )

    @property
    def trace(self) -> Optional[Trace]:
        """The backing :class:`Trace` when one exists, else None.

        The engine passes a real trace to ``Detector.reset`` when
        available so trace-wide optimisations stay enabled.
        """
        return None

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.name)


class SourceWrapper:
    """Forward the source protocol to a wrapped source, ``_inner``.

    A wrapper takes ``name`` (unless given one) and ``registry`` from the
    source it wraps and forwards ``is_complete``, ``trace``,
    ``thread_census``, ``length_hint``, ``seek_events`` and the
    checkpoint-state pair, so wrapping a trace, a file or a validated
    stream changes nothing that detectors, checkpoints or a resume read.
    A subclass supplies the iteration and lists this class before its
    source base class.
    """

    def __init__(self, inner, name: Optional[str] = None) -> None:
        self._inner = inner
        self.name = name or getattr(inner, "name", "stream")
        self.registry = getattr(inner, "registry", None)

    @property
    def is_complete(self) -> bool:
        return bool(getattr(self._inner, "is_complete", False))

    @property
    def trace(self) -> Optional[Trace]:
        return getattr(self._inner, "trace", None)

    @property
    def thread_census(self) -> Optional[ThreadCensus]:
        return getattr(self._inner, "thread_census", None)

    def length_hint(self) -> Optional[int]:
        hint = getattr(self._inner, "length_hint", None)
        return hint() if callable(hint) else None

    def seek_events(self, events: int) -> None:
        seek = getattr(self._inner, "seek_events", None)
        if seek is None:
            raise ValueError(
                "wrapped source %r cannot seek to event %d"
                % (self._inner, events)
            )
        seek(events)

    def checkpoint_state(self, events: Optional[int] = None):
        state = getattr(self._inner, "checkpoint_state", None)
        return state(events) if callable(state) else None

    def restore_checkpoint_state(self, state) -> None:
        restore = getattr(self._inner, "restore_checkpoint_state", None)
        if callable(restore):
            restore(state)

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self._inner)


class TraceSource(EventSource):
    """Adapt an in-memory :class:`Trace` to the source interface."""

    is_complete = True

    def __init__(self, trace: Trace) -> None:
        self._trace = trace
        self.name = trace.name
        self.registry = getattr(trace, "registry", None)
        self._skip = 0

    def __iter__(self) -> Iterator[Event]:
        return _skip_prefix(iter(self._trace), self._skip)

    def batches(self) -> Iterator[List[Event]]:
        events = self._trace.events
        for start in range(self._skip, len(events), BATCH_LINES):
            yield events[start:start + BATCH_LINES]

    def seek_events(self, events: int) -> None:
        self._skip = events

    def length_hint(self) -> Optional[int]:
        return len(self._trace)

    @property
    def trace(self) -> Optional[Trace]:
        return self._trace


class FileSource(EventSource):
    """Stream a trace log from disk without materialising a :class:`Trace`.

    The file is re-opened on every iteration, so the source is replayable,
    but the engine only ever takes a single pass.  Format is dispatched on
    the file extension exactly like
    :func:`repro.trace.parsers.load_trace`, unless ``format`` names one of
    :data:`repro.trace.parsers.FORMAT_NAMES` explicitly.

    A regular file is also read once ahead of the pass, for its
    :attr:`thread_census`, when a detector asks for it.
    """

    def __init__(
        self,
        path: Union[str, Path],
        name: Optional[str] = None,
        format: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        self.name = name or self.path.stem
        self.registry = ThreadRegistry()
        self.format = format
        self._skip = 0

    def batches(self) -> Iterator[List[Event]]:
        """Yield the file's decoded blocks (``parse_*_batch`` output)."""
        # A skipped prefix is parsed (cheap relative to analysis) but not
        # yielded; skipped events still intern their threads, in the
        # same first-appearance order a restored snapshot expects.
        skip = self._skip
        for block in iter_trace_blocks(
            self.path, registry=self.registry, format=self.format
        ):
            if skip:
                if len(block) <= skip:
                    skip -= len(block)
                    continue
                block = block[skip:]
                skip = 0
            yield block

    def seek_events(self, events: int) -> None:
        """Resume iteration at event offset ``events`` (checkpoint/resume)."""
        self._skip = events

    @cached_property
    def thread_census(self) -> Optional[ThreadCensus]:
        """The census of the whole file, from a decode-only first pass.

        The file is decoded through the source's own registry, so tids
        come out in the file's first-appearance order -- the order the
        stream pass, a batch load and a resumed pass assign -- and only
        the distinct ``(tid, op)`` rows are kept, no block.  None when
        the file cannot be read twice (a FIFO, or a pipe or terminal
        behind ``/dev/stdin``: the census would drain it) or when it does
        not decode to its end (the stream pass then stops at the same
        error, or a budget stops it first).
        """
        try:
            regular = stat.S_ISREG(os.stat(self.path).st_mode)
        except OSError:
            regular = False
        if not regular:
            return None
        pairs: Dict[Tuple[int, int], None] = {}
        block = None
        try:
            for block in iter_trace_blocks(
                self.path, registry=self.registry, format=self.format
            ):
                pairs.update(dict.fromkeys(zip(*block.columns())))
        except TraceParseError:
            return None
        # The blocks of one decode share its op table, so the last block
        # reads every pair.
        return None if block is None else ThreadCensus(block, pairs)

    def __repr__(self) -> str:
        return "FileSource(%r)" % (str(self.path),)


class IterableSource(EventSource):
    """Wrap an arbitrary iterable (or one-shot generator) of events.

    Events are stamped with tids from the source's own registry as they
    pass through; an event already stamped by a *different* registry is
    replaced with a fresh copy so the original stamps stay intact.
    """

    def __init__(self, events: Iterable[Event], name: str = "stream") -> None:
        self._events = events
        self.name = name
        self.registry = ThreadRegistry()
        self._skip = 0

    def __iter__(self) -> Iterator[Event]:
        return _skip_prefix(_stamped(self._events, self.registry), self._skip)

    def seek_events(self, events: int) -> None:
        """Resume at offset ``events`` (skips that many events on iteration)."""
        self._skip = events


class SimulatorSource(EventSource):
    """Feed the engine from a live simulator run.

    The program is executed (under the given scheduler) when the engine
    starts iterating, and the emitted events flow straight into the
    detectors through the interpreter's incremental
    :meth:`~repro.simulator.interpreter.Interpreter.iter_events`
    generator: no intermediate trace is ever materialised, so memory
    stays constant no matter how long the run is.  Like every genuine
    stream, the events see no trace-level validation (execution semantics
    guarantee lock consistency anyway).
    """

    def __init__(self, program, scheduler=None, allow_deadlock: bool = False,
                 name: Optional[str] = None) -> None:
        self.program = program
        self.scheduler = scheduler
        self.allow_deadlock = allow_deadlock
        self.name = name or getattr(program, "name", "simulation")
        # Persists across runs so tids stay stable even when the scheduler
        # makes threads appear in a different order on a re-run.
        self.registry = ThreadRegistry()

    def __iter__(self) -> Iterator[Event]:
        from repro.simulator.interpreter import Interpreter

        interpreter = Interpreter(self.program, self.scheduler)
        return _stamped(
            interpreter.iter_events(allow_deadlock=self.allow_deadlock),
            self.registry,
        )


class CountingSource(SourceWrapper, EventSource):
    """Transparent wrapper that counts passes and events.

    Used to demonstrate (in tests and benchmarks) that the engine drives
    ``k`` detectors with exactly **one** iteration of the underlying
    source, where the legacy one-detector-at-a-time path took ``k``.

    Transparency includes the completeness protocol and checkpoints
    (:class:`SourceWrapper`): wrapping a complete :class:`TraceSource`
    does not silently downgrade detectors to stream mode (WCP would
    otherwise lose its queue-pruning prescan and report different stats
    than the unwrapped run), and a wrapped validated stream still
    checkpoints and resumes with its validator state.
    """

    def __init__(self, inner: Union[EventSource, Trace, Iterable[Event]],
                 name: Optional[str] = None) -> None:
        super().__init__(as_source(inner), name)
        #: Number of times iteration was started.
        self.passes = 0
        #: Number of events handed out across all passes.
        self.events_emitted = 0

    def __iter__(self) -> Iterator[Event]:
        self.passes += 1
        for event in self._inner:
            self.events_emitted += 1
            yield event

    def batches(self) -> Iterator[List[Event]]:
        self.passes += 1
        for block in self._inner.batches():
            self.events_emitted += len(block)
            yield block


#: End-of-stream marker used by the push sources.
_CLOSED = object()

#: Broken-stream marker: the producer died or aborted; consuming raises.
_ABORTED = object()


class QueueSource(EventSource):
    """A thread-safe push source for callback producers.

    Inverts the pull model of the other sources: a producer -- an
    instrumentation callback, a logger thread, a network receiver --
    calls :meth:`put` for every event and :meth:`close` at end of
    stream, while an engine concurrently drains the queue.  The queue is
    bounded (``maxsize``), so a producer outrunning the analysis blocks
    in :meth:`put` until the engine catches up: backpressure instead of
    unbounded buffering, preserving the constant-memory contract.

    The source is a genuine one-shot stream (``is_complete`` False).  It
    supports both consumption styles:

    * ``for event in source`` -- blocking iteration for
      :class:`~repro.engine.engine.RaceEngine` running in a consumer
      thread;
    * ``async for event in source`` -- for
      :class:`~repro.engine.async_engine.AsyncRaceEngine`; queue waits
      are delegated to the event loop's default executor so the loop is
      never blocked.

    Events are stamped with tids from the source's registry exactly like
    :class:`IterableSource`.
    """

    def __init__(self, name: str = "queue", maxsize: int = 1024,
                 registry: Optional[ThreadRegistry] = None) -> None:
        self.name = name
        # An injected registry lets a session own the interning table
        # across several source incarnations (the serve tier's
        # evict/restore cycle); by default each source brings its own.
        self.registry = registry if registry is not None else ThreadRegistry()
        self._queue: "queue_module.Queue" = queue_module.Queue(maxsize)
        self._closed = False
        self._abort_reason: Optional[str] = None
        #: Optional producer handle (anything with ``is_alive()``, e.g. a
        #: ``threading.Thread``): lets the consumer notice abrupt
        #: producer death instead of blocking on the queue forever.
        self._producer = None
        #: The resume handshake (checkpoint/resume protocol): the last
        #: durable event offset of a resumed pass.  A producer re-attached
        #: after a crash reads this and replays its events from that
        #: absolute position onward -- the engine renumbers from the same
        #: offset, so the replayed suffix continues the original stream.
        self.resume_offset = 0

    def seek_events(self, events: int) -> None:
        """Record the resume offset for the producer-side handshake.

        Nothing is skipped: the producer is expected to consult
        :attr:`resume_offset` and push only events from that offset on.
        """
        self.resume_offset = events

    def put(self, event: Event, timeout: Optional[float] = None) -> None:
        """Enqueue one event; blocks while the queue is full (backpressure).

        Raises :class:`queue.Full` when ``timeout`` elapses first, and
        :class:`RuntimeError` when called after :meth:`close`.
        """
        if self._closed:
            raise RuntimeError("QueueSource %r is closed" % (self.name,))
        self._queue.put(event, timeout=timeout)

    def push(self, thread: str, etype, target: Optional[str] = None,
             loc: Optional[str] = None) -> None:
        """Convenience: build and :meth:`put` an event in one call.

        The index is left to the engine's renumbering (builder
        convention -1).
        """
        self.put(Event(-1, thread, etype, target, loc))

    def close(self) -> None:
        """Signal end of stream; idempotent.

        The consumer finishes draining whatever is queued and then
        stops.
        """
        if not self._closed:
            self._closed = True
            self._queue.put(_CLOSED)

    def abort(self, reason: str = "producer aborted the stream") -> None:
        """Mark the stream broken; the consumer raises instead of hanging.

        The governed counterpart of a producer crash: whatever is
        already queued is still drained (those events are real), then
        iteration raises ``RuntimeError(reason)`` -- never a silent
        truncation, never a consumer blocked on :meth:`put` that will
        not come.  Idempotent; :meth:`put` raises afterwards exactly as
        after :meth:`close`.
        """
        if not self._closed:
            self._closed = True
            self._abort_reason = reason
            self._queue.put(_ABORTED)

    def attach_producer(self, producer) -> None:
        """Register the producing thread for liveness supervision.

        ``producer`` is anything with ``is_alive()`` (typically a
        ``threading.Thread``).  If it dies without calling
        :meth:`close` or :meth:`abort`, the consumer -- instead of
        blocking forever on a queue that will never be fed -- drains
        what was delivered and raises a ``RuntimeError`` naming the
        producer.
        """
        self._producer = producer

    def _producer_died(self) -> bool:
        return (
            self._producer is not None
            and not self._closed
            and not self._producer.is_alive()
        )

    def _raise_broken(self) -> None:
        raise RuntimeError(
            "QueueSource %r: %s" % (
                self.name,
                self._abort_reason
                or "producer %r died without closing the stream"
                % (getattr(self._producer, "name", self._producer),),
            )
        )

    @property
    def closed(self) -> bool:
        return self._closed

    def qsize(self) -> int:
        """Events currently buffered (approximate, like ``Queue.qsize``)."""
        return self._queue.qsize()

    def __aiter__(self) -> AsyncIterator[Event]:
        return _aflatten(self.abatches())

    def batches(self) -> Iterator[List[Event]]:
        """Yield what is queued: one blocking ``get``, then only the events
        already waiting behind it -- a live producer is never held back
        waiting for a full block."""
        intern = self.registry.intern
        get = self._queue.get
        get_nowait = self._queue.get_nowait
        while True:
            try:
                # Bounded waits: an abandoned queue (producer crashed
                # without close()) must surface as an error, not a hang.
                item = get(timeout=0.25)
            except queue_module.Empty:
                if self._producer_died():
                    self._raise_broken()
                continue
            block, marker = self._take(item, get_nowait, intern)
            if block:
                yield block
            if marker is _CLOSED:
                return
            if marker is _ABORTED:
                self._raise_broken()

    async def abatches(self) -> AsyncIterator[List[Event]]:
        """The ``async`` counterpart of :meth:`batches`."""
        import asyncio

        loop = asyncio.get_running_loop()
        intern = self.registry.intern
        get_nowait = self._queue.get_nowait
        get = self._queue.get
        while True:
            try:
                item = get_nowait()
            except queue_module.Empty:
                # Park the wait on a worker thread so the event loop
                # stays free for the producers -- but in *bounded* slices
                # (Queue.get timeouts), never an indefinite block: a
                # cancelled consumer must not wedge an executor thread
                # in get() forever (loop.shutdown_default_executor()
                # would then hang the whole program on exit).
                try:
                    item = await loop.run_in_executor(None, get, True, 0.25)
                except queue_module.Empty:
                    if self._producer_died():
                        self._raise_broken()
                    continue
            block, marker = self._take(item, get_nowait, intern)
            if block:
                yield block
            if marker is _CLOSED:
                return
            if marker is _ABORTED:
                self._raise_broken()

    def _take(self, item, get_nowait, intern):
        """Collect ``item`` plus the events already queued behind it.

        Returns ``(events, marker)``; ``marker`` is the end-of-stream
        marker that ended the block (re-armed on the queue, so a second
        iteration ends too), else None.
        """
        block: List[Event] = []
        while True:
            if item is _CLOSED or item is _ABORTED:
                self._queue.put(item)
                return block, item
            block.append(_stamp(item, intern))
            if len(block) == BATCH_LINES:
                return block, None
            try:
                item = get_nowait()
            except queue_module.Empty:
                return block, None


class AsyncEventSource:
    """Base class for asyncio-native event stream producers.

    The asynchronous counterpart of :class:`EventSource`: the same
    ``name`` / ``is_complete`` / ``registry`` / ``trace`` protocol, but
    events are produced through ``__aiter__`` for an ``async for`` loop
    (:class:`~repro.engine.async_engine.AsyncRaceEngine`).
    """

    name = "stream"
    is_complete = False
    registry: Optional[ThreadRegistry] = None
    #: Asynchronous sources never have a materialised backing trace.
    trace: Optional[Trace] = None

    # A subclass implements ``__aiter__`` or ``batches`` (or both); each
    # default is defined in terms of the other.

    def __aiter__(self) -> AsyncIterator[Event]:
        return _aflatten(self.batches())

    def batches(self) -> AsyncIterator[List[Event]]:
        """Yield the stream as lists of events (asynchronously).

        The default puts each event of ``async for`` in a list of its
        own: waiting to fill a larger block could hold a live producer's
        events back.
        """
        return _singletons(self)

    def length_hint(self) -> Optional[int]:
        return None

    def __repr__(self) -> str:
        return "%s(%r)" % (type(self).__name__, self.name)


class LineProtocolSource(AsyncEventSource):
    """Decode the STD line protocol off an :class:`asyncio.StreamReader`.

    One ``thread|op(arg)[|loc]`` event per line -- the exact grammar of
    the on-disk STD format, decoded by the same bytes-level decoder
    (:class:`~repro.trace.parsers.StdDecoder`), so a logger can pipe the
    same bytes to a file or a socket and get the same events and the
    same errors: lines end at ``\\n``, ``\\r\\n`` or a bare ``\\r``, and a
    line that is not UTF-8 is an error naming its line and bytes.  The
    reader may come from an accepted server connection (``repro-race
    serve``), ``asyncio.open_connection``, or a pipe transport; end of
    stream is the peer's EOF.  asyncio's stream flow control provides
    the backpressure: when the engine falls behind, the transport
    pauses the peer instead of buffering unboundedly.

    Decoding is batched: whatever span of whole lines one socket read
    (at most 64 KiB) completes is decoded as a single column block, so
    a fast producer pays the per-call overhead once per *batch* while a
    trickling producer still sees per-line latency (a read returns as
    soon as any bytes arrive).  :meth:`batches` yields those blocks --
    the serve tier hands one block per read from its pump to its drive
    loop; ``async for event in source`` is the same decoder flattened
    to single events.
    """

    #: Longest accepted line (bytes, newline excluded).  Replaces the
    #: Bytes requested per socket read (the largest batch's span).
    READ_BYTES = 1 << 16

    def __init__(self, reader, name: str = "socket",
                 registry: Optional[ThreadRegistry] = None,
                 initial_lines: Optional[list] = None,
                 on_bytes=None) -> None:
        self.reader = reader
        self.name = name
        self.registry = registry if registry is not None else ThreadRegistry()
        #: Raw lines (bytes) consumed before the reader -- a server that
        #: peeked at the stream head (the resume handshake) pushes the
        #: peeked line back through here; they are decoded with the
        #: first read, as the bytes the stream starts with.
        self.initial_lines = list(initial_lines or [])
        #: Optional callback invoked with the byte count of every decoded
        #: block of complete lines -- comments and blanks included -- so
        #: a server can account wire bytes without re-reading the stream.
        self.on_bytes = on_bytes
        #: The resume handshake: the last durable event offset, advertised
        #: to the peer as a ``resume <offset>`` response line by the serve
        #: protocol; the peer replays its events from that offset on.
        self.resume_offset = 0

    def seek_events(self, events: int) -> None:
        """Record the resume offset; the peer replays from it (handshake)."""
        self.resume_offset = events

    async def batches(self) -> AsyncIterator[ColumnBlock]:
        """Yield the decoded rows of each socket read as one column block.

        Blocks holding no event (only comments or blanks) are skipped.
        Numbering, thread interning and error line numbers continue
        across blocks exactly as in a one-shot decode; a grammar error
        raises before any event of its block is yielded.
        """
        import asyncio

        read = self.reader.read
        on_bytes = self.on_bytes
        decoder = StdDecoder(self.registry)
        # The peeked lines are the stream's first bytes: they go in front
        # of the first read, so the first block holds every line that
        # read completes, not the peeked line alone.
        head = b"".join(
            raw if isinstance(raw, bytes) else raw.encode("utf-8")
            for raw in self.initial_lines
        )
        # A peer spraying an endless unterminated line is cut off instead
        # of growing the pending buffer without bound.
        max_line = StdDecoder.MAX_LINE_BYTES
        read_bytes = self.READ_BYTES
        while True:
            chunk = await read(read_bytes)
            final = not chunk
            if head:
                chunk, head = head + chunk, b""
            pending = decoder.pending
            if not chunk and pending[-1:] != b"\r":
                # (A final bare "\r" ends its line: decode it below.)
                if pending:
                    # The peer vanished mid-line.  Surface it as the
                    # disconnect it is (the serve tier counts it in
                    # ``disconnected``) instead of parsing half a record
                    # or raising a grammar error for bytes the client
                    # never finished sending.
                    raise asyncio.IncompleteReadError(pending, None)
                return
            cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r"))
            tail = len(chunk) - cut - 1
            if cut < 0 and pending[-1:] != b"\r":
                tail += len(pending)
            if tail > max_line:
                raise ValueError(
                    "line protocol: %d bytes without a newline (limit %d)"
                    % (tail, max_line)
                )
            events = decoder.decode(chunk, final=final)
            used = len(pending) + len(chunk) - len(decoder.pending)
            if used and on_bytes is not None:
                on_bytes(used)
            if events:
                yield events
            if final:
                return


async def _aflatten(blocks) -> AsyncIterator[Event]:
    """Flatten an asynchronous block stream into single events."""
    async for block in blocks:
        for event in block:
            yield event


async def _singletons(events) -> AsyncIterator[List[Event]]:
    """Wrap each event of an asynchronous stream in a list of its own."""
    async for event in events:
        yield [event]


def async_batches(source) -> AsyncIterator[List[Event]]:
    """The asynchronous block stream of anything :func:`as_async_source`
    returns: ``abatches()`` of the sources that iterate both ways
    (:class:`QueueSource`, :class:`~repro.engine.validate.ValidatingSource`),
    ``batches()`` of :class:`AsyncEventSource` subclasses, else one-event
    blocks of a foreign ``async for`` iterable."""
    abatches = getattr(source, "abatches", None)
    if abatches is not None:
        return abatches()
    if isinstance(source, AsyncEventSource):
        return source.batches()
    return _singletons(source)


def _skip_prefix(events: Iterator[Event], skip: int) -> Iterator[Event]:
    """Drop the first ``skip`` events (checkpoint/resume positioning)."""
    if skip:
        return itertools.islice(events, skip, None)
    return events


def _stamp(event: Event, intern) -> Event:
    """Stamp one event's ``tid``, copying on a conflicting prior stamp."""
    tid = intern(event.thread)
    if event.tid is None:
        event.tid = tid
    elif event.tid != tid:
        event = Event(
            event.index, event.thread, event.etype, event.target,
            event.loc, tid=tid,
        )
    return event


def _stamped(events: Iterable[Event], registry: ThreadRegistry) -> Iterator[Event]:
    """Yield ``events`` with their ``tid`` stamped from ``registry``.

    Events stamped by a different registry (conflicting tid) are yielded
    as fresh copies instead of being restamped in place.
    """
    intern = registry.intern
    for event in events:
        yield _stamp(event, intern)


def as_source(obj: Union[EventSource, Trace, str, Path, Iterable[Event]],
              name: Optional[str] = None) -> EventSource:
    """Coerce ``obj`` into an :class:`EventSource`.

    Accepts an existing source (returned unchanged), a :class:`Trace`, a
    file path (``str`` / ``Path``), or any iterable of events.
    """
    if isinstance(obj, EventSource):
        return obj
    if isinstance(obj, Trace):
        return TraceSource(obj)
    if isinstance(obj, (str, Path)):
        return FileSource(obj, name=name)
    if hasattr(obj, "__iter__"):
        return IterableSource(obj, name=name or "stream")
    raise TypeError(
        "cannot build an event source from %r (expected EventSource, Trace, "
        "path, or iterable of events)" % (type(obj).__name__,)
    )


class _CooperativeSource(SourceWrapper, AsyncEventSource):
    """Adapt a synchronous source for an ``async for`` loop.

    Yields the inner source's blocks in slices of at most
    ``yield_every`` events, surrendering the event loop after each, so a
    long pull-based pass (a big trace file) cannot starve the loop's
    other tasks.  The source protocol is forwarded
    (:class:`SourceWrapper`), so the async engine treats an adapted
    trace or file exactly like the sync engine does.
    """

    def __init__(self, inner: EventSource, yield_every: int = 256) -> None:
        super().__init__(inner)
        self._yield_every = yield_every

    async def batches(self) -> AsyncIterator[List[Event]]:
        import asyncio

        size = self._yield_every
        for block in self._inner.batches():
            for start in range(0, len(block), size):
                yield block[start:start + size]
                await asyncio.sleep(0)


def as_async_source(obj, name: Optional[str] = None):
    """Coerce ``obj`` into something an ``async for`` loop can consume.

    Asynchronous sources (anything with ``__aiter__``, e.g.
    :class:`LineProtocolSource`, :class:`QueueSource`, a wrapped
    :class:`~repro.engine.validate.ValidatingSource`) are returned
    unchanged; everything :func:`as_source` accepts is adapted through a
    cooperative wrapper that periodically yields the event loop.
    """
    if hasattr(obj, "__aiter__"):
        return obj
    return _CooperativeSource(as_source(obj, name=name))

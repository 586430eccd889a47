"""Trace parsers.

Four on-disk formats are supported:

* **STD** -- the RAPID-compatible one-event-per-line text format::

      t1|acq(l)|42
      t1|racq_r(rw)|43
      t2|barrier(b0)|44

  Each line is ``thread|operation|location`` where the location field is
  optional.  Blank lines and lines starting with ``#`` are ignored.

* **CSV** -- ``thread,etype,target,loc`` with a header row.

* **mtrace** / **tsan** -- real-trace ingest adapters for kernel-style
  lock logs and a ThreadSanitizer-like format, mapped onto the same
  event vocabulary; see :mod:`repro.trace.adapters`.

Every format resolves wire tokens through the declarative
:data:`repro.trace.semantics.TOKEN_TO_ETYPE` map, so a new event kind
registered in :mod:`repro.trace.semantics` is automatically parseable
everywhere.  Parse errors always name the line (or row) number and the
offending token.

Three layers of entry points:

* the *block decoders* (:func:`parse_std_batch`, :func:`parse_csv_batch`)
  turn a list of raw lines/rows into a list of events in one call.  They
  are the decoding hot path: attribute lookups are hoisted out of the
  loop and the wire tokens that repeat across a trace -- ``op(arg)``
  fields and thread names -- are memoized, so the regex / interning cost
  is paid once per distinct token instead of once per line;
* the *streaming* layer (:func:`iter_std_blocks`, :func:`iter_csv_blocks`,
  :func:`iter_trace_blocks`) yields lists of
  :class:`~repro.trace.event.Event` objects without materialising the
  input -- it reads fixed-size blocks of lines through the block
  decoders (constant memory either way), and is what the
  :class:`~repro.engine.FileSource` feeds to the streaming engine so
  that arbitrarily large logs can be analysed; :func:`iter_std_events`,
  :func:`iter_csv_events` and :func:`iter_trace_file` are the same
  streams flattened to single events;
* the *whole-trace* layer (:func:`parse_std`, :func:`parse_csv`,
  :func:`load_trace`) builds a validated
  :class:`~repro.trace.trace.Trace` on top of the streaming layer.

:func:`load_trace` / :func:`iter_trace_file` dispatch on the file
extension (``.csv``/``.mtrace``/``.tsan`` vs STD) unless an explicit
``format`` is given.
"""

from __future__ import annotations

import csv
import io
import re
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.gcpause import gc_paused
from repro.trace.event import Event, EventType
from repro.trace.semantics import REGISTRY, TOKEN_TO_ETYPE, TraceError
from repro.trace.trace import Trace
from repro.vectorclock.registry import ThreadRegistry

_OP_PATTERN = re.compile(r"^\s*(\w+)\s*\(\s*([^)]*?)\s*\)\s*$")

#: The formats ``--format`` / the extension dispatch understand.
FORMAT_NAMES = ("std", "csv", "mtrace", "tsan")

#: file extension -> format name (anything else parses as STD).
_EXTENSION_FORMATS = {".csv": "csv", ".mtrace": "mtrace", ".tsan": "tsan"}


class TraceParseError(TraceError):
    """Raised when a trace file cannot be parsed.

    A :class:`~repro.trace.semantics.TraceError` subclass: malformed
    input and semantically invalid input surface through one exception
    hierarchy.  Messages are one-line and actionable -- they always name
    the line (or CSV row) number and the offending token.
    """


def _check_operand(
    etype: EventType, target: Optional[str], token: str, where: str
) -> None:
    operand = REGISTRY[etype].operand
    if operand is not None and target is None:
        raise TraceParseError(
            "%s: %r requires a %s operand, e.g. %r"
            % (where, token, operand, "%s(%s0)" % (token, operand[0]))
        )


def _parse_operation(text: str, line_number: int) -> "tuple[EventType, Optional[str]]":
    text = text.strip()
    match = _OP_PATTERN.match(text)
    if match:
        name, argument = match.group(1).lower(), match.group(2) or None
    else:
        name, argument = text.lower(), None
    etype = TOKEN_TO_ETYPE.get(name)
    if etype is None:
        raise TraceParseError(
            "line %d: unknown operation token %r in %r"
            % (line_number, name, text)
        )
    _check_operand(etype, argument, name, "line %d" % line_number)
    return etype, argument


# --------------------------------------------------------------------- #
# Streaming layer
# --------------------------------------------------------------------- #

#: Lines/rows decoded per block by the streaming iterators.  Large enough
#: to amortise per-batch overhead, small enough that a block of pending
#: events stays trivially bounded (constant memory is preserved).
BATCH_LINES = 1024


def parse_std_batch(
    lines: Sequence[str],
    index: int = 0,
    line_number: int = 1,
    registry: Optional[ThreadRegistry] = None,
    op_cache: Optional[Dict[str, Tuple[EventType, Optional[str]]]] = None,
) -> Tuple[List[Event], int, int]:
    """Decode a block of STD lines into events in one call.

    Blank lines and ``#`` comments are skipped (but counted for error
    messages), parse errors quote the 1-based line number.  What the
    block shape buys is amortisation -- constructor and method lookups
    are hoisted out of the loop, and two memos exploit the redundancy of
    real traces:

    * ``op_cache`` maps raw ``op(arg)`` fields to their resolved
      ``(etype, target)``; a trace touching L locks and V variables pays
      the regex only O(L + V) times instead of once per line.  Callers
      decoding a stream in consecutive blocks pass the same dict back in
      to keep the memo warm across blocks.
    * thread names are interned through a local memo, so the registry is
      consulted once per distinct thread per block, not once per line.

    Returns ``(events, next_index, next_line_number)`` so consecutive
    calls continue the numbering exactly where the previous block ended.
    """
    if op_cache is None:
        op_cache = {}
    op_cached = op_cache.get
    intern = registry.intern if registry is not None else None
    tid_cache: Dict[str, Optional[int]] = {}
    tid_cached = tid_cache.get
    event_cls = Event
    events: List[Event] = []
    append = events.append
    for raw in lines:
        line = raw.strip()
        if not line or line[0] == "#":
            line_number += 1
            continue
        parts = line.split("|")
        if len(parts) < 2:
            raise TraceParseError(
                "line %d: expected 'thread|op(arg)[|loc]', got %r"
                % (line_number, raw)
            )
        thread = parts[0].strip()
        op_field = parts[1].strip()
        resolved = op_cached(op_field)
        if resolved is None:
            resolved = op_cache[op_field] = _parse_operation(
                op_field, line_number
            )
        etype, target = resolved
        if len(parts) > 2:
            loc = parts[2].strip() or None
        else:
            loc = None
        if intern is not None:
            tid = tid_cached(thread)
            if tid is None:
                tid = tid_cache[thread] = intern(thread)
        else:
            tid = None
        append(event_cls(index, thread, etype, target, loc, tid=tid))
        index += 1
        line_number += 1
    return events, index, line_number


def iter_std_blocks(
    lines: Iterable[str], registry: Optional[ThreadRegistry] = None
) -> Iterator[List[Event]]:
    """Lazily parse STD-format lines into blocks (lists) of events.

    Events are numbered in order of appearance.  Lines are pulled in
    blocks of :data:`BATCH_LINES` and decoded through
    :func:`parse_std_batch` (sharing one operation memo across blocks),
    so memory stays constant while the per-line overhead of one-at-a-time
    parsing is amortised away; each non-empty decoded block is yielded
    as it stands, which is the unit the streaming engine steps.  When a
    ``registry`` is given, every event is stamped with its interned
    thread ``tid`` at parse time so downstream detectors sharing the
    registry never hash a thread identifier again.
    """
    iterator = iter(lines)
    index = 0
    line_number = 1
    op_cache: Dict[str, Tuple[EventType, Optional[str]]] = {}
    while True:
        block = list(islice(iterator, BATCH_LINES))
        if not block:
            return
        events, index, line_number = parse_std_batch(
            block, index, line_number, registry=registry, op_cache=op_cache
        )
        if events:
            yield events


def iter_std_events(
    lines: Iterable[str], registry: Optional[ThreadRegistry] = None
) -> Iterator[Event]:
    """Lazily parse STD-format lines into a stream of events.

    :func:`iter_std_blocks` flattened: this feeds per-event consumers
    (``Trace`` construction) from arbitrarily large log files.
    """
    return chain.from_iterable(iter_std_blocks(lines, registry=registry))


def parse_csv_batch(
    rows: Sequence[List[str]],
    columns: Dict[str, int],
    index: int = 0,
    row_number: int = 2,
    registry: Optional[ThreadRegistry] = None,
    etype_cache: Optional[Dict[str, EventType]] = None,
) -> Tuple[List[Event], int, int]:
    """Decode a block of already-split CSV rows into events in one call.

    ``columns`` maps the (lower-cased) header field names to their
    positions, resolved once per file by :func:`iter_csv_events`; ``rows``
    come straight from :class:`csv.reader`.  Mirrors
    :func:`parse_std_batch`: the event-type tokens are memoized in
    ``etype_cache`` (pass the same dict back in across blocks) and thread
    interning goes through a per-block memo.  Empty rows (blank lines)
    are skipped without consuming a row number, matching the historical
    ``csv.DictReader`` behaviour.  Returns ``(events, next_index,
    next_row_number)``.
    """
    if etype_cache is None:
        etype_cache = {}
    etype_cached = etype_cache.get
    intern = registry.intern if registry is not None else None
    tid_cache: Dict[str, Optional[int]] = {}
    tid_cached = tid_cache.get
    thread_col = columns.get("thread")
    etype_col = columns.get("etype")
    target_col = columns.get("target")
    loc_col = columns.get("loc")
    event_cls = Event
    events: List[Event] = []
    append = events.append
    for row in rows:
        if not row:
            continue
        n_fields = len(row)
        if (
            thread_col is None or etype_col is None
            or thread_col >= n_fields or etype_col >= n_fields
        ):
            raise TraceParseError(
                "row %d: missing thread/etype column" % row_number
            )
        raw_etype = row[etype_col]
        etype = etype_cached(raw_etype)
        if etype is None:
            etype_name = raw_etype.strip().lower()
            etype = TOKEN_TO_ETYPE.get(etype_name)
            if etype is None:
                raise TraceParseError(
                    "row %d: unknown event type token %r"
                    % (row_number, raw_etype)
                )
            etype_cache[raw_etype] = etype
        target = (
            row[target_col].strip() or None
            if target_col is not None and target_col < n_fields else None
        )
        if target is None and REGISTRY[etype].operand is not None:
            _check_operand(
                etype, target, raw_etype.strip().lower(), "row %d" % row_number
            )
        loc = (
            row[loc_col].strip() or None
            if loc_col is not None and loc_col < n_fields else None
        )
        thread = row[thread_col].strip()
        if intern is not None:
            tid = tid_cached(thread)
            if tid is None:
                tid = tid_cache[thread] = intern(thread)
        else:
            tid = None
        append(event_cls(index, thread, etype, target, loc, tid=tid))
        index += 1
        row_number += 1
    return events, index, row_number


def iter_csv_blocks(
    lines: Iterable[str], registry: Optional[ThreadRegistry] = None
) -> Iterator[List[Event]]:
    """Lazily parse CSV-format lines (header row required) into blocks.

    The header's column positions are resolved once, then the rows are
    decoded in blocks of :data:`BATCH_LINES` through
    :func:`parse_csv_batch` (one shared event-type memo), replacing the
    per-row dict building of ``csv.DictReader``.  ``registry`` stamps
    interned thread tids exactly like :func:`iter_std_blocks`.
    """
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        return
    columns = {name.strip().lower(): pos for pos, name in enumerate(header)}
    index = 0
    row_number = 2
    etype_cache: Dict[str, EventType] = {}
    while True:
        block = list(islice(reader, BATCH_LINES))
        if not block:
            return
        events, index, row_number = parse_csv_batch(
            block, columns, index, row_number,
            registry=registry, etype_cache=etype_cache,
        )
        if events:
            yield events


def iter_csv_events(
    lines: Iterable[str], registry: Optional[ThreadRegistry] = None
) -> Iterator[Event]:
    """Lazily parse CSV-format lines into events (:func:`iter_csv_blocks`
    flattened)."""
    return chain.from_iterable(iter_csv_blocks(lines, registry=registry))


def group_events(
    events: Iterable[Event], size: int = BATCH_LINES
) -> Iterator[List[Event]]:
    """Group an event stream into lists of at most ``size`` events.

    When the underlying iterator raises, the events it produced before
    the failure are yielded first, so a consumer stepping the blocks
    reaches exactly the events a per-event consumer would.
    """
    block: List[Event] = []
    append = block.append
    try:
        for event in events:
            append(event)
            if len(block) == size:
                yield block
                block = []
                append = block.append
    except Exception:
        if block:
            yield block
        raise
    if block:
        yield block


def event_iterator(
    format: Optional[str],
) -> Callable[..., Iterator[Event]]:
    """Resolve a format name to its ``(lines, registry=...)`` iterator.

    ``None`` means STD.  The mtrace/tsan adapters are imported lazily so
    the core parser has no import-time dependency on the adapter layer.
    """
    if format in (None, "std"):
        return iter_std_events
    if format == "csv":
        return iter_csv_events
    from repro.trace.adapters import ADAPTERS

    try:
        return ADAPTERS[format]
    except KeyError:
        raise ValueError(
            "unknown trace format %r; available: %s"
            % (format, ", ".join(FORMAT_NAMES))
        )


def block_iterator(
    format: Optional[str],
) -> Callable[..., Iterator[List[Event]]]:
    """Resolve a format name to its ``(lines, registry=...)`` block iterator.

    STD and CSV decode natively in blocks; the adapters' event streams
    are grouped by :func:`group_events`.
    """
    if format in (None, "std"):
        return iter_std_blocks
    if format == "csv":
        return iter_csv_blocks
    parse_events = event_iterator(format)

    def parse_blocks(lines, registry=None):
        return group_events(parse_events(lines, registry=registry))

    return parse_blocks


def detect_format(path: Union[str, Path]) -> str:
    """Return the format implied by ``path``'s extension (STD otherwise)."""
    return _EXTENSION_FORMATS.get(Path(path).suffix.lower(), "std")


def iter_trace_blocks(
    path: Union[str, Path],
    registry: Optional[ThreadRegistry] = None,
    format: Optional[str] = None,
) -> Iterator[List[Event]]:
    """Lazily stream the events of a trace file, one decoded block at a time.

    The file is opened when iteration starts and closed when the iterator
    is exhausted; at no point is the whole file (or a ``Trace``) held in
    memory.  Dispatches on the file extension like :func:`load_trace`
    unless ``format`` names one of :data:`FORMAT_NAMES`; ``registry``
    stamps interned thread tids at parse time.  Bytes that are not UTF-8
    raise a :class:`TraceParseError` naming their line.
    """
    path = Path(path)
    parse_blocks = block_iterator(format or detect_format(path))
    with path.open("r", newline="") as handle:
        try:
            yield from parse_blocks(handle, registry=registry)
        except UnicodeDecodeError as error:
            raise _invalid_utf8(path, error) from None


def iter_trace_file(
    path: Union[str, Path],
    registry: Optional[ThreadRegistry] = None,
    format: Optional[str] = None,
) -> Iterator[Event]:
    """Lazily stream the events of a trace file (:func:`iter_trace_blocks`
    flattened)."""
    return chain.from_iterable(
        iter_trace_blocks(path, registry=registry, format=format)
    )


def _invalid_utf8(path: Path, error: UnicodeDecodeError) -> TraceParseError:
    """Name the line and bytes behind a text-decoding failure.

    Runs only on the error path: the file is rescanned in binary, line by
    line (a newline byte never occurs inside a multi-byte UTF-8
    sequence, so the first line that fails to decode is the culprit).
    """
    with path.open("rb") as handle:
        for line_number, raw in enumerate(handle, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                return TraceParseError(
                    "line %d: invalid UTF-8 byte(s) %s in %r" % (
                        line_number,
                        " ".join("0x%02x" % byte
                                 for byte in raw[bad.start:bad.end]),
                        raw.rstrip(b"\r\n").decode("utf-8", "replace"),
                    )
                )
    return TraceParseError("%s: %s" % (path.name, error))


# --------------------------------------------------------------------- #
# Batch layer
# --------------------------------------------------------------------- #

def _as_lines(source: Union[str, Iterable[str]]) -> Iterable[str]:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def parse_std(source: Union[str, Iterable[str]], name: Optional[str] = None,
              validate: bool = True,
              registry: Optional[ThreadRegistry] = None) -> Trace:
    """Parse the STD text format from a string or an iterable of lines."""
    registry = registry if registry is not None else ThreadRegistry()
    return Trace(iter_std_events(_as_lines(source), registry=registry),
                 validate=validate, name=name, registry=registry)


def parse_csv(source: Union[str, Iterable[str]], name: Optional[str] = None,
              validate: bool = True,
              registry: Optional[ThreadRegistry] = None) -> Trace:
    """Parse the CSV format (``thread,etype,target,loc`` with header)."""
    registry = registry if registry is not None else ThreadRegistry()
    return Trace(iter_csv_events(_as_lines(source), registry=registry),
                 validate=validate, name=name, registry=registry)


def load_trace(
    path: Union[str, Path],
    validate: bool = True,
    format: Optional[str] = None,
) -> Trace:
    """Load a trace from ``path``, dispatching on the file extension.

    The file is parsed line by line through the streaming layer, so only
    the event objects (never the raw text) are held in memory.  Pass
    ``format`` (one of :data:`FORMAT_NAMES`) to override the extension
    dispatch -- e.g. to ingest an mtrace-style log from a ``.txt`` file.
    The cyclic collector is paused while the trace is built (see
    :mod:`repro.gcpause`).
    """
    path = Path(path)
    parse_events = event_iterator(format or detect_format(path))
    registry = ThreadRegistry()
    with path.open("r", newline="") as handle, gc_paused():
        try:
            return Trace(
                parse_events(handle, registry=registry),
                validate=validate, name=path.stem, registry=registry,
            )
        except UnicodeDecodeError as error:
            raise _invalid_utf8(path, error) from None

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

* the *block decoders* turn raw input into one
  :class:`~repro.trace.columns.ColumnBlock` in one call and build no
  :class:`~repro.trace.event.Event`: each line appends a thread id, an
  op id and a location to the block's columns.
  :func:`parse_std_batch` (str lines) and :func:`parse_csv_batch` (CSV
  rows) are the Python decoders: attribute lookups are hoisted out of
  the loop and the wire tokens that repeat across a trace -- ``op(arg)``
  fields and thread names -- are memoised
  (:class:`~repro.trace.columns.OpTable`), so the regex / interning cost
  is paid once per distinct token instead of once per line.
  :class:`StdDecoder` is the one bytes-level STD entry point: with the
  compiled kernels a C scanner takes every line whose head is already
  memoised and keeps its location as a byte span, and every other line
  goes through :func:`parse_std_batch`'s per-line logic, which stays
  the specification;
* the *streaming* layer (:func:`iter_std_blocks`, :func:`iter_csv_blocks`,
  :func:`iter_trace_blocks`) yields column blocks without materialising
  the input -- an STD file is read in binary chunks through one
  :class:`StdDecoder`, CSV in fixed-size blocks of rows (constant
  memory either way) -- and is what the
  :class:`~repro.engine.FileSource` feeds to the streaming engine so
  that arbitrarily large logs can be analysed; :func:`iter_std_events`,
  :func:`iter_csv_events` and :func:`iter_trace_file` are the same
  streams flattened to single events, each built as it is reached;
* the *whole-trace* layer (:func:`parse_std`, :func:`parse_csv`,
  :func:`load_trace`) decodes the whole input into one column block and
  builds a validated :class:`~repro.trace.trace.Trace` over it (the
  mtrace/tsan adapters' event streams go through the trace's one
  Event adapter, :meth:`~repro.trace.columns.ColumnBlock.from_events`).

:func:`load_trace` / :func:`iter_trace_file` dispatch on the file
extension (``.csv``/``.mtrace``/``.tsan`` vs STD) unless an explicit
``format`` is given.
"""

from __future__ import annotations

import csv
import io
import re
from array import array
from itertools import chain, islice
from pathlib import Path
from typing import (
    BinaryIO, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple, Union,
)

from repro.gcpause import gc_paused
from repro.trace.columns import ColumnBlock, LocSpans, OpTable
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

#: Bytes read per block when an STD file is streamed in binary.
READ_BYTES = 1 << 16


def parse_std_batch(
    lines: Iterable[str],
    index: int = 0,
    line_number: int = 1,
    registry: Optional[ThreadRegistry] = None,
    op_table: Optional[OpTable] = None,
) -> Tuple[ColumnBlock, int, int]:
    """Decode STD lines into one :class:`~repro.trace.columns.ColumnBlock`.

    Blank lines and ``#`` comments are skipped (but counted for error
    messages), parse errors quote the 1-based line number.  No
    :class:`~repro.trace.event.Event` is built: each line appends its
    thread id, op id and location to the block's columns.  Three memos
    exploit the redundancy of real traces:

    * ``op_table`` maps raw ``op(arg)`` fields to op ids; a trace
      touching L locks and V variables pays the regex only O(L + V)
      times instead of once per line.  Callers decoding a stream in
      consecutive blocks pass the same table (and the same ``registry``)
      back in to keep the memos warm across blocks (the blocks then
      share its op list).
    * ``op_table.heads`` maps the raw ``thread|op(arg)`` prefix of a
      ``thread|op(arg)|loc`` line to its ``(tid, op id)``, so a line
      repeating a known prefix costs one split at its last ``|`` and one
      lookup; every other line takes the field-by-field path.
    * thread names are interned through a local memo, so ``registry``
      (a fresh one when None) is consulted once per distinct thread per
      call, not once per line.

    This is the specification of STD decoding: :class:`StdDecoder`, the
    bytes-level entry point, sends every line its compiled scanner does
    not take through the same per-line logic.

    Returns ``(block, next_index, next_line_number)`` so consecutive
    calls continue the numbering exactly where the previous block ended.
    """
    if registry is None:
        registry = ThreadRegistry()
    if op_table is None:
        op_table = OpTable()
    tids: List[int] = []
    ops: List[int] = []
    locs: List[Optional[str]] = []
    line_number = _std_lines(
        lines, line_number, registry, op_table, {}, tids, ops, locs
    )
    return (
        ColumnBlock(array("i", tids), array("i", ops), op_table, locs,
                    registry, index),
        index + len(tids),
        line_number,
    )


def _std_lines(
    lines: Iterable[str],
    line_number: int,
    registry: ThreadRegistry,
    op_table: OpTable,
    tid_cache: Dict[str, int],
    tids: List[int],
    ops: List[int],
    locs: List[Optional[str]],
) -> int:
    """The per-line STD logic of :func:`parse_std_batch`.

    Appends each data line's tid, op id and location to the three
    lists; ``tid_cache`` maps raw thread fields to tids.  Returns the
    next line number.
    """
    add_tid = tids.append
    add_op = ops.append
    add_loc = locs.append
    op_ids = op_table.ids
    op_of = op_ids.get
    optable = op_table.ops
    heads = op_table.heads
    head_of = heads.get
    intern = registry.intern
    tid_of = tid_cache.get
    for raw in lines:
        # A known head has exactly one "|" and came from a valid
        # three-field line, so the line is that line's thread and op
        # plus a location without "|".
        head, _, tail = raw.rpartition("|")
        known = head_of(head)
        if known is not None:
            add_tid(known[0])
            add_op(known[1])
            add_loc(tail.strip() or None)
            line_number += 1
            continue
        parts = raw.split("|")
        if len(parts) < 2:
            line = raw.strip()
            if not line or line[0] == "#":
                line_number += 1
                continue
            raise TraceParseError(
                "line %d: expected 'thread|op(arg)[|loc]', got %r"
                % (line_number, raw)
            )
        # Both memos are keyed by the raw field, so a line of known
        # tokens strips only its location.
        tid = tid_of(parts[0])
        if tid is None:
            thread = parts[0].strip()
            if thread[:1] == "#":
                line_number += 1
                continue
        op = op_of(parts[1])
        if op is None:
            op_field = parts[1].strip()
            op = op_of(op_field)
            if op is None:
                op = op_ids[op_field] = len(optable)
                optable.append(_parse_operation(op_field, line_number))
            op_ids[parts[1]] = op
        if tid is None:
            if not thread:
                raise TraceParseError(
                    "line %d: empty thread field in %r"
                    % (line_number, raw.strip())
                )
            tid = tid_cache[parts[0]] = intern(thread)
        if len(parts) == 3:
            heads[head] = (tid, op)
        add_tid(tid)
        add_op(op)
        add_loc(parts[2].strip() or None if len(parts) > 2 else None)
        line_number += 1
    return line_number


def _utf8_error(
    line_number: int, raw: bytes, start: int, end: int
) -> TraceParseError:
    """The one-line error for a line of STD/CSV bytes that is not UTF-8
    (``raw[start:end]`` are the bad bytes)."""
    return TraceParseError(
        "line %d: invalid UTF-8 byte(s) %s in %r" % (
            line_number,
            " ".join("0x%02x" % byte for byte in raw[start:end]),
            raw.rstrip(b"\r\n").decode("utf-8", "replace"),
        )
    )


def _complete(data: bytes) -> int:
    """Length of the prefix of ``data`` made of whole lines.

    Lines end at ``\\n``, ``\\r\\n`` or a bare ``\\r`` (the universal
    newlines of a text-mode file).  A final ``\\r`` is held back, since
    the ``\\n`` of its ``\\r\\n`` may come with the next bytes.
    """
    limit = len(data) - (data[-1:] == b"\r")
    return max(data.rfind(b"\n", 0, limit), data.rfind(b"\r", 0, limit)) + 1


def _long_line(data: bytes, end: int, limit: int) -> int:
    """Offset of the first line of ``data[:end]`` longer than ``limit``
    bytes (its line end not counted), or -1.

    Each step jumps to the last line end within ``limit + 1`` bytes of
    the current line's start, so the scan costs two C-level searches per
    ``limit`` bytes.
    """
    pos = 0
    while end - pos > limit:
        window = pos + limit + 1
        last = max(data.rfind(b"\n", pos, window),
                   data.rfind(b"\r", pos, window))
        if last < 0:
            return pos
        pos = last + 1
    return -1


def _utf8_lines(
    data: bytes, pos: int, end: int, line_number: int
) -> Tuple[str, int]:
    """``data[pos:end]`` as text, cut before its first line that is not
    UTF-8: returns the text and the offset it ends at.  When that line
    is the first one (number ``line_number``), raises its error."""
    chunk = data[pos:end]
    try:
        return chunk.decode("utf-8"), end
    except UnicodeDecodeError as error:
        bad = max(chunk.rfind(b"\n", 0, error.start),
                  chunk.rfind(b"\r", 0, error.start)) + 1
        if bad:
            return chunk[:bad].decode("utf-8"), pos + bad
        line = chunk
        for mark in (b"\n", b"\r"):
            line = line.split(mark, 1)[0]
        raise _utf8_error(line_number, line, error.start, error.end) from None


#: Lines the scanner must take between two stops for the Python logic
#: to go back to taking one line per stop.
_WARM_RUN = 16

#: Most lines the Python logic takes at one stop of the scanner.
_MAX_BURST = 4096


class StdDecoder:
    """Incremental STD decoding from bytes: the one bytes-level entry point.

    :func:`load_trace`, the file stream behind
    :class:`~repro.engine.FileSource` (:func:`iter_std_blocks` over a
    binary file) and :class:`~repro.engine.LineProtocolSource` all feed
    raw bytes through :meth:`decode`, which returns one
    :class:`~repro.trace.columns.ColumnBlock` of the whole lines seen so
    far and keeps an unfinished last line in :attr:`pending`.  Lines end
    at ``\\n``, ``\\r\\n`` or a bare ``\\r``, as in a text-mode file; numbering,
    interning and the op table carry across calls.

    With the compiled kernels (:mod:`repro.vectorclock.kernels`) the C
    scanner decodes every ``\\n``-terminated ASCII line whose raw
    ``thread|op(arg)`` head is already in the op table's ``heads`` and
    records its location as a byte span (:class:`~repro.trace.columns.
    LocSpans`).  Any other line -- an unknown head, a comment, a blank,
    two or four-plus fields, a non-ASCII byte, a stray ``\\r`` -- goes
    through the per-line logic of :func:`parse_std_batch`, so thread
    and op interning order, line numbers and every error message are
    those of the Python decoder.  Where the scanner stops again soon
    after resuming (a stretch of new heads), the Python logic takes
    twice as many lines at the next stop, up to :data:`_MAX_BURST`;
    the locations it decodes are kept as the strings it built.
    Without the kernels, or for a call with fewer than
    :attr:`COMPILED_MIN_BYTES` bytes of whole lines, the text goes
    through :func:`parse_std_batch`.
    A line that is not UTF-8 raises when it is reached, naming its line
    and bytes, and so does a line -- complete or still pending -- longer
    than :attr:`MAX_LINE_BYTES`, after the lines before it.
    """

    __slots__ = (
        "registry", "op_table", "index", "line_number", "pending",
        "_tid_cache", "_kernels", "_heads", "_synced",
    )

    #: Fewest bytes of whole lines for which a decode call uses the
    #: scanner.  A short input is mostly new
    #: heads, and each one costs a scanner stop and a C table insert on
    #: top of the Python logic: an 80-line mixed-vocabulary push decodes
    #: in ~100 us in Python and ~180 us through the scanner, while at
    #: 25 KB the scanner is ahead.
    COMPILED_MIN_BYTES = 1 << 14

    #: Longest line accepted, in bytes without its line end: memory stays
    #: bounded however long a hostile line runs.
    MAX_LINE_BYTES = 1 << 20

    def __init__(
        self,
        registry: Optional[ThreadRegistry] = None,
        op_table: Optional[OpTable] = None,
    ) -> None:
        self.registry = registry if registry is not None else ThreadRegistry()
        self.op_table = op_table if op_table is not None else OpTable()
        #: Index of the next row and number of the next line.
        self.index = 0
        self.line_number = 1
        #: Bytes of an unfinished last line, kept for the next call.
        self.pending = b""
        self._tid_cache: Dict[str, int] = {}
        self._heads = None
        self._synced = 0
        from repro.vectorclock import kernels

        self._kernels = kernels if kernels.BACKEND == "cffi" else None

    def decode(self, data: bytes = b"", final: bool = False) -> ColumnBlock:
        """Decode the whole lines of :attr:`pending` + ``data``.

        With ``final`` the unterminated rest is a last line too.
        """
        if self.pending:
            data = self.pending + data
        cut = len(data) if final else _complete(data)
        self.pending = data[cut:]
        limit = self.MAX_LINE_BYTES
        long_line = _long_line(data, cut, limit)
        # (A held-back final "\r" is a line end, not a byte of the line.)
        pending = len(self.pending) - (self.pending[-1:] == b"\r")
        if long_line < 0 and pending <= limit:
            return self._decode(data, cut)
        if long_line < 0:
            long_line = cut
        # The lines before the long one first: an error there wins.
        self._decode(data, long_line)
        raise TraceParseError(
            "line %d: longer than the %d-byte line limit"
            % (self.line_number, limit)
        )

    def _decode(self, data: bytes, cut: int) -> ColumnBlock:
        if self._kernels is None or cut < self.COMPILED_MIN_BYTES:
            return self._decode_text(data, cut)
        return self._decode_compiled(data, cut)

    def _decode_text(self, data: bytes, cut: int) -> ColumnBlock:
        """``data[:cut]`` through :func:`parse_std_batch`."""
        text, end = _utf8_lines(data, 0, cut, self.line_number)
        # The lines before one that is not UTF-8 first: an error there
        # wins.
        block, self.index, self.line_number = parse_std_batch(
            io.StringIO(text, newline=""), self.index, self.line_number,
            registry=self.registry, op_table=self.op_table,
        )
        if end < cut:
            _utf8_lines(data, end, cut, self.line_number)  # raises
        return block

    def _decode_compiled(self, data: bytes, cut: int) -> ColumnBlock:
        """``data[:cut]`` through the C scanner; where it stops, the
        Python logic takes the next lines and the scanner resumes."""
        ffi, lib = self._kernels.ffi, self._kernels.lib
        if self._heads is None:
            self._heads = ffi.gc(lib.std_heads_new(), lib.std_heads_free)
            if self._heads == ffi.NULL:
                raise MemoryError("std_heads_new")
        heads = self.op_table.heads
        if len(heads) != self._synced:
            self._sync_heads()
        # At most one row per line; a line ends at "\n", "\r\n" or "\r".
        capacity = 1 + data.count(b"\n", 0, cut) + data.count(
            b"\r", 0, cut) - data.count(b"\r\n", 0, cut)
        tids = array("i", bytes(4 * capacity))
        ops = array("i", bytes(4 * capacity))
        starts = array("q", bytes(8 * capacity))
        ends = array("q", bytes(8 * capacity))
        # Locations the Python logic decoded, as it built them.
        decoded: List[str] = []
        text = ffi.from_buffer(data)
        views = [ffi.from_buffer("int[]", tids), ffi.from_buffer("int[]", ops),
                 ffi.from_buffer("long long[]", starts),
                 ffi.from_buffer("long long[]", ends)]
        scan, lines_end = lib.std_scan, lib.std_lines_end
        table = self._heads
        # [next row, end of the line the scan stopped at (0: unknown)]
        state = ffi.new("long long[2]")
        registry, op_table = self.registry, self.op_table
        tid_cache = self._tid_cache
        line_number = self.line_number
        row = pos = 0
        burst = 1
        new_tids: List[int] = []
        new_ops: List[int] = []
        new_locs: List[Optional[str]] = []
        try:
            while True:
                pos = scan(table, text, pos, cut, *views, state, capacity)
                taken = state[0] - row
                line_number += taken
                row = state[0]
                if pos >= cut:
                    break
                # The Python logic takes the next ``burst`` lines: one
                # while the scanner runs on between stops, twice as many
                # after each stop that came soon (a stretch of new heads).
                burst = min(burst * 2, _MAX_BURST) if taken < _WARM_RUN else 1
                end = (state[1] if burst == 1 and state[1]
                       else lines_end(text, pos, cut, burst))
                # A line that is not UTF-8 raises when it comes first.
                lines, end = _utf8_lines(data, pos, end, line_number)
                line_number = _std_lines(
                    (lines,) if burst == 1 else io.StringIO(lines, newline=""),
                    line_number, registry, op_table, tid_cache,
                    new_tids, new_ops, new_locs,
                )
                for tid, op, loc in zip(new_tids, new_ops, new_locs):
                    tids[row] = tid
                    ops[row] = op
                    if loc is None:
                        starts[row] = ends[row] = 0
                    else:
                        starts[row] = ~len(decoded)
                        decoded.append(loc)
                    row += 1
                state[0] = row
                new_tids.clear()
                new_ops.clear()
                new_locs.clear()
                if len(heads) != self._synced:
                    self._sync_heads()
                pos = end
        finally:
            for view in views:
                ffi.release(view)
            ffi.release(text)
        self.line_number = line_number
        for column in (tids, ops, starts, ends):
            del column[row:]
        block = ColumnBlock(
            tids, ops, op_table, LocSpans(data, starts, ends, decoded),
            registry, self.index,
        )
        self.index += row
        return block

    def _sync_heads(self) -> None:
        """Copy the heads the Python logic added into the C table."""
        heads = self.op_table.heads
        put = self._kernels.lib.std_heads_put
        for head in islice(reversed(heads), len(heads) - self._synced):
            if head.isascii():
                tid, op = heads[head]
                encoded = head.encode()
                if put(self._heads, encoded, len(encoded), tid, op):
                    raise MemoryError("std_heads_put")
        self._synced = len(heads)


def iter_std_blocks(
    lines: Union[Iterable[str], BinaryIO],
    registry: Optional[ThreadRegistry] = None,
) -> Iterator[ColumnBlock]:
    """Lazily parse STD input into column blocks.

    ``lines`` is a binary file object or an iterable of str lines.  A
    binary file is read :data:`READ_BYTES` at a time through one
    :class:`StdDecoder`, which yields the whole lines of each read as a
    block.  Str lines are pulled :data:`BATCH_LINES` at a time through
    :func:`parse_std_batch` (sharing one op table).  Either way memory
    stays constant while the per-line overhead is amortised, and each
    non-empty block is yielded as it stands: it is the unit the
    streaming engine steps.  Rows are numbered in order of appearance;
    thread ids are interned in ``registry`` (a fresh one when None), so
    downstream detectors sharing it never hash a thread name again.
    """
    if registry is None:
        registry = ThreadRegistry()
    if isinstance(lines, (io.RawIOBase, io.BufferedIOBase)):
        decoder = StdDecoder(registry)
        while True:
            chunk = lines.read(READ_BYTES)
            block = decoder.decode(chunk, final=not chunk)
            if block:
                yield block
            if not chunk:
                return
    iterator = iter(lines)
    index = 0
    line_number = 1
    op_table = OpTable()
    while True:
        lines_block = list(islice(iterator, BATCH_LINES))
        if not lines_block:
            return
        block, index, line_number = parse_std_batch(
            lines_block, index, line_number,
            registry=registry, op_table=op_table,
        )
        if block:
            yield block


def iter_std_events(
    lines: Iterable[str], registry: Optional[ThreadRegistry] = None
) -> Iterator[Event]:
    """Lazily parse STD-format lines into a stream of events.

    :func:`iter_std_blocks` flattened: each row is built as an
    :class:`~repro.trace.event.Event` when the iteration reaches it.
    """
    return chain.from_iterable(iter_std_blocks(lines, registry=registry))


def parse_csv_batch(
    rows: Iterable[List[str]],
    columns: Dict[str, int],
    index: int = 0,
    row_number: int = 2,
    registry: Optional[ThreadRegistry] = None,
    op_table: Optional[OpTable] = None,
) -> Tuple[ColumnBlock, int, int]:
    """Decode already-split CSV rows into one column block.

    ``columns`` maps the (lower-cased) header field names to their
    positions, resolved once per file (:func:`_csv_columns`); ``rows``
    come straight from :class:`csv.reader`.  Mirrors
    :func:`parse_std_batch`: the raw ``(etype, target)`` fields are
    memoised in ``op_table`` (pass the same table back in across
    blocks) and thread interning goes through a per-call memo.  Empty
    rows (blank lines) are skipped without consuming a row number,
    matching the historical ``csv.DictReader`` behaviour.  Returns
    ``(block, next_index, next_row_number)``.
    """
    if registry is None:
        registry = ThreadRegistry()
    if op_table is None:
        op_table = OpTable()
    op_ids = op_table.ids
    op_of = op_ids.get
    optable = op_table.ops
    intern = registry.intern
    tid_cache: Dict[str, int] = {}
    tid_of = tid_cache.get
    thread_col = columns.get("thread")
    etype_col = columns.get("etype")
    target_col = columns.get("target")
    loc_col = columns.get("loc")
    tids: List[int] = []
    ops: List[int] = []
    locs: List[Optional[str]] = []
    add_tid = tids.append
    add_op = ops.append
    add_loc = locs.append
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
        raw_target = (
            row[target_col]
            if target_col is not None and target_col < n_fields else None
        )
        key = (raw_etype, raw_target)
        op = op_of(key)
        if op is None:
            etype_name = raw_etype.strip().lower()
            etype = TOKEN_TO_ETYPE.get(etype_name)
            if etype is None:
                raise TraceParseError(
                    "row %d: unknown event type token %r"
                    % (row_number, raw_etype)
                )
            target = (
                raw_target.strip() or None if raw_target is not None else None
            )
            _check_operand(etype, target, etype_name, "row %d" % row_number)
            op = op_ids[key] = len(optable)
            optable.append((etype, target))
        thread = row[thread_col].strip()
        tid = tid_of(thread)
        if tid is None:
            if not thread:
                raise TraceParseError(
                    "row %d: empty thread field in %r"
                    % (row_number, ",".join(row))
                )
            tid = tid_cache[thread] = intern(thread)
        add_tid(tid)
        add_op(op)
        add_loc(
            row[loc_col].strip() or None
            if loc_col is not None and loc_col < n_fields else None
        )
        row_number += 1
    return (
        ColumnBlock(array("i", tids), array("i", ops), op_table, locs,
                    registry, index),
        index + len(tids),
        row_number,
    )


def _csv_columns(reader) -> Optional[Dict[str, int]]:
    """Consume the header row; its field positions (None: empty input)."""
    header = next(reader, None)
    if header is None:
        return None
    return {name.strip().lower(): pos for pos, name in enumerate(header)}


def iter_csv_blocks(
    lines: Iterable[str], registry: Optional[ThreadRegistry] = None
) -> Iterator[ColumnBlock]:
    """Lazily parse CSV-format lines (header row required) into blocks.

    The header's column positions are resolved once, then the rows are
    decoded in blocks of :data:`BATCH_LINES` through
    :func:`parse_csv_batch` (one shared op table), replacing the
    per-row dict building of ``csv.DictReader``.  ``registry`` interns
    thread ids exactly like :func:`iter_std_blocks`.
    """
    if registry is None:
        registry = ThreadRegistry()
    reader = csv.reader(lines)
    columns = _csv_columns(reader)
    if columns is None:
        return
    index = 0
    row_number = 2
    op_table = OpTable()
    while True:
        rows = list(islice(reader, BATCH_LINES))
        if not rows:
            return
        block, index, row_number = parse_csv_batch(
            rows, columns, index, row_number,
            registry=registry, op_table=op_table,
        )
        if block:
            yield block


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
) -> Callable[..., Iterator[Sequence[Event]]]:
    """Resolve a format name to its ``(lines, registry=...)`` block iterator.

    STD and CSV decode natively in blocks; the adapters' event streams
    are grouped by :func:`group_events` and adapted to column blocks
    that share one op table per decode, like a native decoder's.
    """
    if format in (None, "std"):
        return iter_std_blocks
    if format == "csv":
        return iter_csv_blocks
    parse_events = event_iterator(format)

    def parse_blocks(lines, registry=None):
        if registry is None:
            registry = ThreadRegistry()
        table = OpTable()
        for events in group_events(parse_events(lines, registry=registry)):
            yield ColumnBlock.from_events(events, registry, table=table)

    return parse_blocks


def detect_format(path: Union[str, Path]) -> str:
    """Return the format implied by ``path``'s extension (STD otherwise)."""
    return _EXTENSION_FORMATS.get(Path(path).suffix.lower(), "std")


def iter_trace_blocks(
    path: Union[str, Path],
    registry: Optional[ThreadRegistry] = None,
    format: Optional[str] = None,
) -> Iterator[Sequence[Event]]:
    """Lazily stream the events of a trace file, one decoded block at a time.

    The file is opened when iteration starts and closed when the iterator
    is exhausted; at no point is the whole file (or a ``Trace``) held in
    memory.  Dispatches on the file extension like :func:`load_trace`
    unless ``format`` names one of :data:`FORMAT_NAMES`; ``registry``
    stamps interned thread tids at parse time.  Bytes that are not UTF-8
    raise a :class:`TraceParseError` naming their line.
    """
    path = Path(path)
    format = format or detect_format(path)
    parse_blocks = block_iterator(format)
    if format == "std":
        with path.open("rb") as handle:
            yield from parse_blocks(handle, registry=registry)
        return
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

    Runs only on the error path of the text-mode formats (CSV and the
    adapters; STD is decoded from bytes by :class:`StdDecoder`, which
    names the line itself): the file is rescanned in binary, line by
    line (a newline byte never occurs inside a multi-byte UTF-8
    sequence, so the first line that fails to decode is the culprit).
    """
    with path.open("rb") as handle:
        for line_number, raw in enumerate(handle, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as bad:
                return _utf8_error(line_number, raw, bad.start, bad.end)
    return TraceParseError("%s: %s" % (path.name, error))


# --------------------------------------------------------------------- #
# Batch layer
# --------------------------------------------------------------------- #

def _as_lines(source: Union[str, Iterable[str]]) -> Iterable[str]:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def _decode(
    lines: Iterable[str], format: str, registry: ThreadRegistry
) -> Union[ColumnBlock, Iterable[Event]]:
    """A whole input as one column block (STD, CSV) or, for the
    adapters, their event stream (``Trace`` adapts it to columns)."""
    if format == "std":
        return parse_std_batch(lines, registry=registry)[0]
    if format == "csv":
        reader = csv.reader(lines)
        columns = _csv_columns(reader)
        if columns is None:
            return parse_csv_batch((), {}, registry=registry)[0]
        return parse_csv_batch(reader, columns, registry=registry)[0]
    return event_iterator(format)(lines, registry=registry)


def parse_std(source: Union[str, Iterable[str]], name: Optional[str] = None,
              validate: bool = True,
              registry: Optional[ThreadRegistry] = None) -> Trace:
    """Parse the STD text format from a string or an iterable of lines."""
    registry = registry if registry is not None else ThreadRegistry()
    return Trace(_decode(_as_lines(source), "std", registry),
                 validate=validate, name=name, registry=registry)


def parse_csv(source: Union[str, Iterable[str]], name: Optional[str] = None,
              validate: bool = True,
              registry: Optional[ThreadRegistry] = None) -> Trace:
    """Parse the CSV format (``thread,etype,target,loc`` with header)."""
    registry = registry if registry is not None else ThreadRegistry()
    return Trace(_decode(_as_lines(source), "csv", registry),
                 validate=validate, name=name, registry=registry)


def load_trace(
    path: Union[str, Path],
    validate: bool = True,
    format: Optional[str] = None,
) -> Trace:
    """Load a trace from ``path``, dispatching on the file extension.

    An STD file is read as bytes and decoded by :class:`StdDecoder` into
    one column block whose locations stay byte spans into those bytes
    until a row is built; the other formats are decoded line by line
    from text into one block (CSV) or through the trace's Event adapter
    (mtrace, tsan), so no event per line is held in memory.  Pass
    ``format`` (one of :data:`FORMAT_NAMES`) to override the extension
    dispatch -- e.g. to ingest an mtrace-style log from a ``.txt`` file.
    The cyclic collector is paused while the trace is built (see
    :mod:`repro.gcpause`).
    """
    path = Path(path)
    format = format or detect_format(path)
    if format not in FORMAT_NAMES:
        event_iterator(format)  # raises: unknown format
    registry = ThreadRegistry()
    if format == "std":
        data = path.read_bytes()
        with gc_paused():
            return Trace(
                StdDecoder(registry).decode(data, final=True),
                validate=validate, name=path.stem, registry=registry,
            )
    with path.open("r", newline="") as handle, gc_paused():
        try:
            return Trace(
                _decode(handle, format, registry),
                validate=validate, name=path.stem, registry=registry,
            )
        except UnicodeDecodeError as error:
            raise _invalid_utf8(path, error) from None

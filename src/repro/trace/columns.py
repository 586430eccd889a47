"""Column blocks: trace rows held as columns, events built on demand.

A decoded trace is mostly repetition: xalan-like logs name a few
thousand distinct ``op(arg)`` fields across hundreds of thousands of
lines, and the batch clock detectors never look at most rows beyond
their thread and operation.  A :class:`ColumnBlock` therefore stores a
run of rows as

* ``tids`` -- an ``array('i')`` of thread ids interned in ``registry``;
* ``ops`` -- an ``array('i')`` of op ids into ``table``, the decoding
  stream's :class:`OpTable` of memoised ``(EventType, target)`` pairs;
* ``locs`` -- the program locations: a list, or -- for blocks the
  bytes-level STD decoder emits -- :class:`LocSpans`, byte spans into
  the decoded buffer whose ``str`` is built only when a row is;
* ``start`` -- the stream index of the first row,

and behaves as a ``Sequence[Event]``: ``block[j]`` builds row ``j``'s
:class:`~repro.trace.event.Event` the first time it is asked for and
caches it, so ``block[j] is block[j]``.  A slice is an O(1) view over
the same columns and the same cache.

The STD/CSV decoders emit column blocks, :class:`~repro.trace.trace.Trace`
holds one, and the WCP and HB batch loops read the columns
directly, building an event only for the rows they keep (a checked
access, a rare kind, a race witness).  Every other producer of events
-- lists from push queues, the simulator, the ingest adapters, a
one-event ``process(event)`` -- enters through one adapter,
:meth:`ColumnBlock.from_events`.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import compress, count
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.trace.event import Event, EventType
from repro.trace.semantics import REGISTRY
from repro.vectorclock.registry import ThreadRegistry

__all__ = ["ColumnBlock", "LocSpans", "OpTable", "as_block"]


_new_event = Event.__new__

#: ``id(kind)`` -> the code of the kind's lock-discipline role: its
#: position here, the codes the compiled validator (``lv_run``) reads.
_ROLE_CODE = {
    id(etype): (
        None, "acquire", "release", "read-acquire", "write-acquire",
        "rw-release",
    ).index(sem.role)
    for etype, sem in REGISTRY.items()
}


class OpTable:
    """The operation memo of one decoding stream.

    ``ids`` maps a raw wire key (an STD ``op(arg)`` field, a CSV
    ``(etype, target)`` pair) to its op id; ``ops[op_id]`` is the
    resolved ``(EventType, target)``.  Blocks of one stream share the
    table, which only grows, so an op id never changes meaning.
    ``heads`` maps the raw ``thread|op(arg)`` prefix of an STD line to
    its ``(tid, op id)`` in the stream's thread registry.
    """

    __slots__ = ("ids", "ops", "heads", "_roles")

    def __init__(self) -> None:
        self.ids: Dict[object, int] = {}
        self.ops: List[Tuple[EventType, Optional[str]]] = []
        self.heads: Dict[str, Tuple[int, int]] = {}
        self._roles = bytearray()

    def roles(self) -> bytearray:
        """Per op id, the code of its kind's lock-discipline role (0
        when it has none)."""
        roles = self._roles
        if len(roles) < len(self.ops):
            roles.extend(
                _ROLE_CODE[id(etype)] for etype, _ in self.ops[len(roles):]
            )
        return roles


class LocSpans:
    """Program locations as byte spans into one decoded buffer.

    Location ``k`` is ``data[starts[k]:ends[k]]`` as UTF-8, or None when
    the span is empty; a negative ``starts[k]`` instead names the string
    ``decoded[~starts[k]]``, a location the Python decoder built.  A
    slice is a :class:`LocSpans` over copied span columns and the same
    buffer and strings.
    """

    __slots__ = ("data", "starts", "ends", "decoded")

    def __init__(
        self, data: bytes, starts: array, ends: array, decoded: List[str]
    ) -> None:
        self.data = data
        self.starts = starts
        self.ends = ends
        self.decoded = decoded

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return LocSpans(self.data, self.starts[item], self.ends[item],
                            self.decoded)
        start, end = self.starts[item], self.ends[item]
        if start < 0:
            return self.decoded[~start]
        return self.data[start:end].decode() if end > start else None

    def strings(self, lo: int, hi: int) -> List[Optional[str]]:
        """Locations ``lo`` to ``hi`` (exclusive) as a list."""
        data, decoded = self.data, self.decoded
        return [
            decoded[~start] if start < 0
            else data[start:end].decode() if end > start else None
            for start, end in zip(self.starts[lo:hi], self.ends[lo:hi])
        ]


class ColumnBlock(Sequence):
    """A run of trace rows as columns; a ``Sequence[Event]`` (see module).

    Row ``j`` of the block has index ``start + j`` unless the block was
    built with an explicit ``indices`` column (a shard's substream).
    """

    __slots__ = (
        "tids", "ops", "table", "locs", "registry", "start",
        "_cache", "_indices", "_lo", "_hi",
    )

    def __init__(
        self,
        tids: array,
        ops: array,
        table: OpTable,
        locs: Union[List[Optional[str]], LocSpans],
        registry: ThreadRegistry,
        start: int = 0,
        cache: Optional[List[Optional[Event]]] = None,
        indices: Optional[List[int]] = None,
    ) -> None:
        self.tids = tids
        self.ops = ops
        self.table = table
        self.locs = locs
        self.registry = registry
        self.start = start
        self._cache = cache if cache is not None else [None] * len(tids)
        self._indices = indices
        self._lo = 0
        self._hi = len(tids)

    @classmethod
    def from_events(
        cls,
        events: Iterable[Event],
        registry: Optional[ThreadRegistry] = None,
        start: Optional[int] = None,
        table: Optional[OpTable] = None,
    ) -> "ColumnBlock":
        """The one adapter from events to columns.

        Threads are interned by name in ``registry`` (a fresh one when
        None), and operations in ``table`` (a fresh one when None; the
        blocks of one decode pass the same table, so they share op ids
        the way a native decoder's blocks do).  With ``start`` None
        every event is kept as its row, as given, and the block records
        an explicit index column when the events' indices do not run
        ``first, first + 1, ...``.  With an int the rows are numbered
        ``start, start + 1, ...``: an event whose index or tid stamp
        disagrees is left out of the cache, so its row is rebuilt on
        demand (a copy; the original keeps its fields), and an unstamped
        event is stamped in place.
        """
        if registry is None:
            registry = ThreadRegistry()
        intern = registry.intern
        tid_memo: Dict[str, int] = {}
        tid_of = tid_memo.get
        if table is None:
            table = OpTable()
        op_ids = table.ids
        op_of = op_ids.get
        optable = table.ops
        tids = array("i")
        ops = array("i")
        locs: List[Optional[str]] = []
        add_tid = tids.append
        add_op = ops.append
        add_loc = locs.append
        cache: List[Optional[Event]] = list(events)
        for position, event in enumerate(cache):
            thread = event.thread
            tid = tid_of(thread)
            if tid is None:
                tid = tid_memo[thread] = intern(thread)
            key = (event.etype, event.target)
            op = op_of(key)
            if op is None:
                op = op_ids[key] = len(optable)
                optable.append(key)
            add_tid(tid)
            add_op(op)
            add_loc(event.loc)
            if start is not None:
                stamp = event.tid
                if event.index != start + position or (
                    stamp is not None and stamp != tid
                ):
                    cache[position] = None
                elif stamp is None:
                    event.tid = tid
        indices = None
        if start is None:
            start = cache[0].index if cache else 0
            if any(event.index != position for position, event in zip(
                count(start), cache
            )):
                indices = [event.index for event in cache]
        return cls(tids, ops, table, locs, registry, start, cache, indices)

    # ------------------------------------------------------------------ #
    # Columns
    # ------------------------------------------------------------------ #

    def columns(self) -> Tuple[array, array]:
        """``(tids, ops)`` of this block's rows (copies only for a view)."""
        lo, hi = self._lo, self._hi
        if lo == 0 and hi == len(self.tids):
            return self.tids, self.ops
        return self.tids[lo:hi], self.ops[lo:hi]

    def sync_rows(self) -> Iterator[int]:
        """Row numbers whose kind has a lock-discipline role, in order."""
        ops = self.columns()[1]
        flags = map(self.table.roles().__getitem__, ops)
        return compress(range(len(ops)), flags)

    def row(self, j: int) -> Event:
        """Row ``j`` (0 <= j < len) as an :class:`Event`, built once."""
        k = self._lo + j
        event = self._cache[k]
        if event is None:
            # Assembled slot by slot: the op table holds only validated
            # operations, so Event.__init__'s operand check is redundant
            # on this (hot, per checked access) path.
            event = self._cache[k] = _new_event(Event)
            event.etype, event.target = self.table.ops[self.ops[k]]
            event.tid = tid = self.tids[k]
            event.thread = self.registry.name_of(tid)
            indices = self._indices
            event.index = indices[k] if indices is not None else self.start + j
            event.loc = self.locs[k]
        return event

    def materialised(self) -> int:
        """Rows of this block whose event has been built."""
        lo, hi = self._lo, self._hi
        return hi - lo - self._cache[lo:hi].count(None)

    def rebased(
        self, start: int, registry: Optional[ThreadRegistry] = None
    ) -> "ColumnBlock":
        """This block numbered from ``start`` with tids of ``registry``.

        Returns the block itself when both already hold; otherwise a
        block over copied columns (threads re-interned by name, in row
        order) that keeps each built event whose index and tid still
        agree and rebuilds the rest on demand.
        """
        if registry is None:
            registry = self.registry
        indices = self._indices
        if start == self.start and registry is self.registry and (
            indices is None
        ):
            return self
        lo, hi = self._lo, self._hi
        # An explicit index column survives a registry change only.
        if indices is not None and start == self.start:
            indices = indices[lo:hi]
            positions = indices
        else:
            indices = None
            positions = count(start)
        tids = self.tids[lo:hi]
        if registry is not self.registry:
            intern = registry.intern
            name_of = self.registry.name_of
            remap: Dict[int, int] = {}
            for j, tid in enumerate(tids):
                mapped = remap.get(tid)
                if mapped is None:
                    mapped = remap[tid] = intern(name_of(tid))
                tids[j] = mapped
        cache = [
            event if event is not None and event.index == position
            and event.tid == tid else None
            for position, event, tid in zip(
                positions, self._cache[lo:hi], tids
            )
        ]
        return ColumnBlock(
            tids, self.ops[lo:hi], self.table, self.locs[lo:hi],
            registry, start, cache, indices,
        )

    # ------------------------------------------------------------------ #
    # Sequence[Event]
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, item):
        size = self._hi - self._lo
        if isinstance(item, slice):
            lo, hi, step = item.indices(size)
            if step != 1:
                return [self.row(j) for j in range(lo, hi, step)]
            view = ColumnBlock.__new__(ColumnBlock)
            view.tids = self.tids
            view.ops = self.ops
            view.table = self.table
            view.locs = self.locs
            view.registry = self.registry
            view.start = self.start + lo
            view._cache = self._cache
            view._indices = self._indices
            view._lo = self._lo + lo
            view._hi = self._lo + max(lo, hi)
            return view
        if item < 0:
            item += size
        if not 0 <= item < size:
            raise IndexError("block index out of range")
        return self.row(item)

    def __iter__(self) -> Iterator[Event]:
        lo, hi = self._lo, self._hi
        cache = self._cache
        if None in cache[lo:hi]:
            # Build every missing row in one loop, as :meth:`row` does.
            kinds = self.table.ops
            tids, ops, locs = self.tids, self.ops, self.locs
            names = self.registry.names()
            indices = self._indices
            base = self.start - lo
            # Span locations are decoded once for the whole run; the
            # list is indexed from ``lo`` like the other columns.
            shift = 0
            if isinstance(locs, LocSpans):
                locs, shift = locs.strings(lo, hi), lo
            for k in range(lo, hi):
                if cache[k] is None:
                    event = cache[k] = _new_event(Event)
                    event.etype, event.target = kinds[ops[k]]
                    event.tid = tid = tids[k]
                    event.thread = names[tid]
                    event.index = (
                        indices[k] if indices is not None else base + k
                    )
                    event.loc = locs[k - shift]
        if lo == 0 and hi == len(cache):
            return iter(cache)
        return iter(cache[lo:hi])

    def __repr__(self) -> str:
        return "ColumnBlock(start=%d, rows=%d)" % (self.start, len(self))


def as_block(events, registry: ThreadRegistry) -> ColumnBlock:
    """``events`` as a :class:`ColumnBlock` whose tids are ``registry``'s.

    A block in ``registry`` is returned as is, a block of another
    registry is re-interned (:meth:`ColumnBlock.rebased`), and any
    other sequence of events goes through
    :meth:`ColumnBlock.from_events`, keeping every event as given.
    """
    if isinstance(events, ColumnBlock):
        if events.registry is registry:
            return events
        return events.rebased(events.start, registry)
    return ColumnBlock.from_events(events, registry)

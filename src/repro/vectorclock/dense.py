"""Array-backed vector clocks over interned thread ids.

:class:`DenseClock` is the hot-path representation of a vector time: a
flat buffer of ints indexed by the dense integer tids handed out by a
:class:`~repro.vectorclock.registry.ThreadRegistry`.  It implements the
same operation set as the sparse, dict-based
:class:`~repro.vectorclock.clock.VectorClock` (pointwise comparison, join,
component assignment, bottom) with strictly cheaper constants:

* component reads/writes are flat indexing instead of string hashing;
* ``copy`` is a C-level buffer copy;
* ``join`` / ``<=`` are tight loops over small int buffers -- compiled to
  C when the clock kernels are available.

The backing store is chosen once, at import, by
:mod:`repro.vectorclock.kernels`:

* **cffi backend** -- components live in a preallocated ``array('q')``
  (a contiguous int64 buffer); ``merge`` / ``<=`` / ``==`` call the
  compiled kernels through cached ``from_buffer`` pointers, so the
  steady-state cost per operation is one C call.  The pointer cache is
  dropped before any operation that must grow or replace the buffer
  (growing an exported buffer is illegal), and rebuilt lazily.
* **python backend** -- components live in a plain ``list`` and the
  methods are the tuned pure-Python loops.  This is bit-for-bit the
  pre-kernel implementation, so machines without a C toolchain keep
  their exact previous performance.

Both backends expose identical semantics (asserted by the differential
suite in ``tests/test_dense_kernels.py``): the buffer grows lazily -- a
tid beyond the current length reads as 0 -- and trailing zeros are
insignificant (``[1, 0]`` and ``[1]`` are equal clocks).

Every detector keeps its internal clocks as DenseClocks keyed by tids;
``ThreadRegistry.to_public`` converts them to the name-keyed
``VectorClock`` used in reports and tests, and
:func:`repro.vectorclock.codec.encode_clock` / ``decode_clock`` carry them
across process boundaries.  :meth:`merge` -- a join that reports whether
it changed anything -- is what lets the WCP detector cache each thread's
``C_t`` and rebuild it only when ``P_t`` actually grew.
"""

from __future__ import annotations

from array import array
from operator import le as _le
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple, Union

from repro.vectorclock import kernels

_CFFI = kernels.BACKEND == "cffi"
if _CFFI:
    _from_buffer = kernels.ffi.from_buffer
    _dc_merge = kernels.lib.dc_merge
    _dc_leq = kernels.lib.dc_leq
    _dc_eq = kernels.lib.dc_eq


def _new_times(values=()) -> Union[list, array]:
    """Build a backing buffer for the active backend."""
    if _CFFI:
        return array("q", values)
    return list(values)


class DenseClock:
    """A dense (array-backed) vector clock keyed by interned thread ids.

    The constructor takes nothing (bottom), a ``{tid: time}`` mapping, a
    sequence of components, or another DenseClock (copied).  A clock is
    not itself iterable -- iterating it raises :class:`TypeError`; use
    :meth:`items`, :meth:`threads` or :meth:`as_dict`.

    Examples
    --------
    >>> a = DenseClock.single(0, 3)
    >>> b = DenseClock.single(1, 5)
    >>> (a | b).as_dict()
    {0: 3, 1: 5}
    >>> a <= (a | b)
    True
    >>> b <= a
    False
    """

    # ``_cd`` caches the cffi pointer into ``_times`` (None when invalid
    # or on the python backend).  Any rebinding or growth of ``_times``
    # must reset it first: growing an array whose buffer is exported
    # raises BufferError, and a stale pointer would read freed memory.
    __slots__ = ("_times", "_cd")

    def __init__(
        self, times: Union[None, Mapping[int, int], Iterable[int]] = None
    ) -> None:
        self._cd = None
        if times is None:
            self._times = _new_times()
        elif isinstance(times, DenseClock):
            self._times = times._times[:]
        elif isinstance(times, Mapping):
            self._times = _new_times()
            for tid, value in times.items():
                self.assign(tid, value)
        else:
            self._times = _new_times(int(value) for value in times)
            for value in self._times:
                if value < 0:
                    raise ValueError(
                        "vector clock components must be non-negative"
                    )

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def bottom(cls) -> "DenseClock":
        """Return the bottom vector time (all components zero)."""
        return cls()

    @classmethod
    def single(cls, tid: int, value: int) -> "DenseClock":
        """Return a clock whose only non-zero component is ``tid -> value``."""
        clock = cls()
        clock.assign(tid, value)
        return clock

    @classmethod
    def _from_times(cls, values: Iterable[int]) -> "DenseClock":
        """Wrap already-validated components (codec/internal fast path)."""
        clock = cls.__new__(cls)
        clock._times = _new_times(values)
        clock._cd = None
        return clock

    def copy(self) -> "DenseClock":
        """Return an independent copy of this clock."""
        clone = DenseClock.__new__(DenseClock)
        clone._times = self._times[:]
        clone._cd = None
        return clone

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def get(self, tid: int) -> int:
        """Return the component for ``tid`` (0 if beyond the stored prefix)."""
        times = self._times
        return times[tid] if tid < len(times) else 0

    def __getitem__(self, tid: int) -> int:
        return self.get(tid)

    def __iter__(self):
        # Without this, iteration would fall back to ``__getitem__``,
        # which reads 0 past the end instead of raising IndexError: an
        # endless loop.  A clock is not a sequence (``len`` counts the
        # non-zero components); iterate ``items()`` or ``threads()``.
        raise TypeError(
            "DenseClock is not iterable; use items(), threads() or as_dict()"
        )

    def threads(self) -> Iterator[int]:
        """Iterate over tids with non-zero components."""
        return (tid for tid, value in enumerate(self._times) if value)

    def items(self) -> Iterator[Tuple[int, int]]:
        """Iterate over (tid, time) pairs with non-zero time."""
        return (
            (tid, value) for tid, value in enumerate(self._times) if value
        )

    def as_dict(self) -> Dict[int, int]:
        """Return the non-zero components as a plain dict keyed by tid."""
        return {tid: value for tid, value in enumerate(self._times) if value}

    def is_bottom(self) -> bool:
        """Return True when every component is zero."""
        return not any(self._times)

    def width(self) -> int:
        """Return the number of non-zero components (memory footprint proxy)."""
        return sum(1 for value in self._times if value)

    # ------------------------------------------------------------------ #
    # Mutators
    # ------------------------------------------------------------------ #

    def merge(self, other: "DenseClock") -> bool:
        """In-place pointwise maximum; returns True when a component grew."""
        mine = self._times
        theirs = other._times
        if len(mine) < len(theirs):
            self._cd = None
            mine.extend([0] * (len(theirs) - len(mine)))
        changed = False
        for tid, value in enumerate(theirs):
            if value > mine[tid]:
                mine[tid] = value
                changed = True
        return changed

    def join(self, other: "DenseClock") -> "DenseClock":
        """In-place pointwise maximum with ``other``; returns ``self``."""
        self.merge(other)
        return self

    def assign(self, tid: int, value: int) -> "DenseClock":
        """In-place component assignment ``self[tid := value]``; returns ``self``."""
        if value < 0:
            raise ValueError("vector clock components must be non-negative")
        if tid < 0:
            raise ValueError("thread ids must be non-negative")
        times = self._times
        if tid >= len(times):
            if not value:
                return self
            self._cd = None
            times.extend([0] * (tid + 1 - len(times)))
        times[tid] = value
        return self

    def increment(self, tid: int, amount: int = 1) -> "DenseClock":
        """Increment the ``tid`` component in place; returns ``self``."""
        return self.assign(tid, self.get(tid) + amount)

    def clear(self) -> "DenseClock":
        """Reset every component to zero; returns ``self``."""
        self._times = _new_times()
        self._cd = None
        return self

    def update_from(self, other: "DenseClock") -> "DenseClock":
        """Overwrite this clock with a copy of ``other``; returns ``self``."""
        self._times = other._times[:]
        self._cd = None
        return self

    # ------------------------------------------------------------------ #
    # Operators (non-mutating)
    # ------------------------------------------------------------------ #

    def __or__(self, other: "DenseClock") -> "DenseClock":
        return self.copy().join(other)

    def __le__(self, other: "DenseClock") -> bool:
        mine = self._times
        theirs = other._times
        # map() stops at the shorter list, so any stored suffix of ``mine``
        # beyond ``theirs`` must additionally be all-zero.
        if len(mine) <= len(theirs):
            return all(map(_le, mine, theirs))
        return all(map(_le, mine, theirs)) and not any(mine[len(theirs):])

    def __lt__(self, other: "DenseClock") -> bool:
        return self <= other and self != other

    def __ge__(self, other: "DenseClock") -> bool:
        return other <= self

    def __gt__(self, other: "DenseClock") -> bool:
        return other < self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseClock):
            return NotImplemented
        mine = self._times
        theirs = other._times
        if len(mine) > len(theirs):
            mine, theirs = theirs, mine
        n = len(mine)
        return mine == theirs[:n] and not any(theirs[n:])

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash(
            frozenset(
                (tid, value) for tid, value in enumerate(self._times) if value
            )
        )

    def concurrent_with(self, other: "DenseClock") -> bool:
        """Return True when neither clock is pointwise <= the other."""
        return not (self <= other) and not (other <= self)

    # ------------------------------------------------------------------ #
    # Pickling (the cached kernel pointer must never cross the boundary)
    # ------------------------------------------------------------------ #

    def __getstate__(self) -> List[int]:
        return list(self._times)

    def __setstate__(self, state: List[int]) -> None:
        self._times = _new_times(state)
        self._cd = None

    def __reduce__(self):
        return (DenseClock._from_times, (list(self._times),))

    # ------------------------------------------------------------------ #
    # Serialization / tid remapping (shard-boundary protocol)
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialize through the shared codec (:mod:`repro.vectorclock.codec`).

        Trailing zeros are stripped first, so equal clocks serialize
        identically regardless of how far their backing buffers grew.
        """
        from repro.vectorclock.codec import encode

        return encode(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "DenseClock":
        """Inverse of :meth:`to_bytes`."""
        from repro.vectorclock.codec import decode_clock

        return decode_clock(data)

    def remapped(self, mapping: List[int]) -> "DenseClock":
        """Return a copy with every tid translated through ``mapping``.

        ``mapping[old_tid] -> new_tid`` is the remap table produced by
        :meth:`repro.vectorclock.registry.ThreadRegistry.merge_names`;
        components beyond the table (necessarily zero for clocks produced
        alongside it) are dropped.  Used when merging clocks from shard
        workers, whose private registries number threads in (different)
        orders of local first appearance.
        """
        clock = DenseClock()
        for tid, value in enumerate(self._times):
            if value and tid < len(mapping):
                clock.assign(mapping[tid], value)
        return clock

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:
        inner = ", ".join(
            "%d: %d" % (tid, value)
            for tid, value in enumerate(self._times)
            if value
        )
        return "DenseClock({%s})" % inner

    def __len__(self) -> int:
        return self.width()


if _CFFI:
    # Kernel-backed hot methods, patched over the pure-Python definitions
    # once at import.  Each binds the two buffers' cached C pointers (one
    # ``from_buffer`` per buffer *generation*, not per call) and performs
    # the whole loop in one compiled call.

    def _merge_kernel(self: DenseClock, other: DenseClock) -> bool:
        mine = self._times
        theirs = other._times
        n = len(theirs)
        if len(mine) < n:
            self._cd = None  # release the export before growing
            mine.extend([0] * (n - len(mine)))
            cd = self._cd = _from_buffer("long long *", mine)
        else:
            cd = self._cd
            if cd is None:
                cd = self._cd = _from_buffer("long long *", mine)
        ocd = other._cd
        if ocd is None:
            ocd = other._cd = _from_buffer("long long *", theirs)
        return _dc_merge(cd, ocd, n) != 0

    def _leq_kernel(self: DenseClock, other: DenseClock) -> bool:
        mine = self._times
        theirs = other._times
        cd = self._cd
        if cd is None:
            cd = self._cd = _from_buffer("long long *", mine)
        ocd = other._cd
        if ocd is None:
            ocd = other._cd = _from_buffer("long long *", theirs)
        return _dc_leq(cd, len(mine), ocd, len(theirs)) != 0

    def _eq_kernel(self: DenseClock, other: object):
        if not isinstance(other, DenseClock):
            return NotImplemented
        mine = self._times
        theirs = other._times
        cd = self._cd
        if cd is None:
            cd = self._cd = _from_buffer("long long *", mine)
        ocd = other._cd
        if ocd is None:
            ocd = other._cd = _from_buffer("long long *", theirs)
        return _dc_eq(cd, len(mine), ocd, len(theirs)) != 0

    DenseClock.merge = _merge_kernel  # type: ignore[method-assign]
    DenseClock.__le__ = _leq_kernel  # type: ignore[method-assign]
    DenseClock.__eq__ = _eq_kernel  # type: ignore[method-assign]

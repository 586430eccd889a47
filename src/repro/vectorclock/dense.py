"""List-backed vector clocks over interned thread ids.

:class:`DenseClock` is the hot-path representation of a vector time: a
flat list of ints indexed by the dense integer tids handed out by a
:class:`~repro.vectorclock.registry.ThreadRegistry`.  It implements the
same operation set as the sparse, dict-based
:class:`~repro.vectorclock.clock.VectorClock` (pointwise comparison, join,
component assignment, bottom) with strictly cheaper constants:

* component reads/writes are flat indexing instead of string hashing;
* ``copy`` is a C-level list copy;
* ``join`` / ``<=`` are tight loops over short lists (``<=`` maps
  :func:`operator.le` over both lists, so the loop runs in C).

There is one store whatever ``REPRO_CLOCK_KERNEL`` says: at the clock
widths traces reach (a few to a dozen or so threads) a call into
compiled code costs more than the loop it would run.  The compiled WCP
kernel keeps its own clocks in C (:mod:`repro.core.wcp_compiled`).

The list grows lazily -- a tid beyond the current length reads as 0 --
and trailing zeros are insignificant (``[1, 0]`` and ``[1]`` are equal
clocks); ``tests/test_dense_kernels.py`` checks every operation against
the ``VectorClock`` reference.

Every detector keeps its internal clocks as DenseClocks keyed by tids;
``ThreadRegistry.to_public`` converts them to the name-keyed
``VectorClock`` used in reports and tests, and
:func:`repro.vectorclock.codec.encode_clock` / ``decode_clock`` carry them
across process boundaries.  :meth:`merge` -- a join that reports whether
it changed anything -- is what lets the WCP detector cache each thread's
``C_t`` and rebuild it only when ``P_t`` actually grew.
"""

from __future__ import annotations

from operator import le as _le
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple, Union


class DenseClock:
    """A dense (list-backed) vector clock keyed by interned thread ids.

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

    __slots__ = ("_times",)

    def __init__(
        self, times: Union[None, Mapping[int, int], Iterable[int]] = None
    ) -> None:
        if times is None:
            self._times = []
        elif isinstance(times, DenseClock):
            self._times = times._times[:]
        elif isinstance(times, Mapping):
            self._times = []
            for tid, value in times.items():
                self.assign(tid, value)
        else:
            self._times = [int(value) for value in times]
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
        clock._times = list(values)
        return clock

    def copy(self) -> "DenseClock":
        """Return an independent copy of this clock."""
        clone = DenseClock.__new__(DenseClock)
        clone._times = self._times[:]
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
            times.extend([0] * (tid + 1 - len(times)))
        times[tid] = value
        return self

    def increment(self, tid: int, amount: int = 1) -> "DenseClock":
        """Increment the ``tid`` component in place; returns ``self``."""
        return self.assign(tid, self.get(tid) + amount)

    def clear(self) -> "DenseClock":
        """Reset every component to zero; returns ``self``."""
        self._times = []
        return self

    def update_from(self, other: "DenseClock") -> "DenseClock":
        """Overwrite this clock with a copy of ``other``; returns ``self``."""
        self._times = other._times[:]
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
    # Pickling
    # ------------------------------------------------------------------ #

    def __reduce__(self):
        return (DenseClock._from_times, (self._times,))

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


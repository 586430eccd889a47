"""Thread-identifier interning.

The detectors spend essentially all of their time on vector-clock
arithmetic keyed by thread identity.  Traces identify threads with
arbitrary strings (``"t1"``, ``"main"``, ...); hashing those strings on
every clock component access is one of the largest constant factors in the
Python implementation of Algorithm 1.

A :class:`ThreadRegistry` interns each distinct thread identifier to a
dense small integer (0, 1, 2, ... in order of first appearance) at the
trace / engine boundary:

* :class:`~repro.trace.trace.Trace` owns a registry and stamps every
  event's ``tid`` while indexing;
* the streaming parsers (:func:`repro.trace.parsers.iter_std_events` /
  ``iter_csv_events``) stamp events at parse time when given a registry;
* the engine's :class:`~repro.engine.sources.EventSource`\\ s each expose a
  ``registry`` so that one interning table is shared by the source and by
  every detector of a single-pass run.

Everything behind the boundary -- the WCP / HB / FastTrack per-thread
state, :class:`~repro.vectorclock.dense.DenseClock` components and the
access history's epochs -- speaks integer tids.  The dict-based
:class:`~repro.vectorclock.clock.VectorClock` (keyed by the original
string identifiers) remains the public, reporting-facing representation;
:meth:`ThreadRegistry.to_public` and :meth:`ThreadRegistry.to_dense`
convert losslessly in both directions.

Interning is deterministic: feeding the same event sequence through any
registry yields the same numbering, which is what lets a detector trust
the ``tid`` stamps of events produced with the registry it adopted.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Optional

from repro.vectorclock.clock import VectorClock

ThreadName = Hashable


class ThreadRegistry:
    """A bijection between thread identifiers and dense integer tids.

    Examples
    --------
    >>> registry = ThreadRegistry()
    >>> registry.intern("t1"), registry.intern("t2"), registry.intern("t1")
    (0, 1, 0)
    >>> registry.name_of(1)
    't2'
    """

    __slots__ = ("_ids", "_names")

    def __init__(self, names: Iterable[ThreadName] = ()) -> None:
        self._ids: Dict[ThreadName, int] = {}
        self._names: List[ThreadName] = []
        for name in names:
            self.intern(name)

    def intern(self, name: ThreadName) -> int:
        """Return the tid for ``name``, assigning the next free one if new."""
        tid = self._ids.get(name)
        if tid is None:
            tid = len(self._names)
            self._ids[name] = tid
            self._names.append(name)
        return tid

    def lookup(self, name: ThreadName) -> Optional[int]:
        """Return the tid for ``name`` without interning (None if unknown)."""
        return self._ids.get(name)

    def name_of(self, tid: int) -> ThreadName:
        """Return the thread identifier interned as ``tid``."""
        return self._names[tid]

    def names(self) -> List[ThreadName]:
        """Return all interned identifiers in tid order."""
        return list(self._names)

    # ------------------------------------------------------------------ #
    # Registry merging (shard-boundary protocol)
    # ------------------------------------------------------------------ #

    def merge_names(self, names: Iterable[ThreadName]) -> List[int]:
        """Intern another registry's tid-ordered name list; return the remap.

        ``names`` is the peer registry's :meth:`names` output (its tid
        numbering).  Every name is interned here, and the returned table
        maps the peer's tids to this registry's: ``remap[peer_tid] ->
        local_tid``.  Together with
        :meth:`repro.vectorclock.dense.DenseClock.remapped` this is how the
        sharded engine folds worker clocks -- numbered by each worker's
        private order of first appearance -- into one coherent view.
        """
        intern = self.intern
        return [intern(name) for name in names]

    # ------------------------------------------------------------------ #
    # Serialization (checkpoint / shard-boundary protocols)
    # ------------------------------------------------------------------ #

    def to_bytes(self) -> bytes:
        """Serialize the tid-ordered name table through the shared codec.

        The numbering is the registry's whole identity (tids are dense
        positions), so the name list *is* the registry.  Used by detector
        snapshots so a resumed process can re-establish the identical
        interning before any suffix event is stamped.
        """
        from repro.vectorclock.codec import encode

        return encode(list(self._names))

    @classmethod
    def from_bytes(cls, data: bytes) -> "ThreadRegistry":
        """Inverse of :meth:`to_bytes`."""
        from repro.vectorclock.codec import CodecError, decode

        names = decode(data)
        if not isinstance(names, list):
            raise CodecError(
                "registry blob does not contain a name list (got %s)"
                % type(names).__name__
            )
        return cls(names)

    # ------------------------------------------------------------------ #
    # Clock conversion (tid-keyed internal <-> name-keyed public)
    # ------------------------------------------------------------------ #

    def to_public(self, clock) -> VectorClock:
        """Convert an internal tid-keyed clock to a name-keyed VectorClock.

        ``clock`` is a detector's :class:`~repro.vectorclock.dense.DenseClock`
        (anything with tid-keyed ``items()`` works); only non-zero
        components survive, so the conversion is lossless in both
        directions.
        """
        names = self._names
        return VectorClock({names[tid]: value for tid, value in clock.items()})

    def to_dense(self, clock: VectorClock):
        """Convert a name-keyed VectorClock to a tid-keyed DenseClock."""
        from repro.vectorclock.dense import DenseClock

        dense = DenseClock()
        for name, value in clock.items():
            dense.assign(self.intern(name), value)
        return dense

    # ------------------------------------------------------------------ #
    # Dunder methods
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: object) -> bool:
        return name in self._ids

    def __iter__(self) -> Iterator[ThreadName]:
        return iter(self._names)

    def __repr__(self) -> str:
        return "ThreadRegistry(%r)" % (self._names,)

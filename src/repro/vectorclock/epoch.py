"""FastTrack-style epochs.

The paper lists "use of epoch based optimizations for improving memory
requirements" as future work (Section 6).  We implement the classic
FastTrack epoch representation for the HB detector
(:class:`repro.hb.fasttrack.FastTrackDetector`).

An epoch ``c@t`` records that a variable's last relevant access was at local
time ``c`` of thread ``t``.  Comparing an epoch against a vector clock is an
O(1) operation, whereas comparing two vector clocks is O(T); the FastTrack
insight is that the vast majority of accesses can be handled with epochs
alone.

Inside the detectors ``thread`` is an interned integer tid and the clock
is a :class:`~repro.vectorclock.dense.DenseClock`; an epoch keyed by a
thread name works against the public :class:`VectorClock` the same way,
since the only requirement on the clock passed to
:meth:`Epoch.happens_before` is a ``get`` method.  The WCP access history
(:mod:`repro.core.history`) applies the same epoch idea inline, with an
extra exactness condition that the WCP timestamping requires.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.vectorclock.clock import VectorClock

ThreadId = Hashable


class Epoch:
    """A compressed single-component clock ``c@t``.

    Examples
    --------
    >>> e = Epoch("t1", 3)
    >>> e.happens_before(VectorClock({"t1": 5}))
    True
    >>> e.happens_before(VectorClock({"t2": 9}))
    False
    """

    __slots__ = ("thread", "time")

    def __init__(self, thread: Optional[ThreadId], time: int) -> None:
        if time < 0:
            raise ValueError("epoch time must be non-negative")
        self.thread = thread
        self.time = time

    @classmethod
    def bottom(cls) -> "Epoch":
        """Return the empty epoch (no access recorded yet)."""
        return cls(None, 0)

    def is_bottom(self) -> bool:
        """Return True when no access has been recorded."""
        return self.time == 0 and self.thread is None

    def happens_before(self, clock: VectorClock) -> bool:
        """Return True when this epoch is ordered before ``clock``.

        The bottom epoch is ordered before everything.
        """
        if self.is_bottom():
            return True
        return self.time <= clock.get(self.thread)

    def same_thread(self, thread: ThreadId) -> bool:
        """Return True when the epoch belongs to ``thread``."""
        return self.thread == thread

    def to_bytes(self) -> bytes:
        """Serialize through the shared codec (:mod:`repro.vectorclock.codec`)."""
        from repro.vectorclock.codec import encode

        return encode(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Epoch":
        """Inverse of :meth:`to_bytes`."""
        from repro.vectorclock.codec import CodecError, decode

        epoch = decode(data)
        if not isinstance(epoch, cls):
            raise CodecError(
                "blob does not contain an epoch (got %s)" % type(epoch).__name__
            )
        return epoch

    def to_clock(self) -> VectorClock:
        """Expand the epoch into a full vector clock."""
        if self.is_bottom():
            return VectorClock.bottom()
        return VectorClock.single(self.thread, self.time)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Epoch):
            return NotImplemented
        return self.thread == other.thread and self.time == other.time

    def __hash__(self) -> int:
        return hash((self.thread, self.time))

    def __repr__(self) -> str:
        if self.is_bottom():
            return "Epoch(bottom)"
        return "Epoch(%d@%r)" % (self.time, self.thread)

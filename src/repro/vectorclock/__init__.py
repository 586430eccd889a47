"""Vector clocks, epochs and thread-id interning.

This subpackage provides the logical-time machinery used by every partial
order based detector in the library:

* :class:`~repro.vectorclock.clock.VectorClock` -- a mutable sparse
  mapping from thread identifiers to integer local times, supporting the
  join (pointwise maximum), pointwise comparison and component assignment
  operations required by the paper's Algorithm 1.  This is the public,
  reporting-facing representation (keyed by the original thread names).
* :class:`~repro.vectorclock.dense.DenseClock` -- the array-backed hot-path
  representation keyed by interned integer tids; same operation set,
  strictly cheaper constants.  It is the only clock the detectors use
  internally.
* :class:`~repro.vectorclock.registry.ThreadRegistry` -- the interning
  table that maps thread names to dense tids at the trace/engine boundary
  and converts clocks losslessly between both representations.
* :class:`~repro.vectorclock.epoch.Epoch` -- the FastTrack-style compressed
  representation ``c@t`` of a vector clock that is known to have a single
  relevant component.  Used by the epoch-optimised HB detector and (via
  the access history's epoch fast path) by WCP.
"""

from repro.vectorclock.clock import VectorClock
from repro.vectorclock.dense import DenseClock
from repro.vectorclock.epoch import Epoch
from repro.vectorclock.registry import ThreadRegistry
from repro.vectorclock import codec

__all__ = [
    "VectorClock",
    "DenseClock",
    "Epoch",
    "ThreadRegistry",
    "codec",
]

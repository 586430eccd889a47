"""Vector clocks and thread-id interning.

This subpackage provides the logical-time machinery used by every partial
order based detector in the library:

* :class:`~repro.vectorclock.clock.VectorClock` -- a mutable sparse
  mapping from thread identifiers to integer local times, supporting the
  join (pointwise maximum), pointwise comparison and component assignment
  operations required by the paper's Algorithm 1.  This is the public,
  reporting-facing representation (keyed by the original thread names).
* :class:`~repro.vectorclock.dense.DenseClock` -- the list-backed hot-path
  representation keyed by interned integer tids; same operation set,
  strictly cheaper constants.  It is the only clock the detectors use
  internally.
* :class:`~repro.vectorclock.registry.ThreadRegistry` -- the interning
  table that maps thread names to dense tids at the trace/engine boundary
  and converts clocks losslessly between both representations.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.vectorclock.clock": ["VectorClock"],
    "repro.vectorclock.dense": ["DenseClock"],
    "repro.vectorclock.registry": ["ThreadRegistry"],
}, submodules=["codec"])

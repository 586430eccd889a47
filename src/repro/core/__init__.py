"""Core: the paper's contribution (WCP) and the shared detector interface.

* :class:`~repro.core.detector.Detector` -- abstract base class every
  analysis implements (``run(trace) -> RaceReport``).
* :class:`~repro.core.races.RacePair` / :class:`~repro.core.races.RaceReport`
  -- race pairs as unordered location pairs plus the witnessing event pairs,
  exactly the granularity used for Table 1.
* :class:`~repro.core.wcp.WCPDetector` -- Algorithm 1, the streaming
  linear-time vector-clock detector for WCP (interned tids, dense clocks,
  epoch-accelerated race checks).
* :class:`~repro.core.wcp_legacy.LegacyWCPDetector` -- the pre-optimisation
  implementation, frozen as a differential-testing oracle and benchmark
  baseline.
* :class:`~repro.core.closure.WCPClosure` / ``closure_orders`` -- an
  explicit (non-linear) computation of the WCP partial order used as a
  correctness oracle on small traces.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.races": ["RacePair", "RaceReport"],
    "repro.core.detector": ["Detector"],
    "repro.core.wcp": ["WCPDetector"],
    "repro.core.wcp_legacy": ["LegacyWCPDetector"],
    "repro.core.closure": ["WCPClosure"],
})

"""Happens-before detectors (the paper's primary baseline).

* :class:`~repro.hb.hb.HBDetector` -- the classic Djit+-style vector-clock
  detector for Lamport's happens-before relation; linear time, no
  windowing (the configuration the paper compares WCP against in
  Table 1, columns 7 and 13).
* :class:`~repro.hb.fasttrack.FastTrackDetector` -- the epoch-optimised
  variant (FastTrack).  The paper lists epoch optimisations as future work
  for WCP; we provide them for HB as an ablation of the time/memory
  trade-off.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hb.hb": ["HBDetector"],
    "repro.hb.fasttrack": ["FastTrackDetector"],
})

"""The happens-before detector (the paper's primary baseline).

:class:`~repro.hb.hb.HBDetector` is the classic Djit+-style vector-clock
detector for Lamport's happens-before relation; linear time, no
windowing (the configuration the paper compares WCP against in Table 1,
columns 7 and 13).  Its access history keeps FastTrack-style epochs
(:mod:`repro.core.history`).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.hb.hb": ["HBDetector"],
})

"""Machine-speed calibration of measured times.

On a 2-vCPU virtual machine whose cores are shared with other tenants,
speed drifts by tens of percent over minutes: the median time of a fixed Python loop over 20-second windows
had an interquartile range of 34% of its median, and CPU time inflates
with wall time, so the drift is slower execution, not waiting.  Raw
times from runs a few minutes apart are then not comparable.

So every measured time is divided by the time of a fixed pure-Python
workload (object churn, dict updates over a large working set, integer
arithmetic, small list joins) run just before it, and multiplied by
``REFERENCE_S``: the result is in seconds on a machine where the
calibration takes ``REFERENCE_S``.  Over ten 24-second runs per
workload, this cut the interquartile range of ``events_per_s`` from
9-19% of the median (raw) to 2-10% (calibrated).  Raw times stay in the
run record.
"""

from __future__ import annotations

import random
import time

#: Calibration time that defines the reference machine speed.
REFERENCE_S = 0.1


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


class Calibration:
    """Times the fixed workload; holds its working set between samples."""

    def __init__(self) -> None:
        self._table = [(i, "v%d" % (i % 5000)) for i in range(300_000)]
        rng = random.Random(1)
        self._probes = [rng.randrange(len(self._table)) for _ in range(60_000)]

    def _work(self) -> None:
        counts: dict = {}
        labels = []
        for i in range(60_000):
            pair = _Pair(i, i & 255)
            counts[pair.b] = counts.get(pair.b, 0) + pair.a
            if i & 7 == 0:
                labels.append("%d:%d" % (pair.b, pair.a))
        totals: dict = {}
        for index in self._probes:
            value, name = self._table[index]
            totals[name] = totals.get(name, 0) + value
        acc = 0
        for i in range(600_000):
            acc += i * i
        clocks = [[0] * 12 for _ in range(12)]
        for n in range(12_000):
            mine, other = clocks[n % 12], clocks[(n * 7) % 12]
            mine[n % 12] += 1
            for i in range(12):
                if other[i] > mine[i]:
                    mine[i] = other[i]

    def sample(self) -> float:
        """Seconds the fixed workload takes now."""
        started = time.perf_counter()
        self._work()
        return time.perf_counter() - started


def scale(calibration_s: float) -> float:
    """Factor that turns a time measured next to a calibration sample of
    ``calibration_s`` into reference seconds."""
    return REFERENCE_S / calibration_s

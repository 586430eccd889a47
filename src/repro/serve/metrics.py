"""The serve tier's metrics surface.

One :class:`ServeMetrics` instance per server aggregates everything the
operators of a multi-tenant race-prediction service ask first:

* lifecycle counters -- accepted / completed / rejected / shed / evicted /
  restored / drained / disconnected / errored streams;
* per-tenant throughput -- events, bytes, streams and an events/sec rate
  over the tenant's active window;
* per-detector cost -- the engine's existing cost accounting
  (:meth:`~repro.core.races.RaceReport.stats`) folded across completed
  streams, so the constant-per-event claim is observable in production,
  per detector;
* per-event latency -- a bounded reservoir of sampled step times per
  event (each sample is the mean over one run of up to
  ``SAMPLE_EVERY`` events, timed whole), rendered as p50/p99.

The same data renders two ways: :meth:`to_dict` for the ``--metrics-port``
JSON endpoint, and :meth:`render_lines` for the in-band ``/stats``
line-protocol query (``<key> <value...>`` lines terminated by
``done stats``, so existing line-oriented clients need no new parser).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional

__all__ = ["ServeMetrics"]

#: Lifecycle counters, in rendering order.
_COUNTERS = (
    "accepted",
    "completed",
    "rejected",
    "shed",
    "evicted",
    "restored",
    "drained",
    "disconnected",
    "errored",
    "handshake_timeout",
)


class ServeMetrics:
    """Aggregated serve-tier observability state.

    All mutation happens on the server's event loop, so plain counters
    suffice -- no locks.  The latency reservoir is bounded
    (``latency_samples``) and fed with *sampled* observations (the driver
    times the run of events that starts at every Nth one and records its
    mean per event), keeping the measurement overhead off the per-event
    hot path the paper's complexity argument protects.
    """

    def __init__(self, latency_samples: int = 4096) -> None:
        self.started = time.monotonic()
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTERS}
        #: tenant -> {"events", "bytes", "streams", "shed", "first", "last"}
        self.tenants: Dict[str, Dict[str, float]] = {}
        #: detector name -> {"events", "time_s", "races", "raw", "streams"}
        self.detectors: Dict[str, Dict[str, float]] = {}
        self._latency = deque(maxlen=latency_samples)

    # -- lifecycle ------------------------------------------------------- #

    def count(self, name: str, tenant: Optional[str] = None) -> None:
        """Bump lifecycle counter ``name`` (and the tenant's shed count)."""
        self.counters[name] += 1
        if tenant is not None and name == "shed":
            self._tenant(tenant)["shed"] += 1

    def _tenant(self, tenant: str) -> Dict[str, float]:
        bucket = self.tenants.get(tenant)
        if bucket is None:
            bucket = self.tenants[tenant] = {
                "events": 0, "bytes": 0, "streams": 0, "shed": 0,
                "first": 0.0, "last": 0.0,
            }
        return bucket

    def record_accept(self, tenant: str) -> None:
        self.counters["accepted"] += 1
        self._tenant(tenant)["streams"] += 1

    def add_events(self, tenant: str, events: int, bytes_: int = 0) -> None:
        """Attribute ``events`` (and wire bytes) to ``tenant``'s window."""
        bucket = self._tenant(tenant)
        now = time.monotonic()
        if bucket["events"] == 0:
            bucket["first"] = now
        bucket["events"] += events
        bucket["bytes"] += bytes_
        bucket["last"] = now

    def record_result(self, result) -> None:
        """Fold one completed stream's per-detector costs into the totals.

        ``result`` is an :class:`~repro.engine.engine.EngineResult`; the
        per-detector ``time_s`` comes from the engine's cost accounting
        (the detector's own time, attributed once per stepped chunk).
        """
        for name, report in result.items():
            bucket = self.detectors.get(name)
            if bucket is None:
                bucket = self.detectors[name] = {
                    "events": 0, "time_s": 0.0, "races": 0, "raw": 0,
                    "streams": 0,
                }
            bucket["events"] += result.events
            bucket["time_s"] += float(report.stats.get("time_s", 0.0))
            bucket["races"] += report.count()
            bucket["raw"] += report.raw_race_count
            bucket["streams"] += 1

    # -- latency --------------------------------------------------------- #

    def observe_latency(self, seconds: float) -> None:
        """Record one sampled per-event (validate + step) duration."""
        self._latency.append(seconds)

    def latency_quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile (0..1) of the sampled latencies, in seconds."""
        if not self._latency:
            return None
        ordered = sorted(self._latency)
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]

    # -- rendering ------------------------------------------------------- #

    def _tenant_rate(self, bucket: Dict[str, float]) -> float:
        window = bucket["last"] - bucket["first"]
        if bucket["events"] and window > 0:
            return bucket["events"] / window
        return 0.0

    def to_dict(self, manager=None) -> dict:
        """The JSON shape served by ``--metrics-port``."""
        p50 = self.latency_quantile(0.50)
        p99 = self.latency_quantile(0.99)
        data = {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "counters": dict(self.counters),
            "tenants": {
                tenant: {
                    "events": int(bucket["events"]),
                    "bytes": int(bucket["bytes"]),
                    "streams": int(bucket["streams"]),
                    "shed": int(bucket["shed"]),
                    "events_per_sec": round(self._tenant_rate(bucket), 1),
                }
                for tenant, bucket in sorted(self.tenants.items())
            },
            "detectors": {
                name: {
                    "events": int(bucket["events"]),
                    "time_s": round(bucket["time_s"], 6),
                    "races": int(bucket["races"]),
                    "raw": int(bucket["raw"]),
                    "streams": int(bucket["streams"]),
                    "events_per_sec": round(
                        bucket["events"] / bucket["time_s"], 1
                    ) if bucket["time_s"] > 0 else None,
                }
                for name, bucket in sorted(self.detectors.items())
            },
            "latency": {
                "samples": len(self._latency),
                "p50_us": round(p50 * 1e6, 1) if p50 is not None else None,
                "p99_us": round(p99 * 1e6, 1) if p99 is not None else None,
            },
        }
        if manager is not None:
            data["active_sessions"] = manager.active_count()
            data["queue_depth"] = manager.queue_depth()
            data["sessions"] = [
                session.to_dict() for session in manager.live()
            ]
        return data

    def render_lines(self, manager=None) -> List[str]:
        """The in-band ``/stats`` reply: flat ``key value`` lines.

        Terminated by ``done stats`` so clients reuse the serve
        protocol's normal end-of-response detection.
        """
        lines = ["uptime_s %.3f" % (time.monotonic() - self.started)]
        for name in _COUNTERS:
            lines.append("%s %d" % (name, self.counters[name]))
        if manager is not None:
            lines.append("active_sessions %d" % manager.active_count())
            lines.append("queue_depth %d" % manager.queue_depth())
        for tenant, bucket in sorted(self.tenants.items()):
            lines.append(
                "tenant %s events %d bytes %d streams %d shed %d eps %.1f"
                % (
                    tenant, bucket["events"], bucket["bytes"],
                    bucket["streams"], bucket["shed"],
                    self._tenant_rate(bucket),
                )
            )
        for name, bucket in sorted(self.detectors.items()):
            lines.append(
                "detector %s events %d time_s %.6f races %d raw %d"
                % (
                    name, bucket["events"], bucket["time_s"],
                    bucket["races"], bucket["raw"],
                )
            )
        for q, label in ((0.50, "p50"), (0.99, "p99")):
            value = self.latency_quantile(q)
            if value is not None:
                lines.append("latency_%s_us %.1f" % (label, value * 1e6))
        lines.append("done stats")
        return lines

    def __repr__(self) -> str:
        return "ServeMetrics(%s)" % ", ".join(
            "%s=%d" % (name, self.counters[name])
            for name in _COUNTERS if self.counters[name]
        )

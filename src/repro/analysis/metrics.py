"""Metrics over traces and race reports.

These implement the quantities the paper reports outside the raw race
counts:

* *race distance* (Section 4.3): the minimum/maximum separation, in events,
  between witnesses of a race pair -- the paper observes HB/WCP races with
  distances of millions of events, which windowed tools cannot see;
* *queue statistics* (Table 1, column 11): the maximum total length of the
  WCP detector's FIFO queues as a fraction of the trace length;
* general trace summaries (Table 1, columns 3-5), and how much of a
  trace is thread-local (what the batch detectors' census lets them
  skip).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.races import RaceReport
from repro.trace.trace import Trace


def race_distances(report: RaceReport) -> Dict[frozenset, int]:
    """Return the maximum observed distance per distinct race pair."""
    return {pair.key(): report.distance_of(pair) for pair in report.pairs()}


def max_race_distance(report: RaceReport) -> int:
    """Return the maximum race distance over the whole report (0 if none)."""
    return report.max_distance()


def min_race_distance(report: RaceReport) -> Optional[int]:
    """Return the minimum race distance over the report (None if race-free)."""
    distances = [pair.distance for pair in report.pairs()]
    return min(distances) if distances else None


def long_distance_races(report: RaceReport, threshold: int) -> List[frozenset]:
    """Return the race pairs whose witnesses are at least ``threshold`` apart.

    These are precisely the races a windowed analysis with window size
    below ``threshold`` cannot possibly report.
    """
    return [
        pair.key()
        for pair in report.pairs()
        if report.distance_of(pair) >= threshold
    ]


def queue_statistics(report: RaceReport) -> Dict[str, float]:
    """Extract the WCP queue statistics from a report (zeros when absent)."""
    return {
        "max_queue_total": report.stats.get("max_queue_total", 0.0),
        "max_queue_fraction": report.stats.get("max_queue_fraction", 0.0),
    }


def trace_summary(trace: Trace) -> Dict[str, int]:
    """Return the Table 1 descriptive columns for a trace."""
    stats = trace.stats()
    return {
        "events": stats["events"],
        "threads": stats["threads"],
        "locks": stats["locks"],
        "variables": stats["variables"],
    }


def event_census(trace: Trace) -> Dict[str, int]:
    """Per-event-type census (canonical wire token -> count).

    Only event kinds that actually occur in the trace appear; the CLI's
    ``stats`` subcommand prints this as its census column.
    """
    return trace.census()


def thread_locality(trace: Trace) -> Dict[str, int]:
    """How much of ``trace`` only one thread touches, from its census.

    ``local_variables`` / ``local_locks`` count the variables and locks
    with a sole thread (:class:`~repro.trace.trace.ThreadCensus`), and
    ``local_accesses`` the reads and writes of those variables -- the
    accesses the batch WCP, HB and FastTrack detectors skip.
    """
    census = trace.thread_census
    local = census.local_variables
    return {
        "local_variables": len(local),
        "local_locks": len(census.local_locks),
        "local_accesses": sum(
            1 for event in trace if event.target in local and event.is_access()
        ),
    }

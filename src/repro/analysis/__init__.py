"""Analysis tooling: windowing, metrics, multi-detector comparison, tables.

* :class:`~repro.analysis.windowing.WindowedDetector` -- wrap *any* detector
  so that it only ever sees bounded windows of the trace.  Used for the
  ablation showing how much race-detection capability windowing costs
  (Section 4.3 of the paper).
* :mod:`~repro.analysis.metrics` -- race distances, queue statistics and
  trace summaries.
* :mod:`~repro.analysis.compare` -- run a set of detectors over a set of
  benchmarks and produce Table-1-style rows.
* :mod:`~repro.analysis.tables` -- plain-text table rendering used by the
  CLI, the examples and the benchmark harness.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.windowing": [
        "WindowedDetector", "HeldLockTracker", "make_window_trace",
    ],
    "repro.analysis.metrics": [
        "race_distances", "max_race_distance", "min_race_distance",
        "long_distance_races", "queue_statistics", "trace_summary",
        "event_census",
    ],
    "repro.analysis.compare": ["BenchmarkRow", "compare_on_trace", "run_table"],
    "repro.analysis.tables": ["format_table"],
    "repro.analysis.export": [
        "report_to_dict", "report_to_json", "report_to_csv", "rows_to_json",
        "rows_to_csv", "save_report",
    ],
    "repro.analysis.audit": ["AuditResult", "Verdict", "audit_report"],
})

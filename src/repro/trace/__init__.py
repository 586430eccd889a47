"""Trace model.

This subpackage defines the execution-trace substrate that every detector
consumes:

* :class:`~repro.trace.event.Event` and
  :class:`~repro.trace.event.EventType` -- single events
  (``acquire``/``release``/``read``/``write``/``fork``/``join``/``begin``/``end``).
* :class:`~repro.trace.trace.Trace` -- an immutable sequence of events with
  well-formedness checks (lock semantics and well nestedness, Section 2.1 of
  the paper) plus derived lookups such as critical sections and projections.
* :class:`~repro.trace.builder.TraceBuilder` -- a small DSL for writing the
  paper's example traces by hand.
* :mod:`~repro.trace.semantics` -- the declarative event-semantics
  registry: every event kind's wire tokens, operand arity, validator
  role, clock action and sharding class in one table, plus the
  :class:`~repro.trace.semantics.LockDiscipline` state machine both the
  batch and streaming validators drive.
* :mod:`~repro.trace.parsers` / :mod:`~repro.trace.writers` -- the STD text
  format (one event per line, RAPID-compatible) and a CSV format.
* :mod:`~repro.trace.adapters` -- ingest adapters for real-world trace
  formats (mtrace-style kernel lock logs, a TSan-like format).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.trace.event": ["Event", "EventType"],
    "repro.trace.semantics": [
        "EventSemantics", "LockDiscipline", "REGISTRY", "TOKEN_TO_ETYPE",
    ],
    "repro.trace.trace": [
        "Trace", "TraceError", "LockSemanticsError", "WellNestednessError",
    ],
    "repro.trace.builder": ["TraceBuilder"],
    "repro.trace.parsers": [
        "FORMAT_NAMES", "TraceParseError", "detect_format", "event_iterator",
        "iter_trace_blocks", "iter_trace_file", "parse_std", "parse_csv",
        "load_trace",
    ],
    "repro.trace.adapters": [
        "ADAPTERS", "iter_mtrace_events", "iter_tsan_events",
    ],
    "repro.trace.writers": ["write_std", "write_csv", "dump_trace"],
})

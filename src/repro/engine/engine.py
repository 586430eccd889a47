"""The single-pass streaming race engine.

This is the runtime the paper's "linear time, constant work per event"
claim calls for: one iteration over one event source drives any number of
detectors simultaneously.  The legacy shape (``detector.run(trace)`` once
per detector) pays one full pass of the trace per detector *and* requires
the trace to be materialised; :class:`RaceEngine` pays exactly one pass
and accepts lazily-produced streams.

The engine hands each detector either the backing
:class:`~repro.trace.trace.Trace` (when the source is complete) or a
:class:`StreamContext` -- a lightweight trace stand-in whose
``is_complete`` flag tells detectors not to pre-scan, and whose
``thread_census`` is the source's (a regular file takes it in a first
pass, before any detector steps, whichever detectors run) -- so
census-driven optimisations like WCP's queue pruning stay enabled
wherever a census exists.

Early-stop policies and snapshot cadence come from
:class:`~repro.engine.config.EngineConfig`.

The core lives in :class:`EnginePass`, one in-flight pass stepped a
block of events at a time (:meth:`EnginePass.step_batch`).  Sources hand
out blocks (``EventSource.batches()``: a file's decoded parser blocks,
slices of a trace, whatever a push queue holds); the pass cuts each
block only where something must happen -- a snapshot, a checkpoint, the
event budget -- and runs every chunk *detector-major*: each detector
consumes the whole chunk through :meth:`Detector.process_batch
<repro.core.detector.Detector.process_batch>` before the next one starts
(detectors share no state while processing; the source interned every
tid at decode time).  Per-detector time is attributed once per chunk,
never per event.  :class:`RaceEngine` drives the pass from a ``for`` loop
over a source's blocks and the serve tier from its socket reads -- the
stepping semantics are implemented exactly once.
"""

from __future__ import annotations

import time
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.detector import Detector
from repro.core.races import RaceReport, ReportSnapshot
from repro.engine.config import DetectorSpec, EngineConfig
from repro.engine.sources import EventSource, as_source
from repro.gcpause import gc_paused
from repro.trace.columns import ColumnBlock
from repro.trace.event import Event
from repro.trace.trace import ThreadCensus
from repro.vectorclock.registry import ThreadRegistry


class StreamContext:
    """A trace-like stand-in handed to ``Detector.reset`` for live streams.

    Exposes the small protocol detectors consult at reset time -- ``name``,
    ``threads`` (empty; detectors discover threads lazily), ``__len__``
    (events seen so far, updated by the engine), ``is_complete = False``
    so detectors skip whole-trace prescans, ``registry`` (the pass's
    thread-interning table -- the source's when it has one -- shared by
    every detector of the pass, so the blocks' thread ids are read as
    they are) and ``thread_census``: the ``source``'s census, taken
    once and shared by every detector (None without a source, or when
    the source can take none).
    """

    is_complete = False

    def __init__(self, name: str, registry=None, source=None) -> None:
        self.name = name
        self.registry = registry
        self.events_seen = 0
        self._source = source

    @cached_property
    def thread_census(self) -> Optional[ThreadCensus]:
        return getattr(self._source, "thread_census", None)

    @property
    def threads(self) -> List[str]:
        """No thread census is available ahead of a stream."""
        return []

    def __iter__(self) -> Iterator[Event]:
        return iter(())

    def __len__(self) -> int:
        return self.events_seen

    def __repr__(self) -> str:
        return "StreamContext(%r, events_seen=%d)" % (self.name, self.events_seen)


#: Stop reasons reported on :class:`EngineResult`.
STOP_EXHAUSTED = "exhausted"
STOP_RACE_BUDGET = "race_budget"
STOP_EVENT_BUDGET = "event_budget"


class EngineResult:
    """The outcome of one engine pass: reports keyed by detector name.

    Behaves as a read-only mapping from detector name to
    :class:`~repro.core.races.RaceReport` (duplicate detector names are
    disambiguated with ``#2``, ``#3``, ...), plus run-level metadata:
    ``events`` processed, wall-clock ``elapsed_s``, the ``stop_reason``
    (one of ``"exhausted"``, ``"race_budget"``, ``"event_budget"``), the
    accumulated ``snapshots`` and the ``census`` account.
    """

    def __init__(
        self,
        source_name: str,
        reports: "Dict[str, RaceReport]",
        events: int,
        elapsed_s: float,
        stop_reason: str,
        snapshots: List[ReportSnapshot],
        kernel: Optional[Dict[str, Dict[str, object]]] = None,
        census: Optional[str] = None,
    ) -> None:
        self.source_name = source_name
        self.reports = reports
        self.events = events
        self.elapsed_s = elapsed_s
        self.stop_reason = stop_reason
        self.snapshots = snapshots
        #: Per detector key, the compiled kernel's row count, exit and
        #: race figures at the end of the pass
        #: (:meth:`~repro.core.wcp_compiled.CompiledPass.kernel_counts`)
        #: for the detectors that run it; never part of a report.
        self.kernel = kernel or {}
        #: One line on the source's census pass (rows, distinct pairs,
        #: C or Python, validated or not), or why none was taken; None
        #: when the source keeps no such account.
        self.census = census
        #: One line on the source's passes over an STD file (per pass,
        #: lines decoded and ops and threads interned), or None.
        self.decode: Optional[str] = None

    # Mapping-style access -------------------------------------------------

    def __getitem__(self, detector_name: str) -> RaceReport:
        return self.reports[detector_name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    def __contains__(self, detector_name: object) -> bool:
        return detector_name in self.reports

    def keys(self):
        return self.reports.keys()

    def values(self):
        return self.reports.values()

    def items(self):
        return self.reports.items()

    def get(self, detector_name: str, default: Optional[RaceReport] = None):
        return self.reports.get(detector_name, default)

    # Queries --------------------------------------------------------------

    def has_race(self) -> bool:
        """True when any detector found at least one race."""
        return any(report.has_race() for report in self.reports.values())

    def total_distinct_races(self) -> int:
        """Sum of distinct race-pair counts across detectors."""
        return sum(report.count() for report in self.reports.values())

    def stopped_early(self) -> bool:
        """True when an early-stop policy cut the pass short."""
        return self.stop_reason != STOP_EXHAUSTED

    def summary(self) -> str:
        """Return a short human-readable multi-line run summary."""
        lines = [
            "engine pass over %s: %d event(s), %.3fs, stop=%s" % (
                self.source_name, self.events, self.elapsed_s, self.stop_reason
            )
        ]
        for name, report in self.reports.items():
            lines.append(
                "  %-12s %d distinct race(s), %d raw, %.3fs" % (
                    name, report.count(), report.raw_race_count,
                    float(report.stats.get("time_s", 0.0)),
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "EngineResult(%r, events=%d, %s)" % (
            self.source_name,
            self.events,
            {name: report.count() for name, report in self.reports.items()},
        )


class EnginePass:
    """One in-flight engine pass: the shared batch-granular stepper.

    Owns everything between detector reset and the final
    :class:`EngineResult`: context construction (real trace vs
    :class:`StreamContext`), reset, block stepping (renumbering,
    detector dispatch, snapshot cadence, checkpoints, early-stop
    policies), per-detector cost attribution and finishing.  The two
    drivers differ only in how they obtain blocks of events:

    * :meth:`RaceEngine.run` pulls them from a source's ``batches()``;
    * the serve tier's session driver steps runs of each socket read.

    The sharded workers use only :meth:`start` and
    :meth:`finish_detectors`: they feed their detectors straight off the
    transport wire (snapshots and early stop are coordinator-side).

    Protocol::

        pass_ = EnginePass(config, resolved, source_name, trace=..., registry=...)
        pass_.start()
        for block in source.batches():
            if pass_.step_batch(block) is not None:
                break
        result = pass_.result()

    ``step_batch`` returns the stop reason (one of the ``STOP_*``
    constants) when an early-stop policy fires, else None.
    """

    def __init__(
        self,
        config: Optional[EngineConfig],
        detectors: Sequence[Detector],
        source_name: str,
        trace=None,
        registry=None,
        start_events: int = 0,
        checkpointer=None,
        source=None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.detectors = list(detectors)
        if len({id(detector) for detector in self.detectors}) != len(
            self.detectors
        ):
            raise ValueError(
                "the same Detector instance appears more than once in the "
                "selection; it would process every event twice -- pass "
                "distinct instances (or names) instead"
            )
        self.source_name = source_name
        self.trace = trace
        # Complete sources hand detectors the real trace so reset-time
        # prescans keep working; streams get a non-prescannable context
        # that reads ``source``'s census on request.  Every detector of
        # the pass adopts the pass registry, and every block reaches them
        # in it (step_batch).
        if trace is not None:
            registry = getattr(trace, "registry", None)
        if registry is None:
            registry = ThreadRegistry()
        self.context = (
            trace
            if trace is not None
            else StreamContext(source_name, registry=registry, source=source)
        )
        self.registry = registry
        # A resumed pass continues the checkpointed numbering: ``events``
        # stays the *absolute* stream offset, so renumbering, race
        # distances, snapshot cadence and checkpoint offsets all line up
        # with the uninterrupted run.
        self.events = start_events
        self.start_events = start_events
        if self.context is not self.trace:
            self.context.events_seen = start_events
        #: Optional :class:`~repro.engine.checkpoint.Checkpointer`; when
        #: set, the pass persists a checkpoint every ``checkpointer.every``
        #: events through :meth:`step_batch`.
        self.checkpointer = checkpointer
        self.snapshots: List[ReportSnapshot] = []
        self.stop_reason = STOP_EXHAUSTED
        self.elapsed_s = 0.0
        self._started: Optional[float] = None
        self._finished = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Reset every detector against the pass context."""
        clock = time.perf_counter
        self._started = clock()
        # reset() may do real per-trace work (e.g. WCP's queue-pruning
        # prescan), so it is part of each detector's attributed cost; the
        # attribution happens after reset() since reset zeroes the counters.
        for detector in self.detectors:
            before = clock()
            detector.reset(self.context)
            detector.account_cost(clock() - before, events=0)

    def step_batch(self, events: Sequence[Event]) -> Optional[str]:
        """Feed a block of events through the pass.

        The block becomes a :class:`~repro.trace.columns.ColumnBlock`
        numbered from the pass offset in the pass registry: a column
        block is re-based (nothing to do when its numbering and registry
        already agree, the common case), any other sequence of events
        goes through :meth:`ColumnBlock.from_events
        <repro.trace.columns.ColumnBlock.from_events>`.  It is cut into
        chunks -- O(1) views -- at the next offsets where anything can
        happen: a snapshot, a checkpoint, the event budget; with a race
        budget every event is a chunk of its own, so a stop lands on the
        same event as one-at-a-time stepping.  Each chunk runs detector
        by detector through :meth:`Detector.process_batch
        <repro.core.detector.Detector.process_batch>`, with one
        ``account_cost`` per detector per chunk.  Returns the stop reason
        when the pass should end (the rest of the block is dropped),
        else None.
        """
        config = self.config
        interval = config.snapshot_interval
        checkpointer = self.checkpointer
        every = checkpointer.every if checkpointer is not None else None
        event_budget = config.event_budget
        race_budget = config.race_budget
        detectors = self.detectors
        context = self.context if self.context is not self.trace else None
        clock = time.perf_counter
        if isinstance(events, ColumnBlock):
            events = events.rebased(self.events, self.registry)
        else:
            events = ColumnBlock.from_events(
                events, self.registry, start=self.events
            )
        total = len(events)
        position = 0
        while position < total:
            done = self.events
            size = 1 if race_budget is not None else total - position
            if interval is not None:
                size = min(size, interval - done % interval)
            if every is not None:
                size = min(size, every - done % every)
            if event_budget is not None:
                size = min(size, max(1, event_budget - done))
            chunk = (
                events if size == total else events[position:position + size]
            )
            for detector in detectors:
                before = clock()
                detector.process_batch(chunk)
                detector.account_cost(clock() - before, size)
            position += size
            self.events = done = done + size
            if context is not None:
                context.events_seen = done

            if interval is not None and done % interval == 0:
                self.take_snapshots()
            if every is not None and done % every == 0:
                checkpointer.save_pass(self)
            if race_budget is not None:
                for detector in detectors:
                    if detector.report.count() >= race_budget:
                        self.stop_reason = STOP_RACE_BUDGET
                        return self.stop_reason
            if event_budget is not None and done >= event_budget:
                self.stop_reason = STOP_EVENT_BUDGET
                return self.stop_reason
        return None

    def finish_detectors(self) -> None:
        """Run every detector's ``finish`` hook (idempotent).

        finish() may still do real work (flush buffered windows), so it
        is both always called and included in the per-detector cost.
        """
        if self._finished:
            return
        self._finished = True
        clock = time.perf_counter
        for detector in self.detectors:
            before = clock()
            detector.finish()
            detector.account_cost(clock() - before, events=0)
        if self._started is not None:
            self.elapsed_s = clock() - self._started

    def take_snapshots(self) -> None:
        """Append one snapshot per detector (and fire the callback)."""
        for detector in self.detectors:
            snap = detector.snapshot(events=self.events)
            self.snapshots.append(snap)
            if self.config.snapshot_callback is not None:
                self.config.snapshot_callback(snap)

    def result(self) -> EngineResult:
        """Finish the pass and assemble the :class:`EngineResult`."""
        self.finish_detectors()
        if self.checkpointer is not None:
            # Background checkpoint writes must land before the pass is
            # reported complete (a caller may clear the directory next).
            self.checkpointer.drain()
        events = self.events
        reports: Dict[str, RaceReport] = {}
        kernel: Dict[str, Dict[str, object]] = {}
        for detector in self.detectors:
            report = detector.finalize_stats(events, detector.cost_time_s)
            key = RaceEngine._unique_name(reports, detector.name)
            reports[key] = report
            counts = getattr(detector, "kernel_counts", None)
            if counts is not None:
                kernel[key] = counts()

        interval = self.config.snapshot_interval
        if interval is not None and (events == 0 or events % interval != 0):
            self.take_snapshots()

        return EngineResult(
            source_name=self.source_name,
            reports=reports,
            events=events,
            elapsed_s=self.elapsed_s,
            stop_reason=self.stop_reason,
            snapshots=self.snapshots,
            kernel=kernel,
        )

    def __repr__(self) -> str:
        return "EnginePass(%r, detectors=%d, events=%d)" % (
            self.source_name, len(self.detectors), self.events,
        )


def _drive(pass_: EnginePass, source: EventSource) -> EngineResult:
    """Step ``source``'s blocks through a started pass; finish it."""
    step_batch = pass_.step_batch
    for block in source.batches():
        if step_batch(block) is not None:
            break
    return pass_.result()


class RaceEngine:
    """Drive N detectors over one event source in a single pass.

    Usage::

        engine = RaceEngine(EngineConfig().with_detectors("wcp", "hb"))
        result = engine.run(trace_or_path_or_source)
        result["WCP"].count()

    ``run`` also accepts a ``detectors=`` override, so a default-configured
    engine doubles as a one-liner: ``RaceEngine().run(trace)``.
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()

    # ------------------------------------------------------------------ #
    # The single pass
    # ------------------------------------------------------------------ #

    def run(
        self,
        source,
        detectors: Optional[Sequence[DetectorSpec]] = None,
    ) -> EngineResult:
        """Run the configured detectors over ``source`` in one pass.

        ``source`` may be an :class:`~repro.engine.sources.EventSource`, a
        :class:`~repro.trace.trace.Trace`, a file path, or an iterable of
        events (see :func:`~repro.engine.sources.as_source`).  With
        ``config.checkpoint_dir`` set, the pass persists a detector-state
        checkpoint every ``config.checkpoint_every`` events (see
        :mod:`repro.engine.checkpoint`).

        The cyclic garbage collector is paused for the pass and then
        restored to the caller's state (:func:`repro.gcpause.gc_paused`):
        a pass creates no cyclic garbage, so collections during it would
        only walk the detectors' growing heap.  The pause is process-wide:
        cyclic garbage that other threads make meanwhile (e.g. producers
        feeding a :class:`~repro.engine.sources.QueueSource`) is collected
        only after the pass.  Long-lived live streams belong on
        ``repro-race serve``, whose sessions do not pause the collector.
        """
        config = self.config
        resolved = config.resolve_detectors(detectors)
        event_source = as_source(source)

        with gc_paused():
            pass_ = EnginePass(
                config, resolved, event_source.name,
                trace=event_source.trace,
                registry=getattr(event_source, "registry", None),
                checkpointer=self._make_checkpointer(resolved, event_source),
                source=event_source,
            )
            if pass_.context is not pass_.trace:
                # A fresh pass takes its source's census before any
                # detector steps, whichever detectors run: a validating
                # file source refuses a malformed file there, as a batch
                # load would.
                pass_.context.thread_census  # noqa: B018
            pass_.start()
            result = _drive(pass_, event_source)
        result.census = getattr(event_source, "census_note", None)
        result.decode = getattr(event_source, "decode_note", None)
        return result

    def resume(
        self,
        source,
        checkpoint,
        detectors: Optional[Sequence[DetectorSpec]] = None,
    ) -> EngineResult:
        """Resume a checkpointed pass over ``source``.

        ``checkpoint`` is a :class:`~repro.engine.checkpoint.Checkpoint`,
        a :class:`~repro.engine.checkpoint.Checkpointer`, or a checkpoint
        directory path (the newest checkpoint is used).  The source is
        positioned at the checkpoint's event offset
        (:func:`~repro.engine.checkpoint.seek_source`), the detectors --
        rebuilt from the checkpoint's stamps unless explicitly selected,
        in which case the selection must match the stamps exactly -- are
        restored, and the pass continues checkpointing into the same
        directory at the original cadence when one was given.  As in
        :meth:`run`, the cyclic collector is paused for the pass.
        """
        from repro.engine.checkpoint import (
            CheckpointMismatchError,
            open_for_resume,
            restore_source_state,
            seek_source,
        )

        config = self.config
        event_source = as_source(source)
        with gc_paused():
            loaded, checkpointer = open_for_resume(checkpoint, config)
            if loaded.sharded is not None:
                raise CheckpointMismatchError(
                    "checkpoint at offset %d was taken by a sharded run "
                    "(%d shard(s)); resume it with ShardedEngine.resume or "
                    "resume_engine()"
                    % (loaded.events, loaded.sharded["shards"])
                )
            if detectors is None and config.detectors is None:
                resolved = loaded.build_detectors()
            else:
                resolved = config.resolve_detectors(detectors)
            loaded.match_detectors(resolved)

            seek_source(event_source, loaded.events)
            restore_source_state(event_source, loaded)
            if checkpointer is not None:
                checkpointer.source = event_source
            pass_ = EnginePass(
                config, resolved, event_source.name,
                trace=event_source.trace,
                registry=getattr(event_source, "registry", None),
                start_events=loaded.events,
                checkpointer=checkpointer,
                source=event_source,
            )
            # Reset-time whole-trace precomputation would be overwritten
            # by the restore below; let detectors skip it (a file's
            # census pass too).
            for detector in resolved:
                detector.restore_pending = True
            pass_.start()
            for detector, blob in zip(resolved, loaded.states):
                detector.restore_state(blob)
            result = _drive(pass_, event_source)
        result.census = "none taken (resumed)"
        result.decode = getattr(event_source, "decode_note", None)
        return result

    def _make_checkpointer(self, resolved, event_source):
        """Build the run's checkpointer from the configuration (or None)."""
        if self.config.checkpoint_dir is None:
            return None
        from repro.engine.checkpoint import (
            Checkpointer,
            check_snapshot_support,
        )

        check_snapshot_support(resolved)
        checkpointer = Checkpointer(
            self.config.checkpoint_dir,
            every=self.config.checkpoint_every,
            keep=self.config.checkpoint_keep,
        )
        checkpointer.source = event_source
        return checkpointer

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _unique_name(existing: Dict[str, RaceReport], name: str) -> str:
        if name not in existing:
            return name
        suffix = 2
        while "%s#%d" % (name, suffix) in existing:
            suffix += 1
        return "%s#%d" % (name, suffix)

    def __repr__(self) -> str:
        return "RaceEngine(%r)" % (self.config,)

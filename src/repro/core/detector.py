"""The detector interface shared by every analysis in the library.

A detector consumes a stream of events and produces a
:class:`~repro.core.races.RaceReport`.  Every detector is written in the
streaming style (:meth:`Detector.reset`, :meth:`Detector.process_batch`,
:meth:`Detector.finish`) so that it can be driven online -- by
:meth:`Detector.run` over a materialised :class:`~repro.trace.trace.Trace`,
or by the :class:`~repro.engine.RaceEngine`, which multiplexes one event
stream into several detectors in a single pass.  Both hand each detector
whole blocks of events through :meth:`Detector.process_batch`.

Two shapes of detector implement it:

* the clock detectors (WCP and HB) implement
  :meth:`Detector.process_batch` itself -- per-batch state bound once, the
  hot kinds handled inline -- and their :meth:`Detector.process` is a
  one-event batch;
* every other detector implements :meth:`Detector.process`, and the
  default :meth:`Detector.process_batch` loops over it.

Either way a block's result must not depend on how the stream was cut
into blocks (``tests/test_batch_parity.py``).

``reset`` accepts either a full :class:`~repro.trace.trace.Trace` or any
*trace-like* object exposing ``name``, ``threads``, ``__len__`` and
``is_complete`` (the engine's stream context sets ``is_complete = False``
to signal that the event sequence cannot be pre-scanned).  The one
whole-trace fact the clock detectors read, the ``thread_census``, is an
attribute of its own: a :class:`Trace` builds it from its columns, and
the stream context of a regular file takes it in a first pass over the
file (which validates it too, when validation is on); sockets, push
queues and shard workers have none.

Timing contract
---------------
``report.stats["time_s"]`` always means the detector's *own* analysis
time -- the time spent in ``reset`` (which may do per-trace
precomputation, e.g. building the trace's thread census, which the
first detector of a pass pays for), in processing events,
and in ``finish`` (which may flush buffered windows, e.g. the CP/MCM
detectors).  ``stats["events_per_s"]`` is ``events / time_s``.  Under the
engine that time is attributed per detector, once per stepped block
(:meth:`Detector.account_cost`): it excludes decoding, validation and
the other detectors of the pass, whose wall time is
``EngineResult.elapsed_s``.
"""

from __future__ import annotations

import abc
import time
from typing import Dict, Optional, Sequence

from repro.core.races import RaceReport, ReportSnapshot
from repro.core.snapshot import SnapshotUnsupportedError
from repro.trace.event import Event
from repro.trace.trace import ThreadCensus, Trace

#: Detectors this package no longer has, by name: the class path their
#: checkpoints carry, and the one-line error a request for them raises.
REMOVED_DETECTORS = {
    "fasttrack": (
        "repro.hb.fasttrack:FastTrackDetector",
        "the FastTrack detector was removed: use hb, whose access history "
        "keeps FastTrack's epochs and reports every race FastTrack did",
    ),
}


class Detector(abc.ABC):
    """Abstract base class for race detectors.

    Subclasses must implement :meth:`reset` and :meth:`process` (a
    detector that implements :meth:`process_batch` makes :meth:`process`
    a one-event batch); the default :meth:`run` drives them over a whole
    trace and records the wall-clock analysis time in
    ``report.stats["time_s"]`` (see the module docstring for the exact
    timing contract).
    """

    #: Human-readable detector name, overridden by subclasses.
    name = "detector"

    #: True when the detector participates in the sharded engine's
    #: replicate-synchronization / route-accesses protocol (see
    #: :mod:`repro.engine.partition`): fed every sync event, the accesses
    #: it owns and the accesses of variables marked by :meth:`mark_foreign`,
    #: a shard must reach the full run's clocks and its verdicts on the
    #: variables it owns.
    shardable = False

    #: True when accesses performed *inside critical sections* mutate the
    #: detector's clock state (WCP's Rule (a)), so the sharded engine must
    #: also send them to non-owner shards, marked foreign.  Detectors whose
    #: clocks only move on sync events (HB) leave this False;
    #: alone, they are never sent foreign accesses.
    needs_foreign_accesses = False

    #: True when the detector implements the versioned snapshot protocol
    #: (:meth:`state_snapshot` / :meth:`restore_state`), which is what the
    #: engine-level checkpoint/resume subsystem
    #: (:mod:`repro.engine.checkpoint`) and sharded worker restore build
    #: on.  Detectors whose state is unbounded or window-buffered leave
    #: this False and the engine refuses to checkpoint them up front.
    supports_snapshot = False

    #: Version stamp of the detector's snapshot *state layout*; bumped on
    #: any change so a stale snapshot fails fast instead of restoring into
    #: reinterpreted fields.
    snapshot_version = 0

    #: Set by the engines immediately before a ``reset`` that will be
    #: followed by :meth:`restore_state`: reset-time whole-trace
    #: precomputation (e.g. reading the trace's thread census) would be
    #: overwritten by the restore, so detectors may skip it.  Cleared by
    #: :meth:`restore_state`; a detector that honours the hint must stay
    #: correct (merely slower / more conservative) if no restore follows.
    restore_pending = False

    def __init__(self) -> None:
        self._report: Optional[RaceReport] = None
        self._cost_time_s = 0.0
        self._cost_events = 0

    # ------------------------------------------------------------------ #
    # Streaming API
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def reset(self, trace: Trace) -> None:
        """Prepare internal state for a fresh run over ``trace``.

        ``trace`` may be any trace-like object (see the module docstring);
        detectors that want to pre-scan the whole event sequence must first
        check ``getattr(trace, "is_complete", True)``.
        """

    @abc.abstractmethod
    def process(self, event: Event) -> None:
        """Process a single event, recording races into :attr:`report`."""

    def process_batch(self, events: Sequence[Event]) -> None:
        """Process a block of consecutive events, in order.

        The only entry point into a detector during a pass (engine and
        :meth:`run`).  An implementation must leave exactly the state and
        report that any other split of the same events into blocks would.
        The default calls :meth:`process` on each event.
        """
        process = self.process
        for event in events:
            process(event)

    def finish(self) -> None:
        """Hook called after the last event; default is a no-op."""

    def mark_foreign(self, variable: str) -> None:
        """Race-check no access of ``variable``: another shard owns it.

        A non-owner shard calls it (idempotent) before the variable's
        first access reaches :meth:`process_batch`.  The detector then
        applies those accesses' clock effects as the unsharded run does
        and records nothing for them.  Snapshots carry the marks.
        """
        raise NotImplementedError("%s has no mark_foreign" % self.name)

    def sync_clock_state(self) -> Optional[Dict[object, bytes]]:
        """Return the per-thread synchronization clocks, serialized.

        Part of the shard-boundary protocol: shardable detectors return a
        mapping from *thread name* to the serialized
        (:func:`repro.vectorclock.codec.encode_clock`) clock describing
        that thread's position in the synchronization order, normalized so
        that deferred local-clock bumps do not leak scheduling noise.
        Because the sharded engine replicates the synchronization skeleton
        (and WCP's clock-relevant accesses) to every shard, all shards must
        agree on this state at every batch boundary -- the engine merges the
        states (registry remap + pointwise join) and tests assert the
        agreement.  Detectors without meaningful clock state return None.
        """
        return None

    # ------------------------------------------------------------------ #
    # Snapshot protocol (checkpoint/resume, sharded worker restore)
    # ------------------------------------------------------------------ #

    def snapshot_config(self) -> Dict[str, object]:
        """Return the constructor kwargs that reproduce this configuration.

        The stamp serves two purposes: it travels in every snapshot
        header so a restore into a differently-configured detector fails
        fast (:class:`~repro.core.snapshot.SnapshotMismatchError`), and
        the sharded engine uses it to construct each worker's private
        detector instances -- ``type(d)(**d.snapshot_config())`` must be
        equivalent to ``d`` -- instead of pickling live objects.
        """
        return {}

    def state_snapshot(self) -> bytes:
        """Serialize the detector's complete mid-run state.

        The blob is self-contained (format-version header, configuration
        stamp, thread-interning table, clocks, access histories, report)
        and safe -- it travels through the shared codec
        (:mod:`repro.vectorclock.codec`), never pickle.  Restoring it in
        a fresh process with :meth:`restore_state` and replaying the
        remaining events must produce a report identical to an
        uninterrupted run.  Only meaningful between :meth:`reset` and
        :meth:`finish`.
        """
        raise SnapshotUnsupportedError(
            "detector %s (%s) does not support state snapshots"
            % (self.name, type(self).__name__)
        )

    def restore_state(self, blob: bytes) -> None:
        """Inverse of :meth:`state_snapshot`.

        Must be called after :meth:`reset` (which binds the pass context
        and its shared thread registry); the snapshot's state then
        replaces the freshly-reset state wholesale.  Raises
        :class:`~repro.core.snapshot.SnapshotMismatchError` when the blob
        was written by a different detector class, snapshot format
        version, or configuration.
        """
        raise SnapshotUnsupportedError(
            "detector %s (%s) does not support state snapshots"
            % (self.name, type(self).__name__)
        )

    def _thread_census(self, trace: Trace) -> Optional[ThreadCensus]:
        """The whole-trace :class:`~repro.trace.trace.ThreadCensus`, or None.

        A :class:`Trace` and a file's stream context have one (built once,
        on first request, and shared with every detector of the pass);
        other streams have none.  A pending restore brings the
        census-derived state in its snapshot, so none is taken then.
        """
        if self.restore_pending:
            return None
        return getattr(trace, "thread_census", None)

    @property
    def report(self) -> RaceReport:
        """The report being accumulated by the current run."""
        if self._report is None:
            raise RuntimeError("detector has not been reset with a trace yet")
        return self._report

    def _new_report(self, trace: Trace) -> RaceReport:
        self._report = RaceReport(self.name, trace.name)
        self._cost_time_s = 0.0
        self._cost_events = 0
        return self._report

    # ------------------------------------------------------------------ #
    # Engine hooks: cost accounting and snapshotting
    # ------------------------------------------------------------------ #

    def account_cost(self, seconds: float, events: int = 1) -> None:
        """Attribute ``seconds`` of analysis time (over ``events`` events).

        Called by the streaming engine once per stepped chunk around
        :meth:`process_batch` (and around :meth:`reset` and
        :meth:`finish`), so that a multi-detector single-pass run can
        still report a per-detector ``time_s``.
        """
        self._cost_time_s += seconds
        self._cost_events += events

    @property
    def cost_time_s(self) -> float:
        """Seconds attributed to this detector since the last reset."""
        return self._cost_time_s

    @property
    def cost_events(self) -> int:
        """Events attributed to this detector since the last reset."""
        return self._cost_events

    def snapshot(self, events: Optional[int] = None) -> ReportSnapshot:
        """Return a point-in-time view of the current report.

        ``events`` defaults to the number of events attributed through
        :meth:`account_cost` (which the engine keeps up to date chunk by
        chunk).
        """
        report = self.report
        return ReportSnapshot(
            detector_name=self.name,
            trace_name=report.trace_name,
            events=self._cost_events if events is None else events,
            races=report.count(),
            raw_races=report.raw_race_count,
            time_s=self._cost_time_s,
        )

    def finalize_stats(self, events: int, elapsed_s: float) -> RaceReport:
        """Record the normalized timing statistics on the current report.

        ``elapsed_s`` becomes ``stats["time_s"]``: this detector's reset,
        processing and finish time (see the module docstring) -- under
        the engine its attributed cost, not the pass's wall time.
        """
        report = self.report
        report.stats["time_s"] = elapsed_s
        report.stats["events"] = events
        report.stats["events_per_s"] = (
            events / elapsed_s if elapsed_s > 0.0 else 0.0
        )
        return report

    # ------------------------------------------------------------------ #
    # Batch API
    # ------------------------------------------------------------------ #

    def run(self, trace: Trace) -> RaceReport:
        """Run the detector over the whole trace and return its report.

        The trace is one :meth:`process_batch` block (a :class:`Trace`
        hands over its column block, ``trace.events``).  The timed region
        covers ``reset`` + processing + ``finish`` so that
        ``stats["time_s"]`` means the same thing for every detector
        regardless of where it does its work.
        """
        started = time.perf_counter()
        self.reset(trace)
        self.process_batch(getattr(trace, "events", trace))
        events = len(trace)
        self.finish()
        elapsed = time.perf_counter() - started
        self.account_cost(elapsed, events=events)
        return self.finalize_stats(events, elapsed)

    def __repr__(self) -> str:
        return "%s()" % type(self).__name__

"""Engine configuration: a small fluent builder.

An :class:`EngineConfig` collects everything a
:class:`~repro.engine.engine.RaceEngine` run needs besides the event
source: which detectors to drive, when to stop early, how often to emit
:class:`~repro.core.races.ReportSnapshot` objects, and how to shard or
checkpoint the pass.  All ``with_*`` / ``stop_*`` methods mutate and
return ``self`` so configurations read as one chain::

    config = (EngineConfig()
              .with_detectors("wcp", "hb")
              .stop_after_races(1)
              .snapshot_every(10_000))
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from repro.core.detector import Detector
from repro.core.races import ReportSnapshot

#: What a run accepts as a detector selection entry.
DetectorSpec = Union[str, Detector]


class EngineConfig:
    """Builder for :class:`~repro.engine.engine.RaceEngine` runs.

    Defaults: WCP + HB (the paper's primary comparison), no early stop,
    no snapshots.
    """

    def __init__(self) -> None:
        self.detectors: Optional[List[DetectorSpec]] = None
        #: Stop once any detector has found this many distinct race pairs.
        self.race_budget: Optional[int] = None
        #: Stop after this many events from the source.
        self.event_budget: Optional[int] = None
        #: Emit a snapshot per detector every N events (None disables).
        self.snapshot_interval: Optional[int] = None
        #: Optional callback invoked with each ReportSnapshot as emitted.
        self.snapshot_callback: Optional[Callable[[ReportSnapshot], None]] = None
        #: Shard the pass across this many worker engines (1 = unsharded;
        #: see :class:`~repro.engine.sharding.ShardedEngine`).
        self.shards: int = 1
        #: Shard transport: "process" (multi-core) or "serial" (inline,
        #: the deterministic reference).
        self.shard_mode: str = "process"
        #: Events per transport batch.
        self.shard_batch_size: int = 1024
        #: Deterministic fault injection plan
        #: (:class:`~repro.engine.faults.FaultPlan`; None = no faults).
        self.fault_plan = None
        #: Directory for periodic detector-state checkpoints (None
        #: disables checkpointing; see :mod:`repro.engine.checkpoint`).
        self.checkpoint_dir = None
        #: Events between checkpoints when ``checkpoint_dir`` is set.
        self.checkpoint_every: int = 10_000
        #: Newest checkpoints retained on disk.
        self.checkpoint_keep: int = 3

    # ------------------------------------------------------------------ #
    # Fluent setters
    # ------------------------------------------------------------------ #

    def with_detectors(self, *detectors: DetectorSpec) -> "EngineConfig":
        """Select the detectors to drive (names or instances)."""
        if len(detectors) == 1 and isinstance(detectors[0], (list, tuple)):
            detectors = tuple(detectors[0])
        if not detectors:
            raise ValueError("with_detectors requires at least one detector")
        self.detectors = list(detectors)
        return self

    def stop_on_first_race(self) -> "EngineConfig":
        """Stop the pass as soon as any detector reports a race."""
        return self.stop_after_races(1)

    def stop_after_races(self, budget: int) -> "EngineConfig":
        """Stop once any detector has found ``budget`` distinct race pairs."""
        if budget <= 0:
            raise ValueError("race budget must be positive")
        self.race_budget = budget
        return self

    def stop_after_events(self, budget: int) -> "EngineConfig":
        """Stop after ``budget`` events have been taken from the source."""
        if budget <= 0:
            raise ValueError("event budget must be positive")
        self.event_budget = budget
        return self

    def snapshot_every(
        self,
        interval: int,
        callback: Optional[Callable[[ReportSnapshot], None]] = None,
    ) -> "EngineConfig":
        """Emit per-detector snapshots every ``interval`` events.

        Snapshots are collected on the run result; ``callback`` is
        additionally invoked with each one as it is taken.
        """
        if interval <= 0:
            raise ValueError("snapshot interval must be positive")
        self.snapshot_interval = interval
        if callback is not None:
            self.snapshot_callback = callback
        return self

    def with_checkpoints(
        self,
        directory,
        every: int = 10_000,
        keep: int = 3,
    ) -> "EngineConfig":
        """Persist detector-state checkpoints into ``directory``.

        Every ``every`` events the engine snapshots all detectors through
        the versioned snapshot protocol and atomically writes an
        offset-keyed checkpoint file, retaining the newest ``keep``.  A
        crashed run resumes from the newest checkpoint with
        :func:`repro.api.resume_engine` (or ``analyze --resume``).
        Requires every selected detector to support snapshots.
        """
        if every <= 0:
            raise ValueError("checkpoint cadence must be positive")
        if keep <= 0:
            raise ValueError("must keep at least one checkpoint")
        self.checkpoint_dir = directory
        self.checkpoint_every = every
        self.checkpoint_keep = keep
        return self

    def with_shards(
        self,
        shards: int,
        mode: Optional[str] = None,
        batch_size: Optional[int] = None,
    ) -> "EngineConfig":
        """Shard the pass across ``shards`` worker engines.

        ``mode`` selects the transport ("process" or "serial") and
        ``batch_size`` the events per transport batch.  Variables are
        partitioned by the crc32 of their name
        (:func:`~repro.engine.partition.owner_of`).
        ``shards=1`` keeps the unsharded engine (byte-identical output).
        """
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        if mode is not None:
            self.shard_mode = mode
        if batch_size is not None:
            if batch_size < 1:
                raise ValueError("shard batch size must be positive")
            self.shard_batch_size = batch_size
        return self

    def with_fault_plan(self, plan) -> "EngineConfig":
        """Attach a deterministic fault-injection plan to the run.

        ``plan`` is a :class:`~repro.engine.faults.FaultPlan`; the
        sharded engine's worker kills and the run supervisor's
        coordinator kills fire at fixed positions, so the same plan
        reproduces the same failure every run.
        """
        self.fault_plan = plan
        return self

    # ------------------------------------------------------------------ #
    # Resolution helpers (used by the engine)
    # ------------------------------------------------------------------ #

    def resolve_detectors(
        self, override: Optional[Sequence[DetectorSpec]] = None
    ) -> List[Detector]:
        """Instantiate the configured (or overriding) detector selection."""
        # Imported lazily: repro.api imports repro.engine at module load.
        from repro.api import make_detector

        selection = list(override) if override is not None else self.detectors
        if selection is None:
            selection = ["wcp", "hb"]
        if not selection:
            raise ValueError("engine run requires at least one detector")
        resolved: List[Detector] = []
        for entry in selection:
            if isinstance(entry, Detector):
                resolved.append(entry)
            elif isinstance(entry, str):
                resolved.append(make_detector(entry))
            else:
                raise TypeError(
                    "detector entry must be a name or Detector instance, "
                    "got %r" % (type(entry).__name__,)
                )
        return resolved

    def __repr__(self) -> str:
        parts = []
        if self.detectors is not None:
            parts.append("detectors=%r" % (self.detectors,))
        if self.race_budget is not None:
            parts.append("race_budget=%d" % self.race_budget)
        if self.event_budget is not None:
            parts.append("event_budget=%d" % self.event_budget)
        if self.snapshot_interval is not None:
            parts.append("snapshot_every=%d" % self.snapshot_interval)
        if self.shards != 1:
            parts.append("shards=%d[%s]" % (self.shards, self.shard_mode))
        if self.fault_plan is not None:
            parts.append("fault_plan=%r" % (self.fault_plan,))
        if self.checkpoint_dir is not None:
            parts.append(
                "checkpoint=%r/%d" % (str(self.checkpoint_dir), self.checkpoint_every)
            )
        return "EngineConfig(%s)" % ", ".join(parts)

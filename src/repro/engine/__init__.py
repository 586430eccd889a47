"""The streaming race engine: one pass, many detectors, pluggable sources.

This subsystem is the architectural core the paper's linear-time claim
deserves: instead of materialising a :class:`~repro.trace.trace.Trace`
and re-iterating it once per detector, a
:class:`~repro.engine.engine.RaceEngine` takes any
:class:`~repro.engine.sources.EventSource` -- an in-memory trace, a
lazily-parsed log file, a live simulator run -- and multiplexes the
events into N detectors during a **single** iteration, with incremental
:class:`~repro.core.races.ReportSnapshot` emission and early-stop
policies (first race / race budget / event budget) configured through the
fluent :class:`~repro.engine.config.EngineConfig` builder.

The top-level helpers :func:`repro.api.detect_races` and
:func:`repro.api.compare_detectors` are thin wrappers over this engine.

Names are resolved lazily (see :mod:`repro._lazy`): importing the package
loads none of its modules, so a batch or ``--stream`` pass never loads the
sharded engine, the run supervisor or the asynchronous engine.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.engine.engine": [
        "RaceEngine", "EnginePass", "EngineResult", "StreamContext",
        "STOP_EXHAUSTED", "STOP_RACE_BUDGET", "STOP_EVENT_BUDGET",
    ],
    "repro.engine.async_engine": ["AsyncRaceEngine"],
    "repro.engine.sharding": ["ShardedEngine", "ShardedResult"],
    "repro.engine.checkpoint": [
        "Checkpoint", "Checkpointer", "CheckpointError",
        "CheckpointMismatchError",
    ],
    "repro.engine.runner": ["CoordinatorFailure", "RunSupervisor"],
    "repro.engine.config": ["EngineConfig"],
    "repro.engine.faults": ["Fault", "FaultPlan", "WorkerDied"],
    "repro.engine.supervision": ["SupervisionSettings", "WorkerFailure"],
    "repro.core.races": ["ReportSnapshot"],
    "repro.engine.sources": [
        "EventSource", "AsyncEventSource", "TraceSource", "FileSource",
        "IterableSource", "SimulatorSource", "CountingSource", "QueueSource",
        "LineProtocolSource", "as_source", "as_async_source",
    ],
    "repro.engine.validate": ["OnlineValidator", "ValidatingSource"],
    "repro.engine.partition": [
        "PartitionPolicy", "HashPartition", "RoundRobinPartition",
        "ExplicitPartition", "StreamPartitioner", "make_policy",
    ],
})

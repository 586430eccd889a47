"""repro -- a reproduction of "Dynamic Race Prediction in Linear Time" (PLDI 2017).

The package implements the Weak-Causally-Precedes (WCP) partial order and
its linear-time vector-clock detection algorithm, together with every
baseline and substrate the paper's evaluation relies on: happens-before,
Causally-Precedes, an Eraser lockset detector, an
RVPredict-like windowed maximal-causal-model predictor, a
correct-reordering witness engine, a concurrent-program simulator and the
synthetic benchmark suite used to regenerate Table 1 and Figure 7.

Quickstart
----------
>>> from repro import TraceBuilder, detect_races
>>> trace = (TraceBuilder()
...          .write("t1", "y")
...          .acquire("t1", "l").read("t1", "x").release("t1", "l")
...          .acquire("t2", "l").read("t2", "x").release("t2", "l")
...          .read("t2", "y")
...          .build())
>>> report = detect_races(trace)            # WCP by default
>>> report.count()
1

Lazy loading
------------
Importing ``repro`` (or ``repro.engine``, ``repro.core``, ``repro.trace``,
``repro.hb``, ``repro.vectorclock``, ``repro.analysis``) loads no
submodule: every name in ``__all__`` is resolved from its defining module
on first use (PEP 562), so a program pays only for the layers it runs.
``repro-race analyze FILE`` loads the parsers, the trace model, the engine
pass and the selected detectors; serving, sharding, the run supervisor,
the benchmark suite, the simulator, the windowed baselines (CP, MCM) and
the witness search load only when a subcommand or call needs them (see
:mod:`repro.cli`).  Clock-kernel governance (``REPRO_CLOCK_KERNEL``, see
:mod:`repro.vectorclock.kernels`) runs when the first detector module
loads the dense clock, so a bad setting fails the first command that
runs a detector, not ``--help``.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.trace.event": ["Event", "EventType"],
    "repro.trace.trace": ["Trace"],
    "repro.trace.builder": ["TraceBuilder"],
    "repro.trace.parsers": ["load_trace", "parse_std", "parse_csv"],
    "repro.trace.writers": ["write_std", "write_csv", "dump_trace"],
    "repro.core.detector": ["Detector"],
    "repro.core.races": ["RacePair", "RaceReport", "ReportSnapshot"],
    "repro.core.wcp": ["WCPDetector"],
    "repro.core.closure": ["WCPClosure"],
    "repro.hb.hb": ["HBDetector"],
    "repro.cp.detector": ["CPDetector"],
    "repro.cp.closure": ["CPClosure"],
    "repro.lockset.eraser": ["EraserDetector"],
    "repro.mcm.predictor": ["MCMPredictor"],
    "repro.engine.engine": ["RaceEngine", "EngineResult"],
    "repro.engine.sharding": ["ShardedEngine", "ShardedResult"],
    "repro.engine.checkpoint": [
        "Checkpoint", "Checkpointer", "CheckpointError",
        "CheckpointMismatchError",
    ],
    "repro.engine.runner": ["CoordinatorFailure", "RunSupervisor"],
    "repro.engine.config": ["EngineConfig"],
    "repro.engine.faults": ["Fault", "FaultPlan", "WorkerDied"],
    "repro.engine.supervision": ["WorkerFailure"],
    "repro.engine.sources": [
        "EventSource", "TraceSource", "FileSource", "IterableSource",
        "SimulatorSource", "CountingSource", "QueueSource",
        "LineProtocolSource", "as_source",
    ],
    "repro.engine.validate": ["OnlineValidator", "ValidatingSource"],
    "repro.api": [
        "detect_races", "compare_detectors", "available_detectors",
        "make_detector", "resume_engine", "run_engine", "start_race_server",
    ],
    "repro.client": [
        "PushError", "PushOutcome", "RaceClient", "RetriesExhausted",
        "push_trace",
    ],
    "repro.serve.quotas": ["Overloaded", "QuotaManager", "TenantQuota"],
    "repro.serve.server": ["RaceServer", "ServeSettings"],
    "repro.serve.metrics": ["ServeMetrics"],
    "repro.serve.sessions": ["SessionManager", "StreamSession"],
})
__all__.append("__version__")

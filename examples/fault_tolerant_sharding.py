#!/usr/bin/env python
"""Fault-tolerant sharded analysis: a worker dies mid-run, nothing is lost.

A sharded pass (:class:`~repro.engine.ShardedEngine`) restarts nothing
itself: a shard worker that dies ends the pass at once with one
actionable :class:`~repro.engine.WorkerFailure` naming the shard.  The
one recovery mechanism is the run supervisor
(:class:`~repro.engine.RunSupervisor`, the machinery behind ``analyze
--auto-resume``), which treats that failure as a crash and resumes the
run from its newest checkpoint.  Using the deterministic fault-injection
harness (:mod:`repro.engine.faults`), this demo shows:

1. a **worker killed mid-run** (a real ``os._exit`` in process mode --
   the coordinator sees the pipe break, exactly like a SIGKILL) without
   a supervisor: one ``WorkerFailure``, never a raw ``EOFError``;
2. the **same kill under the run supervisor**: the attempt dies, the
   next one resumes from the newest checkpoint, and the report is
   **identical** to the fault-free run;
3. **two workers killed** in successive attempts: two restarts, the same
   report.

Run with::

    python examples/fault_tolerant_sharding.py
"""

import random
import tempfile

from repro import (
    EngineConfig,
    Event,
    EventType,
    RunSupervisor,
    ShardedEngine,
    Trace,
    WorkerFailure,
)
from repro.engine.faults import Fault, FaultPlan

SHARDS = 4


def build_workload(n_threads=6, bursts=400, run_length=24, seed=11):
    """Mostly-partitionable work (per-thread variables, one shared
    lock-protected counter, a couple of deliberate races)."""
    rng = random.Random(seed)
    events = []
    threads = ["worker%d" % i for i in range(n_threads)]
    for burst in range(bursts):
        thread = threads[burst % n_threads]
        for _ in range(run_length):
            var = "%s_slot%d" % (thread, rng.randrange(4))
            etype = EventType.READ if rng.random() < 0.5 else EventType.WRITE
            events.append(Event(-1, thread, etype, var, loc="app.py:%s" % var))
        events.append(Event(-1, thread, EventType.ACQUIRE, "shared_lock",
                            loc="app.py:acq"))
        events.append(Event(-1, thread, EventType.WRITE, "shared_counter",
                            loc="app.py:counter"))
        events.append(Event(-1, thread, EventType.RELEASE, "shared_lock",
                            loc="app.py:rel"))
        if burst % 120 == 17:
            events.append(Event(-1, thread, EventType.WRITE, "shared_counter",
                                loc="app.py:oops"))
    return Trace(events, validate=False, name="fault_demo")


def config(plan=None):
    """A sharded configuration in the process transport."""
    built = EngineConfig().with_shards(SHARDS, mode="process", batch_size=128)
    if plan is not None:
        built.with_fault_plan(plan)
    return built


def signature(report):
    return (sorted(tuple(sorted(k)) for k in report.location_pairs()),
            report.raw_race_count)


def supervised(trace, plan):
    """Run the sharded pass under the run supervisor, checkpointing
    every 2,000 events into a scratch directory."""
    with tempfile.TemporaryDirectory(prefix="fault-demo-") as directory:
        supervisor = RunSupervisor(
            trace, ["wcp"], config=config(), checkpoint_dir=directory,
            checkpoint_every=2000, retries=2, backoff_s=0.0,
            fault_plan=plan,
        )
        return supervisor, supervisor.run()


def main():
    trace = build_workload()
    reference = ShardedEngine(config()).run(trace, detectors=["wcp"])
    print("fault-free %d-shard run: %d event(s), %d distinct WCP race(s)"
          % (SHARDS, reference.events, reference["WCP"].count()))

    # --- 1: without a supervisor, a dead worker ends the pass. --------- #
    print("\n1. killing shard 1's worker after its 1,400th event...")
    try:
        ShardedEngine(
            config(FaultPlan.kill(1, at_event=1400))
        ).run(trace, detectors=["wcp"])
    except WorkerFailure as exc:
        print("  WorkerFailure: %s" % exc)

    # --- 2: the same kill under the run supervisor. -------------------- #
    print("\n2. the same kill under the run supervisor (--auto-resume)...")
    plan = FaultPlan.kill(1, at_event=1400)
    supervisor, killed = supervised(trace, plan)
    print("  restarts=%d, every planned fault fired: %s"
          % (supervisor.restarts, not plan.unfired()))
    print("  report identical to fault-free run: %s"
          % (signature(killed["WCP"]) == signature(reference["WCP"])))

    # --- 3: one worker per attempt, twice. ----------------------------- #
    print("\n3. killing shard 0's worker, then shard 2's in the resumed "
          "attempt...")
    plan = FaultPlan([Fault.kill_worker(0, 1000), Fault.kill_worker(2, 3000)])
    supervisor, twice = supervised(trace, plan)
    print("  restarts=%d, report identical to fault-free run: %s"
          % (supervisor.restarts,
             signature(twice["WCP"]) == signature(reference["WCP"])))

    print("\nsummary of run 3:\n%s" % twice.summary())


if __name__ == "__main__":
    main()

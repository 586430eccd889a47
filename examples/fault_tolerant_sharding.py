#!/usr/bin/env python
"""Fault-tolerant sharded analysis: kill workers mid-run, lose nothing.

Walks through the sharded engine's supervision layer
(:mod:`repro.engine.supervision`) using the deterministic
fault-injection harness (:mod:`repro.engine.faults`):

1. a **worker killed mid-run** (a real ``os._exit`` in process mode --
   the coordinator sees the pipe break, exactly like a SIGKILL) is
   restarted, its state restored, the lost batches replayed from the
   coordinator's replay buffer, and the merged report is **identical**
   to the fault-free run;
2. a **corrupted snapshot** (bit-flipped blob, caught by the CRC frame)
   makes failover fall back to an older snapshot -- or the stream start
   -- and the report is *still* identical;
3. when recovery is impossible (retry budget exhausted) or switched
   off (``retries=0``, which fails fast at the first death and keeps
   no snapshots or replay buffer), the run fails with one actionable
   :class:`~repro.engine.WorkerFailure`, never a raw ``EOFError``.

Run with::

    python examples/fault_tolerant_sharding.py
"""

import logging
import random

from repro import (
    EngineConfig,
    Event,
    EventType,
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


def config(plan=None, retries=2, mode="process"):
    """A supervised sharded configuration; small batches so the
    snapshot cadence lands well before the injected faults."""
    built = EngineConfig().with_shards(SHARDS, mode=mode, batch_size=128)
    built.with_shard_supervision(retries=retries, snapshot_every=8,
                                 backoff_s=0.0)
    if plan is not None:
        built.with_fault_plan(plan)
    return built


def signature(report):
    return (sorted(tuple(sorted(k)) for k in report.location_pairs()),
            report.raw_race_count)


def main():
    # The supervisor narrates restarts at WARNING level.
    logging.basicConfig(format="  [supervisor] %(message)s")
    trace = build_workload()
    reference = ShardedEngine(config()).run(trace, detectors=["wcp"])
    print("fault-free %d-shard run: %d event(s), %d distinct WCP race(s)"
          % (SHARDS, reference.events, reference["WCP"].count()))

    # --- 1: kill a live worker; the report must not change. ------------ #
    print("\n1. killing shard 1's worker after its 1,400th event...")
    killed = ShardedEngine(
        config(FaultPlan.kill(1, at_event=1400))
    ).run(trace, detectors=["wcp"])
    sup = killed.supervision
    print("  restarts=%d (by shard: %r), heartbeat timeouts=%d"
          % (sup["worker_restarts"], sup["restarts_by_shard"],
             sup["heartbeat_timeouts"]))
    print("  report identical to fault-free run: %s"
          % (signature(killed["WCP"]) == signature(reference["WCP"])))

    # --- 2: corrupt the snapshot failover would use. ------------------- #
    print("\n2. bit-flipping shard 1's first snapshot, then killing it...")
    corrupted = ShardedEngine(
        config(FaultPlan([Fault.corrupt_snapshot(1, 0),
                          Fault.kill_worker(1, 1400)]))
    ).run(trace, detectors=["wcp"])
    sup = corrupted.supervision
    print("  restarts=%d, snapshot fallbacks=%d (CRC caught the corrupt "
          "blob)" % (sup["worker_restarts"], sup["snapshot_fallbacks"]))
    print("  report identical to fault-free run: %s"
          % (signature(corrupted["WCP"]) == signature(reference["WCP"])))

    # --- 3: unrecoverable failures are one actionable error. ----------- #
    print("\n3. same kill, failing fast (retries=0)...")
    try:
        ShardedEngine(
            config(FaultPlan.kill(1, at_event=1400), retries=0)
        ).run(trace, detectors=["wcp"])
    except WorkerFailure as exc:
        print("  WorkerFailure: %s" % exc)

    print("\nsummary of run 2:\n%s" % corrupted.summary())


if __name__ == "__main__":
    main()

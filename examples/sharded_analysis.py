#!/usr/bin/env python
"""Sharded multi-core race prediction: one stream, N worker engines.

Walks through the :class:`~repro.engine.ShardedEngine`:

1. the **event taxonomy** -- synchronization events are replicated to
   every shard, accesses are routed to the shard owning the variable
   (clock-relevant accesses additionally travel to the other shards as
   clock-only *foreign* events for WCP);
2. **parity** -- the sharded run reports exactly the races of the single
   engine, shard count and transport notwithstanding;
3. the **shard-boundary protocol** -- per-worker registries and clocks
   are merged into one coherent view, and all workers provably agree on
   the synchronization frontier;
4. **scaling accounting** -- the taxonomy census and the work-bound
   speedup (`events / max(shard_events)`), which tells you what a given
   workload can gain from sharding before you burn a single extra core.

Run with::

    python examples/sharded_analysis.py
"""

import random

from repro import Event, EventType, RaceEngine, ShardedEngine, Trace


def build_workload(n_threads=6, bursts=120, run_length=24, seed=7):
    """Mostly-partitionable work: per-thread variables with occasional
    shared, lock-protected state (and two deliberately racy writes)."""
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
        if burst % 40 == 17:
            # An unprotected touch of the shared counter: a real race.
            events.append(Event(-1, thread, EventType.WRITE, "shared_counter",
                                loc="app.py:oops"))
    return Trace(events, validate=False, name="sharded_demo")


def main():
    trace = build_workload()
    detectors = ["wcp", "hb"]

    # --- 1 + 2: single engine vs sharded engine, identical verdicts. --- #
    single = RaceEngine().run(trace, detectors=detectors)
    sharded = ShardedEngine(shards=4, mode="process").run(
        trace, detectors=detectors
    )
    print(sharded.summary())
    print()
    for name in single.keys():
        left = sorted(tuple(sorted(k)) for k in single[name].location_pairs())
        right = sorted(tuple(sorted(k)) for k in sharded[name].location_pairs())
        status = "identical" if left == right else "MISMATCH!"
        print("%-10s single=%d race(s)  4-shard=%d race(s)  -> %s"
              % (name, single[name].count(), sharded[name].count(), status))

    # --- 3: the shard-boundary protocol's merged view. ----------------- #
    print("\nMerged registry: %d thread(s): %s"
          % (len(sharded.registry), ", ".join(map(str, sharded.registry))))
    wcp_clocks = sharded.clock_state["WCP"]
    some_thread = sorted(wcp_clocks)[0]
    print("Merged WCP frontier of %s: %s" % (some_thread, wcp_clocks[some_thread]))
    views = sharded.shard_clock_views(0)
    common = set.intersection(*(set(view) for view in views))
    agree = all(
        len({str(view[t]) for view in views}) == 1 for t in common
    )
    print("All %d shards agree on %d commonly-known thread clock(s): %s"
          % (len(views), len(common), agree))

    # --- 4: what the taxonomy says about scalability. ------------------ #
    census = sharded.partition_stats
    total = sum(census.values())
    print("\nEvent taxonomy: %d replicated (%.1f%%), %d routed, "
          "%d clock-relevant routed"
          % (census["replicated"], 100.0 * census["replicated"] / total,
             census["routed"], census["routed_clock"]))
    print("Events per shard: %s (of %d source events)"
          % (sharded.shard_events, sharded.events))
    print("Work-bound speedup at 4 shards: x%.2f "
          "(wall-clock approaches this as cores allow)"
          % sharded.work_speedup_bound())


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Hot-path throughput benchmark and perf-regression gate.

Measures detector throughput (events/sec) on three synthetic workloads
that bracket the cost spectrum of Algorithm 1:

* ``high_contention`` -- every thread hammers a handful of shared
  variables inside critical sections of one shared lock: Rule (a) and
  Rule (b) fire constantly, and clock knowledge flows between all
  threads.  This is the workload the hot-path overhaul (interned tids,
  dense clocks, incremental ``C_t``, chain-collapsed Rule (a)/(b) joins)
  targets.
* ``racy_mix`` -- protected sections plus unprotected conflicting
  accesses, so reports are non-empty and the differential check (below)
  covers the racy attribution path too.
* ``thread_local`` -- each thread works on private variables under a
  private lock: the epoch fast path should make race checks O(1) and the
  queue pruning keeps the logs empty.

Both workloads use small, fixed program-location sets (like real logger
traces) so the access history stays bounded.

Detectors measured: the optimised WCP (``wcp_dense``), the frozen
pre-overhaul implementation (``wcp_legacy``, see
:mod:`repro.core.wcp_legacy`), plus ``hb_dense`` and ``hb_python`` (the
same HB detector with its compiled kernel switched off) for context.  The two WCP implementations are also differentially checked
for identical race reports while we're at it.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick     # record BENCH_hotpath.json (median of 3 runs)
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick --check
                                                                  # CI gate vs the checked-in baseline
    PYTHONPATH=src python benchmarks/bench_hotpath.py             # full run (larger traces), print only
    PYTHONPATH=src python benchmarks/bench_hotpath.py --output F  # full run, write F

The regression gate compares the *relative* speedup of ``wcp_dense`` over
``wcp_legacy`` against the checked-in baseline's speedup (absolute
events/sec are machine-dependent; the in-run ratio is not): the check
fails when the measured speedup drops below ``1 - TOLERANCE`` (30%) of
the baseline's on any workload.  The floor is the only criterion, and it
compares like with like: the ratios depend on the trace length (on
``thread_local`` the 8k-event ratio is about twice the 40k-event one,
on ``high_contention`` lower), so the checked-in baseline is recorded
with ``--quick``, the mode CI checks, as the median of three runs, and
``--check`` refuses a baseline recorded in the other mode.

A second, stricter **kernel gate** rides along: on ``high_contention``
the dense/legacy ratio must be at least 1.5x the ratio recorded before
the compiled clock kernels existed (``PRE_KERNEL_SPEEDUPS``) -- the
machine-independent statement that ``wcp_dense`` runs >= 1.5x its
pre-kernel events/sec.  The gate only applies while the cffi kernels are
active; a deliberate ``REPRO_CLOCK_KERNEL=python`` fallback skips it
with a notice, and the emitted JSON records ``kernel_backend`` so CI can
fail on an *accidental* fallback.

An **HB kernel gate** does the same for HB, which runs in the WCP
kernel's HB mode: on ``high_contention`` the in-run ratio
``hb_dense / hb_python`` -- the same detector, on its Python path --
must stay above ``1 - TOLERANCE`` of the baseline's.  A silent HB
fallback puts it back near 1.

A **row gate** checks which path ran rather than how fast: with the cffi
kernels ``--check`` fails when ``wcp_dense`` or ``hb_dense`` ran fewer
rows in the compiled kernel (``CompiledPass.kernel_rows``) than a
workload's trace has.  Unlike the timing floors it is deterministic: a
Python-path WCP fails it on any machine.

Sharded mode
------------
``--sharded`` switches to the multi-core benchmark: WCP throughput on the
*partitionable* workload (threads working mostly on disjoint variables
outside critical sections, with occasional shared critical sections) at
1, 2 and 4 shards via the :class:`~repro.engine.ShardedEngine` process
transport, written to ``BENCH_shard.json``.  ``--sharded --check`` gates
on two criteria:

* **work-bound** (deterministic, machine-independent): the partition
  quality ``events / max(shard_events)`` at 4 shards must be >= 1.5x --
  this bounds the achievable parallel speedup and fails if the
  replication taxonomy regresses (e.g. events needlessly replicated);
* **wall-clock**: 4-shard events/sec must be >= 1.5x single-shard,
  enforced only when the machine exposes >= 4 usable cores (on smaller
  runners real parallel speedup is physically impossible and the check
  is skipped with a notice);
* **supervision overhead**: a 4-shard run with failover disabled
  (``retries=0``) may be at most 5% faster than the default supervised
  run -- the health tracking and replay buffering must stay off the hot
  path when no faults fire.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from pathlib import Path

from repro.core.wcp import WCPDetector
from repro.core.wcp_legacy import LegacyWCPDetector
from repro.engine import EngineConfig, RaceEngine, ShardedEngine
from repro.hb import HBDetector
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.vectorclock import kernels

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_hotpath.json"
DEFAULT_SHARD_BASELINE = REPO_ROOT / "BENCH_shard.json"

#: Required 4-shard speedup (work-bound always; wall-clock with >=4 cores).
SHARD_SPEEDUP_FLOOR = 1.5
SHARD_COUNTS = (1, 2, 4)

#: Max allowed fault-free supervision cost: unsupervised throughput may
#: be at most 5% above the supervised run's (both measured best-of-N).
SUPERVISION_OVERHEAD_CEILING = 1.05

#: Allowed relative drop of the dense-vs-legacy speedup before CI fails.
TOLERANCE = 0.30

#: Dense-vs-legacy speedups recorded in ``BENCH_hotpath.json`` *before*
#: the compiled clock kernels / batch decoding landed, frozen here as the
#: kernel gate's denominator.  Absolute events/sec are machine-dependent
#: (the checked-in numbers came from a differently-loaded machine), but
#: the dense/legacy ratio is not: ``wcp_legacy`` runs in the same process
#: on the same trace, so it normalizes machine speed away.  The kernel
#: gate requires the measured ratio to be at least ``KERNEL_GAIN_FLOOR``
#: times these pre-kernel ratios -- the machine-independent form of
#: "wcp_dense is >= 1.5x its pre-kernel events/sec".
PRE_KERNEL_SPEEDUPS = {
    "high_contention": 2.875,
    "racy_mix": 2.121,
    "thread_local": 1.461,
}
KERNEL_GAIN_FLOOR = 1.5
#: The kernel gate is enforced on this workload (the one the kernels
#: target); the others are reported for context.
KERNEL_GATE_WORKLOAD = "high_contention"

#: A recorded baseline takes each ratio's median over this many runs, so
#: that one noisy run does not set the floors.
RECORD_RUNS = 3

FULL_EVENTS = 40000
QUICK_EVENTS = 8000
FULL_REPEATS = 5
QUICK_REPEATS = 10
#: Each detector runs for at least this long in every round, so that a
#: compiled detector's best run is the best of many: the best of three
#: millisecond-long quick runs swung by a third with machine noise.
MIN_ROUND_S = 0.05


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #

def high_contention_trace(n_events: int, n_threads: int = 12, n_vars: int = 6) -> Trace:
    """All threads read+write shared variables under one shared lock.

    The variable per critical section is drawn from a *seeded* RNG so
    every thread touches every variable (a deterministic cycle would
    correlate with the thread round-robin and halve the contention).
    """
    rng = random.Random(12345)
    events = []
    threads = ["t%d" % i for i in range(n_threads)]
    section = 0
    while len(events) < n_events:
        thread = threads[section % n_threads]
        choice = rng.randrange(n_vars)
        variable = "x%d" % choice
        loc = "hc.py:%d" % choice
        events.append(Event(-1, thread, EventType.ACQUIRE, "l", loc="hc.py:acq"))
        events.append(Event(-1, thread, EventType.READ, variable, loc=loc + ":r"))
        events.append(Event(-1, thread, EventType.WRITE, variable, loc=loc + ":w"))
        events.append(Event(-1, thread, EventType.RELEASE, "l", loc="hc.py:rel"))
        section += 1
    return Trace(events, validate=False, name="high_contention")


def racy_mix_trace(n_events: int, n_threads: int = 8, n_vars: int = 4) -> Trace:
    """Protected sections interleaved with unprotected racy accesses.

    Exists mainly so the differential check (dense / legacy must report
    identical races) exercises non-empty reports and the racy
    attribution path, not just the no-race fast path.
    """
    rng = random.Random(99)
    events = []
    threads = ["t%d" % i for i in range(n_threads)]
    section = 0
    while len(events) < n_events:
        thread = threads[section % n_threads]
        choice = rng.randrange(n_vars)
        variable = "x%d" % choice
        loc = "rm.py:%d" % choice
        events.append(Event(-1, thread, EventType.ACQUIRE, "l", loc="rm.py:acq"))
        events.append(Event(-1, thread, EventType.WRITE, variable, loc=loc + ":w"))
        events.append(Event(-1, thread, EventType.RELEASE, "l", loc="rm.py:rel"))
        # Two racer threads never synchronize at all: their writes to the
        # shared "u" variables are guaranteed WCP races (the lock-using
        # threads above are transitively ordered through l, so their
        # unprotected accesses would not reliably race).
        if section % 4 == 0:
            racer = "racer%d" % (section // 4 % 2)
            slot = section // 4 % 3
            events.append(Event(-1, racer, EventType.WRITE, "u%d" % slot,
                                loc="rm.py:%s:%d" % (racer, slot)))
        section += 1
    return Trace(events, validate=False, name="racy_mix")


def thread_local_trace(n_events: int, n_threads: int = 8) -> Trace:
    """Each thread works on private variables under a private lock."""
    events = []
    section = 0
    while len(events) < n_events:
        thread = "t%d" % (section % n_threads)
        lock = "m_%s" % thread
        variable = "y_%s" % thread
        events.append(Event(-1, thread, EventType.ACQUIRE, lock, loc="tl.py:acq"))
        events.append(Event(-1, thread, EventType.READ, variable, loc="tl.py:r"))
        events.append(Event(-1, thread, EventType.WRITE, variable, loc="tl.py:w"))
        events.append(Event(-1, thread, EventType.RELEASE, lock, loc="tl.py:rel"))
        section += 1
    return Trace(events, validate=False, name="thread_local")


def partitionable_trace(n_events: int, n_threads: int = 8,
                        vars_per_thread: int = 8, run_length: int = 64) -> Trace:
    """The sharded benchmark workload: mostly-disjoint unprotected work.

    Each thread runs bursts of ``run_length`` unprotected accesses over
    its private variable set, punctuated by a short critical section on a
    shared lock updating a shared counter.  The access bursts route to
    their owner shards; only the (rare) synchronization skeleton and
    in-section accesses replicate -- the shape sharding is built for
    (embarrassingly parallel workers with occasional shared state).

    Two racer threads that never synchronize write shared ``u*``
    variables every 16 bursts: guaranteed WCP races, so the differential
    check between shard counts compares *non-empty* reports (a routing
    bug that splits a variable's history across shards would drop them).
    """
    rng = random.Random(4242)
    events = []
    threads = ["t%d" % i for i in range(n_threads)]
    burst = 0
    while len(events) < n_events:
        thread = threads[burst % n_threads]
        for _ in range(run_length):
            variable = "%s_v%d" % (thread, rng.randrange(vars_per_thread))
            loc = "sh.py:%s" % variable
            if rng.random() < 0.5:
                events.append(Event(-1, thread, EventType.READ, variable,
                                    loc=loc + ":r"))
            else:
                events.append(Event(-1, thread, EventType.WRITE, variable,
                                    loc=loc + ":w"))
        events.append(Event(-1, thread, EventType.ACQUIRE, "shared",
                            loc="sh.py:acq"))
        events.append(Event(-1, thread, EventType.WRITE, "counter",
                            loc="sh.py:counter"))
        events.append(Event(-1, thread, EventType.RELEASE, "shared",
                            loc="sh.py:rel"))
        if burst % 16 == 0:
            racer = "racer%d" % (burst // 16 % 2)
            slot = burst // 16 % 3
            events.append(Event(-1, racer, EventType.WRITE, "u%d" % slot,
                                loc="sh.py:%s:%d" % (racer, slot)))
        burst += 1
    return Trace(events, validate=False, name="partitionable")


WORKLOADS = {
    "high_contention": high_contention_trace,
    "racy_mix": racy_mix_trace,
    "thread_local": thread_local_trace,
}

def hb_python() -> HBDetector:
    """HB with its compiled kernel switched off: the HB kernel gate's
    in-run reference."""
    detector = HBDetector()
    detector._use_kernel = False
    return detector


DETECTORS = {
    "wcp_dense": WCPDetector,
    "wcp_legacy": LegacyWCPDetector,
    "hb_dense": HBDetector,
    "hb_python": hb_python,
}

#: The detectors that run in the compiled kernel: with the cffi kernels
#: ``--check`` fails unless each ran every row of every workload in C.
KERNEL_DETECTORS = ("wcp_dense", "hb_dense")


# --------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------- #

def measure(trace: Trace, repeats: int) -> dict:
    """Run every detector over ``trace`` and return per-detector stats.

    Repeats are *interleaved* round-robin across detectors rather than
    run detector-by-detector: the gates below are ratios between
    detectors measured in the same process, and a machine-load swing
    that lands entirely inside one detector's phase would skew the
    ratio.  Interleaving spreads any swing across every detector, and
    best-of-N then discards it symmetrically.
    """
    best = {name: 0.0 for name in DETECTORS}
    races = {}
    kernel_rows = {}
    for _ in range(repeats):
        for name, factory in DETECTORS.items():
            spent = 0.0
            while spent < MIN_ROUND_S:
                detector = factory()
                report = detector.run(trace)
                best[name] = max(best[name], report.stats["events_per_s"])
                spent += report.stats["time_s"]
            races[name] = (report.count(), frozenset(report.location_pairs()))
            if name in KERNEL_DETECTORS:
                kernel_rows[name] = detector.kernel_rows
    rates = {name: round(rate, 1) for name, rate in best.items()}
    # Differential smoke: both WCP implementations must agree exactly.
    reference = races["wcp_legacy"][1]
    if races["wcp_dense"][1] != reference:
        raise SystemExit(
            "DIFFERENTIAL FAILURE: wcp_dense reports %r, wcp_legacy reports %r"
            % (sorted(map(sorted, races["wcp_dense"][1])),
               sorted(map(sorted, reference)))
        )
    return {
        "events": len(trace),
        "races": races["wcp_dense"][0],
        "kernel_rows": kernel_rows,
        "events_per_s": rates,
        "speedup_wcp_dense_vs_legacy": round(
            rates["wcp_dense"] / rates["wcp_legacy"], 3
        ),
        "speedup_hb_dense_vs_python": round(
            rates["hb_dense"] / rates["hb_python"], 3
        ),
    }


def run_benchmark(quick: bool) -> dict:
    n_events = QUICK_EVENTS if quick else FULL_EVENTS
    repeats = QUICK_REPEATS if quick else FULL_REPEATS
    workloads = {}
    for name, build in WORKLOADS.items():
        trace = build(n_events)
        workloads[name] = measure(trace, repeats)
        rates = workloads[name]["events_per_s"]
        print("%-16s %8d events | " % (name, workloads[name]["events"]), end="")
        print("  ".join("%s=%d" % (d, r) for d, r in rates.items()))
        print("%16s wcp_dense vs wcp_legacy: x%.2f, hb_dense vs "
              "hb_python: x%.2f"
              % ("", workloads[name]["speedup_wcp_dense_vs_legacy"],
                 workloads[name]["speedup_hb_dense_vs_python"]))
    return {
        "benchmark": "hotpath",
        "python": platform.python_version(),
        "quick": quick,
        "tolerance": TOLERANCE,
        "kernel_backend": kernels.BACKEND,
        "kernel_fallback_reason": kernels.FALLBACK_REASON,
        "pre_kernel_speedups": PRE_KERNEL_SPEEDUPS,
        "workloads": workloads,
    }


def median_result(results: list) -> dict:
    """``results[0]`` with each workload's ratios replaced by their
    medians over ``results`` (its rates are the median WCP run's)."""
    result = results[0]
    for name in result["workloads"]:
        runs = sorted(
            (run["workloads"][name] for run in results),
            key=lambda workload: workload["speedup_wcp_dense_vs_legacy"],
        )
        middle = dict(runs[len(runs) // 2])
        middle["speedup_hb_dense_vs_python"] = statistics.median(
            workload["speedup_hb_dense_vs_python"] for workload in runs
        )
        result["workloads"][name] = middle
    result["record_runs"] = len(results)
    return result


def check_regression(result: dict, baseline_path: Path) -> int:
    """Compare measured speedups against the checked-in baseline."""
    if not baseline_path.exists():
        print("no baseline at %s; nothing to check against" % baseline_path)
        return 1
    baseline = json.loads(baseline_path.read_text())
    if baseline.get("quick") != result["quick"]:
        print("baseline %s was recorded with quick=%s; this run has "
              "quick=%s, whose ratios it cannot gate (record it in the "
              "mode that is checked)"
              % (baseline_path, baseline.get("quick"), result["quick"]))
        return 1
    failures = []
    for name, measured in result["workloads"].items():
        base = baseline.get("workloads", {}).get(name)
        if base is None:
            continue
        measured_speedup = measured["speedup_wcp_dense_vs_legacy"]
        baseline_speedup = base["speedup_wcp_dense_vs_legacy"]
        floor = baseline_speedup * (1.0 - TOLERANCE)
        print(
            "%-16s speedup %.2f (baseline %.2f, floor %.2f)"
            % (name, measured_speedup, baseline_speedup, floor)
        )
        if measured_speedup < floor:
            failures.append(
                "%s: speedup x%.2f regressed >%.0f%% below baseline x%.2f"
                % (name, measured_speedup, TOLERANCE * 100, baseline_speedup)
            )
    # Row gate: a silent fallback to the Python path fails here on any
    # machine, whatever the timings (the floors below pass a Python-path
    # WCP on a fast enough run).
    if result.get("kernel_backend") == "cffi":
        for name, measured in result["workloads"].items():
            for detector in KERNEL_DETECTORS:
                rows = measured["kernel_rows"][detector]
                print("%-16s %s ran %d of %d rows in the compiled kernel"
                      % (name, detector, rows, measured["events"]))
                if rows < measured["events"]:
                    failures.append(
                        "row gate: %s ran %d of %d rows of %s in the "
                        "compiled kernel" % (detector, rows,
                                             measured["events"], name)
                    )
    else:
        print("row gate skipped: clock kernels inactive")
    # Kernel gate: wcp_dense must be >= KERNEL_GAIN_FLOOR times its
    # *pre-kernel* throughput on the targeted workload.  Measured via the
    # dense/legacy ratio (machine-independent, see PRE_KERNEL_SPEEDUPS);
    # only meaningful when the compiled kernels are actually active --
    # a deliberate python fallback skips the gate with a notice (CI
    # separately fails when the fallback was *not* deliberate).
    gate_workload = result["workloads"].get(KERNEL_GATE_WORKLOAD)
    if gate_workload is not None:
        measured = gate_workload["speedup_wcp_dense_vs_legacy"]
        pre_kernel = PRE_KERNEL_SPEEDUPS[KERNEL_GATE_WORKLOAD]
        gain = measured / pre_kernel
        if result.get("kernel_backend") == "cffi":
            print(
                "kernel gate [%s]: dense/legacy x%.2f vs pre-kernel x%.2f "
                "-> gain x%.2f (floor x%.1f)"
                % (KERNEL_GATE_WORKLOAD, measured, pre_kernel, gain,
                   KERNEL_GAIN_FLOOR)
            )
            if gain < KERNEL_GAIN_FLOOR:
                failures.append(
                    "kernel gate: wcp_dense gain x%.2f over its pre-kernel "
                    "throughput is below the x%.1f floor on %s"
                    % (gain, KERNEL_GAIN_FLOOR, KERNEL_GATE_WORKLOAD)
                )
        else:
            print(
                "kernel gate skipped: clock kernels inactive (%s); "
                "measured gain x%.2f for reference"
                % (result.get("kernel_fallback_reason") or "unknown reason",
                   gain)
            )
    # HB kernel gate: HB runs in the WCP kernel's HB mode, hb_python is
    # the same detector on its Python path, so their in-run ratio falls
    # back to about 1 when HB silently stays in Python.
    base = baseline.get("workloads", {}).get(KERNEL_GATE_WORKLOAD, {})
    if gate_workload is not None and "speedup_hb_dense_vs_python" in base:
        measured = gate_workload["speedup_hb_dense_vs_python"]
        floor = base["speedup_hb_dense_vs_python"] * (1.0 - TOLERANCE)
        if result.get("kernel_backend") == "cffi":
            print("HB kernel gate [%s]: hb_dense/hb_python x%.2f "
                  "(baseline x%.2f, floor x%.2f)"
                  % (KERNEL_GATE_WORKLOAD, measured,
                     base["speedup_hb_dense_vs_python"], floor))
            if measured < floor:
                failures.append(
                    "HB kernel gate: hb_dense/hb_python x%.2f is "
                    "below the x%.2f floor on %s"
                    % (measured, floor, KERNEL_GATE_WORKLOAD)
                )
        else:
            print("HB kernel gate skipped: clock kernels inactive; "
                  "hb_dense/hb_python x%.2f for reference" % measured)
    if failures:
        print("\nPERF REGRESSION:")
        for failure in failures:
            print("  - %s" % failure)
        return 1
    print("\nperf gate OK")
    return 0


# --------------------------------------------------------------------- #
# Sharded benchmark (multi-core gate)
# --------------------------------------------------------------------- #

def usable_cores() -> int:
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_shard_benchmark(quick: bool) -> dict:
    """Measure WCP events/sec at 1/2/4 shards on the partitionable workload.

    Quick mode keeps the full trace size (process spawn is a fixed
    ~100ms-per-worker cost; measuring a small trace would benchmark the
    spawn, not the pipeline) and only reduces the repeat count.
    """
    n_events = FULL_EVENTS
    repeats = QUICK_REPEATS if quick else FULL_REPEATS
    trace = partitionable_trace(n_events)
    #: Process-transport events/sec; "1" is the unsharded engine.
    rates = {}
    work_bounds = {}
    reference_races = None
    for shards in SHARD_COUNTS:
        best = 0.0
        for _ in range(repeats):
            if shards == 1:
                result = RaceEngine().run(trace, detectors=[WCPDetector()])
            else:
                result = ShardedEngine(
                    shards=shards, mode="process", batch_size=2048
                ).run(trace, detectors=[WCPDetector()])
                work_bounds[shards] = round(result.work_speedup_bound(), 3)
            best = max(best, result.events / result.elapsed_s)
            races = frozenset(result["WCP"].location_pairs())
            if reference_races is None:
                reference_races = races
            elif races != reference_races:
                raise SystemExit(
                    "DIFFERENTIAL FAILURE: %d-shard run reports %r, "
                    "single-shard reports %r"
                    % (shards, sorted(map(sorted, races)),
                       sorted(map(sorted, reference_races)))
                )
        rates[str(shards)] = round(best, 1)
        print("partitionable    %8d events | shards=%d [%s]  %.0f events/s"
              % (len(trace), shards,
                 "unsharded" if shards == 1 else "process", best))
    if not reference_races:
        raise SystemExit(
            "sharded differential is vacuous: the partitionable workload "
            "produced no races (it must keep its racer threads)"
        )
    single = rates["1"]
    wall_speedup = round(rates["4"] / single, 3) if single else 0.0
    print("%16s 4-shard vs 1-shard: x%.2f wall, x%.2f work-bound"
          % ("", wall_speedup, work_bounds.get(4, 0.0)))
    cores = usable_cores()
    if cores >= 4:
        wall_gate = (
            "passed (x%.2f)" % wall_speedup
            if wall_speedup >= SHARD_SPEEDUP_FLOOR
            else "failed (x%.2f < x%.2f)" % (wall_speedup, SHARD_SPEEDUP_FLOOR)
        )
    else:
        # Recorded explicitly so a sub-1x wall number measured on a
        # small CI box is never mistaken for a regression (or a pass).
        wall_gate = "skipped (%d cores)" % cores
    # Supervision overhead: the same 4-shard run with failover disabled
    # (no replay buffering, no liveness bookkeeping payoff).  When no
    # faults fire, the supervised run must stay within 5% of this.
    bare = EngineConfig().with_shards(4, mode="process", batch_size=2048)
    bare.with_shard_supervision(retries=0, snapshot_every=0)
    bare_best = 0.0
    for _ in range(repeats):
        result = ShardedEngine(bare).run(trace, detectors=[WCPDetector()])
        bare_best = max(bare_best, result.events / result.elapsed_s)
    four = rates["4"]
    overhead = round(bare_best / four, 3) if four else 0.0
    print("%16s supervision overhead at 4 shards: x%.3f "
          "(unsupervised %.0f events/s)" % ("", overhead, bare_best))
    return {
        "benchmark": "sharded",
        "python": platform.python_version(),
        "cores": cores,
        "quick": quick,
        "workload": "partitionable",
        "events": len(trace),
        "races": len(reference_races),
        "events_per_s": rates,
        "kernel_backend": kernels.BACKEND,
        "wall_speedup_4x": wall_speedup,
        "wall_gate": wall_gate,
        "work_speedup_bound": work_bounds,
        "floor": SHARD_SPEEDUP_FLOOR,
        "supervision_overhead": overhead,
        "supervision_ceiling": SUPERVISION_OVERHEAD_CEILING,
    }


def check_shard_gate(result: dict) -> int:
    """Gate the sharded run: work-bound always, wall-clock with >=4 cores."""
    failures = []
    bound = result["work_speedup_bound"].get(4, 0.0)
    print("work-bound speedup at 4 shards: x%.2f (floor x%.2f)"
          % (bound, SHARD_SPEEDUP_FLOOR))
    if bound < SHARD_SPEEDUP_FLOOR:
        failures.append(
            "partition quality regressed: work-bound speedup x%.2f < x%.2f "
            "(too many events replicated across shards)"
            % (bound, SHARD_SPEEDUP_FLOOR)
        )
    cores = result["cores"]
    wall = result["wall_speedup_4x"]
    wall_gate = result.get("wall_gate")
    if cores >= 4:
        print("wall-clock speedup at 4 shards: x%.2f (floor x%.2f, %d "
              "cores) -- recorded wall_gate: %r"
              % (wall, SHARD_SPEEDUP_FLOOR, cores, wall_gate))
        if wall < SHARD_SPEEDUP_FLOOR:
            failures.append(
                "4-shard throughput x%.2f below x%.2f of single-shard"
                % (wall, SHARD_SPEEDUP_FLOOR)
            )
    else:
        print("wall-clock gate skipped: only %d usable core(s), parallel "
              "speedup is physically impossible here (measured x%.2f) -- "
              "recorded wall_gate: %r"
              % (cores, wall, wall_gate))
    overhead = result.get("supervision_overhead", 0.0)
    print("supervision overhead: x%.3f (ceiling x%.2f)"
          % (overhead, SUPERVISION_OVERHEAD_CEILING))
    if overhead > SUPERVISION_OVERHEAD_CEILING:
        failures.append(
            "fault-free supervision overhead x%.3f above the x%.2f "
            "ceiling (health tracking/replay buffering got expensive)"
            % (overhead, SUPERVISION_OVERHEAD_CEILING)
        )
    if failures:
        print("\nSHARD PERF REGRESSION:")
        for failure in failures:
            print("  - %s" % failure)
        return 1
    print("\nshard gate OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller traces (the mode CI checks and "
                             "%s is recorded in)" % DEFAULT_BASELINE.name)
    parser.add_argument("--check", action="store_true",
                        help="compare against the checked-in baseline and "
                             "exit non-zero on >%d%% speedup regression"
                             % int(TOLERANCE * 100))
    parser.add_argument("--sharded", action="store_true",
                        help="run the multi-core sharded benchmark instead "
                             "(writes %s; with --check, gates on the x%.1f "
                             "4-shard speedup floor)"
                             % (DEFAULT_SHARD_BASELINE.name, SHARD_SPEEDUP_FLOOR))
    parser.add_argument("--output", type=Path, default=None,
                        help="baseline path (default: %s, or %s with "
                             "--sharded)" % (DEFAULT_BASELINE.name,
                                             DEFAULT_SHARD_BASELINE.name))
    args = parser.parse_args(argv)
    output = args.output or (
        DEFAULT_SHARD_BASELINE if args.sharded else DEFAULT_BASELINE
    )

    if args.sharded:
        result = run_shard_benchmark(quick=args.quick)
        if args.check:
            return check_shard_gate(result)
        if not args.quick:
            output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
            print("wrote %s" % output)
        return 0

    if args.check:
        return check_regression(run_benchmark(quick=args.quick), output)
    if not args.quick and args.output is None:
        # The checked-in baseline is quick mode's: a full run prints.
        run_benchmark(quick=False)
        return 0
    result = median_result(
        [run_benchmark(quick=args.quick) for _ in range(RECORD_RUNS)]
    )
    output.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % output)
    return 0


if __name__ == "__main__":
    sys.exit(main())

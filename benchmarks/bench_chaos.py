#!/usr/bin/env python
"""Chaos benchmark: report parity and recovery cost under injected faults.

Runs the sharded engine over the partitionable hot-path workload while
the deterministic fault harness (:mod:`repro.engine.faults`) kills
workers, severs pipes and corrupts snapshot blobs mid-run -- plus two
whole-process scenarios: ``coordinator_kill`` (SIGKILL the supervised
engine process itself, auto-resume from checkpoints) and
``flaky_network_client`` (RaceClient pushing through refused connects,
mid-line resets and stalled reads) -- and checks the tentpole property
end to end at benchmark scale:

* **parity** -- every faulted run's merged WCP report must be identical
  (location pairs, raw race count, max distance) to the fault-free
  reference; a single dropped or double-counted event after failover
  shows up here;
* **coverage** -- every planned fault must actually fire (a fault plan
  that never triggers tests nothing);
* **recovery cost** -- wall-clock overhead of each faulted run versus
  the fault-free sharded baseline, reported per scenario (informational:
  restart + replay time is machine-dependent, so only parity and
  coverage gate).

Usage::

    PYTHONPATH=src python benchmarks/bench_chaos.py            # full run, write BENCH_chaos.json
    PYTHONPATH=src python benchmarks/bench_chaos.py --quick    # smaller trace, print only
    PYTHONPATH=src python benchmarks/bench_chaos.py --check    # exit non-zero on parity/coverage failure
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.core.wcp import WCPDetector
from repro.engine import EngineConfig, RaceEngine, RunSupervisor, ShardedEngine
from repro.engine.faults import Fault, FaultPlan

from bench_hotpath import partitionable_trace

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_chaos.json"

FULL_EVENTS = 40000
QUICK_EVENTS = 12000
SHARDS = 4


def _scenarios():
    """Name -> fault-plan factory (fresh plan per run: faults are one-shot)."""
    return {
        "fault_free": lambda: None,
        "kill_one_worker": lambda: FaultPlan.kill(1, at_event=500),
        "kill_two_workers": lambda: FaultPlan([
            Fault.kill_worker(0, 400),
            Fault.kill_worker(2, 900),
        ]),
        "pipe_eof": lambda: FaultPlan([Fault.pipe_eof(3, 2)]),
        "corrupt_snapshot_then_kill": lambda: FaultPlan([
            Fault.corrupt_snapshot(1, 0),
            # Past the first snapshot (8 batches x 128 events) but
            # before the second: the corrupted blob is the only
            # snapshot when the worker dies, so failover must fall
            # back past it and replay from the stream start.
            Fault.kill_worker(1, 1400),
        ]),
    }


def _signature(report):
    return (
        frozenset(report.location_pairs()),
        report.raw_race_count,
        report.count(),
        report.max_distance(),
    )


def run_chaos(quick: bool, mode: str) -> dict:
    n_events = QUICK_EVENTS if quick else FULL_EVENTS
    trace = partitionable_trace(n_events)
    reference = _signature(
        RaceEngine().run(trace, detectors=[WCPDetector()])["WCP"]
    )
    scenarios = {}
    failures = []
    baseline_s = None
    for name, make_plan in _scenarios().items():
        plan = make_plan()
        # Small batches so every shard sees enough of them for the
        # snapshot cadence to land well before the injected kills.
        config = EngineConfig().with_shards(SHARDS, mode=mode, batch_size=128)
        config.with_shard_supervision(
            retries=2, snapshot_every=8, backoff_s=0.0
        )
        if plan is not None:
            config.with_fault_plan(plan)
        began = time.perf_counter()
        result = ShardedEngine(config).run(trace, detectors=[WCPDetector()])
        elapsed = time.perf_counter() - began
        if baseline_s is None:
            baseline_s = elapsed
        if _signature(result["WCP"]) != reference:
            failures.append("%s: merged report differs from the "
                            "fault-free run" % name)
        if plan is not None and plan.unfired():
            failures.append("%s: %d planned fault(s) never fired: %r"
                            % (name, len(plan.unfired()), plan.unfired()))
        supervision = result.supervision
        scenarios[name] = {
            "elapsed_s": round(elapsed, 4),
            "overhead_vs_fault_free": round(elapsed / baseline_s, 3),
            "worker_restarts": supervision["worker_restarts"],
            "snapshot_fallbacks": supervision["snapshot_fallbacks"],
        }
        print("%-26s %7.3fs  x%-5.2f  restarts=%d fallbacks=%d"
              % (name, elapsed, elapsed / baseline_s,
                 supervision["worker_restarts"],
                 supervision["snapshot_fallbacks"]))
    _coordinator_kill_scenario(
        trace, reference, mode, scenarios, failures, baseline_s
    )
    _flaky_client_scenario(trace, scenarios, failures, baseline_s)
    return {
        "benchmark": "chaos",
        "python": platform.python_version(),
        "quick": quick,
        "mode": mode,
        "events": len(trace),
        "shards": SHARDS,
        "scenarios": scenarios,
        "failures": failures,
    }


def _coordinator_kill_scenario(trace, reference, mode, scenarios, failures,
                               baseline_s):
    """SIGKILL the whole sharded coordinator mid-run; auto-resume must
    reproduce the fault-free report from the newest checkpoint."""
    import shutil
    import tempfile

    name = "coordinator_kill"
    plan = FaultPlan([Fault.kill_coordinator(len(trace) // 2)])
    config = EngineConfig().with_shards(SHARDS, mode=mode, batch_size=128)
    config.with_shard_supervision(retries=2, snapshot_every=8, backoff_s=0.0)
    directory = tempfile.mkdtemp(prefix="chaos-coordinator-")
    supervisor = RunSupervisor(
        trace, [WCPDetector()], config=config, checkpoint_dir=directory,
        checkpoint_every=1000, retries=2, backoff_s=0.0, fault_plan=plan,
    )
    began = time.perf_counter()
    try:
        result = supervisor.run()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    elapsed = time.perf_counter() - began
    if _signature(result["WCP"]) != reference:
        failures.append("%s: resumed report differs from the fault-free run"
                        % name)
    if plan.unfired():
        failures.append("%s: the coordinator kill never fired" % name)
    supervision = result.supervision
    if supervision.get("coordinator_restarts", 0) < 1:
        failures.append("%s: no coordinator restart was recorded" % name)
    scenarios[name] = {
        "elapsed_s": round(elapsed, 4),
        "overhead_vs_fault_free": round(elapsed / baseline_s, 3),
        "worker_restarts": supervision.get("worker_restarts", 0),
        "coordinator_restarts": supervision.get("coordinator_restarts", 0),
    }
    print("%-26s %7.3fs  x%-5.2f  coordinator_restarts=%d"
          % (name, elapsed, elapsed / baseline_s,
             supervision.get("coordinator_restarts", 0)))


def _flaky_client_scenario(trace, scenarios, failures, baseline_s):
    """Push the trace through RaceClient over a flaky network (refused
    connect, mid-line reset, stalled read); the response must be
    byte-identical to an undisturbed push."""
    import asyncio
    import tempfile
    import threading

    from repro.client import RaceClient
    from repro.serve import RaceServer, ServeSettings
    from repro.trace.writers import write_std

    name = "flaky_network_client"
    checkpoint_dir = tempfile.mkdtemp(prefix="chaos-client-")
    config = EngineConfig()
    config.checkpoint_every = 1000
    ready = threading.Event()
    box = {}

    async def serve():
        loop = asyncio.get_event_loop()
        stop = asyncio.Event()
        server = RaceServer(
            ["wcp"], config=config,
            settings=ServeSettings(port=0, checkpoint_dir=checkpoint_dir),
        )
        await server.start()
        box["port"] = server.listener.sockets[0].getsockname()[1]
        box["stop"] = lambda: loop.call_soon_threadsafe(stop.set)
        ready.set()
        await stop.wait()
        await server.close()

    thread = threading.Thread(target=lambda: asyncio.run(serve()), daemon=True)
    thread.start()
    ready.wait(10.0)
    lines = write_std(trace).strip("\n").split("\n")
    try:
        clean = RaceClient(port=box["port"], stream_id="chaos.clean")
        clean_lines = clean.push(lines).lines
        plan = FaultPlan([
            Fault.refuse_connect(0),
            Fault.reset_connection(len(trace) // 3),
            Fault.stall_connection(0),
        ])
        client = RaceClient(
            port=box["port"], stream_id="chaos.flaky", retries=10,
            backoff_s=0.05, jitter_s=0.0, fault_plan=plan,
        )
        began = time.perf_counter()
        outcome = client.push(lines)
        elapsed = time.perf_counter() - began
    finally:
        box["stop"]()
        thread.join(10.0)
        import shutil
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    if outcome.lines != clean_lines:
        failures.append("%s: flaky push's response differs from the "
                        "undisturbed push" % name)
    if plan.unfired():
        failures.append("%s: %d planned client fault(s) never fired: %r"
                        % (name, len(plan.unfired()), plan.unfired()))
    if client.stats["reconnects"] < 1:
        failures.append("%s: the client never reconnected" % name)
    scenarios[name] = {
        "elapsed_s": round(elapsed, 4),
        "overhead_vs_fault_free": round(elapsed / baseline_s, 3),
        "reconnects": client.stats["reconnects"],
        "events_skipped": client.stats["events_skipped"],
    }
    print("%-26s %7.3fs  x%-5.2f  reconnects=%d skipped=%d"
          % (name, elapsed, elapsed / baseline_s,
             client.stats["reconnects"], client.stats["events_skipped"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller trace (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on parity or coverage failure")
    parser.add_argument("--mode", default="process",
                        choices=("process", "serial"),
                        help="transport under chaos (default: process)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="result path (default: %s)" % DEFAULT_OUTPUT.name)
    args = parser.parse_args(argv)

    result = run_chaos(quick=args.quick, mode=args.mode)

    if result["failures"]:
        print("\nCHAOS FAILURES:")
        for failure in result["failures"]:
            print("  - %s" % failure)
        if args.check:
            return 1
    elif args.check:
        print("\nchaos gate OK: every fault fired, every report identical")

    if not args.quick and not args.check:
        args.output.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        print("wrote %s" % args.output)
    return 1 if (args.check and result["failures"]) else 0


if __name__ == "__main__":
    sys.exit(main())

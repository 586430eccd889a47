#!/usr/bin/env python
"""Chaos benchmark: report parity and recovery cost under injected faults.

Runs the sharded engine over the partitionable hot-path workload through
three recovery scenarios of the deterministic fault harness
(:mod:`repro.engine.faults`): ``worker_kill`` (a shard worker killed
mid-run ends the sharded pass; the run supervisor behind ``analyze
--auto-resume`` resumes it from its newest checkpoint),
``coordinator_kill`` (SIGKILL the supervised engine process itself,
auto-resume from checkpoints) and ``flaky_network_client`` (RaceClient
pushing through refused connects, mid-line resets and stalled reads).
It checks the recovery contract end to end at benchmark scale:

* **parity** -- every faulted run's WCP report must be identical
  (location pairs, raw race count, max distance) to the fault-free
  reference; a single dropped or double-counted event after a resume
  shows up here;
* **coverage** -- every planned fault must actually fire and be
  recovered from (a fault plan that never triggers tests nothing);
* **recovery cost** -- wall-clock overhead of each faulted run versus
  the fault-free sharded run, reported per scenario (informational:
  restart and resume time is machine-dependent, so only parity and
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
import shutil
import sys
import tempfile
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
#: Events between the supervised runs' checkpoints.
CHECKPOINT_EVERY = 1000


def _signature(report):
    return (
        frozenset(report.location_pairs()),
        report.raw_race_count,
        report.count(),
        report.max_distance(),
    )


def _config(mode: str) -> EngineConfig:
    return EngineConfig().with_shards(SHARDS, mode=mode, batch_size=128)


def run_chaos(quick: bool, mode: str) -> dict:
    n_events = QUICK_EVENTS if quick else FULL_EVENTS
    trace = partitionable_trace(n_events)
    reference = _signature(
        RaceEngine().run(trace, detectors=[WCPDetector()])["WCP"]
    )
    scenarios = {}
    failures = []
    began = time.perf_counter()
    result = ShardedEngine(_config(mode)).run(trace, detectors=[WCPDetector()])
    baseline_s = time.perf_counter() - began
    if _signature(result["WCP"]) != reference:
        failures.append("fault_free: sharded report differs from the "
                        "unsharded run")
    scenarios["fault_free"] = {
        "elapsed_s": round(baseline_s, 4),
        "overhead_vs_fault_free": 1.0,
    }
    print("%-26s %7.3fs  x%-5.2f" % ("fault_free", baseline_s, 1.0))
    # Past the first checkpoints of the run, so the resume starts from
    # one rather than from the stream start.
    _supervised_scenario(
        "worker_kill", FaultPlan.kill(1, at_event=n_events // 8), trace,
        reference, mode, scenarios, failures, baseline_s,
    )
    _supervised_scenario(
        "coordinator_kill", FaultPlan([Fault.kill_coordinator(n_events // 2)]),
        trace, reference, mode, scenarios, failures, baseline_s,
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


def _supervised_scenario(name, plan, trace, reference, mode, scenarios,
                         failures, baseline_s):
    """Run the sharded pass under the run supervisor with ``plan``; the
    resumed report must equal the fault-free one."""
    directory = tempfile.mkdtemp(prefix="chaos-%s-" % name)
    supervisor = RunSupervisor(
        trace, [WCPDetector()], config=_config(mode),
        checkpoint_dir=directory, checkpoint_every=CHECKPOINT_EVERY,
        retries=2, backoff_s=0.0, fault_plan=plan,
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
        failures.append("%s: %d planned fault(s) never fired: %r"
                        % (name, len(plan.unfired()), plan.unfired()))
    if supervisor.restarts < 1:
        failures.append("%s: no restart was recorded" % name)
    scenarios[name] = {
        "elapsed_s": round(elapsed, 4),
        "overhead_vs_fault_free": round(elapsed / baseline_s, 3),
        "restarts": supervisor.restarts,
    }
    print("%-26s %7.3fs  x%-5.2f  restarts=%d"
          % (name, elapsed, elapsed / baseline_s, supervisor.restarts))


def _flaky_client_scenario(trace, scenarios, failures, baseline_s):
    """Push the trace through RaceClient over a flaky network (refused
    connect, mid-line reset, stalled read); the response must be
    byte-identical to an undisturbed push."""
    import asyncio
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

#!/usr/bin/env python
"""Serve-tier load benchmark and CI gate.

Drives an in-process :class:`~repro.serve.RaceServer` with real socket
clients and measures what an operator of the multi-tenant tier cares
about:

* ``fanout`` -- N concurrent connections (>= 8), one tenant each,
  pushing STD streams with interleaved writes: aggregate events/sec
  across all connections, p50/p99 per-event (validate + step) latency
  from the server's sampled metrics, and the shed/completed counters.
  Every response is differentially checked against the engine's direct
  report for the same trace -- a throughput number over wrong answers is
  worthless.
* ``single`` -- the same workload over one connection, measured in the
  same process moments later.  The ratio ``fanout aggregate / single``
  (*fanout efficiency*) is machine-independent: both sides share the
  machine, the Python build and the run, so the ratio only moves when
  the serve tier's concurrency bookkeeping (sessions, quotas, metrics,
  queue hops) changes.
* ``engine`` -- the single connection's trace run in process through
  ``run_engine(IterableSource(...))``, in the same run.  The ratio
  ``single / engine`` (*serve_vs_engine*) is the share of the engine's
  own rate that survives the socket, the line protocol and the pump/drive
  hand-off; like fan-out efficiency it is machine-independent.
* ``governed`` -- the fan-out plus one deliberately over-quota tenant:
  the noisy client must be shed with an explicit ``error Overloaded``
  reply while every in-quota client's report stays byte-exact.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full run, write BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # fast run, print only
    PYTHONPATH=src python benchmarks/bench_serve.py --quick --check
                                                               # CI gate

The ``--check`` gate is shed-free-throughput based and machine
independent: it fails when (a) any in-quota stream was shed, rejected
or answered incorrectly, (b) the governed scenario failed to shed the
over-quota tenant or perturbed an in-quota result, (c) fan-out
efficiency drops below ``EFFICIENCY_FLOOR`` -- concurrency bookkeeping
eating more than half the single-stream throughput is a regression no
matter how fast the machine is -- or (d) serve_vs_engine drops below
``ENGINE_RATIO_FLOOR``, which a per-event pump-to-drive hand-off (one
queue item and loop iterations per event, ~0.2) cannot reach.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import random
import sys
import time
from pathlib import Path

from repro import (
    IterableSource,
    QuotaManager,
    RaceServer,
    ServeSettings,
    TenantQuota,
    run_engine,
)
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.trace.writers import write_std

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_serve.json"

#: Minimum acceptable aggregate-vs-single-connection throughput ratio.
EFFICIENCY_FLOOR = 0.5

#: Minimum acceptable single-connection serve vs in-process engine ratio.
ENGINE_RATIO_FLOOR = 0.4

DETECTORS = ("wcp", "hb")

FULL_CLIENTS = 12
QUICK_CLIENTS = 8
FULL_EVENTS = 6000
QUICK_EVENTS = 1500
FULL_REPEATS = 3
QUICK_REPEATS = 1


# --------------------------------------------------------------------- #
# Workload
# --------------------------------------------------------------------- #

def serve_trace(seed: int, n_events: int, n_threads: int = 6,
                n_vars: int = 4) -> Trace:
    """A lock-respecting stream with guaranteed races (bounded locations).

    Sections of lock-protected read+write work, punctuated by two racer
    threads that never synchronize -- so reports are non-empty and the
    differential check covers the racy attribution path.
    """
    rng = random.Random(1000 + seed)
    threads = ["t%d" % i for i in range(n_threads)]
    events = []
    section = 0
    while len(events) < n_events:
        thread = threads[section % n_threads]
        variable = "x%d" % rng.randrange(n_vars)
        loc = "sv.py:%s" % variable
        events.append(Event(-1, thread, EventType.ACQUIRE, "l", loc="sv.py:a"))
        events.append(Event(-1, thread, EventType.READ, variable, loc=loc + ":r"))
        events.append(Event(-1, thread, EventType.WRITE, variable, loc=loc + ":w"))
        events.append(Event(-1, thread, EventType.RELEASE, "l", loc="sv.py:r"))
        if section % 8 == 0:
            racer = "racer%d" % (section // 8 % 2)
            slot = section // 8 % 3
            events.append(Event(-1, racer, EventType.WRITE, "u%d" % slot,
                                loc="sv.py:%s:%d" % (racer, slot)))
        section += 1
    return Trace(events, validate=False, name="serve_%d" % seed)


def expected_lines(trace: Trace):
    """The exact wire reply the engine's direct pass dictates."""
    result = run_engine(
        IterableSource(iter(trace), name="x"), detectors=list(DETECTORS)
    )
    lines = [
        "%s %d %d" % (name, report.count(), report.raw_race_count)
        for name, report in result.items()
    ]
    lines.append("done %d" % result.events)
    return lines


# --------------------------------------------------------------------- #
# Client / scenario plumbing
# --------------------------------------------------------------------- #

async def push_stream(port: int, payload: bytes, chunk: int = 16384) -> str:
    """One client: connect, stream ``payload`` in slices, return the reply."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for start in range(0, len(payload), chunk):
            writer.write(payload[start:start + chunk])
            await writer.drain()  # interleaves the concurrent pushes
        writer.write_eof()
    except (ConnectionResetError, BrokenPipeError):
        pass  # shed mid-push: the reply below says why
    response = (await reader.read()).decode("utf-8")
    writer.close()
    return response


async def run_connections(payloads, quotas=None):
    """Serve ``payloads`` concurrently; return (responses, elapsed, server)."""
    server = RaceServer(
        list(DETECTORS),
        settings=ServeSettings(port=0, quotas=quotas),
    )
    await server.start()
    port = server.listener.sockets[0].getsockname()[1]
    try:
        began = time.perf_counter()
        responses = await asyncio.gather(*[
            push_stream(port, payload) for payload in payloads
        ])
        elapsed = time.perf_counter() - began
    finally:
        await server.close()
    return responses, elapsed, server


def verify_responses(responses, expected, label: str) -> None:
    for index, (response, lines) in enumerate(zip(responses, expected)):
        got = response.strip().splitlines()
        if got != lines:
            raise SystemExit(
                "DIFFERENTIAL FAILURE (%s, connection %d): served %r, "
                "engine says %r" % (label, index, got, lines)
            )


# --------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------- #

def run_fanout(n_clients: int, n_events: int, repeats: int) -> dict:
    traces = [serve_trace(seed, n_events) for seed in range(n_clients)]
    expected = [expected_lines(trace) for trace in traces]
    payloads = [
        ("# stream-id: tenant%02d.s\n" % index + write_std(trace)).encode()
        for index, trace in enumerate(traces)
    ]
    total_events = sum(len(trace) for trace in traces)

    best = {"aggregate_events_per_s": 0.0}
    for _ in range(repeats):
        responses, elapsed, server = asyncio.run(run_connections(payloads))
        verify_responses(responses, expected, "fanout")
        counters = server.metrics.counters
        if counters["shed"] or counters["rejected"]:
            raise SystemExit(
                "fanout run shed in-quota streams: %r" % (counters,)
            )
        p50 = server.metrics.latency_quantile(0.50)
        p99 = server.metrics.latency_quantile(0.99)
        aggregate = total_events / elapsed
        if aggregate > best["aggregate_events_per_s"]:
            best = {
                "connections": n_clients,
                "total_events": total_events,
                "aggregate_events_per_s": round(aggregate, 1),
                "latency_p50_us": round(p50 * 1e6, 1) if p50 else None,
                "latency_p99_us": round(p99 * 1e6, 1) if p99 else None,
                "completed": counters["completed"],
                "shed": counters["shed"],
            }
    print("fanout     %2d connections  %7d events  %8.0f events/s  "
          "p99 %.0f us"
          % (best["connections"], best["total_events"],
             best["aggregate_events_per_s"], best["latency_p99_us"] or 0.0))
    return best


def run_single(n_events: int, repeats: int) -> dict:
    trace = serve_trace(0, n_events)
    expected = [expected_lines(trace)]
    payload = ("# stream-id: solo.s\n" + write_std(trace)).encode()
    best = 0.0
    for _ in range(repeats):
        responses, elapsed, _ = asyncio.run(run_connections([payload]))
        verify_responses(responses, expected, "single")
        best = max(best, len(trace) / elapsed)
    print("single      1 connection   %7d events  %8.0f events/s"
          % (len(trace), best))
    return {"events": len(trace), "events_per_s": round(best, 1)}


def run_engine_direct(n_events: int, repeats: int) -> dict:
    """The single connection's trace through the engine, in process."""
    trace = serve_trace(0, n_events)
    best = 0.0
    for _ in range(repeats):
        began = time.perf_counter()
        run_engine(
            IterableSource(iter(trace), name="x"), detectors=list(DETECTORS)
        )
        best = max(best, len(trace) / (time.perf_counter() - began))
    print("engine     in process     %7d events  %8.0f events/s"
          % (len(trace), best))
    return {"events": len(trace), "events_per_s": round(best, 1)}


def run_governed(n_clients: int, n_events: int) -> dict:
    """The shed-isolation scenario: one noisy tenant among N in-quota."""
    traces = [serve_trace(seed, n_events) for seed in range(n_clients)]
    expected = [expected_lines(trace) for trace in traces]
    payloads = [
        ("# stream-id: tenant%02d.s\n" % index + write_std(trace)).encode()
        for index, trace in enumerate(traces)
    ]
    noisy_payload = (
        "# stream-id: noisy.s\n" + "t1|w(spam)|noise:1\n" * 500
    ).encode()

    quotas = QuotaManager(throttle_budget_s=0.01)
    quotas.set_quota("noisy", TenantQuota(events_per_sec=20.0, burst_events=4.0))

    responses, _, server = asyncio.run(
        run_connections(payloads + [noisy_payload], quotas=quotas)
    )
    noisy_reply = responses[-1].strip()
    if not noisy_reply.startswith("error Overloaded:"):
        raise SystemExit(
            "over-quota tenant was not shed; reply: %r" % noisy_reply
        )
    verify_responses(responses[:-1], expected, "governed")
    counters = server.metrics.counters
    print("governed   %2d in-quota OK  noisy tenant shed: %r"
          % (n_clients, noisy_reply.split(";")[0]))
    return {
        "in_quota_connections": n_clients,
        "in_quota_completed": counters["completed"],
        "noisy_shed": True,
        "shed_count": counters["shed"],
        "noisy_reply": noisy_reply,
    }


def run_benchmark(quick: bool) -> dict:
    n_clients = QUICK_CLIENTS if quick else FULL_CLIENTS
    n_events = QUICK_EVENTS if quick else FULL_EVENTS
    repeats = QUICK_REPEATS if quick else FULL_REPEATS
    fanout = run_fanout(n_clients, n_events, repeats)
    single = run_single(n_events, repeats)
    engine = run_engine_direct(n_events, repeats)
    efficiency = round(
        fanout["aggregate_events_per_s"] / single["events_per_s"], 3
    ) if single["events_per_s"] else 0.0
    serve_vs_engine = round(
        single["events_per_s"] / engine["events_per_s"], 3
    )
    governed = run_governed(n_clients, max(200, n_events // 8))
    print("%10s fanout efficiency (aggregate / single): x%.2f"
          % ("", efficiency))
    print("%10s serve_vs_engine (single / engine): x%.2f"
          % ("", serve_vs_engine))
    return {
        "benchmark": "serve",
        "python": platform.python_version(),
        "quick": quick,
        "detectors": list(DETECTORS),
        "fanout": fanout,
        "single": single,
        "fanout_efficiency": efficiency,
        "efficiency_floor": EFFICIENCY_FLOOR,
        "engine": engine,
        "serve_vs_engine": serve_vs_engine,
        "engine_ratio_floor": ENGINE_RATIO_FLOOR,
        "governed": governed,
    }


def check_gate(result: dict) -> int:
    """Shed-free throughput gate; every criterion is machine-independent."""
    failures = []
    fanout = result["fanout"]
    if fanout["shed"] != 0 or fanout["completed"] != fanout["connections"]:
        failures.append(
            "fan-out was not shed-free: %d/%d completed, %d shed"
            % (fanout["completed"], fanout["connections"], fanout["shed"])
        )
    governed = result["governed"]
    if not governed["noisy_shed"]:
        failures.append("over-quota tenant was not shed")
    if governed["in_quota_completed"] != governed["in_quota_connections"]:
        failures.append(
            "shedding perturbed in-quota clients: %d/%d completed"
            % (governed["in_quota_completed"],
               governed["in_quota_connections"])
        )
    efficiency = result["fanout_efficiency"]
    print("fanout efficiency x%.2f (floor x%.2f)"
          % (efficiency, EFFICIENCY_FLOOR))
    if efficiency < EFFICIENCY_FLOOR:
        failures.append(
            "concurrency bookkeeping overhead: fan-out aggregate is only "
            "x%.2f of single-connection throughput (floor x%.2f)"
            % (efficiency, EFFICIENCY_FLOOR)
        )
    ratio = result["serve_vs_engine"]
    print("serve_vs_engine x%.2f (floor x%.2f)" % (ratio, ENGINE_RATIO_FLOOR))
    if ratio < ENGINE_RATIO_FLOOR:
        failures.append(
            "serve hand-off overhead: one connection reaches only x%.2f of "
            "the in-process engine's rate (floor x%.2f)"
            % (ratio, ENGINE_RATIO_FLOOR)
        )
    if failures:
        print("\nSERVE PERF REGRESSION:")
        for failure in failures:
            print("  - %s" % failure)
        return 1
    print("\nserve gate OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer clients/events/repeats (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="gate on shed-free throughput: fail on any "
                             "in-quota shed, a missed over-quota shed, "
                             "fan-out efficiency below x%.1f or "
                             "serve_vs_engine below x%.1f"
                             % (EFFICIENCY_FLOOR, ENGINE_RATIO_FLOOR))
    parser.add_argument("--output", type=Path, default=DEFAULT_BASELINE,
                        help="result path (default: %s)"
                             % DEFAULT_BASELINE.name)
    args = parser.parse_args(argv)

    result = run_benchmark(quick=args.quick)
    if args.check:
        return check_gate(result)
    if not args.quick:
        args.output.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        print("wrote %s" % args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())

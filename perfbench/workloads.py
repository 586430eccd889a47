"""The four workloads and their untraced, end-to-end measurement.

A CLI workload launches ``repro.cli analyze`` on the generated file again
and again, one process at a time, until the run's time is spent.  The
serve workload starts one ``serve --socket`` process and pushes short
streams through :class:`repro.client.RaceClient` in a closed loop: one
connection at a time, the next push only after the previous verdict.

End-to-end metrics, times in reference seconds (see ``calibration.py``;
the raw figures are in the run record):

* ``events_per_s`` -- input events over the median launch's wall time
  (spawn to exit); for serve, pushed events over the push loop's time.
* ``setup_s`` -- median wall time of the same command line on a tiny
  input from the same generator; for serve, spawn until ``serving on``.
* ``cpu_s`` -- user + system CPU from ``wait4`` (the process and the
  children it reaped), median per launch; for serve, the server's CPU
  after it was ready, per push.
* ``peak_rss_mb`` -- peak RSS from ``wait4``, median per launch; for
  serve, the server's after a fixed number of pushes.
* ``verdict_p50_ms`` -- median time to a verdict: a launch's wall time;
  for serve, connect to summary of one push.  Serve also records p90/p99;
  a run fits too few launches for a CLI tail percentile.

The error rate is ``failed / attempted`` of the result line: a wrong
verdict, an exit status other than 0 or 1, a failed push, a shed stream
or a reconnect counts as failed.
"""

from __future__ import annotations

import re
import statistics
import time
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path
from typing import Dict, List, Optional

from calibration import Calibration, scale
from inputs import Input, Verdict, WorkloadInputs
from procs import Exit, Launcher, cli_argv, peak_rss_mb

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_RUNS = 9
#: Fewest measured operations in a run, however short ``--seconds`` is.
MIN_OPERATIONS = 3
#: Pushes after which the server's peak RSS is read.  The server's
#: memory grows with the sessions it has served, so a fixed count keeps
#: the figure independent of how many pushes fit in the run.
RSS_AFTER_PUSHES = 300
#: Seconds of serve pushes per calibration sample.
BLOCK_S = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Detectors the reference (and, for serve, the server) runs.
    detectors: List[str]
    #: ``analyze`` arguments after the file; None for the serve workload.
    analyze_args: Optional[List[str]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "batch-xalan",
            "default user path: analyze FILE (WCP, validation on) on a "
            "xalan-like log; the only path through Trace indexing and "
            "batch validation",
            ["wcp"], [],
        ),
        Workload(
            "stream-contention",
            "detection-bound: analyze --stream --detector wcp,hb on 12 "
            "threads contending for one lock; online validation, busy "
            "Rule (a)/(b), no Trace index",
            ["wcp", "hb"], ["--stream", "--detector", "wcp,hb"],
        ),
        Workload(
            "shard-partitionable",
            "analyze --stream --shards 2 (process transport) on mostly "
            "thread-private accesses; the only path through partition, "
            "sharding and the transport",
            ["wcp"], ["--stream", "--shards", "2"],
        ),
        Workload(
            "serve-push",
            "one serve process, closed loop of short mixed-vocabulary "
            "pushes (rwlocks, barriers, wait/notify); the only path "
            "through the line protocol and the async engine",
            ["wcp", "hb"], None,
        ),
    )
}

_VERDICT_LINE = re.compile(r"^(\S+) on .*: (\d+) distinct race pair\(s\)$",
                           re.M)


@dataclass
class Context:
    """Where one run reads and writes, and what launches the program."""

    root: Path
    workdir: Path
    launcher: Launcher
    calibration: Calibration


@dataclass
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def count(self, error: Optional[str]) -> bool:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(error)
        return error is None


def check_cli(exit: Exit, stdout: Path, verdict: Verdict) -> Optional[str]:
    """None when an analyze run printed the reference verdict."""
    if exit.code not in (0, 1):
        tail = stdout.read_text(errors="replace")[-400:]
        return "exit code %d: %s" % (exit.code, tail)
    text = stdout.read_text(errors="replace")
    got = {m.group(1): int(m.group(2)) for m in _VERDICT_LINE.finditer(text)}
    want = {name: pair[0] for name, pair in verdict.items()}
    if got != want:
        return "printed verdict %r, reference %r" % (got, want)
    if exit.code != (1 if any(want.values()) else 0):
        return "exit code %d contradicts the verdict %r" % (exit.code, want)
    return None


def check_reply(races: Dict[str, tuple], events: int,
                stream: Input) -> Optional[str]:
    """None when a serve reply matches the stream's reference."""
    got = {name: tuple(pair) for name, pair in races.items()}
    if got != stream.verdict or events != stream.events:
        return "served %r over %d events, reference %r over %d" % (
            got, events, stream.verdict, stream.events)
    return None


def quantile(values: List[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(round(q * 100)) - 1]


def analyze_argv(workload: Workload, trace: Path) -> List[str]:
    return cli_argv(["analyze", str(trace)] + workload.analyze_args)


def serve_argv(workload: Workload, socket_path: str) -> List[str]:
    return cli_argv(["serve", "--socket", socket_path,
                     "--detector", ",".join(workload.detectors)])


def cli_setup(workload: Workload, inputs: WorkloadInputs, ctx: Context,
              tally: Tally) -> List[float]:
    """Set-up samples in reference seconds: the workload's command line on
    the tiny input, after one unmeasured launch that fills the bytecode
    cache."""
    argv = analyze_argv(workload, inputs.tiny.path)
    out = ctx.workdir / "setup.out"
    samples = []
    for index in range(SETUP_RUNS + 1):
        factor = scale(ctx.calibration.sample())
        exit = ctx.launcher.run(argv, out)
        if tally.count(check_cli(exit, out, inputs.tiny.verdict)) and index:
            samples.append(exit.wall_s * factor)
    return samples


def serve_setup(workload: Workload, ctx: Context,
                tally: Tally) -> List[float]:
    """Set-up samples in reference seconds: spawn until ``serving on``,
    then a clean stop; the first, unmeasured, fills the bytecode cache."""
    samples = []
    for index in range(SETUP_RUNS + 1):
        factor = scale(ctx.calibration.sample())
        server, _ = start_server(workload, ctx, "setup")
        exit = ctx.launcher.stop(server["pid"])
        error = None if exit.code == 0 else "serve exit code %d" % exit.code
        if tally.count(error) and index:
            samples.append(server["ready_s"] * factor)
    return samples


def start_server(workload: Workload, ctx: Context, label: str):
    """Start ``serve`` and wait until it listens; returns the launcher's
    record of it and its socket path (relative to the checkout, which
    keeps it under the unix socket path limit)."""
    socket_path = ctx.workdir / ("%s.sock" % label)
    if socket_path.exists():
        socket_path.unlink()
    relative = str(socket_path.relative_to(ctx.root))
    server = ctx.launcher.start(serve_argv(workload, relative),
                                ctx.workdir / ("%s.log" % label))
    return server, relative


def measure_cli(workload: Workload, inputs: WorkloadInputs, ctx: Context,
                seconds: float, tally: Tally) -> dict:
    """Launch ``analyze`` on the main input until ``seconds`` are spent,
    each launch right after a calibration sample."""
    setup = cli_setup(workload, inputs, ctx, tally)
    argv = analyze_argv(workload, inputs.main.path)
    out = ctx.workdir / "main.out"
    exits: List[Exit] = []
    factors: List[float] = []
    began = time.perf_counter()
    while len(exits) < MIN_OPERATIONS or (
        time.perf_counter() - began + 0.5 * exits[-1].wall_s < seconds
    ):
        factors.append(scale(ctx.calibration.sample()))
        exit = ctx.launcher.run(argv, out)
        tally.count(check_cli(exit, out, inputs.main.verdict))
        exits.append(exit)
    walls = [e.wall_s * f for e, f in zip(exits, factors)]
    raw_walls = [e.wall_s for e in exits]
    return {
        "samples": len(exits),
        "setup_samples": setup,
        "wall_s": walls,
        "raw_wall_s": raw_walls,
        "scale": factors,
        "raw_metrics": {
            "events_per_s": inputs.main.events / statistics.median(raw_walls),
            "cpu_s": statistics.median(e.cpu_s for e in exits),
            "verdict_p50_ms": 1e3 * statistics.median(raw_walls),
        },
        "metrics": {
            "events_per_s": inputs.main.events / statistics.median(walls),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(
                e.cpu_s * f for e, f in zip(exits, factors)),
            "peak_rss_mb": statistics.median(e.peak_rss_mb for e in exits),
            "verdict_p50_ms": 1e3 * statistics.median(walls),
        },
    }


def measure_serve(workload: Workload, inputs: WorkloadInputs, ctx: Context,
                  seconds: float, tally: Tally) -> dict:
    """Closed-loop pushes through one server until ``seconds`` are spent,
    in blocks of ``BLOCK_S`` that each follow a calibration sample."""
    from repro.client import PushError, RaceClient

    setup = serve_setup(workload, ctx, tally)
    server, socket_path = start_server(workload, ctx, "serve")
    client = RaceClient(socket_path=socket_path, retries=0)
    streams = cycle(inputs.streams)
    raw_verdict_s: List[float] = []
    verdict_s: List[float] = []
    blocks = []  # (events, wall seconds, scale factor)
    rss_mb = None
    try:
        began = time.perf_counter()
        while len(verdict_s) < MIN_OPERATIONS or (
            time.perf_counter() - began < seconds
        ):
            factor = scale(ctx.calibration.sample())
            block_began = time.perf_counter()
            events = 0
            while time.perf_counter() - block_began < BLOCK_S:
                stream = next(streams)
                sent = time.perf_counter()
                try:
                    outcome = client.push(stream.path)
                except (PushError, OSError) as error:
                    tally.count("push failed: %s" % error)
                    continue
                raw_verdict_s.append(time.perf_counter() - sent)
                verdict_s.append(raw_verdict_s[-1] * factor)
                if tally.count(check_reply(outcome.races, outcome.events,
                                           stream)):
                    events += stream.events
                if len(verdict_s) == RSS_AFTER_PUSHES:
                    rss_mb = peak_rss_mb(server["pid"])
            blocks.append((events, time.perf_counter() - block_began, factor))
        if rss_mb is None:  # a short run: read it now
            rss_mb = peak_rss_mb(server["pid"])
    finally:
        exit = ctx.launcher.stop(server["pid"])
    if exit.code != 0:
        tally.count("serve exit code %d" % exit.code)
    if client.stats["reconnects"]:
        tally.count("%d reconnect(s)" % client.stats["reconnects"])
    events = sum(block[0] for block in blocks)
    cpu_per_push = (exit.cpu_s - server["ready_cpu_s"]) / max(1, len(verdict_s))
    run_factor = statistics.median(block[2] for block in blocks)
    return {
        "samples": len(verdict_s),
        "setup_samples": setup,
        "blocks": blocks,
        "client_stats": dict(client.stats),
        "raw_metrics": {
            "events_per_s": events / sum(block[1] for block in blocks),
            "cpu_s": cpu_per_push,
            "verdict_p50_ms": 1e3 * statistics.median(raw_verdict_s),
        },
        "metrics": {
            "events_per_s": events / sum(w * f for _, w, f in blocks),
            "setup_s": statistics.median(setup),
            "cpu_s": cpu_per_push * run_factor,
            "peak_rss_mb": rss_mb,
            "verdict_p50_ms": 1e3 * statistics.median(verdict_s),
        },
        # Too few CLI launches fit in a run for a tail percentile; serve
        # pushes do, so their tail is recorded here.
        "verdict_p90_ms": 1e3 * quantile(verdict_s, 0.90),
        "verdict_p99_ms": 1e3 * quantile(verdict_s, 0.99),
        "exit_peak_rss_mb": exit.peak_rss_mb,
    }


def measure(workload: Workload, inputs: WorkloadInputs, ctx: Context,
            seconds: float, tally: Tally) -> dict:
    if workload.analyze_args is None:
        return measure_serve(workload, inputs, ctx, seconds, tally)
    return measure_cli(workload, inputs, ctx, seconds, tally)

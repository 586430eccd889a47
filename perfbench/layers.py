"""The traced run: where a workload's time goes, layer by layer.

Two parts, both timed from the benchmark's own code:

* **User path, traced against untraced.**  CLI workloads run ``analyze``
  on the main input alternately plain and under ``traced_cli.py``, which
  records spans around the CLI import, the batch trace load and the
  engine pass.  The serve workload alternates plain and span-recording
  pushes on a raw socket.  Stage coverage is the traced layer time over
  the traced wall time; tracing overhead is the traced median wall time
  minus the untraced one.
* **Layer probes.**  The public entry point of each layer runs in this
  process on the workload's main input (``FileSource``, ``load_trace``,
  ``ValidatingSource``, ``run_engine`` with a do-nothing detector, WCP,
  HB, the sharded engine) plus a ``serve`` process fed with the
  workload's streams.  Probes repeat in rounds while time remains;
  each metric is the median over rounds.

Spans (name, start, end, parent) stay in memory and are written with the
run record when the run ends.
"""

from __future__ import annotations

import json
import socket
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from calibration import scale
from inputs import Input, WorkloadInputs
from workloads import (
    Context,
    Tally,
    Workload,
    analyze_argv,
    check_cli,
    check_reply,
    start_server,
)

#: Interpreter launches per round for the ``cli.import_s`` probe.
IMPORT_RUNS = 3
#: Samples per round of each ingest span (their differences are small).
INGEST_REPEATS = 3
#: Pushes per round in the serve probe of a CLI workload.
PROBE_PUSHES = 8
#: Share of the run's time given to the traced-vs-untraced pairs.
PAIRS_SHARE = 0.4
#: Fewest traced/untraced pairs.
MIN_PAIRS = 2


class Spans:
    """An in-memory span recorder (seconds since the run started)."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.records: List[dict] = []
        self._stack: List[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.record(name, start, time.perf_counter(), parent)

    def record(self, name: str, start: float, end: float,
               parent: Optional[str] = None) -> None:
        """Add a span timed elsewhere (``time.perf_counter`` readings)."""
        self.records.append({
            "name": name, "start": start - self.started,
            "end": end - self.started, "parent": parent,
        })

    def adopt(self, records: List[dict], started: float, parent: str) -> None:
        """Add spans a child process recorded relative to its own start
        (``started``, a ``time.perf_counter`` reading here)."""
        for r in records:
            self.record(r["name"], started + r["start"], started + r["end"],
                        r["parent"] or parent)

    def durations(self, name: str) -> List[float]:
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))


# --------------------------------------------------------------------- #
# Probes of single layers
# --------------------------------------------------------------------- #

def _null_detector():
    from repro.core.detector import Detector

    class NullDetector(Detector):
        """Does nothing per event: the engine's own plumbing cost."""

        name = "null"

        def reset(self, trace) -> None:
            self._new_report(trace)

        def process(self, event) -> None:
            pass

    return NullDetector()


def _check_counts(result, input: Input, tally: Tally, label: str) -> None:
    for name, report in result.items():
        want = input.verdict.get(name)
        error = None
        if want is not None and report.count() != want[0]:
            error = "%s: %s found %d distinct race(s), reference %d" % (
                label, name, report.count(), want[0])
        tally.count(error)


def probe_import(spans: Spans, ctx: Context, tally: Tally) -> None:
    out = ctx.workdir / "import.out"
    for _ in range(IMPORT_RUNS):
        for name, code in (("python.bare", "pass"),
                           ("cli.import", "import repro.cli")):
            with spans.span(name):
                exit = ctx.launcher.run([sys.executable, "-c", code], out)
            tally.count(None if exit.code == 0 else
                        "%s exit code %d" % (code, exit.code))


def probe_ingest(spans: Spans, input: Input, tally: Tally):
    """Decode, validate online, materialise with and without validation;
    returns the materialised trace.  The layer costs are differences of
    these spans, so each is sampled ``INGEST_REPEATS`` times."""
    from repro.engine import FileSource, ValidatingSource
    from repro.trace.parsers import load_trace

    for _ in range(INGEST_REPEATS):
        trace = None
        with spans.span("parsers.decode"):
            decoded = sum(1 for _ in FileSource(input.path))
        with spans.span("validate.online"):
            validated = sum(1 for _ in ValidatingSource(FileSource(input.path)))
        with spans.span("trace.load_unvalidated"):
            trace = load_trace(input.path, validate=False)
        trace = None
        with spans.span("trace.load_validated"):
            trace = load_trace(input.path, validate=True)
        for label, count in (("decode", decoded),
                             ("online validation", validated),
                             ("load_trace", len(trace))):
            tally.count(None if count == input.events else
                        "%s yielded %d events, expected %d"
                        % (label, count, input.events))
    return trace


def probe_detect(spans: Spans, trace, input: Input, tally: Tally) -> Dict:
    """Engine plumbing alone, then WCP and HB; returns WCP's stats."""
    from repro.api import make_detector, run_engine

    with spans.span("engine.step"):
        run_engine(trace, detectors=[_null_detector()])
    for name in ("hb", "wcp"):
        with spans.span("%s.detect" % name):
            result = run_engine(trace, detectors=[make_detector(name)])
        _check_counts(result, input, tally, "%s.detect" % name)
    return next(iter(result.values())).stats


def probe_sharding(spans: Spans, input: Input, tally: Tally) -> dict:
    """The ``--stream --shards`` engine: unsharded, then 2 shards serial
    and over the process transport, WCP with streaming reclamation."""
    from repro.api import make_detector, run_engine
    from repro.engine import EngineConfig, FileSource

    shape = {}
    for label, mode in (("unsharded", None), ("serial", "serial"),
                        ("process", "process")):
        config = EngineConfig()
        if mode is not None:
            config.with_shards(2, mode=mode)
        detector = make_detector("wcp", stream_reclaim=True)
        with spans.span("sharding.%s" % label):
            result = run_engine(FileSource(input.path), detectors=[detector],
                                config=config)
        _check_counts(result, input, tally, "sharding.%s" % label)
        if mode == "process":
            shape = {
                "replication": result.replication_factor(),
                "max_shard_share": max(result.shard_events)
                / float(sum(result.shard_events)),
                "shard_events": list(result.shard_events),
            }
    return shape


# --------------------------------------------------------------------- #
# Serve: raw-socket pushes, with or without spans
# --------------------------------------------------------------------- #

def raw_push(socket_path: str, payload: bytes,
             spans: Optional[Spans]) -> tuple:
    """Push one stream; returns (reply lines, send_s, lag_s, total_s)."""
    began = time.perf_counter()
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(60)
    try:
        sock.connect(socket_path)
        connected = time.perf_counter()
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        sent = time.perf_counter()
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        done = time.perf_counter()
    finally:
        sock.close()
    if spans is not None:
        spans.record("serve.push", began, done)
        spans.record("serve.connect", began, connected, "serve.push")
        spans.record("serve.send", connected, sent, "serve.push")
        spans.record("serve.verdict_lag", sent, done, "serve.push")
    lines = b"".join(chunks).decode("utf-8", "replace").splitlines()
    return lines, sent - connected, done - sent, done - began


def stats_query(socket_path: str) -> Dict[str, int]:
    """The server's in-band ``/stats`` counters."""
    lines, _, _, _ = raw_push(socket_path, b"/stats\n", None)
    counters = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[1].isdigit():
            counters[parts[0]] = int(parts[1])
    return counters


def probe_serve(spans: Spans, workload: Workload, streams: List[Input],
                pushes: int, ctx: Context, tally: Tally) -> dict:
    """Alternate untraced and traced raw pushes through one server."""
    from repro.client import PushOutcome

    server, socket_path = start_server(workload, ctx, "probe")
    untraced, traced = [], []
    try:
        for index in range(pushes):
            stream = streams[index % len(streams)]
            payload = stream.path.read_bytes()
            for recorder, totals in ((None, untraced), (spans, traced)):
                lines, _, _, total = raw_push(socket_path, payload, recorder)
                outcome = PushOutcome(lines)
                tally.count(check_reply(outcome.races, outcome.events, stream))
                totals.append(total)
        counters = stats_query(socket_path)
    finally:
        exit = ctx.launcher.stop(server["pid"])
    tally.count(None if exit.code == 0 else "serve exit code %d" % exit.code)
    return {"untraced_s": untraced, "traced_s": traced, "counters": counters}


# --------------------------------------------------------------------- #
# The traced run
# --------------------------------------------------------------------- #

def cli_pairs(spans: Spans, workload: Workload, inputs: WorkloadInputs,
              ctx: Context, seconds: float, tally: Tally) -> dict:
    """Alternate plain and traced ``analyze`` runs on the main input."""
    plain = analyze_argv(workload, inputs.main.path)
    spans_file = ctx.workdir / "cli-spans.json"
    traced = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
              str(spans_file)] + plain[3:]
    out = ctx.workdir / "pair.out"
    untraced_s, traced_s, coverage = [], [], []
    began = time.perf_counter()
    while len(traced_s) < MIN_PAIRS or (
        time.perf_counter() - began < PAIRS_SHARE * seconds
    ):
        exit = ctx.launcher.run(plain, out)
        tally.count(check_cli(exit, out, inputs.main.verdict))
        untraced_s.append(exit.wall_s)
        with spans.span("cli.process"):
            started = time.perf_counter()
            exit = ctx.launcher.run(traced, out)
        tally.count(check_cli(exit, out, inputs.main.verdict))
        traced_s.append(exit.wall_s)
        records = json.loads(spans_file.read_text())
        spans.adopt(records, started, "cli.process")
        layered = sum(r["end"] - r["start"] for r in records
                      if r["parent"] in (None, "cli.main")
                      and r["name"] != "cli.main")
        coverage.append(layered / exit.wall_s)
    return {"untraced_s": untraced_s, "traced_s": traced_s,
            "coverage": coverage}


def traced_run(workload: Workload, inputs: WorkloadInputs, ctx: Context,
               seconds: float, tally: Tally, units: Dict[str, str]) -> dict:
    """The user path traced against untraced, then probe rounds until
    ``seconds`` are spent (at least one); returns the per-layer metrics,
    times in reference seconds by the median calibration sample taken
    before each part (``units`` says which metrics are times)."""
    spans = Spans()
    began = time.perf_counter()
    calibration_s = []
    if workload.analyze_args is None:
        serve_streams, pushes = inputs.streams, max(8, len(inputs.streams))
    else:
        serve_streams, pushes = [inputs.tiny], PROBE_PUSHES
        calibration_s.append(ctx.calibration.sample())
        pairs = cli_pairs(spans, workload, inputs, ctx, seconds, tally)

    rounds: List[dict] = []
    round_s = 0.0
    while not rounds or time.perf_counter() - began + round_s < seconds:
        calibration_s.append(ctx.calibration.sample())
        round_began = time.perf_counter()
        with spans.span("round"):
            probe_import(spans, ctx, tally)
            trace = probe_ingest(spans, inputs.main, tally)
            wcp_stats = probe_detect(spans, trace, inputs.main, tally)
            del trace
            shape = probe_sharding(spans, inputs.main, tally)
            serve = probe_serve(spans, workload, serve_streams, pushes, ctx,
                                tally)
        rounds.append({"wcp_stats": wcp_stats, "shape": shape,
                       "serve": serve})
        round_s = time.perf_counter() - round_began
    if workload.analyze_args is None:
        layered = (sum(spans.durations("serve.send"))
                   + sum(spans.durations("serve.verdict_lag")))
        pairs = {
            "untraced_s": [s for r in rounds for s in r["serve"]["untraced_s"]],
            "traced_s": [s for r in rounds for s in r["serve"]["traced_s"]],
            "coverage": [layered / sum(spans.durations("serve.push"))],
        }
    last = rounds[-1]
    decode = spans.median("parsers.decode")
    unvalidated = spans.median("trace.load_unvalidated")
    median = statistics.median
    metrics = {
        "cli.import_s": spans.median("cli.import") - spans.median("python.bare"),
        "parsers.decode_s": decode,
        "parsers.events_per_s": inputs.main.events / decode,
        "trace.index_s": unvalidated - decode,
        "trace.validate_s": spans.median("trace.load_validated") - unvalidated,
        "validate.online_s": spans.median("validate.online") - decode,
        "engine.step_s": spans.median("engine.step"),
        "wcp.detect_s": spans.median("wcp.detect"),
        "wcp.max_queue_total": float(last["wcp_stats"].get("max_queue_total", 0)),
        "hb.detect_s": spans.median("hb.detect"),
        "sharding.unsharded_s": spans.median("sharding.unsharded"),
        "sharding.serial_s": spans.median("sharding.serial"),
        "sharding.process_s": spans.median("sharding.process"),
        "sharding.replication": last["shape"]["replication"],
        "sharding.max_shard_share": last["shape"]["max_shard_share"],
        "serve.send_ms": 1e3 * spans.median("serve.send"),
        "serve.verdict_lag_ms": 1e3 * spans.median("serve.verdict_lag"),
        "serve.sessions": float(last["serve"]["counters"].get("completed", 0)),
        "serve.shed": float(last["serve"]["counters"].get("shed", 0)),
        "run.stage_coverage": median(pairs["coverage"]),
        "run.tracing_overhead_s": median(pairs["traced_s"])
        - median(pairs["untraced_s"]),
        "run.traced_wall_s": median(pairs["traced_s"]),
    }
    factor = scale(statistics.median(calibration_s))
    raw_metrics = dict(metrics)
    for name, unit in units.items():
        if unit in ("s", "ms"):
            metrics[name] *= factor
        elif unit == "1/s":
            metrics[name] /= factor
    return {
        "rounds": len(rounds),
        "calibration_s": calibration_s,
        "raw_metrics": raw_metrics,
        "pairs": pairs,
        "sharding": last["shape"],
        "serve_counters": last["serve"]["counters"],
        "spans": spans.records,
        "metrics": metrics,
    }

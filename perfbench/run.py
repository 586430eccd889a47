"""End-to-end benchmark of what users run: ``repro.cli analyze`` (batch,
``--stream``, ``--shards 2``) and ``serve`` with pushed streams.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-xalan --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (see ``layers.py``).  Inputs are generated from ``--seed`` before
any timing.  Every CLI verdict and every serve reply is checked against
the reference verdict; a mismatch, a crash, a failed push or a reconnect
counts as a failed operation.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` (so ``error_rate`` is ``failed / attempted``) and ``metrics``.
Times are in reference seconds: each is scaled by a calibration sample
taken next to it, which takes out the machine's speed drift (see
``calibration.py``); the raw figures are printed and recorded too.
The full record of the run (environment, input census, samples, spans)
goes to ``.bench_build/perfbench/results/``.  Exit status is 2 when the
program's sources are missing and 3 when the compiled clock kernels are
unavailable: a fallback run would measure a different program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "events_per_s": "1/s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "verdict_p50_ms": "ms",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "cli.import_s": "s",
    "parsers.decode_s": "s",
    "parsers.events_per_s": "1/s",
    "trace.index_s": "s",
    "trace.validate_s": "s",
    "validate.online_s": "s",
    "engine.step_s": "s",
    "wcp.detect_s": "s",
    "wcp.max_queue_total": "count",
    "hb.detect_s": "s",
    "sharding.unsharded_s": "s",
    "sharding.serial_s": "s",
    "sharding.process_s": "s",
    "sharding.replication": "ratio",
    "sharding.max_shard_share": "ratio",
    "serve.send_ms": "ms",
    "serve.verdict_lag_ms": "ms",
    "serve.sessions": "count",
    "serve.shed": "count",
    "run.stage_coverage": "ratio",
    "run.tracing_overhead_s": "s",
    "run.traced_wall_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="input size factor (the self-test uses small inputs)",
    )
    return parser.parse_args(argv)


def environment() -> dict:
    """Facts the numbers depend on; the kernel backend is enforced."""
    from repro.vectorclock import kernels

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernels": kernels.describe(),
        "kernel_backend": kernels.BACKEND,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program sources at %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    from procs import Launcher, program_env

    # Temporary files (the compiler's too) stay inside the checkout.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    # Started before this process imports or generates anything: see
    # the procs module on why peak RSS needs a small parent.
    launcher = Launcher(program_env(ROOT, BUILD), ROOT)
    try:
        return measure_run(args, launcher)
    finally:
        launcher.close()


def measure_run(args, launcher) -> int:
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["REPRO_CLOCK_KERNEL"] = "cffi"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        env_record = environment()
    except Exception as error:  # KernelBuildError and import failures
        print("perfbench: FAILED environment guard: %s: %s"
              % (type(error).__name__, error), file=sys.stderr)
        return 3
    if env_record["kernel_backend"] != "cffi":
        print("perfbench: FAILED environment guard: %s" % env_record["kernels"],
              file=sys.stderr)
        return 3

    from calibration import Calibration
    from inputs import make_inputs
    from layers import traced_run
    from workloads import WORKLOADS, Context, Tally, measure

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD / "tmp"))
    try:
        ctx = Context(root=ROOT, workdir=workdir, launcher=launcher,
                      calibration=Calibration())
        began = time.perf_counter()
        inputs = make_inputs(workload.name, workload.detectors, args.seed,
                             args.scale, workdir)
        generate_s = time.perf_counter() - began
        tally = Tally()
        if args.trace:
            outcome = traced_run(workload, inputs, ctx, args.seconds, tally,
                                 PER_LAYER)
            units = PER_LAYER
        else:
            outcome = measure(workload, inputs, ctx, args.seconds, tally)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {
        name: {"value": float(outcome["metrics"][name]), "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": env_record,
        "generate_s": generate_s,
        "inputs": inputs.record(),
        "failures": tally.reasons,
        "outcome": outcome,
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / ("%s-seed%d-trace%d.json"
                             % (workload.name, args.seed, args.trace))
    record_path.write_text(json.dumps(record, indent=1, default=str))

    print("workload %s seed %d (%s); kernels: %s; nproc %d"
          % (workload.name, args.seed, "traced" if args.trace else "untraced",
             env_record["kernels"], env_record["nproc"]))
    raw = outcome["raw_metrics"]
    for name, metric in metrics.items():
        print("  %-26s %16.6f %-6s%s" % (
            name, metric["value"], metric["unit"],
            "  (raw %.6f)" % raw[name] if name in raw else ""))
    for name in ("verdict_p90_ms", "verdict_p99_ms"):
        if name in outcome:
            print("  %-26s %16.6f ms (recorded, not gated; %d samples)"
                  % (name, outcome[name], outcome["samples"]))
    print("  %-26s %16.6f (%d failed / %d attempted)"
          % ("error_rate", tally.failed / float(tally.attempted),
             tally.failed, tally.attempted))
    for reason in tally.reasons:
        print("  FAILED: %s" % reason)
    print("record: %s" % record_path.relative_to(ROOT))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

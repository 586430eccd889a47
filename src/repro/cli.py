"""Command-line interface.

Eight subcommands::

    repro-race analyze TRACE_FILE [--detector wcp,hb] [--stream] [--window N]
                       [--first-race] [--max-events N] [--json OUT]
                       [--checkpoint DIR [--checkpoint-every N] | --resume DIR]
                       [--auto-resume N]
    repro-race compare TRACE_FILE [--detectors wcp,hb] [--stream]
    repro-race serve (--port N | --socket PATH) [--detector wcp] [--once]
                     [--checkpoint-dir DIR] [--handshake-timeout S]
    repro-race push TRACE_FILE (--port N | --socket PATH) [--stream-id ID]
                    [--retries N]
    repro-race bench [--benchmark NAME ...] [--scale 0.1] [--detectors wcp,hb]
    repro-race generate BENCHMARK -o trace.std [--scale 0.1] [--seed 0]
    repro-race stats TRACE_FILE
    repro-race witness TRACE_FILE [--detector wcp] [--max-states N]

``analyze --auto-resume N`` executes the run in a supervised child
process that survives up to N crashes -- of the engine process or of a
``--shards`` worker -- by resuming from the newest checkpoint; ``push``
streams a trace file to a ``serve`` instance with automatic retry,
backoff and mid-stream reconnect.
``analyze`` runs one or more detectors (comma-separated) on a logged trace
file (STD or CSV format) in a single engine pass.  The file is never
materialised as an in-memory trace: a regular file is read twice, a
census pass that takes its thread census and validates every row, then
the stream pass, decoded block by block and validated online
(``--no-validate`` opts out of both checks); both passes share one
decode state, so the stream pass interns nothing again, and it refuses
a file that changed after the census pass (exit 2).  A pipe or FIFO is
read once, with no census.  ``--stream`` is accepted and changes nothing.
``compare`` reads its file the same way.  ``--checkpoint DIR``
persists detector-state snapshots at a fixed event cadence and
``--resume DIR`` continues a crashed pass from the newest one with
reports identical to an uninterrupted run (works sharded, too).  ``compare`` prints a
side-by-side single-pass comparison table for one trace.  ``serve``
listens on a TCP port or unix socket for *pushed* STD event streams and
analyses each connection online, every session on one asyncio loop.  ``bench``
regenerates Table-1-style rows on the synthetic benchmark suite,
``generate`` writes a benchmark trace to disk for use with other tools,
``stats`` prints the trace's descriptive columns, and ``witness``
searches for a correct-reordering witness of the first detected race
(turning a warning into a concrete alternative schedule).

``analyze`` and ``compare`` exit 1 when a race was found, every command
exits 2 on bad arguments, and a command whose reader closes standard
output early (``| head``) ends without a traceback, with status 141
(:data:`EXIT_STDOUT_CLOSED`).

Each subcommand loads only the layers it runs.  Importing this module
(and ``--help``) loads the argument parser, :mod:`repro.api`, the engine
pass and the trace parsers, but no detector.  ``analyze``/``compare``
add the selected detectors and, per flag, the windowing wrapper
(``--window``), the report writers (``--json``), the sharded engine
(``--shards``), the checkpoint layer (``--checkpoint``/``--resume``) and
the run supervisor (``--auto-resume``); ``serve`` adds asyncio and
:mod:`repro.serve`, ``push`` :mod:`repro.client`, ``bench``/``generate``
the benchmark suite and ``witness`` the reordering search.  Clock-kernel
governance (``REPRO_CLOCK_KERNEL``) runs when the first detector loads the
dense clock: a bad setting fails the first command that runs a detector
with :class:`~repro.vectorclock.kernels.KernelBuildError`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.api import (
    available_detectors,
    make_detector,
    resume_engine,
    run_engine,
)
from repro.engine.config import EngineConfig
from repro.trace.parsers import FORMAT_NAMES, load_trace, std_line_counts


class _BenchmarkNames:
    """``generate``'s choices, read from the benchmark suite only when
    argparse lists or checks them, so no other subcommand loads it."""

    def __iter__(self):
        from repro.bench.suite import BENCHMARKS

        return iter(sorted(BENCHMARKS))

    def __contains__(self, name) -> bool:
        from repro.bench.suite import BENCHMARKS

        return name in BENCHMARKS


def _run_errors():
    """The run failures reported as a one-line error (exit 2).

    An ``OSError`` is one too: a missing, unreadable or directory input
    path ends in the line naming it, never in a traceback and the
    races-found status.  Evaluated by an ``except`` clause only once
    something was raised: the sharded engine's and the run supervisor's
    failure types are included exactly when those layers were loaded, so
    a plain pass never imports them.
    """
    errors = [ValueError, OSError]
    for module, name in (("repro.engine.sharding", "WorkerFailure"),
                         ("repro.engine.runner", "CoordinatorFailure")):
        if module in sys.modules:
            errors.append(getattr(sys.modules[module], name))
    return tuple(errors)


_STREAM_HELP = (
    "accepted for compatibility; changes nothing.  Every run decodes the "
    "file block by block: a regular file is read twice, a census pass "
    "(which threads touch each variable and lock; every row validated "
    "unless --no-validate) and then the stream pass, so memory is the "
    "live detector state plus the census.  A FIFO or standard input is "
    "read once, and --shards workers and --resume take no census: still "
    "exact, but WCP keeps its Rule (b) logs in full"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-race",
        description="Dynamic race prediction in linear time (WCP) -- reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="analyze a trace file")
    analyze.add_argument("trace", help="path to a trace file (see --format)")
    _add_format_argument(analyze)
    analyze.add_argument(
        "--detector", default=None, metavar="NAMES",
        help="comma-separated detector list run in one pass "
             "(default: wcp, or the checkpointed selection under --resume; "
             "available: %s)" % ", ".join(available_detectors()),
    )
    persistence = analyze.add_mutually_exclusive_group()
    persistence.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="periodically snapshot detector state into DIR (atomic, "
             "offset-keyed files); a crashed run continues from the newest "
             "checkpoint with --resume DIR.  All selected detectors must "
             "support snapshots (wcp, hb)",
    )
    persistence.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume from the newest checkpoint in DIR: the trace is "
             "replayed from the checkpointed offset, detectors (rebuilt "
             "from the checkpoint unless --detector is given) are "
             "restored, and checkpointing continues into DIR at the "
             "original cadence; reports equal the uninterrupted run",
    )
    analyze.add_argument(
        "--checkpoint-every", type=_positive_int, default=10_000, metavar="N",
        help="events between checkpoints under --checkpoint (default 10000)",
    )
    analyze.add_argument(
        "--auto-resume", type=_nonnegative_int, default=None, metavar="N",
        help="run the analysis in a supervised child process that "
             "survives up to N crashes (SIGKILL, OOM) of the engine "
             "process or of a --shards worker: each crash resumes from "
             "the newest checkpoint with reports identical to an "
             "uninterrupted run.  Checkpoints go to --checkpoint/--resume "
             "DIR when given, else to a private temporary directory",
    )
    analyze.add_argument(
        "--stream", action="store_true", help=_STREAM_HELP,
    )
    analyze.add_argument(
        "--window", type=_positive_int, default=None,
        help="optionally window the detector(s) to this many events",
    )
    _add_shard_arguments(analyze)
    analyze.add_argument(
        "--first-race", action="store_true",
        help="stop the pass as soon as any detector reports a race",
    )
    analyze.add_argument(
        "--max-events", type=_positive_int, default=None, metavar="N",
        help="stop the pass after N events",
    )
    analyze.add_argument(
        "--no-validate", action="store_true",
        help="skip trace well-formedness validation",
    )
    _add_profile_argument(analyze)
    analyze.add_argument(
        "--json", dest="json_out", default=None, metavar="PATH",
        help="additionally write the report as JSON (or CSV if PATH ends in "
             ".csv); with several detectors the detector name is appended",
    )

    compare = subparsers.add_parser(
        "compare", help="run several detectors over one trace in a single pass"
    )
    compare.add_argument("trace", help="path to a trace file (see --format)")
    _add_format_argument(compare)
    compare.add_argument(
        "--detectors", default="wcp,hb", metavar="NAMES",
        help="comma-separated detector names (default: wcp,hb)",
    )
    compare.add_argument(
        "--stream", action="store_true", help=_STREAM_HELP,
    )
    compare.add_argument(
        "--no-validate", action="store_true",
        help="skip trace well-formedness validation",
    )
    _add_profile_argument(compare)
    _add_shard_arguments(compare)

    serve = subparsers.add_parser(
        "serve",
        help="listen on a socket for pushed STD event streams and analyse "
             "each connection online",
    )
    listen = serve.add_mutually_exclusive_group(required=True)
    listen.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="listen on TCP port N (0 picks a free port; the bound "
             "address is printed on startup)",
    )
    listen.add_argument(
        "--socket", dest="unix_socket", default=None, metavar="PATH",
        help="listen on a unix domain socket at PATH",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address for --port (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--detector", default="wcp", metavar="NAMES",
        help="comma-separated detector list run per connection "
             "(default: wcp)",
    )
    serve.add_argument(
        "--no-validate", action="store_true",
        help="skip the online lock-semantics/well-nestedness validation "
             "of pushed streams",
    )
    serve.add_argument(
        "--max-events", type=_positive_int, default=None, metavar="N",
        help="stop each connection's pass after N events",
    )
    serve.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="per-connection crash recovery: clients that send "
             "'# stream-id: <id>' as their first line get detector state "
             "checkpointed under DIR/<id> and receive a 'resume <offset>' "
             "response telling them where to replay from after a server "
             "restart",
    )
    serve.add_argument(
        "--checkpoint-every", type=_positive_int, default=10_000, metavar="N",
        help="events between per-connection checkpoints (default 10000)",
    )
    serve.add_argument(
        "--handshake-timeout", type=float, default=30.0, metavar="SECONDS",
        help="drop a connection that has not sent its first line within "
             "SECONDS so silent peers cannot pin admission slots (counted "
             "as handshake_timeout in /stats; 0 disables; default 30)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="handle exactly one connection, then exit with analyze-style "
             "status (1 when races were found, 2 on a rejected stream)",
    )
    serve.add_argument(
        "--max-connections", type=_positive_int, default=None, metavar="N",
        help="global ceiling on concurrent connections; extras are shed "
             "with 'error Overloaded: ...' instead of queueing",
    )
    serve.add_argument(
        "--max-streams-per-tenant", type=_positive_int, default=None,
        metavar="N",
        help="per-tenant ceiling on concurrent streams (tenant = the part "
             "of the stream id before the first '.'; anonymous "
             "connections share one tenant)",
    )
    serve.add_argument(
        "--max-events-per-sec", type=float, default=None, metavar="RATE",
        help="per-tenant token-bucket event rate shared across the "
             "tenant's streams; small deficits throttle (backpressure), "
             "large ones shed with a retry-after",
    )
    serve.add_argument(
        "--burst-events", type=float, default=None, metavar="N",
        help="token-bucket burst capacity for --max-events-per-sec "
             "(default: 2x the rate)",
    )
    serve.add_argument(
        "--throttle-budget", type=float, default=2.0, metavar="SECONDS",
        help="largest per-event rate deficit absorbed by sleeping (TCP "
             "backpressure) before a stream is shed instead "
             "(default 2.0)",
    )
    serve.add_argument(
        "--max-detector-bytes", type=_positive_int, default=None,
        metavar="N",
        help="shed a stream whose serialized detector state grows past N "
             "bytes (estimated from checkpoint blobs)",
    )
    serve.add_argument(
        "--idle-evict-after", type=float, default=None, metavar="SECONDS",
        help="checkpoint a stream idle for SECONDS to disk and release "
             "its detector memory; the next event restores it "
             "transparently (requires --checkpoint-dir and a "
             "'# stream-id:' handshake)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="N",
        help="additionally serve the metrics JSON over HTTP on this port "
             "(0 picks a free port); the in-band '/stats' first-line "
             "query works regardless",
    )
    serve.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=("debug", "info", "warning", "error"),
        help="enable structured one-line-per-event logging "
             "(accept/complete/shed/evict/restore/drain) at LEVEL on "
             "stderr",
    )

    push = subparsers.add_parser(
        "push",
        help="stream a trace file to a serve instance with automatic "
             "retry, backoff and mid-stream reconnect",
    )
    push.add_argument("trace", help="path to a .std trace file to stream")
    push_target = push.add_mutually_exclusive_group(required=True)
    push_target.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="connect to TCP port N",
    )
    push_target.add_argument(
        "--socket", dest="unix_socket", default=None, metavar="PATH",
        help="connect to a unix domain socket at PATH",
    )
    push.add_argument(
        "--host", default="127.0.0.1",
        help="server address for --port (default: 127.0.0.1)",
    )
    push.add_argument(
        "--stream-id", default=None, metavar="ID",
        help="stable stream identity: against a server running with "
             "--checkpoint-dir, a severed connection reconnects and "
             "replays exactly from the server's 'resume <offset>' reply "
             "instead of restarting the stream",
    )
    push.add_argument(
        "--retries", type=_nonnegative_int, default=5, metavar="N",
        help="reconnect attempts after the first failure (default 5); "
             "Overloaded replies honor the server's retry-after hint",
    )
    push.add_argument(
        "--backoff", type=float, default=0.1, metavar="SECONDS",
        help="base of the exponential reconnect backoff (default 0.1)",
    )
    push.add_argument(
        "--connect-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-attempt connection timeout (default 5)",
    )
    push.add_argument(
        "--verbose", "-v", action="store_true",
        help="print retry/reconnect counters to stderr after the push",
    )

    bench = subparsers.add_parser("bench", help="run the Table 1 benchmark suite")
    bench.add_argument(
        "--benchmark", action="append", default=None,
        help="benchmark name (repeatable; default: all)",
    )
    bench.add_argument("--scale", type=float, default=0.05,
                       help="event-count scale factor (default 0.05)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--detectors", default="wcp,hb",
        help="comma-separated detector names (default: wcp,hb)",
    )

    generate = subparsers.add_parser("generate", help="write a benchmark trace to disk")
    # Set after add_argument, which would iterate the choices (and so
    # load the benchmark suite) to check the metavar.
    generate.add_argument("benchmark").choices = _BenchmarkNames()
    generate.add_argument("-o", "--output", required=True, help="output path (.std or .csv)")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--seed", type=int, default=0)

    stats = subparsers.add_parser("stats", help="print trace summary statistics")
    stats.add_argument("trace", help="path to a trace file (see --format)")
    _add_format_argument(stats)
    stats.add_argument(
        "--no-validate", action="store_true",
        help="skip trace well-formedness validation",
    )
    stats.add_argument(
        "--detectors", default=None, metavar="NAMES",
        help="additionally run these comma-separated detectors over the "
             "trace in one engine pass and print the per-detector cost "
             "accounting table (races, attributed time, events/s, "
             "serialized state size)",
    )
    stats.add_argument(
        "--timing", action="store_true",
        help="report the parse-vs-detect wall-clock split with events/sec "
             "per phase (detect uses --detectors, defaulting to wcp), so "
             "decode-bound vs detector-bound workloads are diagnosable "
             "without a profiler",
    )

    witness = subparsers.add_parser(
        "witness", help="search for a reordering witnessing the first race"
    )
    witness.add_argument("trace", help="path to a .std/.txt/.csv trace file")
    witness.add_argument(
        "--detector", default="wcp",
        help="detector used to pick the race to witness (default: wcp; "
             "available: %s)" % ", ".join(available_detectors()),
    )
    witness.add_argument(
        "--max-states", type=int, default=200_000,
        help="bound on interleavings explored by the search",
    )

    return parser


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            "must be a positive integer, got %s" % value
        )
    return parsed


def _nonnegative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError(
            "must be >= 0, got %s" % value
        )
    return parsed


def _add_format_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--format", default=None, choices=FORMAT_NAMES,
        help="trace file format: the native std/csv formats or an ingest "
             "adapter (mtrace kernel lock logs, tsan-like logs); default "
             "dispatches on the file extension (.csv/.mtrace/.tsan, "
             "anything else is std)",
    )


def _add_profile_argument(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--profile", action="store_true",
        help="also print, per detector, how many rows the compiled kernel "
             "ran and why it stopped or never started, the races it found "
             "(raw, distinct, pairs built during the pass); the census "
             "pass's rows and distinct (thread, op) pairs, whether C or "
             "Python took them and whether it validated, or why no census "
             "was taken; and how many STD lines the compiled scanner and "
             "the Python decoder took, and per pass over the file its "
             "lines and the ops and threads it interned",
    )


def _print_profile(result) -> None:
    """The ``--profile`` lines: each in-process kernel's row count and
    race figures, the census pass (or why none was taken), and the STD
    lines this process decoded in C and in Python, with each pass's
    lines and interned ops and threads."""
    if not result.kernel:
        print("profile: no compiled kernel ran in this process")
    for name, counts in result.kernel.items():
        print("profile: %s ran %d of %d row(s) in the compiled kernel "
              "(exit: %s)" % (name, counts["rows"], result.events,
                              counts["exit"]))
        print("profile: %s kernel races: %d raw, %d distinct, %d pair(s) "
              "built during the pass" % (
                  name, counts["races_raw"], counts["races_distinct"],
                  counts["pairs_built"]))
    if result.census is not None:
        print("profile: census: %s" % result.census)
    lines = std_line_counts()
    if lines["compiled"] or lines["python"]:
        print("profile: STD decode took %d line(s) in the compiled scanner "
              "and %d in Python%s" % (
                  lines["compiled"], lines["python"],
                  "; %s" % result.decode if result.decode else ""))


def _add_shard_arguments(subparser: argparse.ArgumentParser) -> None:
    subparser.add_argument(
        "--shards", type=_positive_int, default=1, metavar="N",
        help="split the pass across N worker engines (variables are "
             "partitioned, the synchronization skeleton is replicated); "
             "1 keeps the unsharded engine with byte-identical output.  "
             "A worker that dies ends the pass with one error naming its "
             "shard; analyze --auto-resume resumes such a run from its "
             "newest checkpoint",
    )
    subparser.add_argument(
        "--shard-mode", default="process",
        choices=("process", "serial"),
        help="shard transport: separate worker processes (multi-core, "
             "default) or inline serial workers (the deterministic "
             "reference, for debugging)",
    )


def _split_detector_names(spec: str) -> List[str]:
    names = [name.strip() for name in spec.split(",") if name.strip()]
    if not names:
        raise ValueError("no detector names given")
    return names


def _make_engine_config(args: argparse.Namespace) -> EngineConfig:
    """Build an engine configuration carrying the shard selection."""
    config = EngineConfig()
    shards = getattr(args, "shards", 1)
    if shards > 1:
        config.with_shards(shards, mode=args.shard_mode)
    return config


def _make_source(args: argparse.Namespace):
    """Build the analyze/compare event source from the CLI arguments.

    One path for every input: a :class:`~repro.engine.sources.FileSource`,
    wrapped in a :class:`~repro.engine.validate.ValidatingSource` unless
    ``--no-validate``.  A fresh unsharded pass over a regular file first
    takes the file's census, validating every row, then streams it.
    """
    from repro.engine.sources import FileSource
    from repro.engine.validate import ValidatingSource

    source = FileSource(args.trace, format=getattr(args, "format", None))
    return source if args.no_validate else ValidatingSource(source)


def _print_resume_provenance(directory: str) -> None:
    """One stderr line naming what --resume actually restored.

    Best-effort: an unreadable directory stays silent here and surfaces
    through ``resume_engine``'s own actionable error instead.
    """
    from repro.engine.checkpoint import Checkpointer

    checkpointer = Checkpointer(directory)
    try:
        loaded = checkpointer.load_resumable()
    except ValueError:
        return
    path = os.path.join(
        str(directory), Checkpointer._PATTERN % loaded.events
    )
    stamps = ", ".join(
        "%s[snapshot v%s]" % (
            stamp.get("name", "?"), stamp.get("snapshot_version", "?")
        )
        for stamp in loaded.stamps or []
    ) or "from checkpoint"
    print(
        "resuming from %s: event offset %d, detectors %s"
        % (path, loaded.events, stamps),
        file=sys.stderr,
    )


def _run_supervised(args: argparse.Namespace, config: EngineConfig):
    """Run analyze under the crash-surviving coordinator supervisor."""
    from repro.engine.runner import RunSupervisor

    supervisor = RunSupervisor(
        lambda: _make_source(args),
        config=config,
        checkpoint_dir=args.checkpoint or args.resume,
        checkpoint_every=args.checkpoint_every,
        retries=args.auto_resume,
    )
    result = supervisor.run()
    if supervisor.restarts:
        print(
            "auto-resume: engine process restarted %d time(s); the run "
            "completed from checkpoints in %s"
            % (supervisor.restarts, supervisor.checkpoint_dir),
            file=sys.stderr,
        )
    return result


def _cmd_analyze(args: argparse.Namespace) -> int:
    detectors = None
    try:
        if args.detector is not None or args.resume is None:
            names = _split_detector_names(args.detector or "wcp")
            detectors = [make_detector(name) for name in names]
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.window is not None:
        if args.shards > 1:
            print("--window cannot be combined with --shards (windowed "
                  "detectors are not shardable)", file=sys.stderr)
            return 2
        if args.checkpoint or args.resume or args.auto_resume is not None:
            print("--window cannot be combined with --checkpoint/--resume/"
                  "--auto-resume (windowed detectors do not support state "
                  "snapshots)",
                  file=sys.stderr)
            return 2
        from repro.analysis.windowing import WindowedDetector

        detectors = [WindowedDetector(inner, args.window) for inner in detectors]

    config = _make_engine_config(args)
    if detectors is not None:
        config.with_detectors(*detectors)
    if args.first_race:
        config.stop_on_first_race()
    if args.max_events is not None:
        config.stop_after_events(args.max_events)
    if args.checkpoint:
        config.with_checkpoints(args.checkpoint, every=args.checkpoint_every)

    try:
        if args.auto_resume is not None:
            result = _run_supervised(args, config)
        elif args.resume:
            _print_resume_provenance(args.resume)
            result = resume_engine(
                _make_source(args), args.resume, config=config
            )
        else:
            result = run_engine(_make_source(args), config=config)
    except _run_errors() as error:
        print(str(error), file=sys.stderr)
        return 2
    for position, report in enumerate(result.values()):
        if position:
            print()
        print(report.summary())
    if result.stopped_early():
        print("(pass stopped early after %d event(s): %s)"
              % (result.events, result.stop_reason))
    if args.profile:
        _print_profile(result)
    if args.json_out:
        from repro.analysis.export import save_report

        for key, report in result.items():
            target = args.json_out
            if len(result) > 1:
                # Suffix the (engine-disambiguated) detector key so that
                # duplicate detectors cannot overwrite each other's file.
                stem, extension = os.path.splitext(target)
                label = (
                    key.lower()
                    .replace("[", "_").replace("]", "").replace("#", "_")
                )
                target = "%s.%s%s" % (stem, label, extension)
            path = save_report(report, target)
            print("report written to %s" % path)
    return 1 if result.has_race() else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table

    try:
        names = _split_detector_names(args.detectors)
        detectors = [make_detector(name) for name in names]
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        result = run_engine(
            _make_source(args),
            detectors=detectors,
            config=_make_engine_config(args),
        )
    except _run_errors() as error:
        print(str(error), file=sys.stderr)
        return 2
    headers = ["detector", "races", "raw races", "time(s)", "events/s"]
    rows = []
    for name, report in result.items():
        rows.append([
            name,
            report.count(),
            report.raw_race_count,
            "%.3f" % float(report.stats.get("time_s", 0.0)),
            "%.0f" % float(report.stats.get("events_per_s", 0.0)),
        ])
    print("%s: %d event(s) in one pass" % (result.source_name, result.events))
    print(format_table(headers, rows))
    if getattr(result, "shards", 1) > 1:
        print("%d shard(s) [%s]: events per shard %s, replication x%.2f"
              % (result.shards, result.mode, result.shard_events,
                 result.replication_factor()))
    if args.profile:
        _print_profile(result)
    return 1 if result.has_race() else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import (
        event_census, thread_locality, trace_summary,
    )
    from repro.analysis.tables import format_table

    # The shared load path: stats validates by default exactly like
    # analyze/compare, so a malformed trace errors consistently across
    # subcommands instead of being silently summarised.
    parse_started = time.perf_counter()
    try:
        trace = load_trace(
            args.trace,
            validate=not args.no_validate,
            format=getattr(args, "format", None),
        )
    except _run_errors() as error:
        print(str(error), file=sys.stderr)
        return 2
    parse_s = time.perf_counter() - parse_started
    summary = trace_summary(trace)
    for key, value in sorted(summary.items()):
        print("%-10s %d" % (key, value))
    census = event_census(trace)
    if census:
        print()
        print("event census:")
        for token, count in sorted(census.items()):
            print("  %-10s %d" % (token, count))
    locality = thread_locality(trace)
    accesses = trace.stats()["accesses"]
    print()
    print("thread-local (one thread touches it):")
    print("  %-10s %d of %d" % (
        "variables", locality["local_variables"], summary["variables"]))
    print("  %-10s %d of %d" % (
        "locks", locality["local_locks"], summary["locks"]))
    print("  %-10s %d of %d (%.1f%%)" % (
        "accesses", locality["local_accesses"], accesses,
        100.0 * locality["local_accesses"] / accesses if accesses else 0.0))
    result = None
    detectors = None
    if args.detectors or args.timing:
        try:
            # --timing without an explicit selection still needs a detect
            # phase to split against; WCP is the paper's primary detector.
            names = _split_detector_names(args.detectors or "wcp")
            detectors = [make_detector(name) for name in names]
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        result = run_engine(trace, detectors=detectors)
    if args.detectors:
        headers = ["detector", "races", "raw", "time(s)", "events/s",
                   "state(B)"]
        rows = []
        for (name, report), detector in zip(result.items(), detectors):
            state_bytes = (
                "%d" % len(detector.state_snapshot())
                if detector.supports_snapshot else "-"
            )
            rows.append([
                name,
                report.count(),
                report.raw_race_count,
                "%.3f" % float(report.stats.get("time_s", 0.0)),
                "%.0f" % float(report.stats.get("events_per_s", 0.0)),
                state_bytes,
            ])
        print()
        print("per-detector cost over %d event(s), one pass:" % result.events)
        print(format_table(headers, rows))
    if args.timing:
        # The parse phase covers decode + interning (+ validation unless
        # --no-validate); the detect phase is the engine pass above.
        events = result.events
        detect_s = result.elapsed_s
        total_s = parse_s + detect_s

        def rate(seconds: float) -> str:
            return "%.0f" % (events / seconds) if seconds > 0 else "-"

        def share(seconds: float) -> str:
            return "%.1f%%" % (100.0 * seconds / total_s) if total_s > 0 else "-"

        print()
        print("phase timing over %d event(s)%s:" % (
            events,
            " (validation skipped)" if args.no_validate else "",
        ))
        print(format_table(
            ["phase", "time(s)", "events/s", "share"],
            [
                ["parse", "%.3f" % parse_s, rate(parse_s), share(parse_s)],
                ["detect [%s]" % ",".join(d.name for d in detectors),
                 "%.3f" % detect_s, rate(detect_s), share(detect_s)],
                ["total", "%.3f" % total_s, rate(total_s), "100.0%"],
            ],
        ))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    from repro.reordering.witness import find_race_witness

    try:
        detector = make_detector(args.detector)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        trace = load_trace(args.trace)
    except _run_errors() as error:
        print(str(error), file=sys.stderr)
        return 2
    report = detector.run(trace)
    if not report.has_race():
        print("no %s race found; nothing to witness" % args.detector)
        return 0
    pair = report.pairs()[0]
    print("searching witness for %s" % pair)
    result = find_race_witness(
        trace, pair.first_event, pair.second_event, max_states=args.max_states
    )
    if result.found:
        print("witness found (%d events, %d states explored):" % (
            len(result.schedule or []), result.states_explored
        ))
        for event in result.schedule or []:
            print("  %s" % (event,))
        return 1
    if result.exhausted:
        print("search budget exhausted (%d states) -- inconclusive" %
              result.states_explored)
        return 2
    print("no correct reordering realises this pair as an adjacent race "
          "(it may only be realisable as a deadlock)")
    return 0


def _configure_serve_logging(level_name: str) -> None:
    """Route the serve tier's structured event log to stderr at LEVEL."""
    import logging

    logger = logging.getLogger("repro.serve")
    logger.setLevel(getattr(logging, level_name.upper()))
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s %(message)s"
        ))
        logger.addHandler(handler)
    logger.propagate = False


def _make_serve_server(args: argparse.Namespace, on_session_end=None):
    """Build the (unstarted) :class:`~repro.serve.RaceServer` from flags."""
    from repro.serve import QuotaManager, RaceServer, ServeSettings, TenantQuota

    names = _split_detector_names(args.detector)

    def factory():
        # Fresh detector instances per connection: streams are
        # independent passes, state never leaks between clients.
        return [make_detector(name) for name in names]

    config = EngineConfig()
    if args.max_events is not None:
        config.stop_after_events(args.max_events)
    if args.checkpoint_dir:
        config.checkpoint_every = args.checkpoint_every
    quotas = QuotaManager(TenantQuota(
        max_streams=args.max_streams_per_tenant,
        events_per_sec=args.max_events_per_sec,
        burst_events=args.burst_events,
        max_detector_bytes=args.max_detector_bytes,
    ), throttle_budget_s=args.throttle_budget)
    settings = ServeSettings(
        host=args.host,
        port=args.port,
        socket_path=args.unix_socket,
        max_connections=args.max_connections,
        quotas=quotas,
        checkpoint_dir=args.checkpoint_dir,
        idle_evict_after_s=args.idle_evict_after,
        metrics_port=args.metrics_port,
        install_signal_handlers=True,
        handshake_timeout_s=(
            args.handshake_timeout if args.handshake_timeout > 0 else None
        ),
    )
    return RaceServer(
        factory, config=config, settings=settings,
        validate=not args.no_validate, on_session_end=on_session_end,
    )


async def _serve_async(args: argparse.Namespace, ready=None) -> int:
    """The serve event loop: one governed engine pass per connection.

    ``ready`` (tests) is called with the listening asyncio server once
    the socket is bound.  With ``--once`` the loop exits after the first
    connection and the exit status follows analyze's convention; without
    it the server runs until interrupted or drained (SIGTERM: stop
    accepting, checkpoint live sessions, reply ``resume <offset>``).
    """
    import asyncio

    if args.log_level:
        _configure_serve_logging(args.log_level)
    outcomes: List = []
    done = asyncio.Event()

    def on_session_end(session, result) -> None:
        label = "client-%d" % session.session_id
        if session.state == "draining":
            print("%s: drained at event %d" % (label, session.events),
                  file=sys.stderr)
        elif result is None:
            print("%s: stream rejected (malformed or interrupted)" % label,
                  file=sys.stderr)
        else:
            print(result.summary(), flush=True)
        if args.once:
            # Only --once reads the outcome; a long-running server must
            # not keep every finished session's result alive.
            outcomes.append(result)
            done.set()

    server = await _make_serve_server(args, on_session_end).start()
    print("serving on %s" % server.where, flush=True)
    if server.metrics_address is not None:
        print("metrics on %s:%d" % server.metrics_address, flush=True)
    if ready is not None:
        ready(server.listener)
    done_wait = asyncio.ensure_future(done.wait())
    drain_wait = asyncio.ensure_future(server.drain_event.wait())
    try:
        await asyncio.wait(
            {done_wait, drain_wait}, return_when=asyncio.FIRST_COMPLETED
        )
        drained = server.drain_event.is_set()
        if drained:
            # SIGTERM: sessions are checkpointing out; wait for them.
            await server.wait_closed()
    finally:
        done_wait.cancel()
        drain_wait.cancel()
        await server.close()
    if drained and not args.once:
        return 0
    result = outcomes[0] if outcomes else None
    if result is None:
        return 2
    return 1 if result.has_race() else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        names = _split_detector_names(args.detector)
        for name in names:  # fail fast on unknown detector names
            make_detector(name)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    import asyncio

    try:
        return asyncio.run(_serve_async(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        return 0


def _cmd_push(args: argparse.Namespace) -> int:
    from repro.client import PushError, RaceClient, RetriesExhausted

    client = RaceClient(
        host=args.host,
        port=args.port if args.port is not None else 8787,
        socket_path=args.unix_socket,
        stream_id=args.stream_id,
        retries=args.retries,
        backoff_s=args.backoff,
        connect_timeout_s=args.connect_timeout,
    )
    try:
        outcome = client.push(args.trace)
    except RetriesExhausted as error:
        print(str(error), file=sys.stderr)
        return 2
    except PushError as error:
        print(str(error), file=sys.stderr)
        return 2
    except OSError as error:
        print("push failed: %s" % error, file=sys.stderr)
        return 2
    for line in outcome.lines:
        print(line)
    if args.verbose:
        counters = ", ".join(
            "%s=%s" % (name, value)
            for name, value in sorted(client.stats.items()) if value
        )
        print("push stats: %s" % (counters or "clean first-try push"),
              file=sys.stderr)
    return 1 if outcome.has_race() else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis.compare import run_table
    from repro.bench.suite import BENCHMARKS, get_benchmark

    names = args.benchmark or sorted(BENCHMARKS)
    unknown = [name for name in names if name not in BENCHMARKS]
    if unknown:
        print("unknown benchmark(s): %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    traces = {
        name: get_benchmark(name, scale=args.scale, seed=args.seed)
        for name in names
    }
    detector_names = _split_detector_names(args.detectors)

    def factory():
        return [make_detector(name) for name in detector_names]

    _, table = run_table(traces, factory)
    print(table)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bench.suite import get_benchmark
    from repro.trace.writers import dump_trace

    trace = get_benchmark(args.benchmark, scale=args.scale, seed=args.seed)
    path = dump_trace(trace, args.output)
    print("wrote %d events to %s" % (len(trace), path))
    return 0


#: Exit status when the reader of standard output closes it before the
#: command has written everything (``repro-race analyze FILE | head -1``):
#: 128 + SIGPIPE, what a shell reports for a writer SIGPIPE killed.
EXIT_STDOUT_CLOSED = 141


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (also exposed as the ``repro-race`` console script).

    A closed standard output ends the command quietly with
    :data:`EXIT_STDOUT_CLOSED` (``push`` reports its own socket errors,
    and ``serve`` handles them per connection).
    """
    args = _build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point the descriptor at /dev/null so the interpreter's own
        # flush at exit has nowhere left to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
    return status


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "push":
        return _cmd_push(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "witness":
        return _cmd_witness(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

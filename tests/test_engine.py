"""Tests for the single-pass streaming engine (repro.engine)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CountingSource,
    EngineConfig,
    EraserDetector,
    FileSource,
    HBDetector,
    IterableSource,
    RaceEngine,
    SimulatorSource,
    TraceSource,
    WCPDetector,
    as_source,
    compare_detectors,
    detect_races,
    run_engine,
)
from repro.cli import main
from repro.core.races import ReportSnapshot
from repro.cp.detector import CPDetector
from repro.engine import STOP_EVENT_BUDGET, STOP_EXHAUSTED, STOP_RACE_BUDGET
from repro.engine.engine import StreamContext
from repro.simulator import Program, Write
from repro.trace.writers import dump_trace

from conftest import random_trace


def _report_fingerprint(report):
    """Everything that identifies a report's findings (not its timings)."""
    return (
        sorted(tuple(sorted(key)) for key in report.location_pairs()),
        report.raw_race_count,
        report.count(),
        report.max_distance(),
    )


class TestSources:
    def test_as_source_coercions(self, simple_race_trace, tmp_path):
        assert isinstance(as_source(simple_race_trace), TraceSource)
        path = dump_trace(simple_race_trace, tmp_path / "t.std")
        assert isinstance(as_source(str(path)), FileSource)
        assert isinstance(as_source(iter(simple_race_trace)), IterableSource)
        existing = TraceSource(simple_race_trace)
        assert as_source(existing) is existing
        with pytest.raises(TypeError):
            as_source(42)

    def test_trace_source_is_complete(self, simple_race_trace):
        source = TraceSource(simple_race_trace)
        assert source.is_complete
        assert source.trace is simple_race_trace

    def test_file_source_replayable_but_lazy(self, tmp_path):
        trace = random_trace(seed=1, n_events=30)
        path = dump_trace(trace, tmp_path / "t.std")
        source = FileSource(path)
        assert not source.is_complete
        assert source.trace is None
        first = [event.target for event in source]
        second = [event.target for event in source]
        assert first == second and len(first) == len(trace)

    def test_counting_source_counts(self, simple_race_trace):
        source = CountingSource(simple_race_trace)
        assert source.passes == 0
        list(source)
        list(source)
        assert source.passes == 2
        assert source.events_emitted == 2 * len(simple_race_trace)

    def test_counting_source_is_transparent(self, simple_race_trace):
        """Regression: the wrapper forwards is_complete/trace, so wrapping
        a complete trace source must not downgrade detectors to stream
        mode (WCP would lose its queue-pruning prescan)."""
        wrapped = CountingSource(simple_race_trace)
        assert wrapped.is_complete
        assert wrapped.trace is simple_race_trace
        streaming = CountingSource(IterableSource(iter(simple_race_trace)))
        assert not streaming.is_complete
        assert streaming.trace is None

    @pytest.mark.parametrize("seed", [0, 5])
    def test_counting_source_reports_and_stats_identical(self, seed):
        """The wrapped run is indistinguishable from the unwrapped one:
        same races AND same stats (the stream-mode downgrade used to
        change WCP's queue statistics), and the prescan stays enabled."""
        trace = random_trace(seed=seed, n_events=60, n_locks=2)

        plain_detector = WCPDetector()
        plain = RaceEngine().run(trace, detectors=[plain_detector])

        wrapped_detector = WCPDetector()
        counter = CountingSource(trace)
        wrapped = RaceEngine().run(counter, detectors=[wrapped_detector])

        assert counter.passes == 1
        assert counter.events_emitted == len(trace)
        # The wrapped detector saw a complete trace: prescan pruning on.
        assert wrapped_detector._effective_prune
        assert plain_detector._effective_prune

        assert _report_fingerprint(wrapped["WCP"]) == _report_fingerprint(
            plain["WCP"]
        )
        timing_keys = {"time_s", "events_per_s"}
        assert {
            key: value for key, value in wrapped["WCP"].stats.items()
            if key not in timing_keys
        } == {
            key: value for key, value in plain["WCP"].stats.items()
            if key not in timing_keys
        }


class TestSinglePass:
    def test_compare_detectors_iterates_source_exactly_once(self):
        """The acceptance property: k detectors, ONE iteration of the source."""
        trace = random_trace(seed=7, n_events=60)
        source = CountingSource(IterableSource(iter(trace), name=trace.name))
        reports = compare_detectors(
            source, [WCPDetector(), HBDetector(), EraserDetector()]
        )
        assert source.passes == 1
        assert source.events_emitted == len(trace)
        assert set(reports) == {"WCP", "HB", "Eraser"}

    def test_engine_run_over_trace(self, simple_race_trace):
        result = RaceEngine().run(simple_race_trace)
        assert set(result.keys()) == {"WCP", "HB"}
        assert result.events == len(simple_race_trace)
        assert result.stop_reason == STOP_EXHAUSTED
        assert result.has_race()
        assert result["WCP"].count() == 1

    def test_duplicate_detector_names_are_disambiguated(self, simple_race_trace):
        result = RaceEngine().run(
            simple_race_trace, detectors=[HBDetector(), HBDetector()]
        )
        assert set(result.keys()) == {"HB", "HB#2"}

    def test_same_detector_instance_twice_is_rejected(self, simple_race_trace):
        detector = HBDetector()
        with pytest.raises(ValueError):
            RaceEngine().run(simple_race_trace, detectors=[detector, detector])

    def test_result_mapping_protocol(self, simple_race_trace):
        result = run_engine(simple_race_trace, detectors=["hb"])
        assert "HB" in result and len(result) == 1
        assert list(result) == ["HB"]
        assert result.get("nope") is None
        assert "HB" in result.summary()


class TestStreamingBatchParity:
    DETECTOR_FACTORIES = [
        lambda: WCPDetector(),
        lambda: HBDetector(),
        lambda: EraserDetector(),
    ]

    @pytest.mark.parametrize("seed", range(8))
    def test_engine_multi_detector_matches_per_detector_run(self, seed):
        """Property: one engine pass == k independent Detector.run calls."""
        trace = random_trace(seed=seed, n_events=60, n_threads=4, n_vars=3)

        expected = {}
        for factory in self.DETECTOR_FACTORIES:
            detector = factory()
            expected[detector.name] = _report_fingerprint(detector.run(trace))

        result = RaceEngine().run(
            trace, detectors=[factory() for factory in self.DETECTOR_FACTORIES]
        )
        for name, report in result.items():
            assert _report_fingerprint(report) == expected[name], name
            assert report.stats["events"] == len(trace)
            assert report.stats["time_s"] >= 0.0
            assert "events_per_s" in report.stats

    @pytest.mark.parametrize("seed", [0, 3])
    def test_windowed_cp_parity(self, seed):
        trace = random_trace(seed=seed, n_events=40)
        batch = CPDetector(window_size=20).run(trace)
        streamed = RaceEngine().run(trace, detectors=[CPDetector(window_size=20)])
        assert _report_fingerprint(streamed["CP"]) == _report_fingerprint(batch)

    @pytest.mark.parametrize("seed", range(6))
    def test_stream_source_matches_trace_source(self, seed):
        """Feeding the same events as a non-prescannable stream changes
        nothing: WCP's queue pruning is semantics-preserving."""
        trace = random_trace(seed=seed, n_events=50, n_threads=3)
        batch = {
            name: _report_fingerprint(report)
            for name, report in RaceEngine().run(trace).items()
        }
        stream = RaceEngine().run(IterableSource(iter(trace), name=trace.name))
        assert {
            name: _report_fingerprint(report) for name, report in stream.items()
        } == batch

    def test_file_source_matches_in_memory(self, tmp_path):
        trace = random_trace(seed=11, n_events=50)
        path = dump_trace(trace, tmp_path / "t.std")
        from_file = detect_races(FileSource(path))
        in_memory = detect_races(trace)
        assert _report_fingerprint(from_file) == _report_fingerprint(in_memory)


class TestEarlyStop:
    def test_stop_on_first_race(self):
        trace = random_trace(seed=3, n_events=60)
        baseline = detect_races(trace)
        assert baseline.has_race()
        config = EngineConfig().with_detectors("wcp").stop_on_first_race()
        result = RaceEngine(config).run(trace)
        assert result.stop_reason == STOP_RACE_BUDGET
        assert result.stopped_early()
        assert result.events < len(trace)
        assert result["WCP"].count() >= 1

    def test_event_budget(self, simple_race_trace):
        config = EngineConfig().with_detectors("hb").stop_after_events(1)
        result = RaceEngine(config).run(simple_race_trace)
        assert result.stop_reason == STOP_EVENT_BUDGET
        assert result.events == 1
        assert not result.has_race()

    def test_race_free_trace_runs_to_exhaustion(self, protected_trace):
        config = EngineConfig().with_detectors("wcp").stop_on_first_race()
        result = RaceEngine(config).run(protected_trace)
        assert result.stop_reason == STOP_EXHAUSTED
        assert result.events == len(protected_trace)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig().stop_after_races(0)
        with pytest.raises(ValueError):
            EngineConfig().stop_after_events(-1)
        with pytest.raises(ValueError):
            EngineConfig().snapshot_every(0)
        with pytest.raises(ValueError):
            EngineConfig().with_detectors()


class TestSnapshots:
    def test_snapshot_cadence_and_callback(self):
        trace = random_trace(seed=5, n_events=40)
        seen = []
        config = (
            EngineConfig()
            .with_detectors("wcp", "hb")
            .snapshot_every(10, callback=seen.append)
        )
        result = RaceEngine(config).run(trace)
        assert result.snapshots and result.snapshots == seen
        assert all(isinstance(snap, ReportSnapshot) for snap in result.snapshots)
        # Snapshots come in per-detector groups at each interval, ending at
        # the final event count.
        events_at = [snap.events for snap in result.snapshots]
        assert events_at == sorted(events_at)
        assert events_at[-1] == len(trace)
        final = [s for s in result.snapshots if s.events == len(trace)]
        assert {snap.detector_name for snap in final} == {"WCP", "HB"}
        # The last snapshot of each detector agrees with its report.
        for snap in final:
            assert snap.races == result[snap.detector_name].count()

    def test_detector_snapshot_hook(self, simple_race_trace):
        detector = WCPDetector()
        detector.run(simple_race_trace)
        snap = detector.snapshot()
        assert snap.races == 1
        assert snap.events == len(simple_race_trace)
        assert snap.as_dict()["detector"] == "WCP"


class TestStreamContext:
    def test_stream_context_protocol(self):
        context = StreamContext("live")
        assert not context.is_complete
        assert context.threads == []
        assert len(context) == 0
        assert list(context) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_late_appearing_threads_keep_rule_b(self, seed):
        """Regression: a thread first seen mid-stream must still observe
        every earlier critical section of Rule (b).  With per-thread
        queues materialised at append time this diverged; the shared
        critical-section log makes stream and batch WCP clocks identical."""
        import random

        from repro.trace.event import Event, EventType
        from repro.trace.trace import Trace

        rng = random.Random(seed)
        events = []
        # Threads run strictly one after another: the worst case for a
        # detector discovering threads lazily.
        for thread in ("t1", "t2", "t3"):
            held = []
            for _ in range(rng.randint(4, 10)):
                choices = ["r", "w"]
                free = [lock for lock in ("l0", "l1") if lock not in held]
                if free:
                    choices.append("a")
                if held:
                    choices.append("rel")
                action = rng.choice(choices)
                if action == "a":
                    lock = rng.choice(free)
                    held.append(lock)
                    events.append(Event(len(events), thread, EventType.ACQUIRE, lock))
                elif action == "rel":
                    events.append(Event(len(events), thread, EventType.RELEASE, held.pop()))
                else:
                    etype = EventType.READ if action == "r" else EventType.WRITE
                    events.append(Event(len(events), thread, etype, rng.choice("xyz")))
            while held:
                events.append(Event(len(events), thread, EventType.RELEASE, held.pop()))
        trace = Trace(events, name="late%d" % seed)

        batch = WCPDetector().run(trace)
        streamed = detect_races(IterableSource(iter(trace), name=trace.name))
        assert _report_fingerprint(streamed) == _report_fingerprint(batch)

    def test_wcp_reset_on_stream_context_keeps_all_queues(self):
        """Pruning needs a prescan; a stream context must disable it, not
        silently drop Rule (b) exchanges."""
        trace = random_trace(seed=2, n_events=50, n_locks=2)
        pruned = WCPDetector().run(trace)
        streamed = detect_races(IterableSource(iter(trace), name=trace.name))
        assert _report_fingerprint(streamed) == _report_fingerprint(pruned)


class TestSimulatorSource:
    def test_live_simulation_feeds_engine(self):
        program = Program(
            {"t1": [Write("x", loc="a:1")], "t2": [Write("x", loc="b:1")]},
            name="sim-race",
        )
        result = RaceEngine().run(SimulatorSource(program))
        assert result.source_name == "sim-race"
        assert result["WCP"].count() == 1


class TestTimingNormalization:
    def test_run_sets_normalized_stats(self, simple_race_trace):
        for detector in (WCPDetector(), HBDetector(), CPDetector(window_size=10)):
            report = detector.run(simple_race_trace)
            assert report.stats["time_s"] >= 0.0
            assert report.stats["events"] == len(simple_race_trace)
            assert report.stats["events_per_s"] >= 0.0

    def test_no_accounting_path_never_calls_account_cost_per_event(self):
        """Regression: the hot loop used to pay an attribute-lookup+call
        per event per detector; now a detector's time is attributed once
        per stepped chunk (plus reset and finish), and the event census
        stays exact."""
        from repro.trace.parsers import BATCH_LINES

        trace = random_trace(seed=6, n_events=2500)
        chunks = -(-len(trace) // BATCH_LINES)
        calls = []

        detector = HBDetector()
        original = detector.account_cost
        detector.account_cost = lambda *a, **kw: (
            calls.append((a, kw)), original(*a, **kw),
        )
        result = RaceEngine().run(trace, detectors=[detector])
        assert result.events == len(trace)
        # One attribution per chunk, not one call per event.
        assert len(calls) <= chunks + 2
        assert len(calls) < len(trace)
        assert detector.cost_events == len(trace)
        # The snapshot default (cost_events) contract survives.
        assert detector.snapshot().events == len(trace)
        assert detector.report.stats["time_s"] == detector.cost_time_s

    def test_accounted_path_still_attributes_per_event(self):
        """With several detectors in one pass, each is charged its own
        time and the full event census, chunk by chunk."""
        from repro.trace.parsers import BATCH_LINES

        trace = random_trace(seed=6, n_events=2500)
        chunks = -(-len(trace) // BATCH_LINES)
        detectors = [WCPDetector(), HBDetector()]
        calls = []
        for detector in detectors:
            original = detector.account_cost
            detector.account_cost = (
                lambda *a, _original=original, **kw: (
                    calls.append(a), _original(*a, **kw),
                )
            )
        result = RaceEngine().run(trace, detectors=detectors)
        assert result.events == len(trace)
        assert len(calls) <= len(detectors) * (chunks + 2)
        for detector in detectors:
            assert detector.cost_events == len(trace)
            assert detector.cost_time_s >= 0.0
            report = detector.report
            assert report.stats["time_s"] == detector.cost_time_s
            assert report.stats["time_s"] >= 0.0


class TestCliStreaming:
    def test_analyze_stream_never_materialises_a_trace(self, tmp_path, monkeypatch, capsys):
        trace = random_trace(seed=3, n_events=30)
        path = dump_trace(trace, tmp_path / "t.std")

        import repro.trace.trace as trace_module

        def _forbidden(self, *args, **kwargs):
            raise AssertionError("--stream must not materialise a Trace")

        monkeypatch.setattr(trace_module.Trace, "__init__", _forbidden)
        code = main(["analyze", str(path), "--stream", "--detector", "wcp,hb"])
        output = capsys.readouterr().out
        assert "WCP" in output and "HB" in output
        assert code in (0, 1)

    def test_analyze_comma_separated_detectors(self, tmp_path, capsys):
        path = dump_trace(random_trace(seed=3, n_events=30), tmp_path / "t.std")
        code = main(["analyze", str(path), "--detector", "wcp,hb,eraser"])
        output = capsys.readouterr().out
        assert "WCP" in output and "HB" in output and "Eraser" in output
        assert code in (0, 1)

    def test_analyze_unknown_detector(self, tmp_path, capsys):
        path = dump_trace(random_trace(seed=3, n_events=10), tmp_path / "t.std")
        assert main(["analyze", str(path), "--detector", "quantum"]) == 2

    def test_analyze_first_race_stops_early(self, tmp_path, capsys):
        trace = random_trace(seed=3, n_events=60)
        path = dump_trace(trace, tmp_path / "t.std")
        code = main(["analyze", str(path), "--detector", "wcp", "--first-race"])
        output = capsys.readouterr().out
        assert code == 1
        assert "stopped early" in output

    def test_analyze_multi_detector_json_with_dotted_dir(self, tmp_path, capsys):
        # A dot in a directory component must not be mistaken for the
        # file extension when deriving per-detector report paths.
        path = dump_trace(random_trace(seed=3, n_events=20), tmp_path / "t.std")
        out_dir = tmp_path / "runs.v2"
        out_dir.mkdir()
        main([
            "analyze", str(path), "--detector", "wcp,hb",
            "--json", str(out_dir / "out.json"),
        ])
        assert (out_dir / "out.wcp.json").exists()
        assert (out_dir / "out.hb.json").exists()

    def test_compare_subcommand(self, tmp_path, capsys):
        path = dump_trace(random_trace(seed=3, n_events=40), tmp_path / "t.std")
        code = main(["compare", str(path), "--detectors", "wcp,hb"])
        output = capsys.readouterr().out
        assert "one pass" in output
        assert "WCP" in output and "HB" in output
        assert code in (0, 1)

    def test_compare_stream(self, tmp_path, capsys):
        path = dump_trace(random_trace(seed=4, n_events=40), tmp_path / "t.std")
        code = main(["compare", str(path), "--detectors", "wcp,hb", "--stream"])
        assert "one pass" in capsys.readouterr().out
        assert code in (0, 1)


def _analyze_output(capsys, *argv):
    """``analyze``'s exit code and printed report, timing stats dropped."""
    code = main(["analyze", *map(str, argv)])
    lines = capsys.readouterr().out.splitlines()
    timing = tuple("  stat %s = " % name for name in _TIMING_STATS)
    return code, [line for line in lines if not line.startswith(timing)]


class TestStreamEqualsBatch:
    """``--stream`` over a regular file takes the file's census in a
    first pass, so it prints batch's report: races, witnesses and the
    census-driven stats (``max_queue_total``, ``local_accesses``)."""

    @pytest.fixture(scope="class", params=["xalan", "mixed"])
    def path(self, request, tmp_path_factory):
        from repro.bench.generators import mixed_vocabulary_trace
        from repro.bench.suite import get_benchmark

        if request.param == "xalan":
            trace = get_benchmark("xalan", scale=0.2, seed=1)
        else:
            trace = mixed_vocabulary_trace(5, threads=3, steps=400)
        directory = tmp_path_factory.mktemp(request.param)
        return dump_trace(trace, directory / ("%s.std" % request.param))

    @pytest.mark.parametrize("budget", [
        [], ["--max-events", "1500"], ["--first-race"],
    ], ids=["whole", "max-events", "first-race"])
    def test_stream_prints_the_batch_report(self, path, budget, capsys):
        flags = ["--detector", "wcp,hb", *budget]
        batch = _analyze_output(capsys, path, *flags)
        stream = _analyze_output(capsys, path, "--stream", *flags)
        assert stream == batch
        stats = "\n".join(batch[1])
        assert "stat max_queue_total" in stats
        assert "stat local_accesses" in stats

    def test_the_census_is_the_trace_census(self, path):
        from repro.trace.parsers import load_trace
        from repro.trace.trace import ThreadCensus

        census = FileSource(path).thread_census
        expected = load_trace(path).thread_census
        for field in ThreadCensus.__slots__:
            assert getattr(census, field) == getattr(expected, field), field

    def test_a_fifo_is_read_once_with_no_census(self, tmp_path, capsys):
        import os
        import threading

        trace = random_trace(seed=9, n_events=200, n_threads=4)
        regular = dump_trace(trace, tmp_path / "t.std")
        fifo = tmp_path / "fifo" / "t.std"
        fifo.parent.mkdir()
        os.mkfifo(fifo)
        assert FileSource(fifo).thread_census is None
        data = regular.read_bytes()

        def feed():
            with open(fifo, "wb") as handle:
                handle.write(data)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            code, lines = _analyze_output(
                capsys, fifo, "--stream", "--detector", "wcp,hb"
            )
        finally:
            writer.join(timeout=30)
        batch_code, batch = _analyze_output(
            capsys, regular, "--detector", "wcp,hb"
        )
        # Exact without the census: the same races and events; only the
        # census-driven stats differ.
        verdict = [line for line in batch if not line.startswith("  stat ")]
        assert code == batch_code
        assert [line for line in lines if not line.startswith("  stat ")] \
            == verdict
        assert "  stat events = %d" % len(trace) in lines
        assert any(line.startswith("  - ") for line in verdict)

    def test_stdin_is_read_once(self, tmp_path, capsys):
        # A second read of a drained pipe would see an empty trace.
        import subprocess
        import sys

        trace = random_trace(seed=9, n_events=200, n_threads=4)
        regular = dump_trace(trace, tmp_path / "t.std")
        piped = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", "/dev/stdin",
             "--stream", "--detector", "wcp"],
            input=regular.read_bytes(), capture_output=True,
        )
        assert piped.returncode in (0, 1), piped.stderr
        lines = piped.stdout.decode("utf-8").splitlines()
        assert "  stat events = %d" % len(trace) in lines
        _, batch = _analyze_output(capsys, regular, "--detector", "wcp")
        assert [line for line in lines if line.startswith("  - ")] == [
            line for line in batch if line.startswith("  - ")
        ]

    def test_a_resumed_pass_takes_no_census(self, path, tmp_path):
        class NoCensusPass(FileSource):
            @property
            def thread_census(self):
                raise AssertionError("a resumed pass took the census")

        from repro.trace.parsers import load_trace

        events = len(load_trace(path))
        directory = tmp_path / "ckpt"
        config = (
            EngineConfig().with_detectors("wcp", "hb")
            .with_checkpoints(directory, every=events // 5)
            .stop_after_events(events // 2)
        )
        RaceEngine(config).run(FileSource(path))
        resumed = RaceEngine(EngineConfig()).resume(
            NoCensusPass(path), directory
        )
        whole = RaceEngine(EngineConfig().with_detectors("wcp", "hb")).run(
            FileSource(path)
        )
        for name, report in whole.items():
            assert _report_fingerprint(resumed[name]) == \
                _report_fingerprint(report)
            for stat in ("max_queue_total", "local_accesses"):
                assert resumed[name].stats.get(stat) == report.stats.get(stat)


# --------------------------------------------------------------------- #
# Chunk-boundary parity: EnginePass.step_batch cuts blocks only where a
# snapshot, checkpoint or budget is due, so how a stream is split into
# blocks must never change what the pass reaches.
# --------------------------------------------------------------------- #

_TIMING_STATS = ("time_s", "events_per_s")


def _step_pass(trace, blocks, config, directory, every):
    """Step ``blocks`` through a fresh stream pass; return its outcome."""
    import os

    from repro.engine import Checkpointer, EnginePass

    checkpointer = (
        Checkpointer(directory, every=every, keep=1 << 20)
        if every is not None else None
    )
    pass_ = EnginePass(
        config, [WCPDetector(), HBDetector()],
        trace.name, registry=trace.registry, checkpointer=checkpointer,
    )
    pass_.start()
    for block in blocks:
        if pass_.step_batch(block) is not None:
            break
    result = pass_.result()
    checkpoints = []
    if checkpointer is not None and os.path.isdir(directory):
        checkpoints = [
            (offset, checkpointer.load(offset).states)
            for offset in checkpointer.offsets()
        ]
    return {
        "reports": {
            name: (
                _report_fingerprint(report),
                {key: value for key, value in report.stats.items()
                 if key not in _TIMING_STATS},
            )
            for name, report in result.items()
        },
        "snapshots": [
            (snap.detector_name, snap.events, snap.races, snap.raw_races)
            for snap in result.snapshots
        ],
        "stop": (result.stop_reason, result.events),
        "checkpoints": checkpoints,
    }


def _cut(events, sizes):
    """Split ``events`` into consecutive blocks, cycling through ``sizes``."""
    blocks, start, turn = [], 0, 0
    while start < len(events):
        size = sizes[turn % len(sizes)]
        blocks.append(list(events[start:start + size]))
        start += size
        turn += 1
    return blocks


class TestStepBatchChunkParity:
    @settings(max_examples=60, deadline=None)
    @given(
        mixed=st.booleans(),
        seed=st.integers(0, 10_000),
        snapshot_interval=st.one_of(st.none(), st.integers(1, 50)),
        checkpoint_every=st.one_of(st.none(), st.integers(1, 50)),
        event_budget=st.one_of(st.none(), st.integers(1, 160)),
        race_budget=st.one_of(st.none(), st.integers(1, 5)),
        sizes=st.lists(st.integers(1, 70), min_size=1, max_size=6),
    )
    def test_blocks_reach_what_single_events_reach(
        self, mixed, seed, snapshot_interval, checkpoint_every,
        event_budget, race_budget, sizes,
    ):
        import tempfile

        from repro.bench.generators import mixed_vocabulary_trace

        if mixed:
            trace = mixed_vocabulary_trace(seed, threads=3, steps=40)
        else:
            trace = random_trace(seed=seed, n_events=120, n_threads=4)

        def config():
            config = EngineConfig()
            config.snapshot_interval = snapshot_interval
            config.event_budget = event_budget
            config.race_budget = race_budget
            return config

        with tempfile.TemporaryDirectory() as whole, \
                tempfile.TemporaryDirectory() as single:
            blocked = _step_pass(
                trace, _cut(trace.events, sizes), config(), whole,
                checkpoint_every,
            )
            stepped = _step_pass(
                trace, [[event] for event in trace.events], config(),
                single, checkpoint_every,
            )
        assert blocked == stepped

    def test_validation_error_mid_block_leaves_the_same_checkpoint(
        self, tmp_path
    ):
        """A bad event inside a decoded block: the valid prefix is stepped
        (checkpoints included) before the error, and the newest
        checkpoint's validator state is at its own offset."""
        from repro.engine import Checkpointer, OnlineValidator, ValidatingSource
        from repro.trace.writers import write_std

        trace = random_trace(seed=21, n_events=90, n_threads=3)
        lines = write_std(trace).splitlines()
        lines.insert(70, "t9|rel(l0)")  # a release of a lock nobody holds
        path = tmp_path / "bad.std"
        path.write_text("\n".join(lines) + "\n")

        config = EngineConfig().with_checkpoints(tmp_path / "ckpt", every=16)
        with pytest.raises(ValueError, match="event 70"):
            RaceEngine(config).run(
                ValidatingSource(FileSource(path)), detectors=["wcp", "hb"]
            )
        latest = Checkpointer(tmp_path / "ckpt").load()
        assert latest.events == 64
        expected = OnlineValidator()
        for event in list(FileSource(path))[:64]:
            expected.check(event)
        assert latest.source_state["validator"] == expected.state_dict()

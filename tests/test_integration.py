"""End-to-end integration tests across subsystems.

Each test exercises a realistic pipeline rather than a single module:
simulator -> trace -> detectors -> witness/audit -> export, or
benchmark generator -> disk format -> reload -> windowed comparison.
"""

import json

import pytest

from repro import (
    HBDetector,
    MCMPredictor,
    WCPDetector,
    compare_detectors,
    detect_races,
    dump_trace,
    load_trace,
)
from repro.analysis import (
    Verdict,
    WindowedDetector,
    audit_report,
    compare_on_trace,
    report_to_json,
    rows_to_csv,
)
from repro.bench import get_benchmark
from repro.reordering import find_race_witness, is_correct_reordering
from repro.simulator import (
    Acquire, Fork, Join, Program, RandomScheduler, Read, Release, Write,
    run_program,
)
from repro.trace.trace import Trace
from repro.trace.event import Event


class TestSimulatorToDetectorsPipeline:
    def _producer_consumer(self, protected: bool) -> Program:
        queue_ops = (
            [Acquire("q"), Read("queue"), Write("queue"), Release("q")]
            if protected else [Read("queue"), Write("queue")]
        )
        return Program({
            "main": [Fork("producer"), Fork("consumer"),
                     Join("producer"), Join("consumer"), Read("queue")],
            "producer": queue_ops * 3,
            "consumer": queue_ops * 3,
        }, name="producer-consumer")

    def test_racy_program_flagged_and_witnessed(self):
        trace = run_program(self._producer_consumer(False), RandomScheduler(3))
        report = detect_races(trace)
        assert report.has_race()
        pair = report.pairs()[0]
        witness = find_race_witness(trace, pair.first_event, pair.second_event)
        assert witness.found
        candidate = Trace(
            [Event(-1, e.thread, e.etype, e.target, e.loc) for e in witness.schedule],
            validate=False,
        )
        assert is_correct_reordering(trace, candidate)

    def test_protected_program_clean_for_every_sound_detector(self):
        trace = run_program(self._producer_consumer(True), RandomScheduler(3))
        reports = compare_detectors(trace, ["wcp", "hb", "cp"])
        assert all(report.count() == 0 for report in reports.values())

    def test_audit_agrees_with_detectors(self):
        trace = run_program(self._producer_consumer(False), RandomScheduler(5))
        report = detect_races(trace, "wcp")
        audit = audit_report(trace, report, max_states_per_pair=50_000)
        assert audit.count(Verdict.CONFIRMED_RACE) >= 1


class TestBenchmarkRoundTripPipeline:
    def test_generate_dump_reload_analyze(self, tmp_path):
        original = get_benchmark("jigsaw", scale=0.02)
        path = dump_trace(original, tmp_path / "jigsaw.std")
        reloaded = load_trace(path)
        assert len(reloaded) == len(original)

        wcp = WCPDetector().run(reloaded)
        hb = HBDetector().run(reloaded)
        assert wcp.count() == 14 and hb.count() == 11

        windowed = WindowedDetector(WCPDetector(), max(20, len(reloaded) // 20))
        assert windowed.run(reloaded).count() < wcp.count()

    def test_comparison_rows_export(self, tmp_path):
        traces = {name: get_benchmark(name, scale=0.03) for name in ("raytracer", "xalan")}
        rows = [
            compare_on_trace(trace, [WCPDetector(), HBDetector()], name=name)
            for name, trace in traces.items()
        ]
        csv_text = rows_to_csv(rows)
        assert "raytracer" in csv_text and "xalan" in csv_text

    def test_report_json_includes_distances(self):
        trace = get_benchmark("moldyn", scale=0.02)
        payload = json.loads(report_to_json(WCPDetector().run(trace)))
        assert payload["distinct_races"] == 44
        assert payload["max_distance"] > len(trace) // 2


class TestPredictorAgainstLinearDetectors:
    def test_predictor_and_wcp_agree_on_small_whole_trace_windows(self):
        trace = get_benchmark("account", scale=1.0)
        predictor = MCMPredictor(window_size=len(trace) + 1)
        wcp = WCPDetector().run(trace)
        predicted = predictor.run(trace)
        # On this small fork/join program every WCP race is a real race and
        # the maximal predictor confirms each of them.
        assert set(predicted.location_pairs()) >= set(wcp.location_pairs())

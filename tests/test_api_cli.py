"""Tests for the top-level API and the command-line interface."""

import pytest

from repro import (
    CPDetector,
    HBDetector,
    MCMPredictor,
    WCPDetector,
    available_detectors,
    compare_detectors,
    detect_races,
    make_detector,
)
from repro.cli import main
from repro.trace.writers import dump_trace

from conftest import random_trace


class TestApi:
    def test_available_detectors(self):
        names = available_detectors()
        assert {"wcp", "hb", "cp", "eraser", "mcm"} == set(names)

    def test_make_detector_by_name(self):
        assert isinstance(make_detector("wcp"), WCPDetector)
        assert isinstance(make_detector("HB"), HBDetector)
        assert isinstance(make_detector("cp", window_size=100), CPDetector)
        assert isinstance(make_detector("mcm", window_size=10), MCMPredictor)

    def test_make_detector_unknown(self):
        with pytest.raises(ValueError):
            make_detector("quantum")

    @pytest.mark.parametrize("name", ["fasttrack", "FastTrack"])
    def test_make_detector_names_the_fasttrack_removal(self, name):
        with pytest.raises(ValueError) as caught:
            make_detector(name)
        message = str(caught.value)
        assert "\n" not in message
        assert "FastTrack detector was removed" in message
        assert "use hb" in message

    def test_detect_races_default_is_wcp(self, simple_race_trace):
        report = detect_races(simple_race_trace)
        assert report.detector_name == "WCP"
        assert report.count() == 1

    def test_detect_races_by_name_and_instance(self, simple_race_trace):
        assert detect_races(simple_race_trace, "hb").count() == 1
        assert detect_races(simple_race_trace, HBDetector()).count() == 1

    def test_compare_detectors_default(self, simple_race_trace):
        reports = compare_detectors(simple_race_trace)
        assert set(reports) == {"WCP", "HB"}

    def test_compare_detectors_custom(self, simple_race_trace):
        reports = compare_detectors(simple_race_trace, ["eraser", WCPDetector()])
        assert set(reports) == {"Eraser", "WCP"}


class TestCli:
    def _write_trace(self, tmp_path, racy=True):
        trace = random_trace(seed=3 if racy else 4, n_events=30)
        return dump_trace(trace, tmp_path / "trace.std")

    def test_analyze_command(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        code = main(["analyze", str(path), "--detector", "hb"])
        output = capsys.readouterr().out
        assert "HB" in output
        assert code in (0, 1)

    def test_analyze_with_window(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        main(["analyze", str(path), "--detector", "wcp", "--window", "10"])
        assert "WCP[w=10]" in capsys.readouterr().out

    def test_bench_command(self, capsys):
        code = main([
            "bench", "--benchmark", "account", "--benchmark", "raytracer",
            "--scale", "0.05", "--detectors", "wcp,hb",
        ])
        output = capsys.readouterr().out
        assert code == 0
        assert "account" in output and "raytracer" in output
        assert "WCP races" in output

    def test_bench_unknown_benchmark(self, capsys):
        assert main(["bench", "--benchmark", "nope"]) == 2

    def test_generate_command(self, tmp_path, capsys):
        target = tmp_path / "out.std"
        code = main([
            "generate", "account", "-o", str(target), "--scale", "1.0",
        ])
        assert code == 0
        assert target.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_then_analyze_round_trip(self, tmp_path, capsys):
        target = tmp_path / "bench.std"
        main(["generate", "pingpong", "-o", str(target)])
        code = main(["analyze", str(target), "--detector", "wcp"])
        assert code == 1  # races found
        assert "distinct race pair" in capsys.readouterr().out


class TestCliErrors:
    """Bad input paths and removed detectors end in one stderr line and
    exit 2 -- never a traceback, never the races-found status."""

    @staticmethod
    def _one_line(capsys):
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        return err

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("stream", [[], ["--stream"]],
                             ids=["batch", "stream"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_path(self, tmp_path, capsys, kind, command,
                                   stream):
        path = tmp_path / "nope.std" if kind == "missing" else tmp_path
        assert main([command, str(path)] + stream) == 2
        assert str(path) in self._one_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["analyze", "--detector", "fasttrack"],
        ["analyze", "--detector", "wcp,fasttrack", "--stream"],
        ["compare", "--detectors", "wcp,fasttrack"],
    ], ids=["analyze", "analyze-stream", "compare"])
    def test_fasttrack_is_refused(self, tmp_path, capsys, argv):
        path = dump_trace(random_trace(seed=3, n_events=30),
                          tmp_path / "trace.std")
        assert main(argv[:1] + [str(path)] + argv[1:]) == 2
        err = self._one_line(capsys)
        assert "FastTrack detector was removed" in err and "use hb" in err

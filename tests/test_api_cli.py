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

    def test_mcm_finishes_within_its_default_budget(self, tmp_path, capsys):
        """A window the solver cannot finish ends at the default budget,
        and the stats name it."""
        trace = random_trace(seed=0, n_events=400, n_threads=4)
        path = dump_trace(trace, tmp_path / "hard.std")
        assert main(["analyze", str(path), "--detector", "mcm"]) in (0, 1)
        stats = capsys.readouterr().out
        assert "stat windows = 1.0" in stats
        assert "stat windows_timed_out = 1.0" in stats


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

    @pytest.mark.parametrize("command", ["stats", "witness"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_input_path_of_stats_and_witness(
            self, tmp_path, capsys, kind, command):
        path = tmp_path / "nope.std" if kind == "missing" else tmp_path
        assert main([command, str(path)]) == 2
        assert str(path) in self._one_line(capsys)

    @pytest.mark.parametrize("command", ["stats", "witness"])
    def test_malformed_trace_of_stats_and_witness(self, tmp_path, capsys,
                                                  command):
        path = tmp_path / "double-acquire.std"
        path.write_text("t1|acq(l)|a:1\nt2|acq(l)|a:2\n")
        assert main([command, str(path)]) == 2
        assert "lock 'l' acquired at event 1" in self._one_line(capsys)

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_a_file_changed_after_its_census_is_refused(
            self, tmp_path, capsys, monkeypatch, command):
        """The census of a file that grows before its stream pass would
        not match what the pass reads: the pass refuses it."""
        from repro.engine import FileSource

        path = tmp_path / "grown.std"
        path.write_text("".join("t1|w(x)|a.py:%d\n" % i for i in range(100)))
        take_census = FileSource.take_census

        def take_census_then_append(self, validator=None):
            census = take_census(self, validator)
            with open(path, "a") as handle:
                handle.write("t2|w(x)|b.py:1\n")
            return census

        monkeypatch.setattr(FileSource, "take_census",
                            take_census_then_append)
        assert main([command, str(path)]) == 2
        refused = capsys.readouterr()
        assert refused.out == ""
        assert refused.err == (
            "%s: the file changed after its census pass; analyze it "
            "again\n" % path)
        # A fresh census: t2's write races with each of t1's 100.
        monkeypatch.undo()
        assert main(["analyze", str(path), "--detector", "wcp,hb"]) == 1
        out = capsys.readouterr().out
        assert out.count("100 distinct race pair(s)") == 2, out

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

    def test_witness_refuses_fasttrack(self, tmp_path, capsys):
        path = dump_trace(random_trace(seed=3, n_events=30),
                          tmp_path / "trace.std")
        assert main(["witness", str(path), "--detector", "fasttrack"]) == 2
        err = self._one_line(capsys)
        assert "FastTrack detector was removed" in err and "use hb" in err

    def test_resume_of_a_fasttrack_checkpoint_with_hb(self, tmp_path, capsys):
        """Naming a live detector does not get round the removal: the
        checkpoint's own FastTrack stamp is refused in the same line."""
        from repro.core.snapshot import pack_state
        from repro.engine.checkpoint import Checkpoint, Checkpointer

        trace = random_trace(seed=3, n_events=120)
        path = dump_trace(trace, tmp_path / "trace.std")
        stamp = {
            "name": "FastTrack",
            "class": "repro.hb.fasttrack:FastTrackDetector",
            "snapshot_version": 5,
            "config": {},
        }
        directory = tmp_path / "ckpts"
        Checkpointer(directory, every=20).save(Checkpoint(
            events=60, source_name=trace.name, stamps=[stamp],
            states=[pack_state("FastTrackDetector", 5, {}, {"names": []})],
            every=20,
        ))
        assert main(["analyze", str(path), "--resume", str(directory),
                     "--detector", "hb"]) == 2
        # The resume provenance line, then the one error line.
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("resuming from ")
        assert "FastTrack detector was removed" in lines[1]
        assert "use hb" in lines[1] and "mismatch" not in lines[1]

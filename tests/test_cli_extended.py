"""Tests for the stats/witness CLI subcommands, the JSON export flag and
the numeric-flag checks."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.trace.builder import TraceBuilder
from repro.trace.writers import dump_trace
from repro.bench.paper_figures import figure_1a, figure_2b, figure_5

from conftest import random_trace


class TestAnalyzeJsonFlag:
    def test_json_report_written(self, tmp_path, capsys):
        trace_path = dump_trace(random_trace(seed=3, n_events=30), tmp_path / "t.std")
        out_path = tmp_path / "report.json"
        main(["analyze", str(trace_path), "--detector", "wcp", "--json", str(out_path)])
        payload = json.loads(out_path.read_text())
        assert payload["detector"] == "WCP"
        assert "report written" in capsys.readouterr().out


class TestStatsCommand:
    def test_stats_output(self, tmp_path, capsys):
        trace_path = dump_trace(random_trace(seed=5, n_events=25), tmp_path / "t.std")
        assert main(["stats", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "events" in output and "threads" in output and "locks" in output

    def test_stats_prints_thread_locality(self, tmp_path, capsys):
        builder = TraceBuilder()
        builder.acquire("t1", "p").write("t1", "y").read("t1", "y")
        builder.write("t1", "x").release("t1", "p")
        builder.acquire("t2", "s").write("t2", "x").release("t2", "s")
        builder.acquire("t1", "s").release("t1", "s")
        trace_path = dump_trace(builder.build(), tmp_path / "t.std")
        assert main(["stats", str(trace_path)]) == 0
        output = capsys.readouterr().out
        assert "thread-local (one thread touches it):" in output
        assert "  variables  1 of 2\n" in output
        assert "  locks      1 of 2\n" in output
        assert "  accesses   2 of 4 (50.0%)\n" in output


class TestWitnessCommand:
    def test_witness_found_for_figure_2b(self, tmp_path, capsys):
        trace_path = dump_trace(figure_2b(), tmp_path / "fig2b.std")
        code = main(["witness", str(trace_path), "--detector", "wcp"])
        output = capsys.readouterr().out
        assert code == 1
        assert "witness found" in output

    def test_no_race_to_witness(self, tmp_path, capsys):
        trace_path = dump_trace(figure_1a(), tmp_path / "fig1a.std")
        code = main(["witness", str(trace_path), "--detector", "wcp"])
        assert code == 0
        assert "nothing to witness" in capsys.readouterr().out

    def test_unwitnessable_race_reports_deadlock_hint(self, tmp_path, capsys):
        # Figure 5: WCP flags a pair whose only manifestation is a deadlock.
        trace_path = dump_trace(figure_5(), tmp_path / "fig5.std")
        code = main(["witness", str(trace_path), "--detector", "wcp"])
        output = capsys.readouterr().out
        assert code == 0
        assert "deadlock" in output

    def test_budget_exhaustion_path(self, tmp_path, capsys):
        trace_path = dump_trace(figure_2b(), tmp_path / "fig2b.std")
        code = main([
            "witness", str(trace_path), "--detector", "wcp", "--max-states", "1",
        ])
        output = capsys.readouterr().out
        # Either the witness is found immediately or the budget message shows.
        assert code in (1, 2)
        assert "witness" in output or "budget" in output


class TestNumericFlags:
    """Counts must be positive integers: anything else is a usage error
    (exit 2, one line naming the flag), never a traceback or a silently
    ignored value."""

    QUICKSTART = Path(__file__).resolve().parents[1] / (
        "examples/traces/quickstart.std"
    )

    @pytest.mark.parametrize("argv", [
        ["analyze", "{trace}", "--max-events", "-5"],
        ["analyze", "{trace}", "--max-events", "0"],
        ["analyze", "{trace}", "--window", "-3"],
        ["analyze", "{trace}", "--window", "0"],
        ["serve", "--max-events", "-5"],
        ["serve", "--max-events", "0"],
    ])
    def test_non_positive_count_is_a_usage_error(self, argv, capsys):
        argv = [arg.format(trace=self.QUICKSTART) for arg in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert argv[-2] in err and "must be a positive integer" in err

    def test_positive_counts_still_apply(self, capsys):
        code = main([
            "analyze", str(self.QUICKSTART), "--max-events", "3",
            "--window", "2",
        ])
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err


class TestClosedStdout:
    def test_reader_closing_after_the_first_line(self, tmp_path):
        """``analyze FILE | head -1``: the report is larger than a pipe
        holds, so the write after the reader left fails; the command
        exits 141 with nothing on stderr."""
        import os
        import subprocess
        import sys

        from repro.cli import EXIT_STDOUT_CLOSED

        lines = []
        for i in range(3000):
            lines += ["t1|w(v%d)|a%d" % (i, i), "t2|w(v%d)|b%d" % (i, i)]
        path = tmp_path / "many.std"
        path.write_text("\n".join(lines) + "\n")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "analyze", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        )
        first = child.stdout.readline()
        child.stdout.close()
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == EXIT_STDOUT_CLOSED == 141
        assert first.startswith(b"WCP on many: 3000 distinct")
        assert stderr == b""

"""Tests for the run supervisor: coordinator crashes become bounded resumes.

The contract under test is the strongest one the checkpoint subsystem can
offer: a run whose *coordinator process* is hard-killed mid-stream and
auto-resumed from the newest checkpoint produces a report identical --
pairs, witnesses, distances -- to the uninterrupted run, for WCP and HB,
sharded and unsharded.  Every injected
``kill_coordinator`` fault is checked with ``FaultPlan.unfired()`` so a
kill that silently stopped firing fails the suite rather than passing it.
"""

import json
import os

import pytest

from repro import (
    EngineConfig,
    run_engine,
)
from repro.cli import main
from repro.engine import CoordinatorFailure, Fault, FaultPlan, RunSupervisor
from repro.engine.runner import _KILL_EXIT, _KillAt
from repro.engine.sources import IterableSource
from repro.trace.writers import dump_trace

from conftest import random_trace
from test_sharding import _fingerprint, fork_join_trace

DETECTORS = ["wcp", "hb"]


def _trace(seed=7):
    return random_trace(seed, n_events=300, n_threads=4, n_locks=2, n_vars=6)


def _pairs(report):
    return sorted(repr(pair) for pair in report.pairs())


def _assert_parity(result, reference):
    assert set(result.keys()) == set(reference.keys())
    for name in reference.keys():
        assert _fingerprint(result[name]) == _fingerprint(reference[name])
        assert _pairs(result[name]) == _pairs(reference[name])
    assert result.events == reference.events


class TestKillAndResumeParity:
    """SIGKILL mid-run, auto-resume, byte-identical reports."""

    @pytest.mark.parametrize("detector", DETECTORS)
    def test_unsharded_parity_through_kill(self, detector, tmp_path):
        trace = _trace(11)
        reference = run_engine(trace, [detector])
        plan = FaultPlan([Fault.kill_coordinator(160)])
        supervisor = RunSupervisor(
            trace, [detector],
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every=50, retries=2, backoff_s=0.0,
            fault_plan=plan,
        )
        result = supervisor.run()
        _assert_parity(result, reference)
        assert plan.unfired() == []
        assert supervisor.restarts == 1
        assert result.supervision["coordinator_restarts"] == 1

    def test_multi_detector_parity_through_kill(self, tmp_path):
        trace = _trace(13)
        reference = run_engine(trace, DETECTORS)
        plan = FaultPlan([Fault.kill_coordinator(200)])
        result = RunSupervisor(
            trace, DETECTORS,
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every=40, retries=2, backoff_s=0.0,
            fault_plan=plan,
        ).run()
        _assert_parity(result, reference)
        assert plan.unfired() == []

    def test_sharded_process_mode_parity_through_kill(self, tmp_path):
        trace = fork_join_trace(23, workers=3, steps=120)
        config = (
            EngineConfig()
            .with_shards(2, mode="process", batch_size=16)
            .with_shard_supervision(backoff_s=0.0, snapshot_every=4)
        )
        reference = run_engine(trace, ["wcp", "hb"], config=config)
        plan = FaultPlan([Fault.kill_coordinator(150)])
        supervisor = RunSupervisor(
            trace, ["wcp", "hb"], config=config,
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every=50, retries=2, backoff_s=0.0,
            fault_plan=plan,
        )
        result = supervisor.run()
        _assert_parity(result, reference)
        assert plan.unfired() == []
        assert result.supervision["coordinator_restarts"] == 1

    def test_kill_before_first_checkpoint_reruns_fresh(self, tmp_path):
        trace = _trace(37)
        reference = run_engine(trace, ["wcp"])
        plan = FaultPlan([Fault.kill_coordinator(30)])
        supervisor = RunSupervisor(
            trace, ["wcp"],
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every=1000,  # no checkpoint before the kill
            retries=1, backoff_s=0.0, fault_plan=plan,
        )
        result = supervisor.run()
        _assert_parity(result, reference)
        assert plan.unfired() == []
        assert supervisor.restarts == 1

    def test_two_kills_need_two_retries(self, tmp_path):
        trace = _trace(41)
        reference = run_engine(trace, ["wcp"])
        plan = FaultPlan([
            Fault.kill_coordinator(80),
            Fault.kill_coordinator(190),
        ])
        supervisor = RunSupervisor(
            trace, ["wcp"],
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every=30, retries=3, backoff_s=0.0,
            fault_plan=plan,
        )
        result = supervisor.run()
        _assert_parity(result, reference)
        assert plan.unfired() == []
        assert supervisor.restarts == 2
        assert result.supervision["coordinator_restarts"] == 2

    def test_temp_checkpoint_dir_is_cleaned_up(self):
        trace = _trace(43)
        plan = FaultPlan([Fault.kill_coordinator(160)])
        supervisor = RunSupervisor(
            trace, ["wcp"], checkpoint_every=50,
            retries=2, backoff_s=0.0, fault_plan=plan,
        )
        private_dir = supervisor.checkpoint_dir
        result = supervisor.run()
        assert result.supervision["coordinator_restarts"] == 1
        assert not os.path.exists(private_dir)


class TestFailureModes:
    """Budget exhaustion and deterministic errors stay deterministic."""

    def test_retry_budget_exhausted_is_actionable(self, tmp_path):
        trace = _trace(47)
        directory = tmp_path / "ckpts"
        plan = FaultPlan([Fault.kill_coordinator(160)])
        supervisor = RunSupervisor(
            trace, ["wcp"], checkpoint_dir=str(directory),
            checkpoint_every=50, retries=0, backoff_s=0.0, fault_plan=plan,
        )
        with pytest.raises(CoordinatorFailure) as excinfo:
            supervisor.run()
        message = str(excinfo.value)
        assert "died 1 time(s)" in message
        assert str(directory) in message
        assert "--auto-resume" in message or "resume" in message
        # The checkpoints written before the crash survive for a manual
        # resume (the supervisor only removes directories it owns, and
        # only after success).
        assert list(directory.glob("ckpt-*.rckp"))

    def test_deterministic_child_error_is_not_retried(self, tmp_path):
        def bad_source():
            def events():
                raise ValueError("synthetic deterministic failure")
                yield  # pragma: no cover

            return IterableSource(events())

        supervisor = RunSupervisor(
            bad_source, ["wcp"], checkpoint_dir=str(tmp_path / "ckpts"),
            retries=3, backoff_s=0.0,
        )
        with pytest.raises(ValueError, match="synthetic deterministic"):
            supervisor.run()
        assert supervisor.restarts == 0

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RunSupervisor(_trace(), ["wcp"], retries=-1)

    def test_success_without_faults_reports_zero_restarts(self, tmp_path):
        trace = _trace(53)
        reference = run_engine(trace, ["wcp"])
        supervisor = RunSupervisor(
            trace, ["wcp"], checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every=100,
        )
        result = supervisor.run()
        _assert_parity(result, reference)
        assert supervisor.restarts == 0
        assert result.supervision["coordinator_restarts"] == 0


class TestCoordinatorKillPlan:
    """FaultPlan plumbing for the new coordinator-kill kind."""

    def test_take_coordinator_kill_consumes_once(self):
        plan = FaultPlan([Fault.kill_coordinator(42)])
        assert plan.take_coordinator_kill() == 42
        assert plan.take_coordinator_kill() is None
        assert plan.unfired() == []

    def test_take_coordinator_kill_ignores_other_kinds(self):
        plan = FaultPlan([Fault.kill_worker(0, 10)])
        assert plan.take_coordinator_kill() is None
        assert len(plan.unfired()) == 1

    def test_kill_at_wrapper_is_transparent_below_threshold(self):
        trace = _trace(59)
        wrapped = _KillAt(trace, 10 ** 9)
        events = list(wrapped)
        assert len(events) == len(trace)
        assert wrapped.is_complete
        assert _KILL_EXIT == 137


class TestAutoResumeCLI:
    """analyze --auto-resume end to end through the real CLI."""

    def test_auto_resume_json_matches_unsupervised(self, tmp_path, capsys):
        trace = _trace(61)
        trace_path = tmp_path / "trace.std"
        dump_trace(trace, trace_path)

        plain_json = tmp_path / "plain.json"
        code = main([
            "analyze", str(trace_path), "--detector", "wcp",
            "--json", str(plain_json),
        ])
        plain_output = capsys.readouterr()

        supervised_json = tmp_path / "supervised.json"
        supervised_code = main([
            "analyze", str(trace_path), "--detector", "wcp",
            "--checkpoint", str(tmp_path / "ckpts"),
            "--checkpoint-every", "50",
            "--auto-resume", "2",
            "--json", str(supervised_json),
        ])
        supervised_output = capsys.readouterr()

        assert supervised_code == code

        def normalized(text, json_path):
            # Timing statistics legitimately differ between runs; every
            # finding line must not.
            return [
                line.replace(str(json_path), "OUT")
                for line in text.splitlines()
                if not line.lstrip().startswith(
                    ("stat time_s", "stat events_per_s")
                )
            ]

        assert normalized(supervised_output.out, supervised_json) == (
            normalized(plain_output.out, plain_json)
        )
        plain = json.loads(plain_json.read_text())
        supervised = json.loads(supervised_json.read_text())
        plain.pop("stats", None)
        supervised.pop("stats", None)
        assert supervised == plain

    def test_auto_resume_rejects_window(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.std"
        dump_trace(_trace(67), trace_path)
        code = main([
            "analyze", str(trace_path), "--window", "10",
            "--auto-resume", "1",
        ])
        assert code == 2
        assert "--auto-resume" in capsys.readouterr().err

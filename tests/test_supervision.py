"""Tests for shard worker death, its recovery and the fault-injection harness.

A shard worker that dies -- killed, crashed or stalled -- ends the sharded
pass at once with one actionable :class:`WorkerFailure` that names the
shard, never a raw ``EOFError`` and never a hang.  The run supervisor
(:class:`RunSupervisor`, ``analyze --auto-resume``) is the one recovery
mechanism: it treats that failure as a crash and resumes the run from its
newest checkpoint.  For every deterministic worker kill, on every
transport, the recovered report is byte-identical -- witnesses and
distances included -- to the fault-free run.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import (
    CoordinatorFailure,
    EngineConfig,
    Fault,
    FaultPlan,
    HBDetector,
    QueueSource,
    RaceEngine,
    RunSupervisor,
    ShardedEngine,
    WorkerFailure,
)
from repro.bench.generators import mixed_vocabulary_trace
import repro.engine.sharding as sharding
from repro.cli import main
from repro.engine.checkpoint import detector_stamp
from repro.engine.faults import corrupt_blob
from repro.engine.partition import ROUTE_CLOCK, StreamPartitioner, owner_of
from repro.engine.sharding import _ProcessTransport, _ShardWorker
from repro.engine.sources import TraceSource
from repro.trace.event import EventType
from repro.trace.writers import dump_trace

from conftest import random_trace
from test_sharding import _fingerprint, fork_join_trace

DETECTORS = ["wcp", "hb"]
MODES = ["serial", "process"]


def _config(mode="serial", shards=3, batch_size=16, plan=None):
    config = EngineConfig().with_shards(shards, mode=mode,
                                        batch_size=batch_size)
    if plan is not None:
        config.with_fault_plan(plan)
    return config


def _sharded(trace, plan=None, mode="serial", detectors=DETECTORS):
    return ShardedEngine(_config(mode, plan=plan)).run(
        trace, detectors=detectors
    )


def _supervised(trace, plan, tmp_path, mode="serial", retries=2,
                checkpoint_every=50, source=None):
    """Run ``trace`` sharded under a RunSupervisor that owns ``plan``."""
    supervisor = RunSupervisor(
        source if source is not None else trace, DETECTORS,
        config=_config(mode), checkpoint_dir=str(tmp_path / "ckpts"),
        checkpoint_every=checkpoint_every, retries=retries, backoff_s=0.0,
        fault_plan=plan,
    )
    return supervisor, supervisor.run()


def _witnesses(report):
    return [
        (
            sorted(pair.locations), pair.first_event.index,
            pair.second_event.index, report.distance_of(pair),
        )
        for pair in report.pairs()
    ], report.raw_race_count


def _assert_parity(trace, result, detectors=DETECTORS):
    single = RaceEngine().run(trace, detectors=detectors)
    for name in single.keys():
        assert _fingerprint(single[name]) == _fingerprint(result[name])
        assert _witnesses(single[name]) == _witnesses(result[name]), name


# --------------------------------------------------------------------- #
# The fault plan itself
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_faults_fire_exactly_once(self):
        plan = FaultPlan([Fault.disconnect(3)])
        assert not plan.disconnect_at(2)
        assert plan.disconnect_at(3)
        assert not plan.disconnect_at(3)
        assert plan.fired() and not plan.unfired()

    def test_shard_and_position_must_match(self):
        plan = FaultPlan([Fault.kill_worker(1, 5), Fault.reset_connection(5)])
        assert plan.take_kill_event(0) is None
        assert plan.take_kill_event(1) == 5
        assert not plan.reset_connection_at(4)
        assert plan.reset_connection_at(5)

    def test_take_kill_event_consumes(self):
        plan = FaultPlan([Fault.kill_worker(2, 40)])
        assert plan.take_kill_event(0) is None
        assert plan.take_kill_event(2) == 40
        # One-shot: a resumed attempt does not re-inherit the fault.
        assert plan.take_kill_event(2) is None

    def test_take_worker_kill_takes_one_per_call(self):
        plan = FaultPlan([
            Fault.kill_coordinator(7),
            Fault.kill_worker(2, 40),
            Fault.kill_worker(0, 10),
        ])
        first = plan.take_worker_kill()
        assert (first.shard, first.at) == (2, 40)
        second = plan.take_worker_kill()
        assert (second.shard, second.at) == (0, 10)
        assert plan.take_worker_kill() is None
        assert plan.unfired() == [plan.faults[0]]

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meteor-strike", 0, 1)
        with pytest.raises(ValueError, match=">= 0"):
            Fault.kill_worker(0, -1)

    @pytest.mark.parametrize("kind", [
        "drop_ack", "duplicate_ack", "corrupt_snapshot", "pipe_eof",
    ])
    def test_removed_kinds_are_unknown(self, kind):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind, 0, 1)

    def test_repr_tracks_firing(self):
        plan = FaultPlan.kill(1, at_event=10)
        assert "0 fired" in repr(plan)
        plan.take_kill_event(1)
        assert "1 fired" in repr(plan)
        assert "fired" in repr(plan.faults[0])

    def test_corrupt_blob_flips_one_byte(self):
        blob = bytes(range(32))
        mutated = corrupt_blob(blob)
        assert len(mutated) == len(blob)
        assert sum(a != b for a, b in zip(blob, mutated)) == 1
        assert corrupt_blob(b"") == b""


# --------------------------------------------------------------------- #
# Recovery under the run supervisor: parity through worker kills
# --------------------------------------------------------------------- #


class TestFaultParity:
    """A killed worker ends the attempt; the supervisor resumes from the
    newest checkpoint and the report equals the fault-free run exactly,
    on every transport."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", ["random", "forkjoin"])
    def test_worker_kill_parity(self, mode, kind, tmp_path):
        trace = (
            random_trace(17, n_events=240, n_threads=4, n_locks=2, n_vars=6)
            if kind == "random" else fork_join_trace(2)
        )
        plan = FaultPlan.kill(1, at_event=30)
        supervisor, result = _supervised(trace, plan, tmp_path, mode=mode)
        _assert_parity(trace, result)
        assert plan.unfired() == []
        assert supervisor.restarts == 1

    def test_two_shards_lost_in_one_run(self, tmp_path):
        trace = random_trace(37, n_events=240, n_threads=4, n_vars=6)
        plan = FaultPlan([
            Fault.kill_worker(0, 20),
            Fault.kill_worker(2, 35),
        ])
        supervisor, result = _supervised(
            trace, plan, tmp_path, mode="process"
        )
        _assert_parity(trace, result)
        assert plan.unfired() == []
        assert supervisor.restarts == 2

    def test_kill_after_snapshot_restores_from_snapshot(self, tmp_path):
        """A late kill resumes from a checkpoint, not the stream start:
        the resumed attempt seeks its source past offset 0."""
        trace = random_trace(41, n_events=240, n_threads=4, n_vars=6)
        seeks = tmp_path / "seeks"

        def source():
            made = TraceSource(trace)
            seek = made.seek_events

            def logged(events):
                with open(seeks, "a") as handle:
                    handle.write("%d\n" % events)
                seek(events)

            made.seek_events = logged
            return made

        plan = FaultPlan.kill(1, at_event=80)
        supervisor, result = _supervised(
            trace, plan, tmp_path, checkpoint_every=30, source=source,
        )
        _assert_parity(trace, result)
        assert supervisor.restarts == 1
        offsets = [int(line) for line in seeks.read_text().split()]
        assert len(offsets) == 1 and offsets[0] > 0
        assert offsets[0] % 30 == 0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("at_event", [40, 150])
    def test_kill_of_a_shard_holding_foreign_variables(
        self, mode, at_event, tmp_path
    ):
        """WCP and HB beside each other send clock-relevant accesses of
        variables shard 1 does not own to shard 1, which marks them
        foreign.  Killed before or after its checkpoints carry those
        marks, the resumed shard must race-check none of them: the
        report keeps every witness and distance of the unsharded run."""
        trace = mixed_vocabulary_trace(5, threads=4, steps=160)
        partitioner = StreamPartitioner(3)
        foreign_to_1 = {
            event.target for event in trace
            if partitioner.classify(event)[0] == ROUTE_CLOCK
            and owner_of(event.target, 3) != 1
        }
        assert foreign_to_1
        plan = FaultPlan.kill(1, at_event=at_event)
        supervisor, result = _supervised(trace, plan, tmp_path, mode=mode)
        assert plan.unfired() == []
        assert supervisor.restarts == 1
        _assert_parity(trace, result)


# --------------------------------------------------------------------- #
# Without recovery: one actionable error, never a raw EOFError
# --------------------------------------------------------------------- #


class TestFailureModes:
    @pytest.mark.parametrize("mode", MODES)
    def test_fail_fast_single_actionable_error(self, mode):
        """A worker death ends the pass with one line naming the shard
        and pointing to --auto-resume, and leaves no worker running."""
        trace = random_trace(47, n_events=200, n_threads=4, n_vars=6)
        plan = FaultPlan.kill(1, at_event=20)
        with pytest.raises(WorkerFailure) as exc:
            _sharded(trace, plan, mode=mode)
        message = str(exc.value)
        assert message.startswith("shard 1 worker died")
        assert exc.value.shard == 1
        assert "--auto-resume" in message
        assert "\n" not in message
        assert not isinstance(exc.value, EOFError)
        assert plan.unfired() == []
        assert multiprocessing.active_children() == []

    def test_retries_zero_disables_failover(self, tmp_path):
        """The supervisor's retry budget is the only one: with none
        left, a worker death ends the run with CoordinatorFailure, which
        names the dead shard."""
        trace = random_trace(47, n_events=200, n_threads=4, n_vars=6)
        with pytest.raises(CoordinatorFailure) as exc:
            _supervised(trace, FaultPlan.kill(1, at_event=20), tmp_path,
                        retries=0)
        message = str(exc.value)
        assert "died 1 time(s)" in message
        assert "shard 1 worker died" in message

    def test_retry_budget_exhausted_is_actionable(self, tmp_path):
        trace = random_trace(53, n_events=240, n_threads=4, n_vars=6)
        # Two kills for the same shard: the resumed attempt dies too.
        plan = FaultPlan([
            Fault.kill_worker(1, 20),
            Fault.kill_worker(1, 10),
        ])
        with pytest.raises(CoordinatorFailure,
                           match="retry budget is exhausted"):
            _supervised(trace, plan, tmp_path, retries=1)
        assert plan.unfired() == []

    def test_process_cause_names_the_exit_code(self):
        trace = random_trace(59, n_events=200, n_threads=4, n_vars=6)
        plan = FaultPlan.kill(0, at_event=20)
        with pytest.raises(WorkerFailure) as exc:
            _sharded(trace, plan, mode="process")
        assert "worker exit code 17" in str(exc.value)


class TestSupervisionSettings:
    def test_config_repr_mentions_fault_state(self):
        config = EngineConfig().with_fault_plan(FaultPlan.kill(0, 1))
        config.with_shards(2, mode="serial")
        text = repr(config)
        assert "shards=2[serial]" in text
        assert "FaultPlan" in text


# --------------------------------------------------------------------- #
# Shutdown escalation ladder (terminate -> kill)
# --------------------------------------------------------------------- #


class _StubProcess:
    def __init__(self, survive_join=True, survive_terminate=False):
        self.calls = []
        self.exitcode = None
        self._alive = True
        self._survive_join = survive_join
        self._survive_terminate = survive_terminate

    def join(self, timeout=None):
        self.calls.append("join")
        if not self._survive_join:
            self._alive = False

    def is_alive(self):
        return self._alive

    def terminate(self):
        self.calls.append("terminate")
        if not self._survive_terminate:
            self._alive = False

    def kill(self):
        self.calls.append("kill")
        self._alive = False


class _StubConn:
    def close(self):
        pass


def _shutdown_transport(process):
    transport = object.__new__(_ProcessTransport)
    transport.shard_id = 0
    transport.process = process
    transport.conn = _StubConn()
    return transport


class TestShutdownEscalation:
    def test_graceful_exit_never_escalates(self):
        process = _StubProcess(survive_join=False)
        _shutdown_transport(process)._shutdown()
        assert "terminate" not in process.calls
        assert "kill" not in process.calls

    def test_stuck_worker_is_terminated(self):
        process = _StubProcess(survive_join=True, survive_terminate=False)
        _shutdown_transport(process)._shutdown()
        assert "terminate" in process.calls
        assert "kill" not in process.calls
        assert not process.is_alive()

    def test_sigterm_immune_worker_is_killed(self):
        process = _StubProcess(survive_join=True, survive_terminate=True)
        _shutdown_transport(process)._shutdown()
        assert process.calls.index("terminate") < process.calls.index("kill")
        assert not process.is_alive()

    def test_abort_escalates_only_past_sigterm(self):
        process = _StubProcess(survive_join=True, survive_terminate=True)
        _shutdown_transport(process).abort()
        assert process.calls[0] == "terminate"
        assert "kill" in process.calls
        assert not process.is_alive()


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #


def _kill_in_cli(monkeypatch, plan):
    """Attach ``plan`` to the engine configuration the CLI builds."""
    import repro.cli as cli

    build = cli._make_engine_config
    monkeypatch.setattr(
        cli, "_make_engine_config",
        lambda args: build(args).with_fault_plan(plan),
    )


class TestSupervisionCli:
    def _trace_path(self, tmp_path, n_events=80):
        trace = random_trace(61, n_events=n_events, n_threads=3)
        return str(dump_trace(trace, tmp_path / "t.std"))

    @pytest.mark.parametrize("flag", [
        ["--fail-fast"], ["--shard-policy", "rr"],
        ["--shard-retries", "0"], ["--shard-heartbeat", "5"],
    ])
    def test_removed_flags_are_unrecognised(self, tmp_path, capsys, flag):
        path = self._trace_path(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--shards", "2"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag[0] in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("mode", MODES)
    def test_worker_death_is_one_stderr_line(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        path = self._trace_path(tmp_path, n_events=200)
        plan = FaultPlan.kill(1, at_event=20)
        _kill_in_cli(monkeypatch, plan)
        code = main(["analyze", path, "--detector", "wcp,hb",
                     "--shards", "2", "--shard-mode", mode])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("shard 1 worker died")
        assert "--auto-resume" in captured.err
        assert "Traceback" not in captured.err
        assert plan.unfired() == []
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("mode", MODES)
    def test_auto_resume_recovers_a_killed_worker(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        path = self._trace_path(tmp_path, n_events=400)
        assert main(["analyze", path, "--detector", "wcp,hb",
                     "--json", str(tmp_path / "full.json")]) in (0, 1)
        capsys.readouterr()
        plan = FaultPlan.kill(1, at_event=150)
        _kill_in_cli(monkeypatch, plan)
        code = main([
            "analyze", path, "--detector", "wcp,hb", "--shards", "2",
            "--shard-mode", mode, "--checkpoint", str(tmp_path / "ck"),
            "--checkpoint-every", "50", "--auto-resume", "2",
            "--json", str(tmp_path / "sharded.json"),
        ])
        assert code in (0, 1)
        assert "restarted 1 time(s)" in capsys.readouterr().err
        assert plan.unfired() == []
        _assert_same_json(tmp_path, "full", "sharded")

    def test_auto_resume_recovers_a_sigkilled_worker(
        self, tmp_path, capsys, monkeypatch
    ):
        """A real SIGKILL, delivered to one process worker of the first
        attempt (the marker file makes it once across the forks)."""
        _require_fork()
        path = self._trace_path(tmp_path, n_events=400)
        assert main(["analyze", path, "--detector", "wcp,hb",
                     "--json", str(tmp_path / "full.json")]) in (0, 1)
        capsys.readouterr()
        marker = tmp_path / "killed"
        original = _ShardWorker.process_batch

        def sigkill_once(self, batch):
            if self.shard_id == 1 and self.events >= 100:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os.kill(os.getpid(), signal.SIGKILL)
            return original(self, batch)

        monkeypatch.setattr(_ShardWorker, "process_batch", sigkill_once)
        code = main([
            "analyze", path, "--detector", "wcp,hb", "--shards", "2",
            "--checkpoint", str(tmp_path / "ck"), "--checkpoint-every", "50",
            "--auto-resume", "2", "--json", str(tmp_path / "sharded.json"),
        ])
        assert code in (0, 1)
        assert marker.exists()
        err = capsys.readouterr().err
        assert "restarted 1 time(s)" in err
        _assert_same_json(tmp_path, "full", "sharded")


def _assert_same_json(tmp_path, expected, actual):
    import json

    for label in ("wcp", "hb"):
        want = json.loads((tmp_path / ("%s.%s.json" % (expected, label)))
                          .read_text())
        got = json.loads((tmp_path / ("%s.%s.json" % (actual, label)))
                         .read_text())
        want.pop("stats")
        got.pop("stats")
        assert got == want, label


# --------------------------------------------------------------------- #
# QueueSource governance (abrupt producer death)
# --------------------------------------------------------------------- #


class TestQueueSourceGovernance:
    def _push_one(self, source):
        source.push("t1", EventType.WRITE, "x", loc="a:1")

    def test_dead_producer_surfaces_not_hangs(self):
        source = QueueSource(name="dead")
        producer = threading.Thread(target=self._push_one, args=(source,))
        source.attach_producer(producer)
        producer.start()
        producer.join()
        with pytest.raises(RuntimeError, match="died without closing"):
            list(source)

    def test_abort_is_governed_and_sticky(self):
        source = QueueSource(name="gone")
        self._push_one(source)
        source.abort("client went away")
        with pytest.raises(RuntimeError, match="client went away"):
            list(source)
        # The sentinel is re-armed: a second drain errors too.
        with pytest.raises(RuntimeError, match="client went away"):
            list(source)
        assert source.closed
        with pytest.raises(RuntimeError):
            self._push_one(source)

    def test_healthy_producer_unaffected(self):
        source = QueueSource(name="fine")

        def produce():
            self._push_one(source)
            source.close()

        producer = threading.Thread(target=produce)
        source.attach_producer(producer)
        producer.start()
        assert len(list(source)) == 1
        producer.join()


# --------------------------------------------------------------------- #
# Hung-but-alive process workers (stall detection)
# --------------------------------------------------------------------- #


def _hang_forever(self, batch):
    time.sleep(3600)  # alive, never progresses again


def _require_fork():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("faults are injected by patching forked workers")


def _hung_process_transport(monkeypatch):
    """A process transport whose worker hangs on its first batch."""
    _require_fork()
    monkeypatch.setattr(_ShardWorker, "process_batch", _hang_forever)
    monkeypatch.setattr(sharding, "STALL_TIMEOUT_S", 0.2)
    return _ProcessTransport(
        (0, [detector_stamp(HBDetector())], "hung", None, None),
        0, multiprocessing.get_context(),
    )


class TestStallDetection:
    """A hung-but-alive worker process is *declared* dead once it stays
    silent past ``STALL_TIMEOUT_S`` on a request that needs a reply."""

    def test_unanswered_snapshot_is_declared_dead(self, monkeypatch):
        transport = _hung_process_transport(monkeypatch)
        try:
            transport.send([("event",)])
            token = transport.snapshot_begin()
            with pytest.raises(WorkerFailure) as excinfo:
                transport.snapshot_end(token)
            assert "alive but stalled" in str(excinfo.value)
            assert transport.process.is_alive()
        finally:
            transport.abort()
        assert not transport.process.is_alive()

    def test_hung_finish_is_declared_dead(self, monkeypatch):
        transport = _hung_process_transport(monkeypatch)
        try:
            transport.send([("event",)])
            with pytest.raises(WorkerFailure, match="no finish reply"):
                transport.finish()
        finally:
            transport.abort()

    def test_hung_process_worker_is_proactively_restarted(
        self, monkeypatch, tmp_path
    ):
        """End to end: one shard's worker process hangs mid-run; the
        stall timeout declares it dead, the supervisor resumes the run
        and the report keeps parity."""
        _require_fork()
        marker = tmp_path / "hung"
        original = _ShardWorker.process_batch

        def hang_once(self, batch):
            # Forked workers share only the filesystem: the first one to
            # create the marker hangs; every other worker runs normally.
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                return original(self, batch)
            _hang_forever(self, batch)

        monkeypatch.setattr(_ShardWorker, "process_batch", hang_once)
        # Generous enough that a healthy worker on a loaded machine is
        # never mistaken for a hung one.
        monkeypatch.setattr(sharding, "STALL_TIMEOUT_S", 1.0)
        trace = fork_join_trace(5, workers=3, steps=120)
        started = time.monotonic()
        supervisor, result = _supervised(
            trace, None, tmp_path, mode="process"
        )
        assert time.monotonic() - started < 30
        assert marker.exists()
        _assert_parity(trace, result)
        assert supervisor.restarts == 1


class TestMixedVocabularyFaults:
    """Recovery parity when the trace uses the full vocabulary.

    Replicated rwlock/barrier/wait/notify events land in every worker's
    checkpointed state, so a worker killed mid-read-section or
    mid-barrier generation must resume to a byte-identical report.
    """

    @pytest.mark.parametrize("mode", MODES)
    def test_worker_kill_parity(self, mode, tmp_path):
        trace = mixed_vocabulary_trace(1, steps=160)
        plan = FaultPlan.kill(0, at_event=40)
        supervisor, result = _supervised(trace, plan, tmp_path, mode=mode)
        _assert_parity(trace, result)
        assert plan.unfired() == []
        assert supervisor.restarts == 1

    def test_kill_at_late_offset_parity(self, tmp_path):
        trace = mixed_vocabulary_trace(4, steps=160)
        shard_1_events = ShardedEngine(_config()).run(
            trace, detectors=DETECTORS
        ).shard_events[1]
        plan = FaultPlan.kill(1, at_event=shard_1_events - 30)
        supervisor, result = _supervised(trace, plan, tmp_path)
        _assert_parity(trace, result)
        assert supervisor.restarts == 1

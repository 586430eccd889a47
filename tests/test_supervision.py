"""Tests for worker supervision, shard failover and fault injection.

The acceptance criterion from the fault-tolerance work: for every
deterministic :class:`FaultPlan` in {worker kill at an arbitrary event,
dropped ack, corrupted snapshot blob, severed pipe}, on every transport,
the sharded run's merged report is byte-identical -- witnesses and
distances included -- to the fault-free run; and when recovery is
disabled (retries=0, which fails fast) or retries are exhausted, the run
dies with one actionable :class:`WorkerFailure`, never a raw
``EOFError``.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro import (
    EngineConfig,
    Fault,
    FaultPlan,
    HBDetector,
    QueueSource,
    RaceEngine,
    ShardedEngine,
    WorkerFailure,
)
from repro.bench.generators import mixed_vocabulary_trace
from repro.cli import main
from repro.engine.checkpoint import detector_stamp
from repro.engine.faults import corrupt_blob
from repro.engine.faults import WorkerDied
from repro.engine.partition import ROUTE_CLOCK, StreamPartitioner, owner_of
from repro.engine.sharding import _ProcessTransport, _ShardWorker
from repro.engine.supervision import SupervisedTransport, new_supervision_stats
from repro.trace.event import EventType
from repro.trace.writers import dump_trace

from conftest import random_trace
from test_sharding import _fingerprint, fork_join_trace

DETECTORS = ["wcp", "hb"]
MODES = ["serial", "process"]


def _sharded(trace, plan=None, mode="serial", shards=3, batch_size=16,
             detectors=DETECTORS, **supervision):
    config = EngineConfig().with_shards(shards, mode=mode,
                                        batch_size=batch_size)
    supervision.setdefault("backoff_s", 0.0)
    supervision.setdefault("snapshot_every", 4)
    config.with_shard_supervision(**supervision)
    if plan is not None:
        config.with_fault_plan(plan)
    return ShardedEngine(config).run(trace, detectors=detectors)


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


# --------------------------------------------------------------------- #
# The fault plan itself
# --------------------------------------------------------------------- #


class TestFaultPlan:
    def test_faults_fire_exactly_once(self):
        plan = FaultPlan([Fault.drop_ack(0, 3)])
        assert not plan.drop_ack(0, 2)
        assert plan.drop_ack(0, 3)
        assert not plan.drop_ack(0, 3)
        assert plan.fired() and not plan.unfired()

    def test_shard_and_position_must_match(self):
        plan = FaultPlan([Fault.duplicate_ack(1, 5)])
        assert not plan.duplicate_ack(0, 5)
        assert not plan.duplicate_ack(1, 4)
        assert plan.duplicate_ack(1, 5)

    def test_take_kill_event_consumes(self):
        plan = FaultPlan([Fault.kill_worker(2, 40)])
        assert plan.take_kill_event(0) is None
        assert plan.take_kill_event(2) == 40
        # One-shot: a restarted worker does not re-inherit the fault.
        assert plan.take_kill_event(2) is None

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("meteor-strike", 0, 1)
        with pytest.raises(ValueError, match=">= 0"):
            Fault.kill_worker(0, -1)

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
# Parity through injected failures (the tentpole acceptance suite)
# --------------------------------------------------------------------- #


class TestFaultParity:
    """Killed, throttled or corrupted -- the merged report must equal the
    uninterrupted run exactly, on every transport."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("kind", ["random", "forkjoin"])
    def test_worker_kill_parity(self, mode, kind):
        trace = (
            random_trace(17, n_events=240, n_threads=4, n_locks=2, n_vars=6)
            if kind == "random" else fork_join_trace(2)
        )
        plan = FaultPlan.kill(1, at_event=30)
        result = _sharded(trace, plan, mode=mode)
        _assert_parity(trace, result)
        assert plan.unfired() == []
        assert result.supervision["worker_restarts"] == 1
        assert result.supervision["restarts_by_shard"] == {1: 1}

    @pytest.mark.parametrize("mode", MODES)
    def test_dropped_ack_parity(self, mode):
        trace = random_trace(23, n_events=200, n_threads=4, n_vars=6)
        plan = FaultPlan([Fault.drop_ack(0, 1)])
        result = _sharded(trace, plan, mode=mode)
        _assert_parity(trace, result)
        assert plan.unfired() == []
        # A swallowed ack alone is benign: later acks keep flowing, so
        # the worker is never declared dead.
        assert result.supervision["worker_restarts"] == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_duplicate_ack_parity(self, mode):
        trace = random_trace(23, n_events=200, n_threads=4, n_vars=6)
        plan = FaultPlan([Fault.duplicate_ack(1, 0)])
        result = _sharded(trace, plan, mode=mode)
        _assert_parity(trace, result)
        assert plan.unfired() == []
        assert result.supervision["worker_restarts"] == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_corrupt_snapshot_falls_back_parity(self, mode):
        """The newest retained snapshot is bit-flipped; failover must
        fall back (counted) and still reproduce the exact report."""
        trace = random_trace(29, n_events=240, n_threads=4, n_locks=2,
                             n_vars=6)
        plan = FaultPlan([
            Fault.corrupt_snapshot(1, 0),
            Fault.kill_worker(1, 80),
        ])
        result = _sharded(trace, plan, mode=mode)
        _assert_parity(trace, result)
        assert plan.unfired() == []
        assert result.supervision["worker_restarts"] == 1
        assert result.supervision["snapshot_fallbacks"] >= 1

    @pytest.mark.parametrize("mode", MODES)
    def test_pipe_eof_parity(self, mode):
        trace = random_trace(31, n_events=200, n_threads=4, n_vars=6)
        plan = FaultPlan([Fault.pipe_eof(2, 3)])
        result = _sharded(trace, plan, mode=mode)
        _assert_parity(trace, result)
        assert plan.unfired() == []
        assert result.supervision["worker_restarts"] == 1
        assert result.supervision["restarts_by_shard"] == {2: 1}

    def test_two_shards_lost_in_one_run(self):
        trace = random_trace(37, n_events=240, n_threads=4, n_vars=6)
        plan = FaultPlan([
            Fault.kill_worker(0, 20),
            Fault.kill_worker(2, 35),
        ])
        result = _sharded(trace, plan, mode="process")
        _assert_parity(trace, result)
        assert plan.unfired() == []
        assert result.supervision["worker_restarts"] == 2
        assert result.supervision["restarts_by_shard"] == {0: 1, 2: 1}

    def test_kill_after_snapshot_restores_from_snapshot(self):
        """A late kill restores from a periodic snapshot (not the stream
        start): the replay buffer no longer reaches batch 1."""
        trace = random_trace(41, n_events=240, n_threads=4, n_vars=6)
        plan = FaultPlan.kill(1, at_event=80)
        config = EngineConfig().with_shards(3, mode="serial", batch_size=16)
        config.with_shard_supervision(snapshot_every=4, backoff_s=0.0)
        config.with_fault_plan(plan)
        engine = ShardedEngine(config)
        result = engine.run(trace, detectors=DETECTORS)
        _assert_parity(trace, result)
        assert result.supervision["worker_restarts"] == 1
        assert result.supervision["snapshot_fallbacks"] == 0

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("at_event", [40, 150])
    def test_kill_of_a_shard_holding_foreign_variables(self, mode, at_event):
        """WCP and HB beside each other send clock-relevant
        accesses of variables shard 1 does not own to shard 1, which marks
        them foreign.  Killed before or after its snapshots carry those
        marks, it must come back race-checking none of them: the merged
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
        result = _sharded(trace, plan, mode=mode)
        assert plan.unfired() == []
        assert result.supervision["worker_restarts"] == 1
        single = RaceEngine().run(trace, detectors=DETECTORS)
        for name in single.keys():
            assert _witnesses(result[name]) == _witnesses(single[name]), name

    def test_recovery_is_visible_in_summary(self):
        trace = random_trace(43, n_events=200, n_threads=4, n_vars=6)
        result = _sharded(trace, FaultPlan.kill(0, 25), mode="serial")
        assert "restart" in result.summary()
        clean = _sharded(trace, None, mode="serial")
        assert "restart" not in clean.summary()


# --------------------------------------------------------------------- #
# Non-recovery paths: one actionable error, never a raw EOFError
# --------------------------------------------------------------------- #


class TestFailureModes:
    @pytest.mark.parametrize("mode", MODES)
    def test_fail_fast_single_actionable_error(self, mode, monkeypatch):
        """retries=0 fails fast: the first death is one actionable error,
        and no shard ever takes a supervision snapshot or buffers a
        batch for replay."""
        snapshots = []
        refresh = SupervisedTransport._refresh_snapshot
        monkeypatch.setattr(
            SupervisedTransport, "_refresh_snapshot",
            lambda self: snapshots.append(self.shard) or refresh(self),
        )
        trace = random_trace(47, n_events=200, n_threads=4, n_vars=6)
        plan = FaultPlan.kill(1, at_event=20)
        with pytest.raises(WorkerFailure) as exc:
            _sharded(trace, plan, mode=mode, retries=0)
        message = str(exc.value)
        assert "shard 1" in message
        assert "failover is disabled" in message
        assert "--shard-retries" in message
        assert "\n" not in message
        assert not isinstance(exc.value, EOFError)
        assert snapshots == []

    def test_retries_zero_disables_failover(self):
        trace = random_trace(47, n_events=200, n_threads=4, n_vars=6)
        with pytest.raises(WorkerFailure, match="failover is disabled"):
            _sharded(trace, FaultPlan.kill(1, at_event=20), retries=0)

    def test_retry_budget_exhausted_is_actionable(self):
        trace = random_trace(53, n_events=240, n_threads=4, n_vars=6)
        # Two kills for the same shard: the restarted worker dies too.
        plan = FaultPlan([
            Fault.kill_worker(1, 20),
            Fault.kill_worker(1, 10),
        ])
        with pytest.raises(WorkerFailure, match="retry budget exhausted"):
            _sharded(trace, plan, retries=1)

    def test_process_cause_names_the_exit_code(self):
        trace = random_trace(59, n_events=200, n_threads=4, n_vars=6)
        plan = FaultPlan.kill(0, at_event=20)
        with pytest.raises(WorkerFailure) as exc:
            _sharded(trace, plan, mode="process", retries=0)
        assert "worker exit code 17" in str(exc.value)


# --------------------------------------------------------------------- #
# SupervisedTransport unit layer (stub transports, no engine)
# --------------------------------------------------------------------- #


class _StubTransport:
    """Scriptable transport: acks on demand, dies on demand."""

    def __init__(self, restore=None, auto_ack=True):
        self.restore = restore
        self.auto_ack = auto_ack
        self.sent = []
        self.fail_next = False
        self._alive = True
        self._acked = 0
        self._state = {"stub": 1}

    def send(self, batch):
        if self.fail_next:
            from repro.engine.faults import WorkerDied
            raise WorkerDied(0, "stub death")
        self.sent.append(list(batch))
        if self.auto_ack:
            self._acked += 1

    def poll_progress(self):
        return None

    def snapshot_begin(self):
        return None

    def snapshot_end(self, token):
        return self._state

    def snapshot(self):
        return self._state

    def finish(self):
        return {"finished": True}

    def abort(self):
        self._alive = False

    def acked(self):
        return self._acked

    def alive(self):
        return self._alive

    def break_pipe(self):
        pass

    def take_escalations(self):
        return 0


def _supervised(plan=None, **settings_kwargs):
    settings_kwargs.setdefault("retries", 2)
    settings_kwargs.setdefault("backoff_s", 0.0)
    config = EngineConfig().with_shard_supervision(**settings_kwargs)
    config.with_fault_plan(plan)
    stats = new_supervision_stats()
    incarnations = []

    def factory(restore):
        stub = _StubTransport(restore=restore)
        incarnations.append(stub)
        return stub

    transport = SupervisedTransport(0, factory, config, stats)
    return transport, incarnations, stats


class TestSupervisedTransportUnit:
    def test_heartbeat_timeout_restarts_and_replays(self):
        transport, incarnations, stats = _supervised(
            heartbeat_s=0.05, snapshot_every=0
        )
        incarnations[0].auto_ack = False  # the worker goes silent
        transport.send([("a",)])
        time.sleep(0.08)
        transport.send([("b",)])
        assert stats["heartbeat_timeouts"] == 1
        assert stats["worker_restarts"] == 1
        assert len(incarnations) == 2
        # The replacement saw the buffered batch, then the current one.
        assert incarnations[1].sent == [[("a",)], [("b",)]]
        assert incarnations[1].restore is None  # no snapshot existed yet

    def test_flowing_acks_never_time_out(self):
        transport, incarnations, stats = _supervised(
            heartbeat_s=0.05, snapshot_every=0
        )
        for index in range(3):
            transport.send([(index,)])
            time.sleep(0.06)  # silence, but nothing outstanding
        assert stats["worker_restarts"] == 0
        assert len(incarnations) == 1

    def test_dead_worker_detected_before_timeout(self):
        transport, incarnations, stats = _supervised(
            heartbeat_s=60.0, snapshot_every=0
        )
        incarnations[0].auto_ack = False
        transport.send([("a",)])
        incarnations[0]._alive = False
        transport.send([("b",)])
        assert stats["worker_restarts"] == 1
        assert stats["heartbeat_timeouts"] == 0
        assert incarnations[1].sent == [[("a",)], [("b",)]]

    def test_snapshot_retention_and_buffer_trim(self):
        transport, incarnations, _ = _supervised(snapshot_every=2)
        for index in range(8):
            transport.send([(index,)])
        # Snapshots at sent 2/4/6/8; only the two newest are retained,
        # and the buffer reaches back to the *older* one.
        assert [covered for covered, _ in transport._snapshots] == [6, 8]
        assert [seq for seq, _ in transport._buffer] == [7, 8]

    def test_failover_restores_newest_snapshot(self):
        transport, incarnations, stats = _supervised(snapshot_every=2)
        for index in range(8):
            transport.send([(index,)])
        incarnations[0].fail_next = True
        transport.send([("tail",)])
        assert stats["worker_restarts"] == 1
        assert incarnations[1].restore == {"stub": 1}
        assert incarnations[1].sent == [[("tail",)]]

    def test_corrupt_newest_snapshot_falls_back(self):
        plan = FaultPlan([Fault.corrupt_snapshot(0, 1)])
        transport, incarnations, stats = _supervised(
            plan=plan, snapshot_every=2
        )
        for index in range(4):
            transport.send([(index,)])
        incarnations[0].fail_next = True
        transport.send([("tail",)])
        assert stats["snapshot_fallbacks"] == 1
        assert stats["worker_restarts"] == 1
        # Restored from the older snapshot (covering sent=2): batches
        # 3, 4 and the current one replayed.
        assert incarnations[1].sent == [[(2,)], [(3,)], [("tail",)]]

    def test_every_snapshot_corrupt_is_actionable(self):
        plan = FaultPlan([
            Fault.corrupt_snapshot(0, index) for index in range(4)
        ])
        transport, incarnations, stats = _supervised(
            plan=plan, snapshot_every=2
        )
        for index in range(6):
            transport.send([(index,)])
        incarnations[0].fail_next = True
        with pytest.raises(WorkerFailure, match="no intact snapshot"):
            transport.send([("tail",)])
        assert stats["snapshot_fallbacks"] == 2

    def test_finish_clears_the_replay_buffer(self):
        transport, _, _ = _supervised(snapshot_every=0)
        transport.send([("a",)])
        assert transport._buffer
        assert transport.finish() == {"finished": True}
        assert transport._buffer == []


class TestSupervisionSettings:
    def test_from_config_roundtrip(self):
        """The transport runs on the config's fields: the snapshot
        cadence and the retry budget set through
        ``with_shard_supervision``."""
        transport, incarnations, stats = _supervised(
            retries=1, snapshot_every=3
        )
        assert transport.config.shard_retries == 1
        for index in range(6):
            transport.send([(index,)])
        assert [covered for covered, _ in transport._snapshots] == [3, 6]
        incarnations[0].fail_next = True
        transport.send([("tail",)])
        assert stats["worker_restarts"] == 1
        incarnations[1].fail_next = True
        with pytest.raises(WorkerFailure, match="retry budget exhausted"):
            transport.send([("again",)])

    def test_config_builder_validation(self):
        with pytest.raises(ValueError):
            EngineConfig().with_shard_supervision(retries=-1)
        with pytest.raises(ValueError):
            EngineConfig().with_shard_supervision(heartbeat_s=0)
        with pytest.raises(ValueError):
            EngineConfig().with_shard_supervision(snapshot_every=-1)
        with pytest.raises(ValueError):
            EngineConfig().with_shard_supervision(backoff_s=-0.1)

    def test_config_repr_mentions_fault_state(self):
        config = EngineConfig().with_fault_plan(FaultPlan.kill(0, 1))
        config.with_shards(2, mode="serial")
        config.with_shard_supervision(retries=0)
        text = repr(config)
        assert "shard_retries=0" in text
        assert "FaultPlan" in text


# --------------------------------------------------------------------- #
# Shutdown escalation ladder (satellite: terminate -> kill)
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
    transport.escalations = 0
    transport.process = process
    transport.conn = _StubConn()
    return transport


class TestShutdownEscalation:
    def test_graceful_exit_never_escalates(self):
        process = _StubProcess(survive_join=False)
        transport = _shutdown_transport(process)
        transport._shutdown()
        assert transport.escalations == 0
        assert "terminate" not in process.calls
        assert "kill" not in process.calls

    def test_stuck_worker_is_terminated(self):
        process = _StubProcess(survive_join=True, survive_terminate=False)
        transport = _shutdown_transport(process)
        transport._shutdown()
        assert transport.escalations == 1
        assert "terminate" in process.calls
        assert "kill" not in process.calls

    def test_sigterm_immune_worker_is_killed(self):
        process = _StubProcess(survive_join=True, survive_terminate=True)
        transport = _shutdown_transport(process)
        transport._shutdown()
        assert transport.escalations == 2
        assert "kill" in process.calls
        assert not process.is_alive()
        assert transport.take_escalations() == 2
        assert transport.take_escalations() == 0

    def test_abort_escalates_only_past_sigterm(self):
        process = _StubProcess(survive_join=True, survive_terminate=True)
        transport = _shutdown_transport(process)
        transport.abort()
        assert "kill" in process.calls
        assert transport.escalations == 1


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #


class TestSupervisionCli:
    def _trace_path(self, tmp_path):
        trace = random_trace(61, n_events=80, n_threads=3)
        return str(dump_trace(trace, tmp_path / "t.std"))

    def test_supervision_flags_accepted(self, tmp_path, capsys):
        path = self._trace_path(tmp_path)
        code = main([
            "analyze", path, "--detector", "wcp", "--shards", "2",
            "--shard-mode", "serial", "--shard-retries", "0",
            "--shard-heartbeat", "5",
        ])
        assert code in (0, 1)
        assert "WCP" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [
        ["--fail-fast"], ["--shard-policy", "rr"],
    ])
    def test_removed_flags_are_unrecognised(self, tmp_path, capsys, flag):
        path = self._trace_path(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--shards", "2"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag[0] in (
            capsys.readouterr().err)

    def test_negative_retries_rejected(self, tmp_path, capsys):
        path = self._trace_path(tmp_path)
        with pytest.raises(SystemExit):
            main(["analyze", path, "--shards", "2",
                  "--shard-retries", "-1"])
        assert "shard-retries" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# QueueSource governance (satellite: abrupt producer death)
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
# Hung-but-alive process workers (heartbeat-expiry stall detection)
# --------------------------------------------------------------------- #


def _hang_forever(self, batch):
    time.sleep(3600)  # alive, never progresses again


def _require_fork():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("hangs are injected by patching forked workers")


def _hung_process_transport(monkeypatch):
    """A process transport whose worker hangs on its first batch."""
    _require_fork()
    monkeypatch.setattr(_ShardWorker, "process_batch", _hang_forever)
    return _ProcessTransport(
        (0, [detector_stamp(HBDetector())], "hung", None, None),
        0, multiprocessing.get_context(), stall_timeout_s=0.2,
    )


class TestStallDetection:
    """A hung-but-alive worker process must be *declared* dead once the
    heartbeat expires -- tagged as a stall so supervision counts it as a
    heartbeat timeout, not a crash."""

    def test_unanswered_snapshot_is_declared_dead(self, monkeypatch):
        transport = _hung_process_transport(monkeypatch)
        try:
            transport.send([("event",)])
            token = transport.snapshot_begin()
            with pytest.raises(WorkerDied) as excinfo:
                transport.snapshot_end(token)
            assert getattr(excinfo.value, "stalled", False)
            assert "alive but stalled" in str(excinfo.value)
            assert transport.alive()
        finally:
            transport.abort()
        assert not transport.alive()

    def test_hung_finish_is_declared_dead(self, monkeypatch):
        transport = _hung_process_transport(monkeypatch)
        try:
            transport.send([("event",)])
            with pytest.raises(WorkerDied) as excinfo:
                transport.finish()
            assert getattr(excinfo.value, "stalled", False)
        finally:
            transport.abort()

    def test_hung_process_worker_is_proactively_restarted(
        self, monkeypatch, tmp_path
    ):
        """End to end: one shard's worker process hangs mid-run; the
        heartbeat declares it dead, the supervisor restarts the shard
        from snapshot+replay, and the merged report keeps parity."""
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
        trace = fork_join_trace(5, workers=3, steps=120)
        started = time.monotonic()
        # Generous enough that a healthy worker on a loaded machine is
        # never mistaken for a hung one.
        result = _sharded(trace, None, "process", heartbeat_s=1.0)
        assert time.monotonic() - started < 30
        assert marker.exists()
        _assert_parity(trace, result)
        assert result.supervision["heartbeat_timeouts"] >= 1
        assert result.supervision["worker_restarts"] >= 1


class TestMixedVocabularyFaults:
    """Fault-injection parity when the trace uses the full vocabulary.

    Replicated rwlock/barrier/wait/notify events land in every worker's
    snapshot, so a worker killed mid-read-section or mid-barrier
    generation must restore and replay to a byte-identical report.
    """

    @pytest.mark.parametrize("mode", MODES)
    def test_worker_kill_parity(self, mode):
        from repro.bench.generators import mixed_vocabulary_trace

        trace = mixed_vocabulary_trace(1, steps=160)
        result = _sharded(trace, FaultPlan.kill(0, at_event=40), mode=mode)
        _assert_parity(trace, result)

    def test_kill_at_late_offset_parity(self):
        from repro.bench.generators import mixed_vocabulary_trace

        trace = mixed_vocabulary_trace(4, steps=160)
        result = _sharded(
            trace, FaultPlan.kill(1, at_event=len(trace) - 30), mode="serial"
        )
        _assert_parity(trace, result)

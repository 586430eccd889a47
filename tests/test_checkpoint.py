"""Checkpoint/resume subsystem tests.

Covers the three layers of the snapshot protocol:

* the shared binary codec (:mod:`repro.vectorclock.codec`) that
  registries, epochs, clocks and whole detector states serialize through;
* the versioned detector snapshot protocol (round-trip parity for WCP,
  HB and FastTrack at arbitrary event offsets; fail-fast mismatch
  handling);
* the engine-level checkpoint/resume subsystem (pull and push sources,
  the sharded engine, the CLI surface, fresh-process resume).

The central property throughout: checkpointing at an arbitrary offset
and resuming must yield reports identical to an uninterrupted run --
witnesses and distances included.
"""

import asyncio
import random
import subprocess
import sys
import threading
import time

import pytest

from repro import (
    CPDetector,
    EngineConfig,
    FastTrackDetector,
    HBDetector,
    QueueSource,
    RaceEngine,
    ShardedEngine,
    WCPDetector,
    detect_races,
    resume_engine,
    run_engine,
)
from repro.analysis.windowing import WindowedDetector
from repro.cli import main
from repro.core.snapshot import (
    SnapshotMismatchError,
    SnapshotUnsupportedError,
    pack_state,
    unpack_state,
)
from repro.core.wcp_legacy import LegacyWCPDetector
from repro.engine import (
    Checkpoint,
    Checkpointer,
    CheckpointError,
    CheckpointMismatchError,
    CountingSource,
    EnginePass,
    FileSource,
    IterableSource,
    TraceSource,
    ValidatingSource,
)
from repro.engine.checkpoint import (
    build_detector,
    check_snapshot_support,
    detector_stamp,
    frame_blob,
    seek_source,
    unframe_blob,
)
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.trace.writers import dump_trace
from repro.vectorclock import DenseClock, Epoch, ThreadRegistry, VectorClock
from repro.vectorclock.codec import (
    CodecError,
    decode,
    decode_clock,
    encode,
    encode_clock,
)

from conftest import FileStreamWCP, UncensusedWCP, random_trace


def _fingerprint(report):
    """Everything that identifies a report's findings, witnesses included."""
    return (
        sorted(tuple(sorted(key)) for key in report.location_pairs()),
        report.raw_race_count,
        [
            (
                tuple(sorted(pair.locations)),
                pair.first_event.index,
                pair.second_event.index,
                report.distance_of(pair),
            )
            for pair in report.pairs()
        ],
    )


def _deterministic_stats(report):
    return {
        key: value for key, value in report.stats.items()
        if key not in ("time_s", "events_per_s")
    }


def fork_join_trace(seed, workers=3, steps=80):
    """Fork/join workload mixing protected and unprotected accesses."""
    rng = random.Random(seed)
    events = []

    def add(thread, etype, target):
        events.append(Event(len(events), thread, etype, target))

    threads = ["w%d" % i for i in range(workers)]
    add("main", EventType.WRITE, "x0")
    for worker in threads:
        add("main", EventType.FORK, worker)
    pool = ["main"] + threads
    for _ in range(steps):
        thread = rng.choice(pool)
        variable = "x%d" % rng.randrange(6)
        if rng.random() < 0.35:
            lock = "l%d" % rng.randrange(2)
            add(thread, EventType.ACQUIRE, lock)
            add(thread, EventType.WRITE, variable)
            add(thread, EventType.RELEASE, lock)
        else:
            etype = EventType.READ if rng.random() < 0.5 else EventType.WRITE
            add(thread, etype, variable)
    for worker in threads:
        add("main", EventType.JOIN, worker)
    add("main", EventType.READ, "x1")
    return Trace(events, validate=False, name="forkjoin_%d" % seed)


DETECTOR_FACTORIES = [
    WCPDetector,
    lambda: WCPDetector(strict_pseudocode=True),
    lambda: FileStreamWCP(),
    HBDetector,
    lambda: UncensusedWCP(),
    FastTrackDetector,
]


# --------------------------------------------------------------------- #
# The shared codec
# --------------------------------------------------------------------- #

class TestCodec:
    def test_primitive_round_trip(self):
        value = {
            "none": None, "t": True, "f": False,
            "ints": [0, 1, -1, 127, 128, -300, 2**40, -(2**40)],
            "big": 2**77, "float": 2.5, "str": "héllo",
            "bytes": b"\x00\xffraw", ("tuple", 1): (1, "two", None),
        }
        assert decode(encode(value)) == value

    def test_sets_encode_canonically(self):
        a = encode({"s": {"b", "a", "c"}, "i": {3, 1, 2}})
        b = encode({"s": {"c", "b", "a"}, "i": {2, 3, 1}})
        assert a == b
        assert decode(a) == {"s": {"a", "b", "c"}, "i": {1, 2, 3}}

    def test_domain_values_round_trip_to_their_types(self):
        dense = DenseClock([3, 0, 5])
        epoch = Epoch(2, 7)
        event = Event(11, "t1", EventType.READ, "x", "a.py:3", tid=0)
        back = decode(encode([dense, epoch, event, Epoch.bottom()]))
        assert isinstance(back[0], DenseClock) and back[0] == dense
        assert back[1] == epoch
        assert back[2] == event and back[2].loc == "a.py:3" and back[2].tid == 0
        assert back[3].is_bottom()

    def test_trailing_zero_clocks_encode_identically(self):
        assert encode(DenseClock([1, 0, 0])) == encode(DenseClock([1]))

    def test_errors(self):
        with pytest.raises(CodecError):
            decode(b"\xff")
        with pytest.raises(CodecError):
            decode(encode(1) + b"extra")
        with pytest.raises(CodecError):
            decode(encode("x")[:-1])
        with pytest.raises(CodecError):
            encode(object())

    def test_clock_wire_helpers_round_trip(self):
        assert decode_clock(encode_clock(DenseClock([0, 4]))) == DenseClock([0, 4])
        with pytest.raises(CodecError):
            encode_clock(VectorClock({"t1": 4}))

    def test_registry_and_epoch_share_the_codec(self):
        registry = ThreadRegistry(["main", "t1"])
        assert ThreadRegistry.from_bytes(registry.to_bytes()).names() == [
            "main", "t1",
        ]
        assert Epoch.from_bytes(Epoch(0, 3).to_bytes()) == Epoch(0, 3)
        assert DenseClock.from_bytes(DenseClock([7]).to_bytes()) == DenseClock([7])


# --------------------------------------------------------------------- #
# Detector snapshot protocol
# --------------------------------------------------------------------- #

class TestSnapshotEnvelope:
    def test_pack_unpack(self):
        blob = pack_state("X", 3, {"a": 1}, ["state"])
        assert unpack_state(blob) == ("X", 3, {"a": 1}, ["state"])

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            unpack_state(b"not a snapshot")


class TestDetectorSnapshots:
    @pytest.mark.parametrize("factory", DETECTOR_FACTORIES)
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("fraction", [0.2, 0.5, 0.85])
    def test_random_trace_round_trip_parity(self, factory, seed, fraction):
        trace = random_trace(seed, n_events=160, n_threads=4, n_vars=4)
        reference = factory().run(trace)
        split = int(len(trace) * fraction)

        original = factory()
        original.reset(trace)
        for event in trace.events[:split]:
            original.process(event)
        blob = original.state_snapshot()

        resumed = factory()
        resumed.reset(trace)
        resumed.restore_state(blob)
        for event in trace.events[split:]:
            resumed.process(event)
        resumed.finish()
        resumed.finalize_stats(len(trace), 0.0)
        assert _fingerprint(resumed.report) == _fingerprint(reference)
        assert _deterministic_stats(resumed.report) == _deterministic_stats(
            reference
        )

    @pytest.mark.parametrize("factory", DETECTOR_FACTORIES)
    @pytest.mark.parametrize("seed", [1, 5])
    def test_fork_join_round_trip_parity(self, factory, seed):
        trace = fork_join_trace(seed)
        reference = factory().run(trace)
        split = len(trace) // 2

        original = factory()
        original.reset(trace)
        for event in trace.events[:split]:
            original.process(event)
        blob = original.state_snapshot()

        resumed = factory()
        resumed.reset(trace)
        resumed.restore_state(blob)
        for event in trace.events[split:]:
            resumed.process(event)
        resumed.finish()
        assert _fingerprint(resumed.report) == _fingerprint(reference)

    def test_snapshot_before_reset_raises(self):
        with pytest.raises(RuntimeError):
            WCPDetector().state_snapshot()
        detector = WCPDetector()
        with pytest.raises(RuntimeError):
            detector.restore_state(b"")

    def test_wrong_class_is_rejected(self, simple_race_trace):
        wcp = WCPDetector()
        wcp.reset(simple_race_trace)
        blob = wcp.state_snapshot()
        hb = HBDetector()
        hb.reset(simple_race_trace)
        with pytest.raises(SnapshotMismatchError, match="WCPDetector"):
            hb.restore_state(blob)

    def test_version_mismatch_is_rejected(self, simple_race_trace):
        detector = WCPDetector()
        detector.reset(simple_race_trace)
        blob = detector.state_snapshot()
        fresh = WCPDetector()
        fresh.reset(simple_race_trace)
        fresh.snapshot_version = 99
        with pytest.raises(SnapshotMismatchError, match="format version"):
            fresh.restore_state(blob)

    def test_config_mismatch_is_rejected(self, simple_race_trace):
        detector = WCPDetector()
        detector.reset(simple_race_trace)
        blob = detector.state_snapshot()
        other = WCPDetector(strict_pseudocode=True)
        other.reset(simple_race_trace)
        with pytest.raises(SnapshotMismatchError, match="strict_pseudocode"):
            other.restore_state(blob)

    def test_capability_flags(self):
        assert WCPDetector.supports_snapshot
        assert HBDetector.supports_snapshot
        assert FastTrackDetector.supports_snapshot
        assert not LegacyWCPDetector.supports_snapshot
        assert not CPDetector.supports_snapshot
        assert not WindowedDetector.supports_snapshot

    def test_unsupported_detector_raises_capability_error(self, simple_race_trace):
        detector = CPDetector()
        detector.reset(simple_race_trace)
        with pytest.raises(SnapshotUnsupportedError):
            detector.state_snapshot()
        with pytest.raises(SnapshotUnsupportedError):
            detector.restore_state(b"blob")

    def test_stamp_reconstruction(self):
        detector = WCPDetector(strict_pseudocode=True)
        clone = build_detector(detector_stamp(detector))
        assert isinstance(clone, WCPDetector)
        assert clone.snapshot_config() == detector.snapshot_config()

    def test_build_detector_refuses_non_detector_classes(self):
        with pytest.raises(CheckpointError, match="not a Detector"):
            build_detector({"class": "os:system", "config": {}})

    def test_check_snapshot_support(self):
        check_snapshot_support([WCPDetector(), HBDetector()])
        with pytest.raises(CheckpointError, match="CP"):
            check_snapshot_support([WCPDetector(), CPDetector()])


# --------------------------------------------------------------------- #
# Checkpoint persistence
# --------------------------------------------------------------------- #

class TestCheckpointer:
    def _checkpoint(self, events):
        return Checkpoint(
            events=events, source_name="s",
            stamps=[detector_stamp(WCPDetector())],
            states=[b"blob-%d" % events], every=10,
        )

    def test_round_trip(self, tmp_path):
        checkpointer = Checkpointer(tmp_path, every=10)
        checkpointer.save(self._checkpoint(10))
        loaded = checkpointer.load()
        assert loaded.events == 10
        assert loaded.states == [b"blob-10"]
        assert loaded.every == 10
        assert loaded.stamps[0]["name"] == "WCP"

    def test_offsets_and_pruning(self, tmp_path):
        checkpointer = Checkpointer(tmp_path, every=10, keep=2)
        for offset in (10, 20, 30, 40):
            checkpointer.save(self._checkpoint(offset))
        assert checkpointer.offsets() == [30, 40]
        assert checkpointer.load().events == 40
        assert not list(tmp_path.glob("*.tmp"))

    def test_load_empty_directory_fails(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            Checkpointer(tmp_path).load()
        assert Checkpointer(tmp_path).load_latest() is None

    def test_probing_a_missing_directory_does_not_create_it(self, tmp_path):
        # The serve handshake probes arbitrary client-supplied stream ids;
        # a probe (load_latest) must not litter the checkpoint area.
        target = tmp_path / "never-created"
        assert Checkpointer(target).load_latest() is None
        assert not target.exists()

    def test_corrupt_file_fails_cleanly(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        path = checkpointer.save(self._checkpoint(10))
        path.write_bytes(b"RCK2" + frame_blob(b"garbage"))
        with pytest.raises(CheckpointError, match="corrupt"):
            checkpointer.load()

    def test_format_version_mismatch_fails_fast(self, tmp_path):
        from repro.vectorclock.codec import encode as _encode

        path = tmp_path / "ckpt-000000000010.rckp"
        path.write_bytes(b"RCK2" + frame_blob(_encode((999, {}))))
        with pytest.raises(CheckpointMismatchError, match="version"):
            Checkpointer(tmp_path).load()

    def test_retired_unframed_format_is_refused(self, tmp_path):
        from repro.vectorclock.codec import encode as _encode

        path = tmp_path / "ckpt-000000000010.rckp"
        path.write_bytes(b"RCKP" + _encode((1, {})))
        with pytest.raises(CheckpointError, match="retired .*RCKP"):
            Checkpointer(tmp_path).load()

    def test_clear(self, tmp_path):
        checkpointer = Checkpointer(tmp_path)
        checkpointer.save(self._checkpoint(10))
        checkpointer.clear()
        assert checkpointer.offsets() == []

    def test_match_detectors_count_mismatch(self):
        checkpoint = self._checkpoint(10)
        with pytest.raises(CheckpointMismatchError, match="2"):
            checkpoint.match_detectors([WCPDetector(), HBDetector()])

    def test_match_detectors_config_mismatch(self):
        checkpoint = self._checkpoint(10)
        with pytest.raises(CheckpointMismatchError, match="configuration"):
            checkpoint.match_detectors([WCPDetector(strict_pseudocode=True)])


# --------------------------------------------------------------------- #
# Engine-level checkpoint/resume
# --------------------------------------------------------------------- #

def _partial_then_resume(tmp_path, trace_or_path, source_factory, stop_at,
                         every=20, detectors=("wcp", "hb")):
    """Run a checkpointed pass that stops early, then resume it."""
    directory = tmp_path / "ckpts"
    config = (
        EngineConfig()
        .with_detectors(*detectors)
        .with_checkpoints(directory, every=every)
        .stop_after_events(stop_at)
    )
    RaceEngine(config).run(source_factory(trace_or_path))
    assert Checkpointer(directory).offsets()
    return RaceEngine(EngineConfig()).resume(
        source_factory(trace_or_path), directory
    )


class TestEngineResume:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_trace_source_parity(self, tmp_path, seed):
        trace = random_trace(seed, n_events=200, n_threads=4, n_vars=4)
        reference = run_engine(trace, detectors=["wcp", "hb"])
        resumed = _partial_then_resume(
            tmp_path, trace, TraceSource, stop_at=len(trace) // 2
        )
        assert resumed.events == reference.events
        for key in reference.keys():
            assert _fingerprint(resumed[key]) == _fingerprint(reference[key])
            assert _deterministic_stats(resumed[key]) == _deterministic_stats(
                reference[key]
            )

    def test_file_source_parity(self, tmp_path, ):
        trace = random_trace(2, n_events=240, n_threads=4, n_vars=5)
        path = tmp_path / "trace.std"
        dump_trace(trace, path)
        reference = run_engine(str(path), detectors=["wcp", "hb"])
        resumed = _partial_then_resume(
            tmp_path, str(path), FileSource, stop_at=100
        )
        for key in reference.keys():
            assert _fingerprint(resumed[key]) == _fingerprint(reference[key])

    def test_fork_join_parity(self, tmp_path):
        trace = fork_join_trace(4)
        reference = run_engine(trace, detectors=["wcp", "hb", "fasttrack"])
        resumed = _partial_then_resume(
            tmp_path, trace, TraceSource, stop_at=len(trace) // 3,
            detectors=("wcp", "hb", "fasttrack"),
        )
        for key in reference.keys():
            assert _fingerprint(resumed[key]) == _fingerprint(reference[key])

    def test_resume_rebuilds_detectors_from_stamps(self, tmp_path):
        trace = random_trace(1, n_events=120)
        directory = tmp_path / "ckpts"
        config = (
            EngineConfig()
            .with_detectors(WCPDetector(strict_pseudocode=True))
            .with_checkpoints(directory, every=20)
            .stop_after_events(60)
        )
        RaceEngine(config).run(TraceSource(trace))
        result = RaceEngine(EngineConfig()).resume(TraceSource(trace), directory)
        assert list(result.keys()) == ["WCP"]
        reference = detect_races(trace, WCPDetector(strict_pseudocode=True))
        assert _fingerprint(result["WCP"]) == _fingerprint(reference)

    def test_resume_of_older_format_reports_the_version(self, tmp_path):
        # A version-2 stamp names a constructor argument this build no
        # longer has (the removed clock-representation option); rebuilding
        # from it must blame the format version, not fail inside the
        # constructor.
        trace = random_trace(1, n_events=120)
        stamp = detector_stamp(WCPDetector())
        stamp["snapshot_version"] = 2
        stamp["config"] = dict(stamp["config"], clock_representation="dense")
        directory = tmp_path / "ckpts"
        Checkpointer(directory, every=20).save(Checkpoint(
            events=60, source_name=trace.name, stamps=[stamp],
            states=[b"v2-state"], every=20,
        ))
        with pytest.raises(
            CheckpointMismatchError,
            match="snapshot format version mismatch -- checkpoint has 2",
        ):
            RaceEngine(EngineConfig()).resume(TraceSource(trace), directory)

    def test_v6_wcp_stamp_is_refused_by_version(self):
        # Version 6 stamps carry the removed ``track_queue_stats`` and
        # ``prune_queues`` arguments, version 7 stamps the removed
        # stream-reclaim heuristic's ``stream_reclaim``; the rebuild
        # blames the version.
        for version, removed in (
            (6, {"track_queue_stats": True, "prune_queues": True}),
            (7, {"stream_reclaim": True}),
        ):
            stamp = detector_stamp(WCPDetector())
            stamp["snapshot_version"] = version
            stamp["config"] = dict(stamp["config"], **removed)
            with pytest.raises(
                CheckpointMismatchError,
                match="checkpoint has %d, this build has 8" % version,
            ):
                build_detector(stamp)
        assert build_detector(detector_stamp(WCPDetector())).snapshot_config() == {
            "strict_pseudocode": False,
        }

    @pytest.mark.parametrize("detector_cls", [WCPDetector, FastTrackDetector])
    def test_resume_of_v3_checkpoint_reports_the_version(
        self, tmp_path, detector_cls
    ):
        # Version 3 states predate the shared fork/join bump rule (WCP's
        # leak list, FastTrack's own synchronization layout): both the
        # checkpoint stamp and the state envelope must be refused by
        # version, never half-restored into a KeyError.
        trace = random_trace(1, n_events=120)
        detector = detector_cls()
        stamp = detector_stamp(detector)
        stamp["snapshot_version"] = 3
        state = pack_state(
            detector_cls.__name__, 3, detector.snapshot_config(),
            {"names": [], "leak": []},
        )
        directory = tmp_path / "ckpts"
        Checkpointer(directory, every=20).save(Checkpoint(
            events=60, source_name=trace.name, stamps=[stamp],
            states=[state], every=20,
        ))
        with pytest.raises(
            CheckpointMismatchError,
            match="snapshot format version mismatch -- checkpoint has 3",
        ):
            RaceEngine(EngineConfig()).resume(TraceSource(trace), directory)
        detector.reset(trace)
        with pytest.raises(SnapshotMismatchError, match="version 3"):
            detector.restore_state(state)

    def test_resume_continues_checkpointing_at_original_cadence(self, tmp_path):
        trace = random_trace(6, n_events=200)
        directory = tmp_path / "ckpts"
        config = (
            EngineConfig().with_detectors("wcp")
            .with_checkpoints(directory, every=30).stop_after_events(70)
        )
        RaceEngine(config).run(TraceSource(trace))
        before = Checkpointer(directory).offsets()
        assert before and all(offset % 30 == 0 for offset in before)
        RaceEngine(EngineConfig()).resume(TraceSource(trace), directory)
        after = Checkpointer(directory).offsets()
        assert max(after) > max(before)
        assert all(offset % 30 == 0 for offset in after)

    def test_resume_with_mismatched_selection_fails_fast(self, tmp_path):
        trace = random_trace(1, n_events=120)
        directory = tmp_path / "ckpts"
        config = (
            EngineConfig().with_detectors("wcp", "hb")
            .with_checkpoints(directory, every=20).stop_after_events(60)
        )
        RaceEngine(config).run(TraceSource(trace))
        with pytest.raises(CheckpointMismatchError, match="detector"):
            RaceEngine(EngineConfig()).resume(
                TraceSource(trace), directory, detectors=["wcp"]
            )
        with pytest.raises(CheckpointMismatchError, match="configuration"):
            RaceEngine(EngineConfig()).resume(
                TraceSource(trace), directory,
                detectors=[WCPDetector(strict_pseudocode=True), HBDetector()],
            )

    def test_checkpoint_refused_for_unsupported_detectors(self, tmp_path):
        trace = random_trace(0, n_events=40)
        with pytest.raises(CheckpointError, match="CP"):
            run_engine(
                trace, detectors=["cp"], checkpoint=tmp_path / "ckpts"
            )
        with pytest.raises(CheckpointError, match="WCP-legacy"):
            run_engine(
                trace, detectors=[LegacyWCPDetector()],
                checkpoint=tmp_path / "ckpts",
            )
        with pytest.raises(CheckpointError, match="do not support"):
            run_engine(
                trace, detectors=[WindowedDetector(WCPDetector(), 50)],
                checkpoint=tmp_path / "ckpts",
            )

    def test_validator_state_rides_checkpoints(self, tmp_path):
        # A critical section spans the checkpoint boundary: without the
        # restored validator state, the release in the suffix would be
        # rejected as unmatched.
        events = [Event(0, "t1", EventType.ACQUIRE, "l")]
        for index in range(1, 60):
            events.append(Event(index, "t1", EventType.WRITE, "x"))
        events.append(Event(60, "t1", EventType.RELEASE, "l"))
        events.append(Event(61, "t2", EventType.WRITE, "x"))
        trace = Trace(events, name="spanning")
        path = tmp_path / "span.std"
        dump_trace(trace, path)

        directory = tmp_path / "ckpts"
        config = (
            EngineConfig().with_detectors("wcp")
            .with_checkpoints(directory, every=20).stop_after_events(40)
        )
        RaceEngine(config).run(ValidatingSource(FileSource(path)))
        loaded = Checkpointer(directory).load()
        assert loaded.source_state is not None

        result = RaceEngine(EngineConfig()).resume(
            ValidatingSource(FileSource(path)), directory
        )
        reference = run_engine(trace, detectors=["wcp"])
        assert _fingerprint(result["WCP"]) == _fingerprint(reference["WCP"])

    def test_counting_wrapper_keeps_validator_state(self, tmp_path):
        # CountingSource forwards the checkpoint-state pair, so a pass
        # through CountingSource(ValidatingSource(...)) checkpoints the
        # validator and resumes through the same wrapping.
        trace = random_trace(31, n_events=240, n_threads=4)
        path = tmp_path / "counted.std"
        dump_trace(trace, path)

        def wrapped():
            return CountingSource(ValidatingSource(FileSource(path)))

        detectors = ("wcp", "hb", "fasttrack")
        reference = RaceEngine(
            EngineConfig().with_detectors(*detectors)
        ).run(wrapped())
        directory = tmp_path / "ckpts"
        RaceEngine(
            EngineConfig().with_detectors(*detectors)
            .with_checkpoints(directory, every=40).stop_after_events(130)
        ).run(wrapped())
        loaded = Checkpointer(directory).load()
        assert loaded.source_state is not None

        result = RaceEngine(EngineConfig()).resume(wrapped(), directory)
        assert list(result) == list(reference)
        for name in reference:
            assert _fingerprint(result[name]) == _fingerprint(reference[name])
            assert (_deterministic_stats(result[name])
                    == _deterministic_stats(reference[name]))

    def test_unseekable_source_is_rejected(self):
        class Opaque:
            pass

        with pytest.raises(CheckpointError, match="seek"):
            seek_source(Opaque(), 10)

    def test_single_engine_refuses_sharded_checkpoint(self, tmp_path):
        trace = random_trace(9, n_events=200)
        directory = tmp_path / "ckpts"
        config = (
            EngineConfig().with_detectors("wcp")
            .with_shards(2, mode="serial")
            .with_checkpoints(directory, every=40).stop_after_events(100)
        )
        ShardedEngine(config).run(TraceSource(trace))
        with pytest.raises(CheckpointMismatchError, match="sharded"):
            RaceEngine(EngineConfig()).resume(TraceSource(trace), directory)


class TestIterableSeek:
    def test_iterable_source_seek(self):
        trace = random_trace(0, n_events=30)
        source = IterableSource(list(trace.events))
        source.seek_events(10)
        assert [event.index for event in source][:3] == [10, 11, 12]


# --------------------------------------------------------------------- #
# Push-source resume handshake
# --------------------------------------------------------------------- #

class TestPushResume:
    def test_queue_source_resume_handshake(self, tmp_path):
        trace = random_trace(8, n_events=160, n_threads=4)
        reference = run_engine(trace, detectors=["wcp"])
        directory = tmp_path / "ckpts"

        source = QueueSource(name="push", maxsize=10_000)
        for event in trace.events:
            source.put(event)
        source.close()
        config = (
            EngineConfig().with_detectors("wcp")
            .with_checkpoints(directory, every=20).stop_after_events(80)
        )
        RaceEngine(config).run(source)
        offsets = Checkpointer(directory).offsets()
        assert offsets and max(offsets) <= 80

        source = QueueSource(name="push", maxsize=10_000)
        replayed = []

        def producer():
            # The handshake: the resumed pass advertises the last durable
            # offset; the producer replays from exactly there.
            deadline = time.monotonic() + 10.0
            while not source.resume_offset and time.monotonic() < deadline:
                time.sleep(0.001)
            offset = source.resume_offset
            replayed.append(offset)
            for event in trace.events[offset:]:
                source.put(event)
            source.close()

        thread = threading.Thread(target=producer, daemon=True)
        source.attach_producer(thread)
        thread.start()
        result = resume_engine(source, directory)
        assert replayed == [max(offsets)]
        assert _fingerprint(result["WCP"]) == _fingerprint(reference["WCP"])
        assert result.events == reference.events


# --------------------------------------------------------------------- #
# Sharded checkpoint/resume
# --------------------------------------------------------------------- #

class TestShardedResume:
    def _checkpointed_sharded_run(self, tmp_path, trace, mode, shards=3,
                                  stop_at=None):
        directory = tmp_path / "ckpts"
        config = (
            EngineConfig().with_detectors("wcp", "hb")
            .with_shards(shards, mode=mode, batch_size=16)
            .with_checkpoints(directory, every=40)
            .stop_after_events(stop_at or len(trace) // 2)
        )
        ShardedEngine(config).run(TraceSource(trace))
        assert Checkpointer(directory).offsets()
        return directory

    @pytest.mark.parametrize("mode", ["serial", "process"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_sharded_resume_matches_single_engine(self, tmp_path, mode, seed):
        trace = random_trace(seed, n_events=220, n_threads=4, n_vars=6)
        reference = run_engine(trace, detectors=["wcp", "hb"])
        directory = self._checkpointed_sharded_run(tmp_path, trace, mode)
        resumed = ShardedEngine(
            EngineConfig().with_shards(3, mode=mode, batch_size=16)
        ).resume(TraceSource(trace), directory)
        for key in reference.keys():
            assert _fingerprint(resumed[key]) == _fingerprint(reference[key])

    def test_sharded_resume_across_transports(self, tmp_path):
        # Worker state is transport-agnostic: a serial-mode checkpoint
        # restores into process-mode workers.
        trace = fork_join_trace(3)
        reference = run_engine(trace, detectors=["wcp", "hb"])
        directory = self._checkpointed_sharded_run(tmp_path, trace, "serial")
        resumed = ShardedEngine(
            EngineConfig().with_shards(3, mode="process", batch_size=16)
        ).resume(TraceSource(trace), directory)
        for key in reference.keys():
            assert _fingerprint(resumed[key]) == _fingerprint(reference[key])

    def test_shard_count_mismatch_fails_fast(self, tmp_path):
        trace = random_trace(0, n_events=200)
        directory = self._checkpointed_sharded_run(tmp_path, trace, "serial")
        with pytest.raises(CheckpointMismatchError, match="shard"):
            ShardedEngine(
                EngineConfig().with_shards(2, mode="serial")
            ).resume(TraceSource(trace), directory)

    def test_policy_mismatch_fails_fast(self, tmp_path):
        """A round-robin checkpoint is refused in one line that names the
        removed policy, under either of its names."""
        trace = random_trace(0, n_events=200)
        for name in ("rr", "round-robin"):
            directory = self._checkpointed_sharded_run(
                tmp_path / name, trace, "serial"
            )
            self._as_written_with_policy(directory, name, {"owners": {}})
            with pytest.raises(CheckpointMismatchError) as exc:
                ShardedEngine(
                    EngineConfig().with_shards(3, mode="serial")
                ).resume(TraceSource(trace), directory)
            message = str(exc.value)
            assert "removed %r policy" % name in message
            assert "\n" not in message

    def test_sharded_engine_refuses_unsharded_checkpoint(self, tmp_path):
        trace = random_trace(0, n_events=120)
        directory = tmp_path / "ckpts"
        config = (
            EngineConfig().with_detectors("wcp")
            .with_checkpoints(directory, every=20).stop_after_events(60)
        )
        RaceEngine(config).run(TraceSource(trace))
        with pytest.raises(CheckpointMismatchError, match="unsharded"):
            ShardedEngine(
                EngineConfig().with_shards(3, mode="serial")
            ).resume(TraceSource(trace), directory)

    def test_resume_engine_dispatches_sharded_automatically(self, tmp_path):
        trace = random_trace(5, n_events=220, n_threads=4, n_vars=6)
        reference = run_engine(trace, detectors=["wcp", "hb"])
        directory = self._checkpointed_sharded_run(tmp_path, trace, "serial")
        resumed = resume_engine(
            TraceSource(trace), directory,
            config=EngineConfig().with_shards(3, mode="serial"),
        )
        for key in reference.keys():
            assert _fingerprint(resumed[key]) == _fingerprint(reference[key])


    def _as_written_with_policy(self, directory, policy, state=None):
        """Rewrite the newest checkpoint as checkpoints were written while
        partition policies existed: the policy's name (None for a custom
        instance) beside the partitioner state, which held its state."""
        checkpointer = Checkpointer(directory)
        loaded = checkpointer.load()
        loaded.sharded["policy"] = policy
        loaded.sharded["partition"]["policy"] = state or {}
        checkpointer.save(loaded)

    def test_custom_policy_checkpoint_is_refused(self, tmp_path):
        trace = random_trace(3, n_events=220, n_threads=4, n_vars=6)
        directory = self._checkpointed_sharded_run(tmp_path, trace, "serial")
        self._as_written_with_policy(directory, None, {"owners": {"x0": 2}})
        # Hashing the suffix of a custom partition would split variable
        # histories across shards: refused, through both entry points.
        for resume in (
            lambda: ShardedEngine(
                EngineConfig().with_shards(3, mode="serial")
            ).resume(TraceSource(trace), directory),
            lambda: resume_engine(TraceSource(trace), directory),
        ):
            with pytest.raises(CheckpointMismatchError) as exc:
                resume()
            message = str(exc.value)
            assert "removed custom policy" in message
            assert "\n" not in message

    def test_hash_policy_checkpoint_resumes(self, tmp_path):
        """A checkpoint that names the hash policy (the default before it
        became the only partition) resumes to the uninterrupted report."""
        trace = random_trace(6, n_events=220, n_threads=4, n_vars=6)
        reference = run_engine(trace, detectors=["wcp", "hb"])
        directory = self._checkpointed_sharded_run(tmp_path, trace, "serial")
        self._as_written_with_policy(directory, "hash")
        resumed = resume_engine(
            TraceSource(trace), directory,
            config=EngineConfig().with_shards(3, mode="serial"),
        )
        for key in reference.keys():
            assert _fingerprint(resumed[key]) == _fingerprint(reference[key])


class TestRestorePendingHint:
    def test_restore_pending_skips_wcp_prescan(self):
        trace = random_trace(0, n_events=80)
        normal = WCPDetector()
        normal.reset(trace)
        assert normal._effective_prune is True
        hinted = WCPDetector()
        hinted.restore_pending = True
        hinted.reset(trace)
        # The releaser census is skipped (it would be overwritten by the
        # restore); pruning is conservatively off until the restore
        # re-establishes the snapshot's modes.
        assert hinted._effective_prune is False

    def test_engine_resume_clears_the_hint(self, tmp_path):
        trace = random_trace(1, n_events=120)
        directory = tmp_path / "ckpts"
        config = (
            EngineConfig().with_detectors("wcp")
            .with_checkpoints(directory, every=20).stop_after_events(60)
        )
        RaceEngine(config).run(TraceSource(trace))
        detector = WCPDetector()
        RaceEngine(EngineConfig()).resume(
            TraceSource(trace), directory, detectors=[detector]
        )
        assert detector.restore_pending is False
        # The restored modes come from the snapshot (pruned batch run).
        assert detector._effective_prune is True


class TestStreamResumeValidation:
    def test_batch_checkpoint_refused_by_stream_resume(self, tmp_path):
        # A non-streaming checkpoint carries no validator state; resuming
        # it through a fresh validator would spuriously reject releases of
        # prefix-opened sections -- it must fail with guidance instead.
        events = [Event(0, "t1", EventType.ACQUIRE, "l")]
        for index in range(1, 50):
            events.append(Event(index, "t1", EventType.WRITE, "x"))
        events.append(Event(50, "t1", EventType.RELEASE, "l"))
        trace = Trace(events, name="spanning")
        path = tmp_path / "span.std"
        dump_trace(trace, path)

        directory = tmp_path / "ckpts"
        config = (
            EngineConfig().with_detectors("wcp")
            .with_checkpoints(directory, every=20).stop_after_events(40)
        )
        RaceEngine(config).run(TraceSource(trace))  # batch: no validator
        with pytest.raises(ValueError, match="validator state"):
            RaceEngine(EngineConfig()).resume(
                ValidatingSource(FileSource(path)), directory
            )
        # The same checkpoint resumes fine without stream validation.
        result = RaceEngine(EngineConfig()).resume(FileSource(path), directory)
        reference = run_engine(trace, detectors=["wcp"])
        assert _fingerprint(result["WCP"]) == _fingerprint(reference["WCP"])


class TestCustomDetectorReconstruction:
    def test_parameterized_detector_without_config_stamp_is_refused(self):
        from repro.core.detector import Detector
        from repro.engine.checkpoint import check_reconstructible

        class Custom(Detector):
            # A parameterized shardable detector that does NOT override
            # snapshot_config(): workers would be rebuilt with defaults,
            # silently dropping ``threshold`` -- refuse it loudly.
            name = "custom"
            shardable = True

            def __init__(self, threshold=5):
                super().__init__()
                self.threshold = threshold

            def reset(self, trace):
                self._new_report(trace)

            def process(self, event):
                pass

        with pytest.raises(CheckpointError, match="snapshot_config"):
            check_reconstructible([Custom(threshold=9)])
        # Built-ins (which override snapshot_config) pass.
        check_reconstructible([WCPDetector(), HBDetector()])


class TestBackgroundCheckpointer:
    def test_background_writes_land_after_drain(self, tmp_path):
        checkpointer = Checkpointer(tmp_path, every=10, background=True)
        for offset in (10, 20):
            checkpointer.save(Checkpoint(
                events=offset, source_name="s",
                stamps=[detector_stamp(WCPDetector())],
                states=[b"blob"], every=10,
            ))
        checkpointer.drain()
        assert checkpointer.offsets() == [10, 20]
        assert checkpointer.load().events == 20
        assert not list(tmp_path.glob("*.tmp"))

    def test_background_pass_drains_before_returning(self, tmp_path):
        # A serve session steps its pass on the event loop with a
        # background writer; the pass's result must wait for the writes.
        trace = random_trace(2, n_events=120)
        directory = tmp_path / "ckpts"
        config = EngineConfig().stop_after_events(60)
        pass_ = EnginePass(
            config, config.resolve_detectors(["wcp"]), trace.name,
            trace=trace, registry=trace.registry,
            checkpointer=Checkpointer(directory, every=20, background=True),
        )
        pass_.start()
        for block in TraceSource(trace).batches():
            if pass_.step_batch(block) is not None:
                break
        pass_.result()
        assert Checkpointer(directory).offsets()
        assert not list(directory.glob("*.tmp"))


class TestServeHandshakeErrors:
    def test_over_limit_first_line_is_answered_on_the_wire(self, tmp_path):
        from repro.serve.server import SessionDriver

        class FakeWriter:
            def __init__(self):
                self.data = b""

            def write(self, chunk):
                self.data += chunk

            async def drain(self):
                pass

        async def scenario():
            reader = asyncio.StreamReader(limit=16)
            reader.feed_data(b"x" * 100)  # no newline within the limit
            writer = FakeWriter()
            result = await SessionDriver(
                reader, writer, ["wcp"], checkpoint_dir=str(tmp_path)
            ).run()
            return result, writer.data

        result, answered = asyncio.run(scenario())
        assert result is None
        assert answered.startswith(b"error ValueError:")


class TestServeStreamIdSafety:
    def test_path_special_ids_are_rejected(self):
        from repro.serve.server import _safe_stream_id

        assert _safe_stream_id(b"# stream-id: job42\n") == "job42"
        assert _safe_stream_id(b"# stream-id= a.b-c_9\n") == "a.b-c_9"
        # "." and ".." would escape (or collide with) --checkpoint-dir.
        assert _safe_stream_id(b"# stream-id: ..\n") is None
        assert _safe_stream_id(b"# stream-id: .\n") is None
        # Separators are outside the character class entirely.
        assert _safe_stream_id(b"# stream-id: ../x\n") is None
        assert _safe_stream_id(b"# stream-id: a/b\n") is None
        assert _safe_stream_id(b"t1|w(x)\n") is None


class TestConfigIsNotMutated:
    def test_run_engine_checkpoint_kwarg_leaves_config_alone(self, tmp_path):
        trace = random_trace(0, n_events=60)
        config = EngineConfig().with_detectors("wcp")
        run_engine(
            trace, config=config,
            checkpoint=tmp_path / "ckpts", checkpoint_every=20,
        )
        assert config.checkpoint_dir is None

    def test_resume_engine_leaves_config_shards_alone(self, tmp_path):
        trace = random_trace(5, n_events=220, n_threads=4, n_vars=6)
        directory = tmp_path / "ckpts"
        sharded_config = (
            EngineConfig().with_detectors("wcp")
            .with_shards(3, mode="serial", batch_size=16)
            .with_checkpoints(directory, every=40).stop_after_events(100)
        )
        ShardedEngine(sharded_config).run(TraceSource(trace))
        config = EngineConfig().with_shards(3, mode="serial")
        resume_engine(TraceSource(trace), directory, config=config)
        assert config.checkpoint_dir is None


# --------------------------------------------------------------------- #
# QueueSource edge semantics exercised by resume (satellite)
# --------------------------------------------------------------------- #

class TestQueueSourceEdges:
    def test_close_twice_is_idempotent(self):
        source = QueueSource()
        source.close()
        source.close()
        assert source.closed
        assert list(source) == []

    def test_push_after_close_raises(self):
        source = QueueSource()
        source.push("t1", EventType.WRITE, "x")
        source.close()
        with pytest.raises(RuntimeError, match="closed"):
            source.push("t1", EventType.WRITE, "y")
        with pytest.raises(RuntimeError, match="closed"):
            source.put(Event(-1, "t1", EventType.WRITE, "y"))

    def test_draining_closed_nonempty_queue_sees_every_event(self):
        source = QueueSource(maxsize=64)
        for position in range(10):
            source.push("t1", EventType.WRITE, "x%d" % position)
        source.close()
        drained = list(source)
        assert [event.target for event in drained] == [
            "x%d" % position for position in range(10)
        ]
        # And a second iteration terminates immediately instead of
        # blocking on the re-armed close marker.
        assert list(source) == []


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #

class TestCheckpointCLI:
    def _write_trace(self, tmp_path, seed=12, n_events=300):
        trace = random_trace(seed, n_events=n_events, n_threads=4, n_vars=5)
        path = tmp_path / "trace.std"
        dump_trace(trace, path)
        return path

    def test_checkpoint_then_resume_matches_full_run(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        directory = str(tmp_path / "ckpts")
        main(["analyze", str(path), "--detector", "wcp,hb"])
        full = capsys.readouterr().out

        main(["analyze", str(path), "--detector", "wcp,hb",
              "--checkpoint", directory, "--checkpoint-every", "50",
              "--max-events", "150"])
        capsys.readouterr()
        code = main(["analyze", str(path), "--resume", directory])
        resumed = capsys.readouterr().out
        assert code in (0, 1)

        def races(text):
            return [
                line for line in text.splitlines()
                if not line.strip().startswith("stat ")
            ]

        assert races(resumed) == races(full)

    def test_checkpoint_with_unsupported_detector_exits_2(self, tmp_path, capsys):
        path = self._write_trace(tmp_path, n_events=60)
        code = main(["analyze", str(path), "--detector", "cp",
                     "--checkpoint", str(tmp_path / "ckpts")])
        assert code == 2
        err = capsys.readouterr().err
        assert "do not support state snapshots" in err
        assert "Traceback" not in err

    def test_window_plus_checkpoint_exits_2(self, tmp_path, capsys):
        path = self._write_trace(tmp_path, n_events=60)
        code = main(["analyze", str(path), "--window", "20",
                     "--checkpoint", str(tmp_path / "ckpts")])
        assert code == 2
        assert "snapshots" in capsys.readouterr().err

    def test_resume_without_checkpoints_exits_2(self, tmp_path, capsys):
        path = self._write_trace(tmp_path, n_events=60)
        code = main(["analyze", str(path), "--resume", str(tmp_path / "none")])
        assert code == 2
        assert "no checkpoints" in capsys.readouterr().err

    def test_fresh_process_resume(self, tmp_path):
        """The acceptance property: resume in a *fresh process*."""
        path = self._write_trace(tmp_path, seed=21, n_events=400)
        directory = str(tmp_path / "ckpts")

        def run_cli(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                capture_output=True, text=True,
            )

        full = run_cli("analyze", str(path), "--detector", "wcp,hb")
        partial = run_cli(
            "analyze", str(path), "--detector", "wcp,hb",
            "--checkpoint", directory, "--checkpoint-every", "50",
            "--max-events", "200",
        )
        assert partial.returncode in (0, 1), partial.stderr
        resumed = run_cli("analyze", str(path), "--resume", directory)
        assert resumed.returncode == full.returncode, resumed.stderr

        def races(text):
            return [
                line for line in text.splitlines()
                if not line.strip().startswith("stat ")
            ]

        assert races(resumed.stdout) == races(full.stdout)


# --------------------------------------------------------------------- #
# CRC framing + corrupt-checkpoint resume fallback (satellite)
# --------------------------------------------------------------------- #


class TestCrcFraming:
    def test_frame_round_trip(self):
        payload = b"detector state bytes"
        framed = frame_blob(payload)
        assert unframe_blob(framed) == payload
        assert len(framed) == len(payload) + 8  # length + crc32 header

    def test_truncated_header_is_actionable(self):
        with pytest.raises(CheckpointError, match="truncated frame header"):
            unframe_blob(b"\x00\x01", what="shard 3 snapshot")

    def test_truncated_payload_is_actionable(self):
        framed = frame_blob(b"0123456789")
        with pytest.raises(CheckpointError, match="truncated payload"):
            unframe_blob(framed[:-3])

    def test_bit_flip_is_caught_by_crc(self):
        from repro.engine.faults import corrupt_blob

        framed = frame_blob(b"0123456789abcdef")
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            unframe_blob(corrupt_blob(framed))

    def test_error_names_the_what(self):
        with pytest.raises(CheckpointError, match="shard 7 snapshot"):
            unframe_blob(b"", what="shard 7 snapshot")

    def test_checkpoint_file_magic_is_framed(self):
        checkpoint = Checkpoint(
            events=10, source_name="s",
            stamps=[detector_stamp(WCPDetector())],
            states=[b"state"], every=10,
        )
        blob = checkpoint.to_bytes()
        assert blob[:4] == b"RCK2"
        assert Checkpoint.from_bytes(blob).events == 10

    def test_corrupt_checkpoint_payload_is_caught(self):
        from repro.engine.faults import corrupt_blob

        checkpoint = Checkpoint(
            events=10, source_name="s",
            stamps=[detector_stamp(WCPDetector())],
            states=[b"state"], every=10,
        )
        blob = checkpoint.to_bytes()
        with pytest.raises(CheckpointError, match="CRC mismatch"):
            Checkpoint.from_bytes(blob[:4] + corrupt_blob(blob[4:]))


class TestResumableLoad:
    def _save(self, tmp_path, offsets):
        checkpointer = Checkpointer(tmp_path, every=10, keep=10)
        for events in offsets:
            checkpointer.save(Checkpoint(
                events=events, source_name="s",
                stamps=[detector_stamp(WCPDetector())],
                states=[b"blob-%d" % events], every=10,
            ))
        return checkpointer

    def _corrupt(self, tmp_path, events):
        path = tmp_path / ("ckpt-%012d.rckp" % events)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x55
        path.write_bytes(bytes(blob))

    def test_corrupt_newest_falls_back_with_warning(self, tmp_path, caplog):
        import logging

        checkpointer = self._save(tmp_path, [10, 20, 30])
        self._corrupt(tmp_path, 30)
        with caplog.at_level(logging.WARNING, logger="repro.engine.checkpoint"):
            loaded = checkpointer.load_resumable()
        assert loaded.events == 20
        assert any("skipping corrupt checkpoint" in record.getMessage()
                   for record in caplog.records)

    def test_all_corrupt_names_the_directory(self, tmp_path):
        checkpointer = self._save(tmp_path, [10, 20])
        self._corrupt(tmp_path, 10)
        self._corrupt(tmp_path, 20)
        with pytest.raises(CheckpointError) as exc:
            checkpointer.load_resumable()
        message = str(exc.value)
        assert "every checkpoint in" in message
        assert str(tmp_path) in message
        assert "re-run the analysis" in message

    def test_corrupt_error_names_the_file(self, tmp_path):
        checkpointer = self._save(tmp_path, [10])
        self._corrupt(tmp_path, 10)
        with pytest.raises(CheckpointError, match="ckpt-000000000010"):
            checkpointer.load()

    def test_empty_directory_still_errors(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            Checkpointer(tmp_path / "empty").load_resumable()

    def test_cli_resume_survives_corrupt_newest(self, tmp_path, capsys):
        trace = random_trace(67, n_events=300, n_threads=4, n_vars=5)
        path = tmp_path / "trace.std"
        dump_trace(trace, path)
        directory = tmp_path / "ckpts"

        main(["analyze", str(path), "--detector", "wcp"])
        full = capsys.readouterr().out
        main(["analyze", str(path), "--detector", "wcp",
              "--checkpoint", str(directory), "--checkpoint-every", "50",
              "--max-events", "150"])
        capsys.readouterr()
        # Bit-flip the newest retained checkpoint: resume must fall back
        # to the next-newest instead of dying.
        newest = max(
            directory.glob("ckpt-*.rckp"),
            key=lambda p: int(p.stem[len("ckpt-"):]),
        )
        blob = bytearray(newest.read_bytes())
        blob[len(blob) // 2] ^= 0x55
        newest.write_bytes(bytes(blob))

        code = main(["analyze", str(path), "--resume", str(directory)])
        resumed = capsys.readouterr().out
        assert code in (0, 1)

        def races(text):
            return [line for line in text.splitlines()
                    if not line.strip().startswith("stat ")]

        assert races(resumed) == races(full)


# --------------------------------------------------------------------- #
# Extended vocabulary (rwlocks, barriers, wait/notify)
# --------------------------------------------------------------------- #


class TestMixedVocabularyCheckpoints:
    """Checkpoint/resume parity when traces use the full event vocabulary.

    The new kinds carry extra detector state (read accumulators, open
    barrier generations, notify clocks, per-thread read-held sets) that
    must survive a snapshot boundary placed at an *arbitrary* offset --
    including mid-read-section and mid-barrier-generation.
    """

    @pytest.mark.parametrize("factory", DETECTOR_FACTORIES)
    @pytest.mark.parametrize("fraction", [0.15, 0.5, 0.85])
    def test_detector_round_trip_parity(self, factory, fraction):
        from repro.bench.generators import mixed_vocabulary_trace

        trace = mixed_vocabulary_trace(3, steps=180)
        reference = factory().run(trace)
        split = int(len(trace) * fraction)

        original = factory()
        original.reset(trace)
        for event in trace.events[:split]:
            original.process(event)
        blob = original.state_snapshot()

        resumed = factory()
        resumed.reset(trace)
        resumed.restore_state(blob)
        for event in trace.events[split:]:
            resumed.process(event)
        resumed.finish()
        assert _fingerprint(resumed.report) == _fingerprint(reference)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_engine_resume_parity(self, tmp_path, seed):
        from repro.bench.generators import mixed_vocabulary_trace

        trace = mixed_vocabulary_trace(seed, steps=160)
        reference = run_engine(trace, detectors=["wcp", "hb", "fasttrack"])
        resumed = _partial_then_resume(
            tmp_path, trace, TraceSource, stop_at=len(trace) // 3,
            detectors=("wcp", "hb", "fasttrack"),
        )
        for name in reference.keys():
            assert _fingerprint(resumed[name]) == _fingerprint(
                reference[name]
            )

    def test_validated_stream_resume_parity(self, tmp_path):
        # The online validator's rwlock state (read-holder map, section
        # modes) must ride the checkpoint too: the resumed suffix releases
        # read sections the prefix opened.
        from repro.bench.generators import mixed_vocabulary_trace

        trace = mixed_vocabulary_trace(2, steps=140)
        path = tmp_path / "mixed.std"
        dump_trace(trace, path)
        reference = run_engine(trace, detectors=["wcp"])
        resumed = _partial_then_resume(
            tmp_path, path,
            lambda p: ValidatingSource(FileSource(p)),
            stop_at=len(trace) // 2, detectors=("wcp",),
        )
        assert _fingerprint(resumed["WCP"]) == _fingerprint(
            reference["WCP"]
        )

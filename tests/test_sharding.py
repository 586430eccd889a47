"""Tests for the sharded engine: partitioning, parity, protocol, pickling."""

import pickle
import random

import pytest

from repro import (
    EngineConfig,
    EraserDetector,
    HBDetector,
    RaceEngine,
    ShardedEngine,
    ShardedResult,
    WCPDetector,
    compare_detectors,
    detect_races,
    run_engine,
)
from repro.cli import main
from repro.engine import FileSource, STOP_EVENT_BUDGET, STOP_RACE_BUDGET
from repro.engine.partition import (
    REPLICATE,
    ROUTE,
    ROUTE_CLOCK,
    StreamPartitioner,
    owner_of,
)
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.trace.writers import dump_trace

from conftest import random_trace


def _fingerprint(report):
    """Everything that identifies a report's findings (not its timings)."""
    return (
        sorted(tuple(sorted(key)) for key in report.location_pairs()),
        report.raw_race_count,
        report.count(),
        report.max_distance(),
    )


def fork_join_trace(seed, workers=3, steps=90):
    """A fork/join-connected workload: main forks workers, all mix
    lock-protected and unprotected accesses, main joins everyone."""
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


class TestPartitionPolicies:
    def test_hash_partition_is_stable_and_in_range(self):
        owners = {owner_of("x%d" % i, 4) for i in range(50)}
        assert owners == set(range(4))
        # crc32 of the UTF-8 name: the same in every process, run and
        # release (sharded checkpoints depend on it).
        assert owner_of("x7", 4) == 2
        assert owner_of("x7", 4) == StreamPartitioner(4).classify(
            Event(-1, "t1", EventType.WRITE, "x7"))[1]
        with pytest.raises(ValueError):
            StreamPartitioner(0)


class TestEventTaxonomy:
    def test_sync_events_replicate(self):
        partitioner = StreamPartitioner(2)
        for etype, target in [
            (EventType.ACQUIRE, "l"), (EventType.RELEASE, "l"),
            (EventType.FORK, "t2"), (EventType.JOIN, "t2"),
        ]:
            kind, owner = partitioner.classify(Event(-1, "t1", etype, target))
            assert kind is REPLICATE and owner == -1

    def test_accesses_route_outside_critical_sections(self):
        partitioner = StreamPartitioner(2)
        kind, owner = partitioner.classify(Event(-1, "t1", EventType.READ, "x"))
        assert kind is ROUTE and owner in (0, 1)

    def test_in_cs_accesses_are_clock_relevant(self):
        partitioner = StreamPartitioner(2)
        partitioner.classify(Event(-1, "t1", EventType.ACQUIRE, "l"))
        kind, _ = partitioner.classify(Event(-1, "t1", EventType.WRITE, "x"))
        assert kind is ROUTE_CLOCK
        partitioner.classify(Event(-1, "t1", EventType.RELEASE, "l"))
        # First access after the release carries the deferred bump.
        kind, _ = partitioner.classify(Event(-1, "t1", EventType.WRITE, "x"))
        assert kind is ROUTE_CLOCK
        # ... but only the first one.
        kind, _ = partitioner.classify(Event(-1, "t1", EventType.WRITE, "x"))
        assert kind is ROUTE
        # Other threads are unaffected.
        kind, _ = partitioner.classify(Event(-1, "t2", EventType.WRITE, "x"))
        assert kind is ROUTE

    def test_routing_memo_matches_crc32(self):
        """The coordinator's int-valued routing memo never diverges from
        hashing the name directly."""
        trace = random_trace(31, n_events=200, n_threads=4, n_vars=9)
        partitioner = StreamPartitioner(3)
        for event in trace:
            kind, owner = partitioner.classify(event)
            if kind is not REPLICATE:
                assert owner == owner_of(event.target, 3)
        # Every access was memoized exactly once per variable.
        assert set(partitioner._owner_memo) == {
            event.target for event in trace
            if event.etype in (EventType.READ, EventType.WRITE)
        }

    def test_routing_memo_dropped_on_restore(self):
        """The memo is no checkpoint state: a restored partitioner starts
        without one and routes every variable as the original did."""
        partitioner = StreamPartitioner(2)
        partitioner.classify(Event(-1, "t1", EventType.WRITE, "a"))
        partitioner.classify(Event(-1, "t1", EventType.WRITE, "u"))
        state = partitioner.state_dict()
        assert partitioner._owner_memo == {"a": 1, "u": 0}
        assert "policy" not in state
        restored = StreamPartitioner(2)
        restored.load_state(state)
        assert restored._owner_memo == {}
        for variable in ("a", "u", "c"):
            _, owner = restored.classify(
                Event(-1, "t1", EventType.WRITE, variable))
            assert owner == owner_of(variable, 2)

    def test_census(self):
        partitioner = StreamPartitioner(2)
        partitioner.classify(Event(-1, "t1", EventType.ACQUIRE, "l"))
        partitioner.classify(Event(-1, "t1", EventType.WRITE, "x"))
        partitioner.classify(Event(-1, "t1", EventType.RELEASE, "l"))
        partitioner.classify(Event(-1, "t2", EventType.READ, "x"))
        assert partitioner.stats() == {
            "replicated": 2, "routed": 1, "routed_clock": 1,
        }


DETECTOR_SETS = [["wcp"], ["hb"], ["wcp", "hb"]]


class TestShardParity:
    """ShardedEngine(shards=k) must report exactly the single engine's races."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shards", [2, 3, 4])
    def test_random_trace_parity_serial(self, seed, shards):
        trace = random_trace(
            seed, n_events=120, n_threads=4, n_locks=3, n_vars=6
        )
        single = RaceEngine().run(trace, detectors=["wcp", "hb"])
        sharded = ShardedEngine(shards=shards, mode="serial", batch_size=17).run(
            trace, detectors=["wcp", "hb"]
        )
        for name in single.keys():
            assert _fingerprint(single[name]) == _fingerprint(sharded[name])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("detectors", DETECTOR_SETS)
    def test_fork_join_parity(self, seed, detectors):
        trace = fork_join_trace(seed)
        single = RaceEngine().run(trace, detectors=detectors)
        sharded = ShardedEngine(shards=4, mode="serial", batch_size=13).run(
            trace, detectors=detectors
        )
        for name in single.keys():
            assert _fingerprint(single[name]) == _fingerprint(sharded[name])

    def test_hash_partition_parity(self):
        trace = random_trace(11, n_events=150, n_threads=4, n_vars=8)
        single = RaceEngine().run(trace, detectors=["wcp"])
        sharded = ShardedEngine(shards=3, mode="serial").run(
            trace, detectors=["wcp"]
        )
        assert _fingerprint(single["WCP"]) == _fingerprint(sharded["WCP"])

    def test_process_mode_parity(self):
        trace = random_trace(9, n_events=250, n_threads=4, n_vars=8)
        single = RaceEngine().run(trace, detectors=["wcp", "hb"])
        sharded = ShardedEngine(shards=2, mode="process", batch_size=64).run(
            trace, detectors=["wcp", "hb"]
        )
        for name in single.keys():
            assert _fingerprint(single[name]) == _fingerprint(sharded[name])

    def test_stream_source_parity(self, tmp_path):
        trace = random_trace(21, n_events=160, n_threads=4, n_vars=6)
        path = dump_trace(trace, tmp_path / "t.std")
        single = RaceEngine().run(FileSource(path), detectors=["wcp"])
        sharded = ShardedEngine(shards=3, mode="serial").run(
            FileSource(path), detectors=["wcp"]
        )
        assert _fingerprint(single["WCP"]) == _fingerprint(sharded["WCP"])

    def test_single_shard_is_byte_identical(self, simple_race_trace):
        """shards=1 takes the exact unsharded code path."""
        single = RaceEngine().run(simple_race_trace, detectors=["wcp", "hb"])
        one = ShardedEngine(shards=1).run(simple_race_trace, detectors=["wcp", "hb"])
        assert not isinstance(one, ShardedResult)
        assert set(one.keys()) == set(single.keys())
        for name in single.keys():
            assert _fingerprint(single[name]) == _fingerprint(one[name])
            # Full stats-key identity: nothing shard-related leaks in.
            assert set(one[name].stats) == set(single[name].stats)

    def test_cross_variable_location_pair_keeps_single_engine_witness(self):
        """One location pair witnessed by two different variables living
        on two different shards: the merge must keep the first-*detected*
        witness (the single engine's), regardless of shard merge order."""
        events = [
            Event(0, "t1", EventType.WRITE, "x", "a.py:1"),
            Event(1, "t2", EventType.WRITE, "x", "b.py:2"),  # detected here
            Event(2, "t1", EventType.WRITE, "u", "a.py:1"),
            Event(3, "t2", EventType.WRITE, "u", "b.py:2"),  # same pair, later
        ]
        trace = Trace(events, validate=False, name="xvar")
        single = RaceEngine().run(trace, detectors=["hb"])
        # u hashes to shard 0 and x to shard 1, so shard 0 (merged first)
        # holds the *later* witness and the merge must prefer shard 1's.
        assert (owner_of("u", 2), owner_of("x", 2)) == (0, 1)
        sharded = ShardedEngine(shards=2, mode="serial").run(
            trace, detectors=["hb"]
        )
        (single_pair,) = single["HB"].pairs()
        (sharded_pair,) = sharded["HB"].pairs()
        assert single_pair.first_event.index == 0
        assert sharded_pair.first_event == single_pair.first_event
        assert sharded_pair.second_event == single_pair.second_event
        assert single["HB"].max_distance() == sharded["HB"].max_distance()

    def test_merged_distances_and_witnesses(self):
        trace = random_trace(31, n_events=140, n_threads=4, n_vars=5)
        single = RaceEngine().run(trace, detectors=["wcp"])
        sharded = ShardedEngine(shards=4, mode="serial").run(
            trace, detectors=["wcp"]
        )
        single_pairs = {p.key(): p for p in single["WCP"].pairs()}
        sharded_pairs = {p.key(): p for p in sharded["WCP"].pairs()}
        assert set(single_pairs) == set(sharded_pairs)
        for key, pair in single_pairs.items():
            other = sharded_pairs[key]
            # Every raw racy pair is found exactly once (on the variable's
            # owner shard), so witnesses and distances match exactly.
            assert pair.first_event == other.first_event
            assert pair.second_event == other.second_event
            assert single["WCP"].distance_of(pair) == sharded["WCP"].distance_of(other)


class TestShardBoundaryProtocol:
    def test_cross_shard_clock_agreement(self):
        """All shards agree on the sync clocks of commonly-known threads."""
        for seed in range(4):
            trace = fork_join_trace(seed)
            result = ShardedEngine(shards=4, mode="serial", batch_size=16).run(
                trace, detectors=["wcp", "hb"]
            )
            for position in range(2):
                views = result.shard_clock_views(position)
                assert views, "no clock views returned"
                common = set.intersection(*(set(view) for view in views))
                assert common, "no commonly-known threads"
                for thread in common:
                    reference = views[0][thread]
                    for view in views[1:]:
                        assert view[thread] == reference

    def test_merged_clock_state_covers_all_threads(self):
        trace = fork_join_trace(1)
        result = ShardedEngine(shards=3, mode="serial").run(
            trace, detectors=["wcp"]
        )
        assert set(result.clock_state["WCP"]) == set(trace.threads)
        # The merged registry interns every thread any worker saw.
        assert set(result.registry.names()) == set(trace.threads)

    def test_shard_metadata(self):
        trace = random_trace(3, n_events=100, n_threads=3, n_vars=6)
        result = ShardedEngine(shards=3, mode="serial").run(trace, detectors=["hb"])
        assert isinstance(result, ShardedResult)
        assert result.shards == 3 and result.mode == "serial"
        assert sum(result.shard_events) >= result.events
        assert result.replication_factor() >= 1.0
        assert result.work_speedup_bound() >= 1.0
        census = result.partition_stats
        assert census["replicated"] + census["routed"] + census["routed_clock"] == len(trace)
        assert "shard(s)" in result.summary()


class TestShardedEngineBehavior:
    def test_unshardable_detector_is_rejected(self, simple_race_trace):
        with pytest.raises(ValueError, match="cannot run sharded"):
            ShardedEngine(shards=2, mode="serial").run(
                simple_race_trace, detectors=[EraserDetector()]
            )

    def test_duplicate_instance_is_rejected(self, simple_race_trace):
        detector = HBDetector()
        with pytest.raises(ValueError):
            ShardedEngine(shards=2, mode="serial").run(
                simple_race_trace, detectors=[detector, detector]
            )

    def test_event_budget(self):
        trace = random_trace(4, n_events=200, n_threads=3)
        config = EngineConfig().with_shards(2, mode="serial").stop_after_events(50)
        result = ShardedEngine(config).run(trace, detectors=["hb"])
        assert result.events == 50
        assert result.stop_reason == STOP_EVENT_BUDGET

    def test_race_budget_stops_at_batch_granularity(self, tmp_path):
        events = []
        for i in range(400):
            events.append(Event(i, "t%d" % (i % 2), EventType.WRITE, "x",
                                "f.py:%d" % (i % 7)))
        trace = Trace(events, validate=False, name="racy")
        config = EngineConfig().with_shards(2, mode="serial", batch_size=20)
        config.stop_after_races(1)
        result = ShardedEngine(config).run(trace, detectors=["hb"])
        assert result.stop_reason == STOP_RACE_BUDGET
        assert result.events < 400

    def test_snapshots_are_merged(self):
        trace = random_trace(6, n_events=120, n_threads=3)
        seen = []
        config = EngineConfig().with_shards(2, mode="serial", batch_size=16)
        config.snapshot_every(40, seen.append)
        result = ShardedEngine(config).run(trace, detectors=["wcp", "hb"])
        assert result.snapshots and seen == result.snapshots
        names = {snap.detector_name for snap in result.snapshots}
        assert names == {"WCP", "HB"}
        final = [s for s in result.snapshots if s.events == result.events]
        assert final, "no final snapshot emitted"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShardedEngine(shards=0)
        with pytest.raises(ValueError):
            ShardedEngine(shards=2, mode="carrier-pigeon")
        with pytest.raises(ValueError):
            ShardedEngine(shards=2, batch_size=0)
        with pytest.raises(ValueError):
            EngineConfig().with_shards(0)
        config = EngineConfig().with_shards(4, mode="serial", batch_size=7)
        assert config.shards == 4 and "shards=4" in repr(config)

    def test_api_shards_parameter(self):
        trace = random_trace(7, n_events=100, n_threads=3)
        config = EngineConfig().with_shards(2, mode="serial")
        reference = detect_races(trace, "wcp")
        report = detect_races(trace, "wcp", shards=2)
        assert _fingerprint(report) == _fingerprint(reference)
        reports = compare_detectors(trace, ["wcp", "hb"], config=config)
        assert set(reports) == {"WCP", "HB"}
        result = run_engine(trace, detectors=["hb"], config=config)
        assert isinstance(result, ShardedResult)
        # Explicit shards= overrides the config.
        result = run_engine(trace, detectors=["hb"], config=config, shards=1)
        assert not isinstance(result, ShardedResult)

    def test_cli_analyze_sharded(self, tmp_path, capsys):
        trace = random_trace(8, n_events=80, n_threads=3)
        path = str(dump_trace(trace, tmp_path / "t.std"))
        code = main(["analyze", path, "--detector", "wcp,hb",
                     "--shards", "2", "--shard-mode", "serial"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "WCP" in out

    def test_cli_compare_sharded(self, tmp_path, capsys):
        trace = random_trace(8, n_events=80, n_threads=3)
        path = str(dump_trace(trace, tmp_path / "t.std"))
        code = main(["compare", path, "--detectors", "wcp,hb",
                     "--shards", "2", "--shard-mode", "serial"])
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "2 shard(s)" in out

    def test_removed_transport_modes_are_rejected(self, tmp_path, capsys):
        for mode in ("ring", "thread"):
            with pytest.raises(ValueError, match="available: process, serial"):
                ShardedEngine(shards=2, mode=mode)
        trace = random_trace(8, n_events=40, n_threads=3)
        path = str(dump_trace(trace, tmp_path / "t.std"))
        with pytest.raises(SystemExit) as exc:
            main(["analyze", path, "--shards", "2", "--shard-mode", "thread"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice: 'thread'" in err

    def test_cli_window_plus_shards_is_rejected(self, tmp_path, capsys):
        trace = random_trace(8, n_events=40, n_threads=3)
        path = str(dump_trace(trace, tmp_path / "t.std"))
        code = main(["analyze", path, "--window", "10", "--shards", "2"])
        assert code == 2
        assert "window" in capsys.readouterr().err

    def test_cli_unshardable_detector_errors_cleanly(self, tmp_path, capsys):
        trace = random_trace(8, n_events=40, n_threads=3)
        path = str(dump_trace(trace, tmp_path / "t.std"))
        code = main(["analyze", path, "--detector", "eraser", "--shards", "2",
                     "--shard-mode", "serial"])
        assert code == 2
        assert "cannot run sharded" in capsys.readouterr().err


class TestDetectorPickleSafety:
    """Shard workers receive detectors by pickling; mid-run state must
    survive a round-trip with verdicts intact (the transport relies on it
    for fresh instances, and resumable workers will rely on it later)."""

    FACTORIES = [
        WCPDetector,
        lambda: WCPDetector(strict_pseudocode=True),
        HBDetector,
    ]

    @pytest.mark.parametrize("factory", FACTORIES)
    @pytest.mark.parametrize("seed", [0, 13])
    def test_midrun_pickle_roundtrip(self, factory, seed):
        trace = random_trace(seed, n_events=120, n_threads=4, n_vars=5)
        reference = factory().run(trace)

        detector = factory()
        detector.reset(trace)
        split = len(trace) // 2
        for event in trace.events[:split]:
            detector.process(event)
        resumed = pickle.loads(pickle.dumps(detector))
        for event in trace.events[split:]:
            resumed.process(event)
        resumed.finish()
        assert _fingerprint(resumed.report) == _fingerprint(reference)

    def test_fresh_instances_pickle(self):
        for factory in self.FACTORIES:
            blob = pickle.dumps(factory())
            assert pickle.loads(blob).name

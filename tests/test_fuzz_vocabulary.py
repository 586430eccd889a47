"""Coverage-driven trace-fuzzer smoke: differential parity on the full vocabulary.

Random mixed-vocabulary traces (mutexes, rwlocks, barriers, wait/notify,
fork/join) are run through both execution modes -- single engine and
sharded engine -- and through an STD round trip, asserting that WCP,
HB and FastTrack produce identical reports everywhere.  This is the
differential harness CI runs as its fuzzer smoke: the generator only emits
discipline-legal traces (it validates its own output), so any divergence
is a detector or engine bug, not a bad input.
"""

import pytest

from repro import (
    EngineConfig,
    RaceEngine,
    ShardedEngine,
)
from repro.bench.generators import mixed_vocabulary_trace
from repro.trace import EventType, load_trace
from repro.trace.writers import dump_trace

from test_sharding import _fingerprint

DETECTORS = ["wcp", "hb", "fasttrack"]
SEEDS = range(6)


def _report_fingerprints(result):
    fingerprints = {
        name: _fingerprint(report) for name, report in result.reports.items()
    }
    assert len(fingerprints) == len(DETECTORS)
    return fingerprints


class TestMixedVocabularyDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_serial_sharded_parity(self, seed):
        trace = mixed_vocabulary_trace(seed=seed, threads=3, steps=150)
        serial = RaceEngine().run(trace, detectors=DETECTORS)
        config = EngineConfig().with_shards(3, mode="serial", batch_size=16)
        sharded = ShardedEngine(config).run(trace, detectors=DETECTORS)
        expected = _report_fingerprints(serial)
        assert _report_fingerprints(sharded) == expected

    @pytest.mark.parametrize("seed", [1, 4])
    def test_shard_count_does_not_change_reports(self, seed):
        trace = mixed_vocabulary_trace(seed=seed, threads=4, steps=150)
        expected = _report_fingerprints(RaceEngine().run(trace, detectors=DETECTORS))
        for shards in (2, 5):
            config = EngineConfig().with_shards(shards, mode="serial", batch_size=16)
            result = ShardedEngine(config).run(trace, detectors=DETECTORS)
            assert _report_fingerprints(result) == expected, (
                "shards=%d diverged on seed %d" % (shards, seed)
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_std_round_trip_preserves_reports(self, tmp_path, seed):
        trace = mixed_vocabulary_trace(seed=seed, threads=3, steps=120)
        path = dump_trace(trace, tmp_path / "mixed.std")
        reloaded = load_trace(path)
        assert reloaded.census() == trace.census()
        expected = _report_fingerprints(RaceEngine().run(trace, detectors=DETECTORS))
        assert _report_fingerprints(
            RaceEngine().run(reloaded, detectors=DETECTORS)
        ) == expected


class TestGeneratorCoverage:
    def test_every_event_kind_appears(self):
        # The deterministic preamble guarantees full-vocabulary coverage
        # regardless of the random tail -- the property that makes a small
        # CI seed range meaningful.
        for seed in SEEDS:
            trace = mixed_vocabulary_trace(seed=seed, threads=3, steps=120)
            kinds = {event.etype for event in trace.events}
            assert kinds == set(EventType), (
                "seed %d missing kinds: %s"
                % (seed, sorted(e.value for e in set(EventType) - kinds))
            )

    def test_generator_output_is_discipline_legal(self):
        # Construction already validates (validate=True); this documents it.
        trace = mixed_vocabulary_trace(seed=9, threads=4, steps=200)
        assert len(trace) > 0

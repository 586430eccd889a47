"""The cyclic collector is paused for trace loading and sync engine passes.

The pause is only safe if neither creates cyclic garbage: anything cyclic
allocated while the collector is off would pile up until the next
collection.  These tests pin that down for every detector and both
ingest paths, and check that the pause restores the caller's collector
state.
"""

import gc

import pytest

from repro.api import available_detectors, make_detector, run_engine
from repro.bench.generators import mixed_vocabulary_trace
from repro.bench.suite import get_benchmark
from repro.engine import FileSource, RaceEngine, ValidatingSource
from repro.gcpause import gc_paused
from repro.trace.parsers import load_trace
from repro.trace.semantics import LockSemanticsError
from repro.trace.writers import dump_trace

INPUTS = {
    "xalan": lambda: get_benchmark("xalan", scale=0.002, seed=3),
    "mixed": lambda: mixed_vocabulary_trace(5, threads=3, steps=60),
}

#: MCM's solver is exponential in the window; a small per-query state
#: budget keeps it quick.
DETECTOR_KWARGS = {"mcm": {"max_states_per_query": 2000}}


@pytest.fixture
def collector_off():
    """Collect everything, then run the test with the collector disabled."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("gc-inputs")
    files = {}
    for name, build in INPUTS.items():
        trace = build()
        path = directory / ("%s.std" % name)
        dump_trace(trace, path)
        files[name] = (trace, path)
    return files


@pytest.mark.parametrize("ingest", ["trace", "validating-file"])
@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("detector", available_detectors())
def test_pass_creates_no_cyclic_garbage(
    detector, input_name, ingest, input_files, collector_off
):
    trace, path = input_files[input_name]
    source = (
        trace if ingest == "trace"
        else ValidatingSource(FileSource(path))
    )
    result = run_engine(
        source,
        detectors=[make_detector(detector, **DETECTOR_KWARGS.get(detector, {}))],
    )
    assert result.events == len(trace)
    assert gc.collect() == 0
    # The pause restored the state it found: still disabled.
    assert not gc.isenabled()


def test_finished_pass_is_freed_without_the_collector(collector_off):
    trace = get_benchmark("xalan", scale=0.1, seed=3)
    result = run_engine(trace, detectors=["wcp", "hb"])
    assert result.total_distinct_races() > 0
    del result
    # No reference cycle (e.g. the pass holding a bound method of itself)
    # keeps detector state alive until a full collection.
    assert gc.collect() == 0


def test_load_trace_creates_no_cyclic_garbage(input_files, collector_off):
    for trace, path in input_files.values():
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        assert gc.collect() == 0
        assert not gc.isenabled()


def test_enabled_collector_is_restored_after_a_pass():
    gc.enable()
    trace = INPUTS["xalan"]()
    RaceEngine().run(trace, detectors=["wcp"])
    assert gc.isenabled()


def test_collector_is_restored_when_loading_or_a_pass_raises(tmp_path):
    gc.enable()
    bad = tmp_path / "bad.std"
    bad.write_text("t1|rel(l)\n")
    with pytest.raises(LockSemanticsError):
        load_trace(bad)
    assert gc.isenabled()
    with pytest.raises(LockSemanticsError):
        RaceEngine().run(ValidatingSource(FileSource(bad)), detectors=["wcp"])
    assert gc.isenabled()


def test_gc_paused_restores_the_callers_state():
    gc.enable()
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()

    gc.disable()
    try:
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()

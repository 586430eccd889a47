"""Differential suite: the compiled kernel against the Python detectors.

With the cffi kernels, :class:`~repro.core.wcp.WCPDetector` and
:class:`~repro.hb.hb.HBDetector` run each block in one C call
(:mod:`repro.core.wcp_compiled`; HB in the kernel's HB mode) whose state
mirrors the Python detector's.  Every test here runs the same detector
twice -- kernel live, and kernel switched off through the private
per-instance ``_use_kernel`` switch -- and asserts that nothing
observable differs: race pairs, witnesses, distances, raw counts, every
statistic but the timings, ``timestamps()`` and the transcribed state
itself at every block boundary.  The hand-over points (a rare kind, a
row that would taint a WCP lock, ``mark_foreign``) and a snapshot taken
while compiled are covered explicitly, and the kernel is checked against
the frozen legacy detector and the WCP and HB closures too.  FastTrack
keeps the Python path.
"""

import os
import random
import sys

import pytest
from hypothesis import given, settings

from conftest import NoCensus, private_shared_trace, random_trace
from test_backend_parity import random_trace_with_forks
from test_properties import traces

from repro.bench.generators import mixed_vocabulary_trace
from repro.core.closure import HBClosure, WCPClosure
from repro.core.snapshot import unpack_for
from repro.core.wcp import WCPDetector
from repro.core.wcp_compiled import WCPKernel
from repro.core.wcp_legacy import LegacyWCPDetector
from repro.hb import FastTrackDetector, HBDetector
from repro.trace.columns import ColumnBlock
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.vectorclock import kernels

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "benchmarks")
)
from bench_hotpath import (  # noqa: E402
    high_contention_trace, racy_mix_trace, thread_local_trace,
)

compiled = pytest.mark.skipif(
    kernels.BACKEND != "cffi",
    reason="the compiled kernels are inactive (%s)" % kernels.FALLBACK_REASON,
)

_TIMINGS = ("time_s", "events_per_s")


@pytest.fixture(scope="module")
def cls():
    """The detector under test: WCP here, HB in :class:`TestHBKernel`."""
    return WCPDetector


def _pair(cls=WCPDetector, **config):
    kernel = cls(**config)
    # Start the kernel even where the first block hands over at once, so
    # every hand-over offset is exercised.
    kernel._KERNEL_MIN_ROWS = 0
    python = cls(**config)
    python._use_kernel = False
    return kernel, python


def _report_key(report):
    pairs = [
        (
            pair.first_event.index, pair.second_event.index,
            pair.first_event.thread, pair.second_event.thread,
            pair.first_event.etype, pair.second_event.etype,
            pair.first_event.location(), pair.second_event.location(),
            pair.distance, report.distance_of(pair),
        )
        for pair in report.pairs()
    ]
    stats = {
        name: value for name, value in report.stats.items()
        if name not in _TIMINGS
    }
    return pairs, report.location_pairs(), report.raw_race_count, stats


def _state(detector):
    state = unpack_for(detector).unpack(detector.state_snapshot())
    for name in _TIMINGS:
        state["report"]["stats"].pop(name, None)
    return state


def _run_blocks(detector, trace, size):
    detector.reset(trace)
    events = getattr(trace, "events", None)
    if events is None:
        events = list(trace)
    step = size or max(1, len(events))
    for start in range(0, len(events), step):
        detector.process_batch(events[start:start + step])
    # (finish hands over: note whether the kernel ran to the end.)
    detector.compiled_to_end = detector._kernel is not None
    detector.finish()
    return detector.report


def _assert_same(trace, size=None, states=False, cls=WCPDetector, **config):
    kernel, python = _pair(cls, **config)
    if states:
        kernel.reset(trace)
        python.reset(trace)
        events = getattr(trace, "events", None) or list(trace)
        step = size or max(1, len(events))
        for start in range(0, len(events), step):
            kernel.process_batch(events[start:start + step])
            python.process_batch(events[start:start + step])
            assert _state(kernel) == _state(python), (trace.name, start)
        kernel.compiled_to_end = kernel._kernel is not None
        kernel.finish()
        python.finish()
        expected, actual = python.report, kernel.report
    else:
        actual = _run_blocks(kernel, trace, size)
        expected = _run_blocks(python, trace, size)
    assert _report_key(actual) == _report_key(expected), (trace.name, size)
    return kernel


def _first_rare_row(trace):
    rare = {EventType.READ, EventType.WRITE, EventType.ACQUIRE,
            EventType.RELEASE, EventType.FORK, EventType.JOIN,
            EventType.BEGIN, EventType.END}
    for event in trace:
        if event.etype not in rare:
            return event.index
    return None


# --------------------------------------------------------------------- #
# The kernel runs, and the switch turns it off
# --------------------------------------------------------------------- #


@compiled
def test_kernel_is_live_and_the_switch_turns_it_off(cls):
    trace = random_trace(1, n_events=40)
    kernel, python = _pair(cls)
    for detector in (kernel, python):
        detector.reset(trace)
        detector.process_batch(trace.events[:10])
    assert kernel._kernel is not None
    assert kernel._kernel._hb == (cls is HBDetector)
    assert python._kernel is None
    strict = WCPDetector(strict_pseudocode=True)
    strict.reset(trace)
    strict.process_batch(trace.events[:10])
    assert strict._kernel is None


@compiled
def test_fasttrack_never_starts_a_kernel():
    trace = high_contention_trace(400)
    detector = FastTrackDetector()
    detector._KERNEL_MIN_ROWS = 0
    detector.reset(trace)
    assert not detector._kernel_pending
    detector.process_batch(trace.events)
    assert detector._kernel is None


@compiled
def test_a_first_block_that_hands_over_at_once_stays_in_python():
    trace = mixed_vocabulary_trace(3, threads=3, steps=120)
    assert _first_rare_row(trace) < WCPDetector._KERNEL_MIN_ROWS
    detector = WCPDetector()
    detector.reset(trace)
    detector.process_batch(trace.events)
    assert detector._kernel is None and not detector._kernel_pending
    assert "_nt" in vars(detector)
    # So does a short first block, and the pass stays in Python.
    contended = high_contention_trace(400)
    detector.reset(contended)
    detector.process_batch(contended.events[:10])
    detector.process_batch(contended.events[10:])
    assert detector._kernel is None


@compiled
def test_kernel_runs_whole_contention_trace(cls):
    trace = high_contention_trace(4000)
    detector = cls()
    detector.reset(trace)
    detector.process_batch(trace.events)
    assert detector._kernel is not None
    # The Python loop built no row: nothing raced.
    assert trace.events.materialised() == 0


# --------------------------------------------------------------------- #
# Generated inputs
# --------------------------------------------------------------------- #


@compiled
@settings(max_examples=60, deadline=None)
@given(trace=traces())
def test_hypothesis_lock_traces(cls, trace):
    _assert_same(trace, states=True, size=7, cls=cls)
    _assert_same(trace, cls=cls)
    _assert_same(NoCensus(trace), cls=cls)


@compiled
@pytest.mark.parametrize("seed", range(25))
def test_random_traces_with_forks(seed, cls):
    trace = random_trace_with_forks(seed, n_events=120)
    _assert_same(trace, states=True, size=9, cls=cls)
    _assert_same(NoCensus(trace), cls=cls)
    if cls is WCPDetector:
        assert WCPDetector().timestamps(trace) == (
            LegacyWCPDetector().timestamps(trace)
        )


@compiled
@pytest.mark.parametrize("seed", range(12))
def test_private_and_shared_locks(seed, cls):
    trace = private_shared_trace(seed, steps=200)
    _assert_same(trace, states=True, size=13, cls=cls)
    _assert_same(NoCensus(trace), cls=cls)


@compiled
@pytest.mark.parametrize("shape", ["contention", "racy", "local"])
def test_hot_path_shapes(shape, cls):
    make = {
        "contention": high_contention_trace,
        "racy": racy_mix_trace,
        "local": thread_local_trace,
    }[shape]
    trace = make(3000)
    _assert_same(trace, cls=cls)
    _assert_same(trace, size=257, states=True, cls=cls)
    kernel = _assert_same(NoCensus(trace), size=500, cls=cls)
    assert kernel.compiled_to_end


@compiled
def test_built_rows_leave_the_index_check_constant(cls):
    # A legacy run builds every row of the trace's block.  The kernel
    # still reads row j's index as start + j, without walking the built
    # rows, and reports what the Python detector reports.
    trace = thread_local_trace(3000)
    LegacyWCPDetector().run(trace)
    block = trace.events
    assert block.materialised() == len(block)
    assert WCPKernel._indices(block, 0, len(block)) is None
    _assert_same(trace, cls=cls)
    _assert_same(trace, size=257, cls=cls)


@compiled
def test_events_with_gaps_reach_the_kernel_as_an_index_column(cls):
    # Events numbered with gaps (a substream's) keep their indices: the
    # block ColumnBlock.from_events builds records them as a column, and
    # the kernel's races quote them as the Python detector's do.
    trace = random_trace(3, n_events=600, n_threads=4)
    events = [Event(7 + 3 * e.index, e.thread, e.etype, e.target, loc=e.loc)
              for e in trace]
    block = ColumnBlock.from_events(events)
    assert list(block._indices) == [event.index for event in events]
    assert list(WCPKernel._indices(block, 5, 9)) == [22, 25, 28, 31]
    kernel, python = _pair(cls)
    for detector in (kernel, python):
        detector.reset(NoCensus(trace))
        detector.process_batch(block[:250])
        detector.process_batch(block[250:])
    assert kernel._kernel is not None
    for detector in (kernel, python):
        detector.finish()
    assert _report_key(kernel.report) == _report_key(python.report)
    assert kernel.report.raw_race_count


def _handover_trace(seed):
    """A lock/access prefix of varying length, then a mixed-vocabulary
    trace: the kernel hands over at its first rwlock, barrier or
    wait/notify row, at a different offset per seed."""
    prefix = random_trace(seed, n_events=5 + 13 * seed, n_threads=3)
    tail = mixed_vocabulary_trace(seed, threads=3, steps=120)
    events = list(prefix) + [
        Event(len(prefix) + e.index, e.thread, e.etype, e.target, loc=e.loc)
        for e in tail
    ]
    return Trace(events, validate=True, name="handover-%d" % seed)


@compiled
@pytest.mark.parametrize("seed", range(16))
def test_mixed_vocabulary_hands_over(seed, cls):
    _check_mixed_vocabulary(seed, cls)


def _check_mixed_vocabulary(seed, cls):
    trace = _handover_trace(seed)
    for size in (None, 5, 11):
        _assert_same(trace, size=size, states=size == 5, cls=cls)
    _assert_same(NoCensus(trace), cls=cls)
    plain = mixed_vocabulary_trace(seed, threads=3, steps=120)
    _assert_same(plain, size=4, states=True, cls=cls)


def test_hand_over_offsets_vary():
    offsets = {_first_rare_row(_handover_trace(seed)) for seed in range(16)}
    assert len(offsets) > 8


@compiled
def test_every_split_point_of_small_traces(cls):
    for seed in range(6):
        trace = random_trace_with_forks(seed, n_events=30)
        for split in range(1, len(trace)):
            kernel, python = _pair(cls)
            for detector in (kernel, python):
                detector.reset(trace)
                detector.process_batch(trace.events[:split])
            assert _state(kernel) == _state(python), (seed, split)
            for detector in (kernel, python):
                detector.process_batch(trace.events[split:])
                detector.finish()
            assert _report_key(kernel.report) == _report_key(python.report)


@compiled
@pytest.mark.parametrize("seed", range(10))
def test_unvalidated_windows_taint_and_hand_over(seed):
    trace = random_trace(seed, n_events=120, n_threads=4, n_locks=2)
    for start in range(0, 100, 9):
        window = trace.window(start, 40)
        _assert_same(window, states=True, size=6)
        _assert_same(NoCensus(window))


@compiled
def test_mark_foreign_hands_over(cls):
    trace = NoCensus(random_trace(3, n_events=80))
    kernel, python = _pair(cls)
    for detector in (kernel, python):
        detector.reset(trace)
        detector.process_batch(list(trace)[:40])
    assert kernel._kernel is not None
    for detector in (kernel, python):
        detector.mark_foreign("x0")
    assert kernel._kernel is None
    assert _state(kernel) == _state(python)
    for detector in (kernel, python):
        detector.process_batch(list(trace)[40:])
        detector.finish()
    assert _report_key(kernel.report) == _report_key(python.report)


# --------------------------------------------------------------------- #
# Snapshots, timestamps, oracles
# --------------------------------------------------------------------- #


@compiled
@pytest.mark.parametrize("seed", range(8))
def test_snapshot_while_compiled_resumes_in_python(seed, cls):
    trace = random_trace_with_forks(seed, n_events=200)
    reference = _run_blocks(cls(), trace, None)
    for cut in (1, 50, 120):
        detector = cls()
        detector._KERNEL_MIN_ROWS = 0
        detector.reset(trace)
        detector.process_batch(trace.events[:cut])
        assert detector._kernel is not None
        blob = detector.state_snapshot()
        resumed = cls()
        resumed.restore_pending = True
        resumed.reset(trace)
        resumed.restore_state(blob)
        assert resumed._kernel is None
        resumed.process_batch(trace.events[cut:])
        resumed.finish()
        assert _report_key(resumed.report) == _report_key(reference)
        # The compiled detector carries on after the snapshot.
        detector.process_batch(trace.events[cut:])
        detector.finish()
        assert _report_key(detector.report) == _report_key(reference)


@compiled
@pytest.mark.parametrize("seed", range(10))
def test_timestamps_match_python_and_closure(seed, cls):
    trace = random_trace(seed + 200, n_events=50, n_threads=3, n_locks=2)
    kernel, python = _pair(cls)
    clocks = kernel.timestamps(trace)
    assert kernel._kernel is None  # finish handed over
    assert clocks == python.timestamps(trace)
    closure = (HBClosure if cls is HBDetector else WCPClosure)(trace)
    for second in range(len(trace)):
        for first in range(second):
            assert (clocks[first] <= clocks[second]) == (
                closure.ordered(first, second)
            )


@pytest.mark.parametrize("seed", range(10))
def test_kernel_matches_legacy_detector(seed):
    trace = random_trace_with_forks(seed + 40, n_events=150)
    report = WCPDetector().run(trace)
    legacy = LegacyWCPDetector().run(trace)
    assert sorted(map(sorted, report.location_pairs())) == sorted(
        map(sorted, legacy.location_pairs())
    )
    assert report.raw_race_count == legacy.raw_race_count
    assert report.stats["max_queue_total"] == legacy.stats["max_queue_total"]


@compiled
@pytest.mark.parametrize("shape", ["contention", "racy"])
def test_locations_as_spans_and_as_strings(shape, cls, tmp_path):
    """A file decoded into byte spans (with the strings the Python
    decoder built for new heads) and the same events as a list of
    strings give the Python report, batch and streamed."""
    from repro.engine import FileSource, RaceEngine
    from repro.trace.columns import LocSpans
    from repro.trace.parsers import load_trace
    from repro.trace.writers import dump_trace

    make = {"contention": high_contention_trace, "racy": racy_mix_trace}
    trace = make[shape](6000)
    path = str(tmp_path / "t.std")
    dump_trace(trace, path)
    loaded = load_trace(path)
    assert isinstance(loaded.events.locs, LocSpans)
    assert loaded.events.locs.decoded
    for source in (loaded, trace):
        _assert_same(source, cls=cls)
        _assert_same(NoCensus(source), size=999, states=True, cls=cls)
    reports = []
    for use in (True, False):
        detector = cls()
        detector._use_kernel = use
        result = RaceEngine().run(FileSource(path), [detector])
        reports.append(_report_key(result[detector.name])[:3])
    assert reports[0] == reports[1]


def _spelled_location_trace():
    """An access without a location, then one whose real location spells
    the string ``Event.location`` synthesises for it, then a racing write.
    The 100 thread-local rows before them let the kernel start."""
    lines = ["f%d|w(v%d)|fill:%d" % (i % 4, i % 4, i) for i in range(100)]
    lines += ["t1|w(x)", "t1|w(x)|t1:w(x)@100", "t2|w(x)|b"]
    return "\n".join(lines) + "\n"


def test_a_real_location_spelling_a_synthesised_one(tmp_path):
    """Both t1 writes are distinct history cells, so t2's write races
    with each (raw count 2, distance 2), for WCP and HB under either
    backend, in-process and through ``analyze --json``."""
    import json
    import subprocess

    from repro.trace.parsers import load_trace

    path = tmp_path / "spelled.std"
    path.write_text(_spelled_location_trace())
    trace = load_trace(str(path))
    for cls in (WCPDetector, HBDetector):
        kernel = _assert_same(trace, size=None, states=True, cls=cls)
        assert kernel.report.raw_race_count == 2
        assert kernel.report.max_distance() == 2

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    reports = {}
    for backend in ("python", kernels.BACKEND):
        env = dict(os.environ, REPRO_CLOCK_KERNEL=backend, PYTHONPATH=src)
        stem = str(tmp_path / backend)
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", str(path),
             "--detector", "wcp,hb", "--json", stem + ".json"],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode == 1, run.stderr
        for name in ("wcp", "hb"):
            with open("%s.%s.json" % (stem, name)) as handle:
                report = json.load(handle)
            report.pop("stats")
            assert (report["raw_race_count"], report["max_distance"]) == (2, 2)
            reports[backend, name] = report
    for name in ("wcp", "hb"):
        assert reports["python", name] == reports[kernels.BACKEND, name]


class TestHBKernel:
    """The differential tests above, for :class:`HBDetector` (the
    kernel's HB mode)."""

    @pytest.fixture(scope="class")
    def cls(self):
        return HBDetector

    test_kernel_is_live_and_the_switch_turns_it_off = staticmethod(
        test_kernel_is_live_and_the_switch_turns_it_off
    )
    test_kernel_runs_whole_contention_trace = staticmethod(
        test_kernel_runs_whole_contention_trace
    )
    test_hypothesis_lock_traces = staticmethod(test_hypothesis_lock_traces)
    test_random_traces_with_forks = staticmethod(
        test_random_traces_with_forks
    )
    test_private_and_shared_locks = staticmethod(
        test_private_and_shared_locks
    )
    test_hot_path_shapes = staticmethod(test_hot_path_shapes)
    test_every_split_point_of_small_traces = staticmethod(
        test_every_split_point_of_small_traces
    )
    test_mark_foreign_hands_over = staticmethod(test_mark_foreign_hands_over)
    test_snapshot_while_compiled_resumes_in_python = staticmethod(
        test_snapshot_while_compiled_resumes_in_python
    )
    test_timestamps_match_python_and_closure = staticmethod(
        test_timestamps_match_python_and_closure
    )
    test_locations_as_spans_and_as_strings = staticmethod(
        test_locations_as_spans_and_as_strings
    )
    test_built_rows_leave_the_index_check_constant = staticmethod(
        test_built_rows_leave_the_index_check_constant
    )
    test_events_with_gaps_reach_the_kernel_as_an_index_column = staticmethod(
        test_events_with_gaps_reach_the_kernel_as_an_index_column
    )

    @compiled
    @pytest.mark.parametrize("seed", (0, 5, 10, 15))
    def test_mixed_vocabulary_hands_over(self, seed, cls):
        # The hand-over code is the one WCP's offsets exercise; a subset
        # of the offsets keeps the suite's time down.
        _check_mixed_vocabulary(seed, cls)

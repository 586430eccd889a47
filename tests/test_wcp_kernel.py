"""Differential suite: the compiled kernel against the Python detectors.

With the cffi kernels, :class:`~repro.core.wcp.WCPDetector` and
:class:`~repro.hb.hb.HBDetector` run each block in one C call
(:mod:`repro.core.wcp_compiled`; HB in the kernel's HB mode) whose state
mirrors the Python detector's.  Every test here runs the same detector
twice -- kernel live, and kernel switched off through the private
per-instance ``_use_kernel`` switch -- and asserts that nothing
observable differs: race pairs, witnesses, distances, raw counts, every
statistic but the timings, ``timestamps()`` and the transcribed state
itself at every block boundary.  The kernel de-duplicates races in C
and a report builds their pairs only when read, so reports are also
compared at every block boundary read in full and read for their counts
alone.  The kernel runs the whole vocabulary
(rwlocks, barriers, wait/notify included); the hand-over points left (a
row that would taint a WCP lock, ``mark_foreign``), the rows it ran in
C and a snapshot taken while compiled are covered explicitly, and the
kernel is checked against the frozen legacy detector and the WCP and HB
closures too.
"""

import os
import pickle
import random
import sys

import pytest
from hypothesis import given, settings

from conftest import NoCensus, private_shared_trace, random_trace
from test_backend_parity import random_trace_with_forks
from test_properties import traces

from repro.bench.generators import mixed_vocabulary_trace
from repro.core.closure import HBClosure, WCPClosure
from repro.core.races import RacePair
from repro.core.snapshot import unpack_for
from repro.core.wcp import WCPDetector
from repro.core.wcp_compiled import WCPKernel
from repro.core.wcp_legacy import LegacyWCPDetector
from repro.hb import HBDetector
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


def _lifecycle(detector):
    """The kernel's rows and exit (its race figures are pinned below)."""
    counts = detector.kernel_counts()
    return {"rows": counts["rows"], "exit": counts["exit"]}


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
    # (Note whether the kernel ran to the end.)
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
def test_a_first_block_that_hands_over_at_once_stays_in_python():
    # A first block shorter than _KERNEL_MIN_ROWS keeps the whole pass
    # in Python, and the counts say why.
    contended = high_contention_trace(400)
    detector = WCPDetector()
    detector.reset(contended)
    detector.process_batch(contended.events[:10])
    detector.process_batch(contended.events[10:])
    assert detector._kernel is None and not detector._kernel_pending
    assert _lifecycle(detector) == {
        "rows": 0, "exit": "short first block",
    }


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


def _prefixed_mixed_trace(seed):
    """A lock/access prefix of varying length, then a mixed-vocabulary
    trace: the first rwlock, barrier or wait/notify row comes at a
    different offset per seed."""
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
    """Named for the hand-over it tested while the kernel stopped at the
    first rwlock, barrier or wait/notify row.  The kernel now runs every
    kind, so each of these passes runs every row in C and reaches
    ``finish`` compiled."""
    _check_mixed_vocabulary(seed, cls)


def _check_mixed_vocabulary(seed, cls):
    trace = _prefixed_mixed_trace(seed)
    plain = mixed_vocabulary_trace(seed, threads=3, steps=120)
    runs = [
        (trace, size, size == 5) for size in (None, 5, 11)
    ] + [(NoCensus(trace), None, False), (plain, 4, True)]
    for source, size, states in runs:
        kernel = _assert_same(source, size=size, states=states, cls=cls)
        assert kernel.compiled_to_end, (seed, size)
        assert _lifecycle(kernel) == {
            "rows": len(source), "exit": "finish",
        }


@compiled
@pytest.mark.parametrize("seed", range(6))
def test_mixed_vocabulary_states_at_every_block_boundary(seed, cls):
    # Read-held sections, read and notify accumulators, read Rule (a)
    # cells, open barrier generations and waits transcribe exactly at
    # every block boundary, with and without the census.
    trace = mixed_vocabulary_trace(seed + 40, threads=3, steps=160)
    for source in (trace, NoCensus(trace)):
        for size in (1, 4, 64, None):
            kernel = _assert_same(source, size=size, states=True, cls=cls)
            assert kernel.compiled_to_end, (seed, size)


def _first_cut(trace, cls, case):
    """The first offset at which the Python detector's state has an
    open read section, an open barrier generation, or a notify."""
    detector = cls()
    detector._use_kernel = False
    detector.reset(trace)
    for cut, event in enumerate(trace, 1):
        detector.process(event)
        state = _state(detector)
        if case == "read section":
            found = any(state["read_held"])
        elif case == "barrier generation":
            found = any(entry[-2] for entry in state["barriers"].values())
        elif cls is HBDetector:
            found = bool(state["notify"])
        else:
            found = any(lock["notify_p"] is not None
                        for lock in state["locks"].values())
        if found and cut >= 20:
            return cut
    raise AssertionError("no %s in %s" % (case, trace.name))


@compiled
@pytest.mark.parametrize(
    "case", ["read section", "barrier generation", "notifies"]
)
def test_snapshot_inside_the_vocabulary_resumes(case, cls):
    trace = mixed_vocabulary_trace(2, threads=3, steps=200)
    reference = _run_blocks(cls(), trace, None)
    cut = _first_cut(trace, cls, case)
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
    resumed.process_batch(trace.events[cut:])
    resumed.finish()
    assert _report_key(resumed.report) == _report_key(reference), cut
    detector.process_batch(trace.events[cut:])
    detector.finish()
    assert _lifecycle(detector) == {"rows": len(trace), "exit": "finish"}
    assert _report_key(detector.report) == _report_key(reference)


def _rwlock_taint_trace(kind):
    """Unvalidated: thread-local filler, then t1 holds rwlock ``rw`` in
    write mode while t2 runs ``kind`` on it -- a write-acquire, a wait
    or a write-mode release of a lock t2 does not hold, each a row that
    would taint ``rw``."""
    rows = [("f%d" % (i % 3), EventType.WRITE, "v%d" % (i % 3))
            for i in range(70)]
    rows += [("t2", EventType.RACQ_R, "rw"), ("t2", EventType.READ, "x"),
             ("t2", EventType.RREL, "rw"), ("t1", EventType.NOTIFY, "rw"),
             ("t1", EventType.RACQ_W, "rw"), ("t1", EventType.WRITE, "x"),
             ("t2", kind, "rw"), ("t2", EventType.WRITE, "x"),
             ("t1", EventType.RREL, "rw"), ("t2", EventType.READ, "x")]
    events = [Event(index, thread, etype, target, loc="l:%d" % index)
              for index, (thread, etype, target) in enumerate(rows)]
    return Trace(events, validate=False, name="taint-%s" % kind.name)


@compiled
@pytest.mark.parametrize(
    "kind", [EventType.RACQ_W, EventType.WAIT, EventType.RREL]
)
def test_a_taint_inside_an_rwlock_window_hands_over(kind):
    trace = _rwlock_taint_trace(kind)
    taint = 76
    assert trace.events[taint].etype is kind
    for size in (None, 3):
        kernel = _assert_same(trace, size=size, states=True)
        assert _lifecycle(kernel) == {"rows": taint, "exit": "taint"}
    # HB has no taint: its kernel runs every row.
    kernel = _assert_same(trace, states=True, cls=HBDetector)
    assert _lifecycle(kernel) == {"rows": len(trace), "exit": "finish"}
    # Windows of a mixed trace start inside sections: unvalidated, and
    # each hands over at its first tainting row or runs to the end.
    mixed = mixed_vocabulary_trace(4, threads=3, steps=120)
    exits = set()
    for start in range(0, 100, 9):
        window = mixed.window(start, 40)
        exits.add(_assert_same(window, states=True, size=6).kernel_exit)
        _assert_same(NoCensus(window))
    assert "taint" in exits


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


@compiled
def test_a_snapshot_then_finish_leaves_the_state_readable(cls):
    # A snapshot syncs the Python fields; the kernel keeps the state
    # through finish, and every later snapshot, clock sync and pickle
    # reads the whole pass's state.
    trace = mixed_vocabulary_trace(5, threads=3, steps=200)
    kernel, python = _pair(cls)
    for detector in (kernel, python):
        detector.reset(trace)
        detector.process_batch(trace.events)
    assert kernel.kernel_rows == len(trace) >= 64
    assert _state(kernel) == _state(python)
    for detector in (kernel, python):
        detector.finish()
    assert _report_key(kernel.report) == _report_key(python.report)
    assert _state(kernel) == _state(python)
    assert kernel.sync_clock_state() == python.sync_clock_state()
    copy = pickle.loads(pickle.dumps(kernel))
    assert copy._kernel is None
    assert _state(copy) == _state(python)


@compiled
def test_a_snapshot_then_mark_foreign_continues_from_current_clocks(cls):
    # After a snapshot the Python fields are current; mark_foreign then
    # hands over, and the fork, join, barrier and notify rows that follow
    # must merge the clocks the kernel reached, not stale ones.
    trace = _prefixed_mixed_trace(5)
    cut = 64
    rest = trace.events[cut:]
    assert {EventType.FORK, EventType.JOIN, EventType.BARRIER,
            EventType.NOTIFY} <= {event.etype for event in rest}
    kernel, python = _pair(cls)
    for detector in (kernel, python):
        detector.reset(trace)
        detector.process_batch(trace.events[:cut])
    assert kernel._kernel is not None
    assert _state(kernel) == _state(python)
    for detector in (kernel, python):
        detector.mark_foreign("mix_x0")
    assert _lifecycle(kernel) == {"rows": cut, "exit": "mark_foreign"}
    for detector in (kernel, python):
        detector.process_batch(rest)
    assert _state(kernel) == _state(python)
    for detector in (kernel, python):
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
    assert _lifecycle(kernel) == {"rows": len(trace), "exit": "finish"}
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
    decoder built for non-ASCII lines) and the same events as a list of
    strings give the Python report, batch and streamed."""
    from repro.engine import FileSource, RaceEngine
    from repro.trace.columns import LocSpans
    from repro.trace.parsers import load_trace
    from repro.trace.writers import dump_trace

    make = {"contention": high_contention_trace, "racy": racy_mix_trace}
    # Every seventh location is non-ASCII: the Python logic takes those
    # lines, so the block holds decoded strings among its spans.
    trace = Trace([
        Event(e.index, e.thread, e.etype, e.target,
              e.loc + "\u00e9" if e.index % 7 == 0 else e.loc)
        for e in make[shape](6000)
    ])
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


def _serve_socket_session(tmp_path, trace, monkeypatch):
    """Push ``trace`` through an in-process ``serve --socket --once``
    session; return the session's :class:`EngineResult`."""
    import asyncio

    from repro.cli import _build_parser, _serve_async
    from repro.serve.server import SessionDriver
    from repro.trace.writers import write_std

    results = []
    original = SessionDriver._finish

    async def finish(self):
        result = await original(self)
        results.append(result)
        return result

    path = str(tmp_path / "serve.sock")
    args = _build_parser().parse_args(
        ["serve", "--socket", path, "--once", "--detector", "wcp,hb"]
    )

    async def run():
        listening = asyncio.Event()
        task = asyncio.ensure_future(
            _serve_async(args, ready=lambda listener: listening.set())
        )
        await listening.wait()
        reader, writer = await asyncio.open_unix_connection(path)
        writer.write(write_std(trace).encode("utf-8"))
        writer.write_eof()
        reply = (await reader.read()).decode("utf-8")
        writer.close()
        await task
        return reply

    monkeypatch.setattr(SessionDriver, "_finish", finish)
    reply = asyncio.run(run())
    assert reply.endswith("done %d\n" % len(trace)), reply
    return results[0]


@pytest.mark.parametrize("backend", ["cffi", "python"])
def test_every_row_of_a_pushed_mixed_stream_runs_in_c(
    backend, tmp_path, monkeypatch
):
    """A real ``serve --socket`` session: under cffi WCP and HB run every
    row of a pushed mixed-vocabulary stream in C, and the session, which
    reads only the report's counts, builds no RacePair; under python no
    row runs in C."""
    if backend == "cffi" and kernels.BACKEND != "cffi":
        pytest.skip("the compiled kernels are inactive")
    monkeypatch.setattr(kernels, "BACKEND", backend)
    built = []
    build = RacePair.__init__

    def counting(self, first, second):
        built.append(first.index)
        build(self, first, second)

    monkeypatch.setattr(RacePair, "__init__", counting)
    trace = mixed_vocabulary_trace(11, threads=3, steps=400)
    result = _serve_socket_session(tmp_path, trace, monkeypatch)
    rows = len(trace) if backend == "cffi" else 0
    exit = "finish" if backend == "cffi" else "not armed: backend"
    expected = {}
    for name in ("WCP", "HB"):
        report = result.reports[name]
        assert report.count() > 0
        expected[name] = {
            "rows": rows, "exit": exit,
            "races_raw": report.raw_race_count if rows else 0,
            "races_distinct": report.count() if rows else 0,
            "pairs_built": 0,
        }
    assert result.kernel == expected
    assert bool(built) == (backend == "python")


@pytest.mark.parametrize("backend", ["cffi", "python"])
def test_analyze_stream_runs_the_mixed_corpus_in_c(backend, tmp_path):
    """``analyze --stream --profile`` on mixed-vocabulary logs: every row
    in C for WCP and HB under cffi, none under python."""
    import re
    import subprocess

    from repro.trace.writers import dump_trace

    if backend == "cffi" and kernels.BACKEND != "cffi":
        pytest.skip("the compiled kernels are inactive")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "src")
    env = dict(os.environ, REPRO_CLOCK_KERNEL=backend, PYTHONPATH=src)
    for seed in range(3):
        trace = mixed_vocabulary_trace(seed, threads=3, steps=400)
        path = str(tmp_path / ("mixed%d.std" % seed))
        dump_trace(trace, path)
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", path, "--stream",
             "--detector", "wcp,hb", "--profile"],
            capture_output=True, text=True, env=env,
        )
        assert run.returncode in (0, 1), run.stderr
        found = dict(
            (name, (int(rows), int(total), exit)) for name, rows, total, exit
            in re.findall(r"^profile: (\w+) ran (\d+) of (\d+) row\(s\) "
                          r"in the compiled kernel \(exit: ([^)]*)\)$",
                          run.stdout, re.M)
        )
        rows = len(trace) if backend == "cffi" else 0
        exit = "finish" if backend == "cffi" else "not armed: backend"
        assert found == {
            "WCP": (rows, len(trace), exit), "HB": (rows, len(trace), exit),
        }, run.stdout
        races = dict(
            (name, tuple(map(int, figures))) for name, *figures
            in re.findall(r"^profile: (\w+) kernel races: (\d+) raw, "
                          r"(\d+) distinct, (\d+) pair\(s\) built during "
                          r"the pass$", run.stdout, re.M)
        )
        expected = {}
        for cls in (WCPDetector, HBDetector):
            report = cls().run(trace)
            expected[report.detector_name] = (
                (report.raw_race_count, report.count(), 0) if rows
                else (0, 0, 0)
            )
        assert races == expected, run.stdout


# --------------------------------------------------------------------- #
# Races de-duplicated in the kernel, built when read
# --------------------------------------------------------------------- #


def _counts(report):
    return report.count(), report.raw_race_count


def _check_reports_at_boundaries(trace, size, cls):
    """Run ``trace`` in blocks of ``size`` on the Python path, on a kernel
    whose report is read in full at every block boundary, and on one
    whose report only has its counts read; all three reports agree at
    every boundary and at the end.  Returns the counts-only detector."""
    python = cls()
    python._use_kernel = False
    read, counted = cls(), cls()
    read._KERNEL_MIN_ROWS = counted._KERNEL_MIN_ROWS = 0
    detectors = (python, read, counted)
    events = list(trace)
    for detector in detectors:
        detector.reset(trace)
    for start in range(0, len(events), size):
        for detector in detectors:
            detector.process_batch(events[start:start + size])
        assert _counts(counted.report) == _counts(python.report), start
        assert _report_key(read.report) == _report_key(python.report), start
    for detector in detectors:
        detector.finish()
    assert _counts(counted.report) == _counts(python.report)
    for detector in (read, counted):
        assert _report_key(detector.report) == _report_key(python.report)
        assert _state(detector) == _state(python)
    return counted


def _python(cls):
    detector = cls()
    detector._use_kernel = False
    return detector


def _duplicate_race_trace():
    """Two threads write ``x`` from the same two locations, unordered,
    with ever more thread-local filler in between: every raw race after
    the first is a duplicate, at a larger distance than the one before."""
    rows = []
    for step in range(12):
        rows += [("t1", "x", "w1"), ("t2", "x", "w2")]
        rows += [("f%d" % (i % 2), "v%d" % (i % 2), "fill")
                 for i in range(3 * step)]
        rows += [("t2", "y", "r:%d" % (step % 3))]
    events = [
        Event(index, thread, EventType.WRITE, target, loc=loc)
        for index, (thread, target, loc) in enumerate(rows)
    ]
    return Trace(events, name="duplicates")


@compiled
@pytest.mark.parametrize("cls", [WCPDetector, HBDetector])
@pytest.mark.parametrize("seed", range(4))
def test_distinct_races_match_at_every_block_boundary(seed, cls):
    """Every race of a mixed-vocabulary trace is a new location pair."""
    trace = mixed_vocabulary_trace(seed, threads=3, steps=200)
    for size in (7, 64):
        counted = _check_reports_at_boundaries(trace, size, cls)
        report = counted.report
        assert report.count() == report.raw_race_count > 0


@compiled
@pytest.mark.parametrize("cls", [WCPDetector, HBDetector])
def test_duplicate_races_keep_the_largest_distance(cls):
    trace = _duplicate_race_trace()
    python = _run_blocks(_python(cls), trace, None)
    assert python.raw_race_count > 3 * python.count()
    pair = python.pairs()[0]
    assert python.distance_of(pair) > pair.distance
    for size in (1, 5, 16, len(trace)):
        _check_reports_at_boundaries(trace, size, cls)


@compiled
@pytest.mark.parametrize("cls", [WCPDetector, HBDetector])
def test_location_less_races_are_built_to_count(cls, tmp_path):
    """A race with a location-less side is keyed by the spelling
    ``Event.location`` synthesises, which a real location may share: the
    count builds such slots, and the report dedups them as add does."""
    from repro.trace.parsers import load_trace

    path = tmp_path / "spelled.std"
    path.write_text(_spelled_location_trace())
    spelled = load_trace(str(path))
    counted = _check_reports_at_boundaries(spelled, 1, cls)
    assert _counts(counted.report) == (1, 2)
    assert counted.kernel_counts()["races_distinct"] == 2
    unlocated = random_trace(7, n_events=120, n_threads=3, n_locks=1)
    for size in (3, 40):
        _check_reports_at_boundaries(unlocated, size, cls)


@compiled
@pytest.mark.parametrize("cls", [WCPDetector, HBDetector])
def test_a_snapshot_mid_pass_resumes_with_the_same_races(cls):
    """A snapshot builds the slots so far; the compiled pass carries on
    raising their distances, and a resumed Python pass matches both."""
    trace = _duplicate_race_trace()
    reference = _run_blocks(_python(cls), trace, None)
    cut = len(trace) // 2
    detector = cls()
    detector.reset(trace)
    detector.process_batch(trace.events[:cut])
    assert detector._kernel is not None
    blob = detector.state_snapshot()
    built = detector.kernel_counts()["pairs_built"]
    assert built == detector.kernel_counts()["races_distinct"] > 0
    resumed = cls()
    resumed.restore_pending = True
    resumed.reset(trace)
    resumed.restore_state(blob)
    resumed.process_batch(trace.events[cut:])
    resumed.finish()
    detector.process_batch(trace.events[cut:])
    detector.finish()
    for report in (resumed.report, detector.report):
        assert _report_key(report) == _report_key(reference)
        assert report.state_dict() == reference.state_dict()


def _racy_taint_trace():
    """:func:`_rwlock_taint_trace` between two runs of unordered writes
    to ``z`` from the same four locations."""
    taint = list(_rwlock_taint_trace(EventType.RACQ_W))
    rows = [("r%d" % (i % 2), EventType.WRITE, "z", "z:%d" % (i % 4))
            for i in range(40)]
    rows += [(e.thread, e.etype, e.target, e.loc) for e in taint]
    rows += rows[:40]
    events = [Event(index, thread, etype, target, loc=loc)
              for index, (thread, etype, target, loc) in enumerate(rows)]
    return Trace(events, validate=False, name="racy-taint")


@compiled
def test_a_taint_hands_the_races_over_mid_pass():
    """An unvalidated taint hands over to Python mid-pass: the slots are
    built into the report first and ``add`` de-duplicates from there."""
    trace = _racy_taint_trace()
    for size in (None, 3):
        counted = _check_reports_at_boundaries(trace, size or len(trace),
                                               WCPDetector)
        counts = counted.kernel_counts()
        assert counts["exit"] == "taint"
        assert counts["races_raw"] > 0
        assert counts["pairs_built"] == counts["races_distinct"]
        assert counted.report.raw_race_count > counts["races_raw"]


@compiled
@pytest.mark.parametrize("cls", [WCPDetector, HBDetector])
def test_kernel_counts_pin_the_races(cls):
    """``kernel_counts`` and ``EngineResult.kernel``: the raw and distinct
    races found in C, and no pair built until the report is read."""
    from repro.engine import RaceEngine

    trace = mixed_vocabulary_trace(3, threads=3, steps=300)
    result = RaceEngine().run(trace, [cls()])
    (name, report), = result.reports.items()
    expected = {
        "rows": len(trace), "exit": "finish",
        "races_raw": report.raw_race_count,
        "races_distinct": report.count(), "pairs_built": 0,
    }
    assert result.kernel[name] == expected
    detector = cls()
    detector.reset(trace)
    detector.process_batch(trace.events)
    detector.finish()
    assert detector.kernel_counts() == expected
    assert len(detector.report.pairs()) == report.count()
    assert detector.kernel_counts()["pairs_built"] == report.count()


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
    test_a_snapshot_then_finish_leaves_the_state_readable = staticmethod(
        test_a_snapshot_then_finish_leaves_the_state_readable
    )
    test_a_snapshot_then_mark_foreign_continues_from_current_clocks = (
        staticmethod(
            test_a_snapshot_then_mark_foreign_continues_from_current_clocks
        )
    )
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

    test_mixed_vocabulary_states_at_every_block_boundary = staticmethod(
        test_mixed_vocabulary_states_at_every_block_boundary
    )
    test_snapshot_inside_the_vocabulary_resumes = staticmethod(
        test_snapshot_inside_the_vocabulary_resumes
    )

    @compiled
    @pytest.mark.parametrize("seed", (0, 5, 10, 15))
    def test_mixed_vocabulary_hands_over(self, seed, cls):
        # The HB mode runs the same row codes as WCP's; a subset of the
        # prefix lengths keeps the suite's time down.
        _check_mixed_vocabulary(seed, cls)

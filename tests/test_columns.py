"""Column ingest: decode/``Trace`` parity, parse errors and on-demand rows.

The STD/CSV decoders emit :class:`~repro.trace.columns.ColumnBlock`\\ s and
``Trace`` indexes their columns; ``Trace(events)`` reaches the same
columns through ``ColumnBlock.from_events``.  These tests pin that both
routes describe the same trace, that parse errors keep their messages,
and that the batch clock detectors build an event only for the rows they
need.
"""

from __future__ import annotations

import asyncio
import glob
import os

import pytest

from repro.api import make_detector, run_engine
from repro.bench.generators import mixed_vocabulary_trace
from repro.bench.suite import get_benchmark
from repro.core.detector import Detector
from repro.engine import LineProtocolSource
from repro.trace.columns import ColumnBlock
from repro.trace.event import ACCESS_EVENTS, Event, EventType
from repro.trace.parsers import (
    TraceParseError,
    load_trace,
    parse_csv,
    parse_std,
)
from repro.trace.trace import Trace
from repro.trace.writers import dump_trace

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "examples", "traces", "*.std",
)))

#: Five Table-1 generators, one per shape family, at small scale.
TABLE1 = ("account", "bufwriter", "moldyn", "derby", "xalan")


def _sources():
    for path in EXAMPLES:
        yield os.path.basename(path), lambda path=path: load_trace(path)
    for name in TABLE1:
        yield name, lambda name=name: get_benchmark(name, scale=0.02, seed=3)
    for seed in range(20):
        yield "mixed-%d" % seed, lambda seed=seed: mixed_vocabulary_trace(
            seed=seed, threads=2 + seed % 4, steps=60
        )


SOURCES = dict(_sources())


def _fields(event):
    return (event.index, event.thread, event.etype, event.target,
            event.loc, event.tid)


def _census(census):
    return (census.variable_thread, census.lock_thread, census.releasers,
            census.local_variables, census.local_locks)


def _facts(trace):
    return (trace.threads, trace.locks, trace.variables, trace.barriers,
            trace.census(), list(trace.census()), trace.stats(),
            _census(trace.thread_census))


@pytest.mark.parametrize("fmt", ["std", "csv"])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_loaded_trace_equals_trace_of_events(name, fmt, tmp_path):
    original = SOURCES[name]()
    path = tmp_path / ("trace." + fmt)
    dump_trace(original, path)
    loaded = load_trace(path)
    assert isinstance(loaded.events, ColumnBlock)
    # The Event adapter over the very same events, in a fresh registry.
    adapted = Trace([Event(-1, e.thread, e.etype, e.target, e.loc)
                     for e in loaded], name="adapted")
    assert [_fields(e) for e in loaded] == [_fields(e) for e in adapted]
    assert [_fields(e)[:5] for e in loaded] == [
        _fields(e)[:5] for e in original
    ]
    assert _facts(loaded) == _facts(adapted)
    # Fork/join operands are threads too, in order of first appearance.
    for event in loaded:
        if event.etype in (EventType.FORK, EventType.JOIN):
            assert event.target in loaded.threads


@pytest.mark.parametrize("name", ["xalan", "mixed-3", "fork_join.std"])
def test_rows_are_built_once_and_shared_with_engine_chunks(name):
    trace = SOURCES[name]()
    events = trace.events
    for i in (0, len(trace) // 2, len(trace) - 1, -1):
        assert trace[i] is trace[i] is events[i]
    assert events[2:5][1] is trace[3]

    chunks = []

    class Spy(Detector):
        name = "spy"

        def reset(self, trace):
            self._new_report(trace)

        def process(self, event):
            pass

        def process_batch(self, events):
            chunks.append(events)

    run_engine(trace, detectors=[Spy()])
    assert sum(len(chunk) for chunk in chunks) == len(trace)
    for chunk in chunks:
        assert isinstance(chunk, ColumnBlock)
        for j in (0, len(chunk) - 1):
            assert chunk[j] is trace[chunk.start + j]


def test_event_lists_keep_their_objects_or_get_renumbered_copies():
    first = Event(0, "t0", EventType.WRITE, "x", "a:1")
    moved = Event(7, "t1", EventType.WRITE, "x", "a:2")
    trace = Trace([first, moved])
    assert trace[0] is first and first.tid == trace.registry.lookup("t0")
    assert trace[1] is not moved and moved.index == 7
    assert _fields(trace[1]) == (1, "t1", EventType.WRITE, "x", "a:2", 1)


def test_std_field_variants():
    lines = [
        "t1|w(x)|a",
        " t1 | w(x) | b ",
        "# t9|w(y)|z",
        "   ",
        "t1|w(x)",
        "t1|w(x)|",
        "t1|w(x)|c|extra",
        "t1|w(x)|d",
        "t2|r( x )|e",
        "t1 |w(x)|f",
    ]
    trace = parse_std("\n".join(lines) + "\n", validate=False)
    assert [(e.index, e.thread, str(e.etype), e.target, e.loc)
            for e in trace] == [
        (0, "t1", "w", "x", "a"),
        (1, "t1", "w", "x", "b"),
        (2, "t1", "w", "x", None),
        (3, "t1", "w", "x", None),
        (4, "t1", "w", "x", "c"),
        (5, "t1", "w", "x", "d"),
        (6, "t2", "r", "x", "e"),
        (7, "t1", "w", "x", "f"),
    ]
    with pytest.raises(TraceParseError) as info:
        parse_std("\n".join(lines + ["t1|w(x)|g", "t1|bogus|h"]))
    assert str(info.value) == (
        "line 12: unknown operation token 'bogus' in 'bogus'"
    )


# --------------------------------------------------------------------- #
# Parse errors: the messages of the event decoders, pinned
# --------------------------------------------------------------------- #

STD_ERRORS = [
    ("t1|bogus(x)|a",
     "line 2: unknown operation token 'bogus' in 'bogus(x)'"),
    ("t1|acq|a", "line 2: 'acq' requires a lock operand, e.g. 'acq(l0)'"),
    ("t1|w()|loc",
     "line 2: 'w' requires a variable operand, e.g. 'w(v0)'"),
    ("t1 acq(l)",
     "line 2: expected 'thread|op(arg)[|loc]', got 't1 acq(l)\\n'"),
    ("|acq(l)|x", "line 2: empty thread field in '|acq(l)|x'"),
    ("  |acq(l)", "line 2: empty thread field in '|acq(l)'"),
]

CSV_ERRORS = [
    ("t1,bogus,x,a", "row 3: unknown event type token 'bogus'"),
    ("t1,acq,,a", "row 3: 'acq' requires a lock operand, e.g. 'acq(l0)'"),
    ("t1", "row 3: missing thread/etype column"),
    (",acq,l,1", "row 3: empty thread field in ',acq,l,1'"),
]


@pytest.mark.parametrize("line,message", STD_ERRORS)
def test_std_errors(line, message, tmp_path):
    text = "t0|w(y)\n" + line + "\n"
    with pytest.raises(TraceParseError) as info:
        parse_std(text)
    assert str(info.value) == message
    path = tmp_path / "bad.std"
    path.write_text(text)
    with pytest.raises(TraceParseError) as info:
        load_trace(path)
    assert str(info.value) == message


@pytest.mark.parametrize("row,message", CSV_ERRORS)
def test_csv_errors(row, message, tmp_path):
    text = "thread,etype,target,loc\nt0,w,y,\n" + row + "\n"
    with pytest.raises(TraceParseError) as info:
        parse_csv(text)
    assert str(info.value) == message
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(TraceParseError) as info:
        load_trace(path)
    assert str(info.value) == message


@pytest.mark.parametrize("before", ["t0,w,y,", "t0,bogus,y,"],
                         ids=["valid", "bad-token"])
def test_csv_field_over_the_reader_limit_names_its_row(before, tmp_path):
    # A field longer than csv.field_size_limit() is a one-line parse
    # error naming its row, batch and streamed (exit 2 from the CLI),
    # after the errors of the rows before it.
    import csv
    import subprocess
    import sys

    from repro.engine import FileSource

    text = "thread,etype,target,loc\n%s\nt1,w,x,%s\n" % (
        before, "a" * (csv.field_size_limit() + 1),
    )
    path = tmp_path / "big.csv"
    path.write_text(text)
    message = ("row 3: field larger than field limit (%d)"
               % csv.field_size_limit() if before == "t0,w,y,"
               else "row 2: unknown event type token 'bogus'")
    with pytest.raises(TraceParseError) as info:
        load_trace(path)
    assert str(info.value) == message
    with pytest.raises(TraceParseError) as info:
        list(FileSource(str(path)))
    assert str(info.value) == message
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for extra in ([], ["--stream"]):
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", str(path)] + extra,
            capture_output=True, text=True, env=env,
        )
        assert (run.returncode, run.stderr) == (2, message + "\n"), extra


def test_invalid_utf8_names_its_line(tmp_path):
    path = tmp_path / "bad.std"
    path.write_bytes(b"t0|w(y)|a\nt1|w(\xff\xfex)|b\n")
    with pytest.raises(TraceParseError) as info:
        load_trace(path)
    assert str(info.value) == (
        "line 2: invalid UTF-8 byte(s) 0xff in 't1|w(��x)|b'"
    )


def test_empty_thread_on_the_line_protocol():
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(b"t0|acq(l)|a\n|rel(l)|b\n")
        reader.feed_eof()
        return [block async for block in LineProtocolSource(reader).batches()]

    with pytest.raises(TraceParseError) as info:
        asyncio.run(run())
    assert str(info.value) == "line 2: empty thread field in '|rel(l)|b'"


# --------------------------------------------------------------------- #
# The gain: batch clock detectors build only the rows they need
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("detector", ["wcp", "hb", "fasttrack"])
def test_batch_detectors_build_only_needed_rows(detector, tmp_path):
    path = tmp_path / "xalan.std"
    dump_trace(get_benchmark("xalan", scale=0.2, seed=1), path)
    trace = load_trace(path)
    result = run_engine(trace, detectors=[make_detector(detector)])
    report = next(iter(result.values()))
    census = trace.thread_census
    shared_accesses = sum(
        1 for tid, op in zip(*trace.events.columns())
        if trace.events.table.ops[op][0] in ACCESS_EVENTS
        and trace.events.table.ops[op][1] not in census.local_variables
    )
    hot = {"r", "w", "acq", "rel"}
    rare = sum(
        count for token, count in trace.census().items() if token not in hot
    )
    witnesses = 2 * report.raw_race_count
    built = trace.events.materialised()
    assert report.count() > 0
    assert built <= shared_accesses + rare + witnesses
    # Thread-local elision leaves almost every row unbuilt on xalan.
    assert built < len(trace) // 100

"""Compiled ingest: the STD decode and lock-validator kernels equal Python.

:class:`~repro.trace.parsers.StdDecoder` decodes bytes with the C scanner
when the compiled kernels are active and sends every other line through
the Python decoder, :func:`~repro.trace.parsers.parse_std_batch`;
``Trace(validate=True)`` runs the compiled lock validator, which hands
the row it declines to :class:`~repro.trace.semantics.LockDiscipline`.
The Python code is the specification: these tests pin that the kernel path decodes the same
columns (tids, ops, locations, op-table and thread order, line numbers)
and raises the same errors, that every chunking of a stream gives the
one-shot result on the file and line-protocol paths, and that the lock
validator declines exactly where ``LockDiscipline`` raises, and that
the census's compiled dedupe (:class:`~repro.vectorclock.kernels.DistinctPairs`)
gives the Python dedupe's pairs and so the same thread census.  Under
``REPRO_CLOCK_KERNEL=python`` both sides are the Python decoder.
"""

from __future__ import annotations

import asyncio
import glob
import io
import os
import random
from contextlib import contextmanager

import pytest

import repro.trace.parsers as parsers
from repro.api import make_detector, run_engine
from repro.bench.generators import mixed_vocabulary_trace
from repro.bench.suite import get_benchmark
from repro.engine import FileSource, LineProtocolSource
from repro.trace.columns import ColumnBlock, LocSpans
from repro.trace.event import Event, EventType
from repro.trace.parsers import StdDecoder, load_trace, parse_std_batch
from repro.trace.semantics import LockDiscipline, TraceError
from repro.trace.lockcheck import OnlineValidator
from repro.trace.trace import ThreadCensus, Trace
from repro.trace.writers import dump_trace, write_std
from repro.vectorclock import kernels
from repro.vectorclock.registry import ThreadRegistry

COMPILED = kernels.BACKEND == "cffi"

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "examples", "traces", "*",
)))

TABLE1 = ("account", "bufwriter", "moldyn", "derby", "xalan")

FIELD_VARIANTS = [
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


def _inputs():
    for path in EXAMPLES:
        with open(path, "rb") as handle:
            yield os.path.basename(path), handle.read()
    for name in TABLE1:
        trace = get_benchmark(name, scale=0.02, seed=3)
        yield name, write_std(trace).encode()
    for seed in range(20):
        trace = mixed_vocabulary_trace(seed=seed, threads=2 + seed % 4,
                                       steps=60)
        yield "mixed-%d" % seed, write_std(trace).encode()
    yield "field-variants", ("\n".join(FIELD_VARIANTS) + "\n").encode()
    # Non-ASCII names, and locations wrapped in whitespace only
    # str.strip() knows (NBSP, ideographic space), on repeated heads.
    yield "unicode", "".join(
        "%s|w(%s)|%s\n" % (thread, variable, location)
        for thread in ("t0", "tré") for variable in ("x", "ÿ")
        for location in ("a", "\u00a0b\u00a0", "\u3000c", "d é", "")
        for _ in range(2)
    ).encode()
    # Known heads with now and then a non-ASCII line, which the scanner
    # hands to the Python logic one line at a time.
    yield "sparse-unicode", b"".join(
        b"t0|w(x)|a\n" * 20 + b"t%d|w(x)|\xc3\xa9\n" % (i % 2)
        for i in range(6)
    )
    # Mostly new heads (the scanner hands the Python logic ever longer
    # runs), then mostly known ones (back to one line per stop).
    yield "new-heads", "".join(
        "t%d|%s(v%d)|p%d\n" % (i % 3, "rw"[i % 2], i if i < 3000 else i % 7,
                               i % 5)
        for i in range(4000)
    ).encode()


INPUTS = dict(_inputs())


def _outcome(decode):
    """The decoded blocks' columns and tables, or the error's text."""
    try:
        decoder, blocks = decode()
    except TraceError as error:
        return "%s: %s" % (type(error).__name__, error)
    return (
        [tid for block in blocks for tid in block.tids],
        [op for block in blocks for op in block.ops],
        [block.locs[k] for block in blocks for k in range(len(block))],
        [(e.index, e.thread, e.etype, e.target, e.loc)
         for block in blocks for e in block],
        list(decoder.op_table.ops), list(decoder.op_table.ids),
        decoder.registry.names(), decoder.index, decoder.line_number,
    )


def _decoder(scanner):
    """A decoder that takes lines with the C scanner (when the kernels
    are active), or one that sends every line to the Python logic."""
    decoder = StdDecoder()
    if not scanner:
        decoder._kernels = None
    return decoder


def _decoded(data, scanner, splits=()):
    """``data`` decoded in one call, or in one call per piece when cut
    at the ``splits`` offsets."""
    def decode():
        decoder = _decoder(scanner)
        cuts = [0, *splits, len(data)]
        blocks = [decoder.decode(data[lo:hi], final=hi == len(data))
                  for lo, hi in zip(cuts, cuts[1:])]
        return decoder, blocks
    return _outcome(decode)


def _spec(data):
    """The Python decoder over the text a text-mode file reads."""
    class Lines:
        index = 0
        line_number = 1

    def decode():
        text = io.StringIO(data.decode("utf-8"), newline="")
        block, Lines.index, Lines.line_number = parse_std_batch(text)
        Lines.op_table, Lines.registry = block.table, block.registry
        return Lines, [block]
    return _outcome(decode)


# --------------------------------------------------------------------- #
# Decode: kernel == Python
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", sorted(INPUTS))
def test_decoder_equals_python(name):
    data = INPUTS[name]
    expected = _spec(data)
    assert _decoded(data, True) == expected
    assert _decoded(data, False) == expected
    # Line endings: CRLF and bare CR read as the same lines.
    for ending in (b"\r\n", b"\r"):
        crlf = data.replace(b"\n", ending)
        assert _decoded(crlf, True) == _decoded(crlf, False) == (
            _spec(crlf)
        )


def test_decoder_keeps_locations_as_spans():
    data = INPUTS["xalan"]
    block = StdDecoder().decode(data, final=True)
    assert len(block.locs) == len(block)
    if COMPILED:
        assert block.locs.data is data
    # A short input of new heads is spans too: the scanner parses them.
    short = INPUTS["quickstart.std"]
    short_block = StdDecoder().decode(short, final=True)
    assert isinstance(short_block.locs, LocSpans if COMPILED else list)
    events = list(block)
    assert [e.loc for e in events] == [block.row(k).loc
                                       for k in range(len(block))]
    assert [e.loc for e in events] == [
        line.split("|")[2].strip() or None
        for line in data.decode().splitlines()
    ]


#: Pieces the fuzzed lines are made of: structure, whitespace that
#: str.strip() removes, line breaks, non-ASCII and invalid UTF-8.
_PIECES = (
    ["t0", "t1", "t2", "w", "r", "acq", "rel", "fork", "x", "l", "a:1"]
    + ["|", "|", "|", "(", ")", "#", "(x)", "(l)"]
    + [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f"]
    + ["\r", "\n", "\r\n"]
    + ["é", " ", "　", " "]
)
_BAD_BYTES = [b"\xff", b"\xc3", b"\xe2\x28"]


#: Thread fields of new heads: padded and upper-case names; then
#: comments, which the scanner skips, and empty threads, which it
#: leaves to the Python logic.
_THREADS = ["t0", " t1 ", "T2", "\tt3\x1f", "t 4"]
_THREADS_REFUSED = ["#t5", " # t6", "", " "]

#: Op fields of new heads: alias and upper-case tokens, padded fields,
#: bare tokens, empty operands and odd operands the grammar accepts;
#: then fields it refuses.
_OPS = [
    "R ( x )", " READ(x) ", "Write( y )", "W(y)", "w (x)", "r(\x1cx\x1f)",
    "begin", "BEGIN", " end ", "begin()", "begin(x)", "lock(l)",
    "LOCK( l )", "unlock(l)", "Acquire(m)", "release(m)", "rdlock(rw)",
    "WRLOCK(rw)", "rwunlock(rw)", "Barrier_Wait(b)", "signal(l)",
    "wait(l)", "fork(t9)", "join( t9 )", "w(x y)", "w((x)",
]
_OPS_REFUSED = ["acq()", "acq", "RD ( x )", "r(x", "r(x))", "r x)",
                "nope(x)", "w(é)", ""]


def _new_head(rng, refused):
    """A thread and op field, one of them refused with odds ``refused``."""
    threads, ops = _THREADS, _OPS
    if rng.random() < refused:
        if rng.random() < 0.5:
            threads = _THREADS_REFUSED
        else:
            ops = _OPS_REFUSED
    return "%s|%s" % (rng.choice(threads), rng.choice(ops))


def _fuzzed_line(rng):
    roll = rng.random()
    if roll < 0.5:
        # Mostly well formed, so that heads repeat and get memoised.
        line = "%s%s|%s(%s)%s" % (
            rng.choice(["", " "]), rng.choice(["t0", "t1", "t2"]),
            rng.choice(["w", "r", "acq", "rel"]), rng.choice(["x", "l"]),
            rng.choice(["", "|a", "| b ", "|é", "|", "|c|d"]),
        )
        line = line.encode()
    elif roll < 0.85:
        # A new head the scanner parses itself, or one it must refuse;
        # two, three or four fields.
        line = (_new_head(rng, 0.1) + rng.choice(
            ["|l", " |l", "| l ", "|", "|\tl\x0b", "", "|a|b"]
        )).encode()
    else:
        line = "".join(rng.choice(_PIECES)
                       for _ in range(rng.randint(0, 8))).encode()
    if rng.random() < 0.05:
        cut = rng.randint(0, len(line))
        line = line[:cut] + rng.choice(_BAD_BYTES) + line[cut:]
    return line + rng.choice([b"\n", b"\n", b"\r\n", b"\r", b""])


@pytest.mark.parametrize("seed", range(40))
def test_fuzzed_bytes_decode_like_python(seed):
    # One call, and two calls cut at every split point, through the
    # scanner and through the Python logic: rows, op table, registry,
    # line numbers and error text are those of parse_std_batch.
    rng = random.Random(seed)
    data = b"".join(_fuzzed_line(rng) for _ in range(rng.randint(1, 40)))
    expected = _decoded(data, False)
    assert _decoded(data, True) == expected
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        assert _spec(data) == expected
    for split in range(len(data) + 1):
        assert _decoded(data, True, (split,)) == expected, split
        assert _decoded(data, False, (split,)) == expected, split


@pytest.mark.parametrize("seed", range(10))
def test_new_heads_decode_like_python(seed):
    # Only new heads and their repeats, mostly valid: long runs the
    # scanner parses, with refused lines among them.
    rng = random.Random(1000 + seed)
    lines = []
    for _ in range(60):
        if lines and rng.random() < 0.3:
            lines.append(rng.choice(lines))
            continue
        lines.append("%s|%s%s" % (
            _new_head(rng, 0.01), rng.choice(["", " l", "m "]),
            rng.choice(["\n", "\r\n"]),
        ))
    data = "".join(lines).encode()
    expected = _spec(data)
    assert _decoded(data, False) == expected
    for split in range(len(data) + 1):
        assert _decoded(data, True, (split,)) == expected, split


def test_registry_growing_between_calls_is_mirrored():
    # A detector interns a fork target between two decode calls: the
    # scanner's mirror catches up, so the thread keeps that tid when its
    # first line comes, and the next new thread gets the tid after it.
    data = (b"t0|fork(t7)|a\nt0|w(x)|b\n t9 |w(x)|c\nt8|R( x )|d\n"
            b"t7|r(x)|e\nt0|join(t7)|f\n")
    for split in range(len(data) + 1):
        outcomes = []
        for scanner in (True, False):
            decoder = _decoder(scanner)

            def decode():
                first = decoder.decode(data[:split])
                decoder.registry.intern("t7")
                return decoder, [first, decoder.decode(data[split:],
                                                       final=True)]
            outcomes.append(_outcome(decode))
        assert outcomes[0] == outcomes[1], split
        whole = data[:split].count(b"\n")
        assert outcomes[0][6] == (
            ["t7", "t0", "t9", "t8"] if whole == 0
            else ["t0", "t7", "t9", "t8"] if whole <= 2
            else ["t0", "t9", "t7", "t8"] if whole == 3
            else ["t0", "t9", "t8", "t7"]
        ), split


@pytest.mark.parametrize("tail", [
    b"a\rb\n",            # a bare CR ends the line; "b" is malformed
    b"a\r# note\n",       # ... and "# note" is a comment
    b"a\xffb\n",          # invalid UTF-8 after a known head
    b"\xc2\xa0a\xc2\xa0\n",  # NBSP, stripped by str.strip() only
])
def test_known_head_with_a_tail_the_scanner_must_refuse(tail):
    data = b"t0|w(x)|first\n" * 2 + b"t0|w(x)|" + tail + b"t1|r(x)|z\n"
    assert _decoded(data, True) == _decoded(data, False)


@pytest.mark.skipif(not COMPILED, reason="needs the compiled kernels")
def test_scanner_takes_lines_with_known_heads(monkeypatch):
    data = INPUTS["xalan"]
    decoder = StdDecoder()
    first = decoder.decode(data, final=True)
    calls = []
    original = parsers._std_lines
    monkeypatch.setattr(parsers, "_std_lines",
                        lambda *args: calls.append(1) or original(*args))
    again = decoder.decode(data, final=True)
    assert calls == []
    assert list(again.tids) == list(first.tids)
    assert list(again.ops) == list(first.ops)


def test_scanner_strips_locations_like_str_strip():
    # Each line twice: the second one's head is known, so the scanner
    # takes it and strips its location itself.
    lines = []
    for code in range(128):
        if chr(code) not in "\n\r":
            line = "t%d|w(x)|%sa%sb%s\n" % (code % 2, chr(code), chr(code),
                                          chr(code))
            lines += [line, line]
    data = "".join(lines).encode()
    assert _decoded(data, True) == _decoded(data, False) == _spec(data)


@pytest.mark.parametrize("bad_line", [1, 2, 40, 900, 2999])
def test_bad_bytes_among_new_heads_name_their_line(bad_line):
    lines = INPUTS["new-heads"].splitlines(keepends=True)
    lines[bad_line - 1] = lines[bad_line - 1].replace(b"|p", b"|\xc3p")
    data = b"".join(lines)
    message = _decoded(data, False)
    assert message.startswith(
        "TraceParseError: line %d: invalid UTF-8 byte(s) 0xc3 in " % bad_line
    )
    assert _decoded(data, True) == message


def test_bad_bytes_after_a_parse_error_do_not_hide_it():
    data = b"t0|w(x)|a\nt1 acq(l)\nt1|w(\xffy)|b\n"
    message = ("TraceParseError: line 2: expected 'thread|op(arg)[|loc]', "
               "got 't1 acq(l)\\n'")
    assert _decoded(data, True) == _decoded(data, False) == message


# --------------------------------------------------------------------- #
# Which side took the lines
# --------------------------------------------------------------------- #

#: Canonical token -> an alias or upper-case spelling of it.
_SPELLINGS = {
    "acq": "Lock", "rel": "UNLOCK", "r": "Read", "w": "WRITE",
    "racq_r": "rdlock", "racq_w": "WRLOCK", "rrel": "RW_Release",
    "barrier": "Barrier_Wait", "wait": "WAIT", "notify": "Signal",
    "fork": "FORK", "join": "Join", "begin": "BEGIN", "end": "End",
}


def _respelled(text):
    """STD text with alias and upper-case tokens, padded fields and CRLF
    line ends: the same events, other heads."""
    lines = []
    for k, line in enumerate(text.splitlines()):
        thread, op, loc = line.split("|")
        token, _, operand = op.partition("(")
        if k % 2:
            op = " %s ( %s ) " % (_SPELLINGS[token], operand[:-1])
        if k % 3 == 0:
            thread = " %s\t" % thread
        lines.append("%s|%s| %s\r\n" % (thread, op, loc))
    return "".join(lines)


@pytest.mark.skipif(not COMPILED, reason="needs the compiled kernels")
def test_the_scanner_takes_every_line_whose_bytes_allow_it():
    # Comments, blanks and valid three-field ASCII lines go to the
    # scanner; each run of other lines goes to the Python logic, which
    # hands back at the next line the scanner takes.
    scanner = [b"t0|w(x)|a\n", b"# note|x\n", b"  \r\n",
               b" T1 | Read ( y ) |\n", b"\t# t5|w(x)|b\n"]
    python = [b"t0|w(x)\n", b"t0|w(x)|c|d\n", b"t1|w(x)|\xc3\xa9\n",
              b"t2|barrier(b)|e\r"]
    rng = random.Random(7)
    lines = [rng.choice(scanner if rng.random() < 0.6 else python)
             for _ in range(300)]
    data = b"".join(lines)
    decoder = StdDecoder()
    decoder.decode(data, final=True)
    taken = sum(line in scanner for line in lines)
    assert (decoder.compiled_lines, decoder.python_lines) == (
        taken, len(lines) - taken
    )
    assert _decoded(data, True) == _decoded(data, False) == _spec(data)


def _perfbench_push():
    """A stream shaped like the serve benchmark's pushes (about 430
    mixed-vocabulary events over three threads)."""
    return write_std(mixed_vocabulary_trace(1, threads=3, steps=400))


@pytest.mark.parametrize("backend", ["cffi", "python"])
def test_the_compiled_decode_takes_every_line(backend, monkeypatch):
    if backend == "cffi" and not COMPILED:
        pytest.skip("the compiled kernels are inactive")
    monkeypatch.setattr(kernels, "BACKEND", backend)
    # The 180k-event xalan input of the batch benchmark.
    xalan = write_std(get_benchmark("xalan", scale=3.0, seed=1)).encode()
    push = _perfbench_push()
    pushes = [push.encode(), _respelled(push).encode()]
    for data in [xalan] + pushes:
        decoder = StdDecoder()
        decoder.decode(data, final=True)
        lines = data.count(b"\n")
        assert (decoder.compiled_lines, decoder.python_lines) == (
            (lines, 0) if backend == "cffi" else (0, lines)
        )
    # A push's locations reach the WCP and HB kernels as spans: neither
    # interns a location string.
    reports = []
    for data in pushes:
        decoder = StdDecoder()
        trace = Trace(decoder.decode(data, final=True),
                      registry=decoder.registry)
        detectors = [make_detector("wcp"), make_detector("hb")]
        result = run_engine(trace, detectors=detectors)
        if backend == "cffi":
            assert isinstance(trace.events.locs, LocSpans)
            for detector in detectors:
                assert result.kernel[detector.name]["rows"] == len(trace)
                assert detector._kernel._loc_ids == {}
        reports.append([(report.raw_race_count, repr(report.pairs()))
                        for report in result.values()])
    assert reports[0] == reports[1]


# --------------------------------------------------------------------- #
# Streams: every chunking gives the one-shot result
# --------------------------------------------------------------------- #

_SMALL = (
    b"# a comment\r\n"
    b"t0|acq(l)|a:1\r\n"
    b"t0|w(x)|a:2\n"
    b"t0|rel(l)|a:3\r"
    b"\r\n"
    b" t1 | w(x) | b:1 \r"
    b"t1|w(x)|b:2\r\n"
    b"t2|r(x)\n"
    b"t2|w(\xc3\xa9)|\xc3\xa9:1\n"
    b"t2|w(x)|c|d\n"
)


def _rows(blocks):
    return [(e.index, e.thread, e.etype, e.target, e.loc)
            for block in blocks for e in block]


class _ChunkReader:
    """An asyncio reader that returns the given chunks, one per read."""

    def __init__(self, chunks):
        self.chunks = [chunk for chunk in chunks if chunk]

    async def read(self, size):
        return self.chunks.pop(0) if self.chunks else b""


def _protocol(chunks):
    async def run():
        source = LineProtocolSource(_ChunkReader(chunks))
        return [block async for block in source.batches()], source
    blocks, source = asyncio.run(run())
    return _rows(blocks), source.registry.names()


@pytest.fixture(params=["scanner", "python"])
def decode_path(request, monkeypatch):
    """Streams decode through the scanner (when the kernels are active)
    or through the Python decoder."""
    if request.param == "python":
        monkeypatch.setattr(kernels, "BACKEND", "python")
    return request.param


@pytest.mark.parametrize("data", [_SMALL, _SMALL + b"t0|w(x)|e\r"],
                         ids=["newline-end", "cr-end"])
def test_every_split_point_gives_the_same_rows(data, tmp_path, monkeypatch,
                                               decode_path):
    path = tmp_path / "small.std"
    path.write_bytes(data)
    trace = load_trace(path, validate=False)
    expected = (_rows([trace]), trace.registry.names())
    assert len(trace) == 8 + (data != _SMALL)
    for split in range(len(data) + 1):
        assert _protocol([data[:split], data[split:]]) == expected, split
    for size in range(1, len(data) + 1):
        monkeypatch.setattr(parsers, "READ_BYTES", size)
        source = FileSource(path)
        assert (_rows(source.batches()), source.registry.names()) == (
            expected
        ), size


def test_split_error_names_the_same_line(tmp_path, monkeypatch,
                                         decode_path):
    data = _SMALL + b"t3|w(\xffx)|z\n"
    path = tmp_path / "bad.std"
    path.write_bytes(data)
    with pytest.raises(TraceError) as info:
        load_trace(path)
    message = str(info.value)
    assert message.startswith("line 11: invalid UTF-8 byte(s) 0xff in ")
    for split in range(len(data) + 1):
        with pytest.raises(TraceError) as info:
            _protocol([data[:split], data[split:]])
        assert str(info.value) == message
    for size in (1, 7, 64):
        monkeypatch.setattr(parsers, "READ_BYTES", size)
        with pytest.raises(TraceError) as info:
            list(FileSource(path))
        assert str(info.value) == message


# --------------------------------------------------------------------- #
# The line protocol parses the file grammar
# --------------------------------------------------------------------- #

def test_line_protocol_rejects_invalid_utf8_like_the_file(tmp_path):
    data = b"t\xff0|w(x)|a\n"
    path = tmp_path / "bad.std"
    path.write_bytes(data)
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value) == (
        "line 1: invalid UTF-8 byte(s) 0xff in 't�0|w(x)|a'"
    )
    with pytest.raises(TraceError) as protocol:
        _protocol([data])
    assert str(protocol.value) == str(info.value)


@pytest.mark.parametrize("data", [
    b"t0|w(x)|a\rt1|w(x)|b\n",
    b"t0|w(x)|a\r\nt1|w(x)|b\r\n",
], ids=["bare-cr", "crlf"])
def test_line_protocol_splits_lines_like_the_file(data, tmp_path):
    path = tmp_path / "race.std"
    path.write_bytes(data)
    trace = load_trace(path)
    rows, _ = _protocol([data])
    assert rows == _rows([trace]) == [
        (0, "t0", EventType.WRITE, "x", "a"),
        (1, "t1", EventType.WRITE, "x", "b"),
    ]
    batch = run_engine(trace, detectors=[make_detector("hb")])
    events = [Event(-1, *row[1:]) for row in rows]
    pushed = run_engine(events, detectors=[make_detector("hb")])
    assert batch["HB"].count() == pushed["HB"].count() == 1


# --------------------------------------------------------------------- #
# write_std refuses what STD cannot carry
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("event,message", [
    (Event(0, "t0", EventType.WRITE, "x", "a|b"),
     "event 0: location 'a|b' contains '|', which STD cannot carry"),
    (Event(0, "t|0", EventType.WRITE, "x", "a"),
     "event 0: thread 't|0' contains '|', which STD cannot carry"),
    (Event(0, "t0", EventType.WRITE, "x", "a\nb"),
     "event 0: location 'a\\nb' contains '\\n', which STD cannot carry"),
    (Event(0, "t\r0", EventType.WRITE, "x", None),
     "event 0: thread 't\\r0' contains '\\r', which STD cannot carry"),
    (Event(0, "t0", EventType.WRITE, "f(x)", None),
     "event 0: target 'f(x)' contains ')', which STD cannot carry"),
    (Event(0, "t0", EventType.ACQUIRE, "l|m", None),
     "event 0: target 'l|m' contains '|', which STD cannot carry"),
])
def test_write_std_refuses_unwritable_fields(event, message):
    with pytest.raises(ValueError) as info:
        write_std(Trace([event], validate=False))
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(
    set(TABLE1) | {"mixed-%d" % seed for seed in range(0, 20, 4)}
))
def test_write_std_round_trips_generated_traces(name, tmp_path):
    if name.startswith("mixed-"):
        seed = int(name.split("-")[1])
        original = mixed_vocabulary_trace(seed=seed, threads=3, steps=80)
    else:
        original = get_benchmark(name, scale=0.02, seed=5)
    path = tmp_path / "trace.std"
    path.write_text(write_std(original))
    loaded = load_trace(path)
    assert [(e.thread, e.etype, e.target, e.loc) for e in loaded] == [
        (e.thread, e.etype, e.target, e.loc) for e in original
    ]


# --------------------------------------------------------------------- #
# Lock discipline: the compiled validator declines where Python raises
# --------------------------------------------------------------------- #

#: Opening kind -> the kind that closes its section.
_CLOSER = {
    EventType.ACQUIRE: EventType.RELEASE,
    EventType.WAIT: EventType.RELEASE,
    EventType.RACQ_R: EventType.RREL,
    EventType.RACQ_W: EventType.RREL,
}


def _lock_program(rng, kinds):
    """Random acquires and releases over 3 threads and 4 locks, mostly
    well formed, with re-entrant and contended acquires, crossed and
    foreign releases and releases of the wrong kind mixed in."""
    locks = ["l0", "l1", "l2", "l3"]
    held = {thread: [] for thread in ("t0", "t1", "t2")}
    events = []
    for _ in range(rng.randint(1, 30)):
        thread = rng.choice(sorted(held))
        stack = held[thread]
        taken = [lock for own in held.values() for lock, _ in own]
        roll = rng.random()
        if stack and (roll < 0.4 or len(taken) == len(locks)):
            pick = rng.random()
            if pick < 0.8:
                lock, kind = stack.pop()
            elif pick < 0.93:
                lock, kind = rng.choice(stack)  # crossed when not innermost
                stack.remove((lock, kind))
            else:
                lock, kind = rng.choice(locks), rng.choice(kinds)
            closer = _CLOSER[kind]
            if rng.random() < 0.05:
                closer = rng.choice([EventType.RELEASE, EventType.RREL])
            events.append((thread, closer, lock))
        elif roll < 0.95:
            free = [lock for lock in locks if lock not in taken]
            if free and rng.random() < 0.97:
                lock = rng.choice(free)
            else:
                lock = rng.choice(locks)  # re-entrant or contended
            kind = rng.choice(kinds)
            events.append((thread, kind, lock))
            stack.append((lock, kind))
        else:
            events.append((thread, EventType.READ, "x"))
    return [Event(i, thread, etype, target)
            for i, (thread, etype, target) in enumerate(events)]


def _spec_verdict(events):
    """``(row, error text)`` where ``LockDiscipline`` first raises, or
    ``(len(events), None)``."""
    discipline = LockDiscipline()
    for row, event in enumerate(events):
        try:
            discipline.step(event.etype, event.thread, event.target,
                            event.index)
        except TraceError as error:
            return row, "%s: %s" % (type(error).__name__, error)
    return len(events), None


def _trace_verdict(events):
    try:
        Trace(events)
    except TraceError as error:
        return "%s: %s" % (type(error).__name__, error)
    return None


@pytest.mark.parametrize("kinds", [
    (EventType.ACQUIRE,),
    (EventType.ACQUIRE, EventType.WAIT),
    (EventType.ACQUIRE, EventType.RACQ_W, EventType.RACQ_R),
], ids=["acq", "acq-wait", "acq-rwlock"])
def test_lock_check_accepts_only_what_python_accepts(kinds):
    # The compiled pass (OnlineValidator._run) declines exactly at the
    # row where LockDiscipline raises and accepts every row before it,
    # and Trace(validate=True) raises LockDiscipline's error.
    rng = random.Random(len(kinds))
    verdicts = set()
    for _ in range(400):
        events = _lock_program(rng, kinds)
        row, expected = _spec_verdict(events)
        verdicts.add(expected is None)
        assert _trace_verdict(events) == expected
        if COMPILED:
            validator = OnlineValidator()
            declined = validator._run(
                validator._handle, ColumnBlock.from_events(events), 0
            )
            assert declined == row
    assert verdicts == {True, False}


# --------------------------------------------------------------------- #
# The line limit: every bytes-level entry point refuses an overlong line
# --------------------------------------------------------------------- #


#: Per format: the line before the long one, the long line's start and
#: the filler it repeats to its length, and the line after it.
_LONG_LINES = {
    "std": (b"t0|r(x)|p\n", b"t1|w(x)|", b"a", b"t2|w(x)|q\n"),
    # A CSV line of short fields: csv.field_size_limit() does not bite.
    "csv": (b"thread,etype,target,loc\r\n", b"t1,w,x,", b"b" * 99 + b",",
            b"t2,w,x,q\n"),
    "mtrace": (b"w-1 [0] 1.0: mem_read: x\n", b"w-2 [0] 1.1: mem_write: ",
               b"a", b"w-3 [0] 1.2: mem_read: x\n"),
    "tsan": (b"T0 read x\n", b"T1 write ", b"a", b"T2 read x\n"),
}


def _long_line_input(extra, format):
    """Three lines; the second is ``MAX_LINE_BYTES + extra`` bytes long."""
    first, head, filler, last = _LONG_LINES[format]
    size = StdDecoder.MAX_LINE_BYTES - len(head) + extra
    body = (filler * (size // len(filler) + 1))[:size]
    return first + head + body + b"\r\n" + last


@pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "over-limit"])
def test_line_limit_on_every_entry_point(extra, tmp_path):
    message = "line 2: longer than the %d-byte line limit" % (
        StdDecoder.MAX_LINE_BYTES,
    )
    for format in _LONG_LINES:
        data = _long_line_input(extra, format)
        path = tmp_path / ("long." + format)
        path.write_bytes(data)
        chunks = [data[k:k + (1 << 16)] for k in range(0, len(data), 1 << 16)]

        def file_source():
            return sum(len(block)
                       for block in FileSource(str(path)).batches())

        def socket():
            return len(_protocol(chunks)[0])

        entries = [("load_trace", lambda: len(load_trace(path))),
                   ("FileSource", file_source)]
        if format == "std":
            entries.append(("socket", socket))
        for name, entry in entries:
            if extra == 0:
                # (A CSV file's first line is its header.)
                assert entry() == 3 - (format == "csv"), (format, name)
                continue
            with pytest.raises(ValueError) as caught:
                entry()
            if name != "socket":
                assert isinstance(caught.value, parsers.TraceParseError), (
                    format, name)
                assert str(caught.value) == message, (format, name)
            assert str(StdDecoder.MAX_LINE_BYTES) in str(caught.value), name


def test_pending_line_over_the_limit_is_refused():
    decoder = StdDecoder()
    decoder.decode(b"t0|r(x)|p\n" + b"t1|w(x)|" + b"a" * (1 << 19))
    with pytest.raises(parsers.TraceParseError, match="^line 2: longer"):
        decoder.decode(b"a" * (1 << 19))
    # A held-back "\r" ends the line: exactly at the limit is accepted.
    decoder = StdDecoder()
    line = b"t1|w(x)|" + b"a" * (StdDecoder.MAX_LINE_BYTES - 8)
    assert not decoder.decode(line + b"\r")
    assert len(decoder.decode(b"\n", final=True)) == 1


# --------------------------------------------------------------------- #
# The census: DistinctPairs in C equals its Python dedupe
# --------------------------------------------------------------------- #


def _census_files(directory):
    """``(name, path)`` of every census input: the fuzz and
    mixed-vocabulary seeds, a log that decodes into many blocks, and the
    CSV, mtrace and tsan formats."""
    from test_adapters import MTRACE_DEMO, TSAN_DEMO

    traces = {"fuzz-%d" % seed: mixed_vocabulary_trace(
        seed=seed, threads=3, steps=150) for seed in range(6)}
    for seed in range(20):
        traces["mixed-%d" % seed] = mixed_vocabulary_trace(
            seed=seed, threads=2 + seed % 4, steps=60)
    traces["many-blocks"] = get_benchmark("xalan", scale=0.5, seed=1)
    for name, trace in traces.items():
        yield name, dump_trace(trace, directory / ("%s.std" % name))
    yield "csv", dump_trace(traces["many-blocks"], directory / "xalan.csv")
    for name, text in (("mtrace", MTRACE_DEMO), ("tsan", TSAN_DEMO)):
        path = directory / ("demo.%s" % name)
        path.write_text(text)
        yield name, path


@pytest.fixture(scope="module")
def census_files(tmp_path_factory):
    return dict(_census_files(tmp_path_factory.mktemp("census")))


@contextmanager
def _forced(name):
    """``kernels.BACKEND`` set to ``name`` until the context ends."""
    saved = kernels.BACKEND
    kernels.BACKEND = name
    try:
        yield
    finally:
        kernels.BACKEND = saved


CENSUS_BACKENDS = ["cffi", "python"] if COMPILED else ["python"]


@pytest.mark.parametrize("name", [
    "fuzz-%d" % seed for seed in range(6)
] + ["mixed-%d" % seed for seed in range(20)] + [
    "many-blocks", "csv", "mtrace", "tsan",
])
def test_census_pairs_equal_the_python_dedupe(name, census_files):
    path = census_files[name]
    blocks = list(parsers.iter_trace_blocks(path, registry=ThreadRegistry()))
    if name in ("many-blocks", "csv"):
        assert len(blocks) > 5
    spec = list(dict.fromkeys(
        pair for block in blocks for pair in zip(*block.columns())
    ))
    expected = load_trace(path).thread_census
    for which in CENSUS_BACKENDS:
        with _forced(which):
            distinct = kernels.DistinctPairs()
            assert distinct.compiled == (which == "cffi")
            pairs = []
            for block in blocks:
                pairs += distinct.add(*block.columns())
            assert pairs == spec, which
            trace = load_trace(path)
            censuses = [FileSource(path).thread_census, trace.thread_census,
                        ThreadCensus(list(trace)),
                        ThreadCensus(blocks[-1], pairs)]
            for census in censuses:
                for field in ThreadCensus.__slots__:
                    assert getattr(census, field) == getattr(
                        expected, field), (which, field)


# --------------------------------------------------------------------- #
# One decode state per file: the stream pass re-interns nothing
# --------------------------------------------------------------------- #


class _FreshStreamDecoder(FileSource):
    """A file source whose stream pass decodes through a decoder of its
    own, sharing only the registry with the census pass."""

    def batches(self):
        self.decoder = StdDecoder(self.registry)
        return super().batches()


def _decode_state(source):
    decoder = source.decoder
    table = decoder.op_table
    return (len(table.ops), len(table.ids), len(table.heads),
            len(source.registry), decoder._threads, decoder._keys,
            decoder.interned_ops, decoder.interned_threads)


@pytest.fixture(scope="module")
def decode_files(census_files, tmp_path_factory):
    """The many-block xalan log, its CSV copy, a CRLF copy and a copy
    whose thread ``t5`` is spelled ``t5é`` (its lines are decoded by the
    Python logic under either backend)."""
    directory = tmp_path_factory.mktemp("decode")
    data = census_files["many-blocks"].read_bytes()
    files = {"many-blocks": census_files["many-blocks"],
             "csv": census_files["csv"]}
    for name, copy in (
        ("crlf", data.replace(b"\n", b"\r\n")),
        ("non-ascii", data.replace(b"\nt5|", "\nt5é|".encode())),
    ):
        files[name] = directory / ("%s.std" % name)
        files[name].write_bytes(copy)
    return files


@pytest.mark.parametrize("which", CENSUS_BACKENDS)
@pytest.mark.parametrize("name", ["many-blocks", "csv", "crlf", "non-ascii"])
def test_the_stream_pass_reuses_the_census_decode_state(
        name, which, decode_files):
    path = decode_files[name]
    with _forced(which):
        source = FileSource(path)
        assert source.thread_census is not None
        table = source.decoder.op_table
        state = _decode_state(source)
        assert state[0] > 1000 and state[3] == 6
        blocks = list(source.batches())
        assert len(blocks) > 5
        assert all(block.table is table for block in blocks)
        assert _decode_state(source) == state
    if name == "non-ascii":
        assert source.decoder.python_lines > 0


@pytest.mark.parametrize("which", CENSUS_BACKENDS)
@pytest.mark.parametrize("name", ["many-blocks", "csv", "crlf", "non-ascii"])
def test_shared_decode_state_reports_equal_a_fresh_decoder(
        name, which, decode_files):
    from repro.analysis.export import report_to_dict
    from repro.engine import ValidatingSource

    def reports(source):
        result = run_engine(ValidatingSource(source), detectors=[
            make_detector("wcp"), make_detector("hb")])
        found = {}
        for key, report in result.items():
            found[key] = report_to_dict(report)
            for timing in ("time_s", "events_per_s"):
                found[key]["stats"].pop(timing)
        return found

    path = decode_files[name]
    with _forced(which):
        shared = reports(FileSource(path))
        assert shared == reports(_FreshStreamDecoder(path))
    assert shared["WCP"]["raw_race_count"] > 0


@pytest.mark.parametrize("which", CENSUS_BACKENDS)
def test_a_late_parse_error_names_the_same_line(which, census_files,
                                                tmp_path):
    lines = census_files["many-blocks"].read_bytes().splitlines(True)
    late = len(lines) - 7
    path = tmp_path / "late.std"
    path.write_bytes(b"".join(lines[:late] + [b"t1|bogus(x)|z\n"]
                             + lines[late:]))
    with _forced(which):
        with pytest.raises(parsers.TraceParseError) as batch:
            load_trace(path)
        assert str(batch.value).startswith("line %d: " % (late + 1))
        source = FileSource(path)
        with pytest.raises(parsers.TraceParseError) as census:
            source.take_census()
        # The stream pass rewinds the decoder the census pass left at the
        # error, and numbers the line alike.
        with pytest.raises(parsers.TraceParseError) as stream:
            list(source.batches())
    assert str(census.value) == str(stream.value) == str(batch.value)


@pytest.mark.parametrize("which", CENSUS_BACKENDS)
def test_the_stream_pass_validates_from_a_clean_state(which, tmp_path):
    """The census pass ends with ``l`` held; the stream pass restarts
    its validator on a clean state but keeps its lock translation."""
    from repro.engine import ValidatingSource

    path = tmp_path / "held.std"
    path.write_text("t1|acq(l)|a\nt1|w(x)|b\nt1|rel(l)|c\nt1|acq(l)|d\n")
    with _forced(which):
        source = ValidatingSource(FileSource(path))
        assert source.thread_census is not None
        validator = source.validator
        assert validator.state_size() == 2
        census_state = validator.state_dict()
        translation = getattr(validator, "_locks", None)
        assert len(list(source.batches())) == 1
        assert source.validator is validator
        assert validator.state_dict() == census_state
        assert getattr(validator, "_locks", None) is translation

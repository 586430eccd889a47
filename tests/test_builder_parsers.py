"""Tests for the TraceBuilder DSL and the trace parsers/writers."""

import pytest

from repro.trace.builder import TraceBuilder
from repro.trace.event import EventType
from repro.trace.parsers import TraceParseError, load_trace, parse_csv, parse_std
from repro.trace.writers import dump_trace, write_csv, write_std

from conftest import random_trace


class TestTraceBuilder:
    def test_basic_chaining(self):
        trace = (
            TraceBuilder()
            .acquire("t1", "l").read("t1", "x").write("t1", "x").release("t1", "l")
            .fork("t1", "t2").join("t1", "t2")
            .begin("t2").end("t2")
            .build()
        )
        kinds = [event.etype for event in trace]
        assert kinds == [
            EventType.ACQUIRE, EventType.READ, EventType.WRITE, EventType.RELEASE,
            EventType.FORK, EventType.JOIN, EventType.BEGIN, EventType.END,
        ]

    def test_default_locations_are_line_numbers(self):
        trace = TraceBuilder().write("t1", "x").write("t1", "y").build()
        assert trace[0].loc == "line1"
        assert trace[1].loc == "line2"

    def test_sync_shorthand(self):
        trace = TraceBuilder().sync("t1", "m").build()
        assert [event.etype for event in trace] == [
            EventType.ACQUIRE, EventType.READ, EventType.WRITE, EventType.RELEASE,
        ]
        assert trace[1].variable == "mVar"

    def test_acrl_shorthand(self):
        trace = TraceBuilder().acrl("t1", "m").build()
        assert [event.etype for event in trace] == [EventType.ACQUIRE, EventType.RELEASE]

    def test_critical_helper(self):
        trace = TraceBuilder().critical("t1", "l", ("r", "x"), ("w", "y")).build()
        assert [event.etype for event in trace] == [
            EventType.ACQUIRE, EventType.READ, EventType.WRITE, EventType.RELEASE,
        ]
        with pytest.raises(ValueError):
            TraceBuilder().critical("t1", "l", ("bogus", "x"))

    def test_events_and_len(self):
        builder = TraceBuilder().write("t1", "x")
        assert len(builder) == 1
        assert len(builder.events()) == 1

    def test_build_name(self):
        assert TraceBuilder("named").build().name == "named"
        assert TraceBuilder().build(name="other").name == "other"


class TestStdFormat:
    def test_parse_simple(self):
        text = """
        # a comment
        t1|acq(l)|Foo.java:1
        t1|r(x)|Foo.java:2
        t1|rel(l)
        t2|fork(t3)
        """
        trace = parse_std(text)
        assert len(trace) == 4
        assert trace[0].is_acquire() and trace[0].lock == "l"
        assert trace[0].loc == "Foo.java:1"
        assert trace[3].other_thread == "t3"

    def test_parse_operation_aliases(self):
        trace = parse_std("t1|lock(l)\n t1|read(x)\n t1|write(x)\n t1|unlock(l)")
        assert [event.etype for event in trace] == [
            EventType.ACQUIRE, EventType.READ, EventType.WRITE, EventType.RELEASE,
        ]

    def test_parse_errors(self):
        with pytest.raises(TraceParseError):
            parse_std("t1|frobnicate(x)")
        with pytest.raises(TraceParseError):
            parse_std("just-one-field")

    def test_round_trip(self):
        trace = random_trace(seed=7, n_events=30)
        text = write_std(trace)
        parsed = parse_std(text)
        assert len(parsed) == len(trace)
        for original, reparsed in zip(trace, parsed):
            assert original.thread == reparsed.thread
            assert original.etype == reparsed.etype
            assert original.target == reparsed.target


class TestCsvFormat:
    def test_round_trip(self):
        trace = random_trace(seed=8, n_events=30)
        text = write_csv(trace)
        parsed = parse_csv(text)
        assert len(parsed) == len(trace)
        for original, reparsed in zip(trace, parsed):
            assert (original.thread, original.etype, original.target) == (
                reparsed.thread, reparsed.etype, reparsed.target
            )

    def test_unknown_event_type(self):
        with pytest.raises(TraceParseError):
            parse_csv("thread,etype,target,loc\nt1,zap,x,\n")


class TestFileRoundTrip:
    def test_std_file(self, tmp_path):
        trace = random_trace(seed=9, n_events=20)
        path = dump_trace(trace, tmp_path / "trace.std")
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        assert loaded.name == "trace"

    def test_csv_file(self, tmp_path):
        trace = random_trace(seed=10, n_events=20)
        path = dump_trace(trace, tmp_path / "trace.csv")
        loaded = load_trace(path)
        assert len(loaded) == len(trace)


class TestInvalidUtf8:
    """A byte that is not UTF-8 names its line, on both ingest paths."""

    @pytest.mark.parametrize("suffix, content, line", [
        (".std", b"t0|w(x)|a\nt1|w(\xffy)|b\n", 2),
        (".csv", b"thread,etype,target,loc\nt0,w,x,a\nt1,w,\xffy,b\n", 3),
    ])
    @pytest.mark.parametrize("stream", [False, True])
    def test_analyze_names_the_line_and_bytes(
        self, tmp_path, capsys, suffix, content, line, stream
    ):
        from repro.cli import main

        path = tmp_path / ("bad" + suffix)
        path.write_bytes(content)
        argv = ["analyze", str(path)] + (["--stream"] if stream else [])
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("line %d: invalid UTF-8 byte(s) 0xff in " % line)
        assert len(err.splitlines()) == 1

    def test_library_raises_trace_parse_error(self, tmp_path):
        from repro.engine import FileSource

        path = tmp_path / "bad.std"
        path.write_bytes(b"t0|w(x)|a\n" * 3000 + b"t1|w(\xe2\x28y)|b\n")
        with pytest.raises(TraceParseError, match=r"^line 3001: .* 0xe2 "):
            load_trace(path)
        with pytest.raises(TraceParseError, match=r"^line 3001: .* 0xe2 "):
            list(FileSource(path))

"""Tests for the real-trace ingest adapters and the format dispatch layer.

Covers the mtrace (kernel lock-log) and tsan (sanitizer annotation)
adapters end to end: line grammars, rwlock mode inference, the
line-number-and-token error contract shared by all four formats, the
extension dispatch, and the CLI's ``--format`` override.
"""

import json

import pytest

from repro.cli import main
from repro.trace import (
    EventType,
    TraceParseError,
    detect_format,
    event_iterator,
    iter_mtrace_events,
    iter_tsan_events,
    load_trace,
)
from repro.vectorclock.registry import ThreadRegistry


MTRACE_DEMO = """\
# kernel lock log, two tasks over one rwlock
writer-11 [000] 100.000100: lock_acquire: &sem
writer-11 [000] 100.000200: mem_write: counter
writer-11 [001] 100.000300: lock_release: &sem
reader-22 [001] 100.000400: lock_acquire: read &sem
reader-22 [001] 100.000500: mem_read: counter
reader-22 [001] 100.000600: lock_release: &sem
writer-11 [000] 100.000700: task_fork: child-33
child-33 [002] 100.000800: lock_acquire: write &sem
child-33 [002] 100.000900: mem_write: counter
child-33 [002] 100.001000: lock_release: &sem
writer-11 [000] 100.001100: task_join: child-33
"""

TSAN_DEMO = """\
T0 thread_create T1
T0 mutex_lock m 0x4a2f
T0 write data 0x4a33
T0 mutex_unlock m
T1 rwlock_read_lock rw
T1 read data
T1 rwlock_unlock rw
T1 barrier_wait b0
T0 barrier_wait b0
T1 mutex_lock cv
T1 mutex_unlock cv
T0 mutex_lock cv
T0 cond_signal cv
T0 mutex_unlock cv
T1 cond_wait cv
T1 mutex_unlock cv
T0 thread_join T1
"""


class TestMtraceAdapter:
    def test_happy_path_event_stream(self):
        events = list(iter_mtrace_events(MTRACE_DEMO.splitlines()))
        assert [event.etype for event in events] == [
            EventType.ACQUIRE, EventType.WRITE, EventType.RELEASE,
            EventType.RACQ_R, EventType.READ, EventType.RREL,
            EventType.FORK, EventType.RACQ_W, EventType.WRITE,
            EventType.RREL, EventType.JOIN,
        ]
        assert [event.index for event in events] == list(range(len(events)))
        assert events[0].thread == "writer-11"
        assert events[0].target == "&sem"
        # CPU and timestamp become the program location.
        assert events[0].loc == "000:100.000100"

    def test_release_mode_resolved_per_task(self):
        # The same lock name releases as ``rel`` for the exclusive holder
        # and ``rrel`` for the task that opened it with a reader/writer
        # acquire -- kernel logs do not say which on the release side.
        events = list(iter_mtrace_events(MTRACE_DEMO.splitlines()))
        releases = [e for e in events if e.etype in (EventType.RELEASE, EventType.RREL)]
        assert [(e.thread, e.etype) for e in releases] == [
            ("writer-11", EventType.RELEASE),
            ("reader-22", EventType.RREL),
            ("child-33", EventType.RREL),
        ]

    def test_registry_stamps_tids(self):
        registry = ThreadRegistry()
        events = list(iter_mtrace_events(MTRACE_DEMO.splitlines(), registry=registry))
        assert all(event.tid is not None for event in events)
        assert events[0].tid == registry.intern("writer-11")

    def test_malformed_line_names_line_and_shape(self):
        lines = ["writer-11 [000] 100.1: lock_acquire: &sem", "not a record"]
        with pytest.raises(TraceParseError) as err:
            list(iter_mtrace_events(lines))
        message = str(err.value)
        assert "line 2" in message
        assert "comm-pid [cpu] ts: op: args" in message
        assert "not a record" in message

    def test_unknown_record_names_line_and_token(self):
        lines = ["writer-11 [000] 100.1: lock_steal: &sem"]
        with pytest.raises(TraceParseError, match=r"line 1: unknown mtrace record 'lock_steal'"):
            list(iter_mtrace_events(lines))

    def test_missing_operand_errors(self):
        with pytest.raises(TraceParseError, match=r"line 1: 'lock_acquire' requires a lock name"):
            list(iter_mtrace_events(["w-1 [000] 1.0: lock_acquire: "]))
        with pytest.raises(TraceParseError, match=r"line 1: 'lock_release' requires a lock name"):
            list(iter_mtrace_events(["w-1 [000] 1.0: lock_release: "]))
        with pytest.raises(TraceParseError, match=r"line 1: 'mem_read' requires an operand"):
            list(iter_mtrace_events(["w-1 [000] 1.0: mem_read: "]))

    def test_comments_and_blanks_skipped_but_lines_counted(self):
        lines = ["# header", "", "w-1 [000] 1.0: bogus_op: x"]
        with pytest.raises(TraceParseError, match=r"line 3"):
            list(iter_mtrace_events(lines))


class TestTsanAdapter:
    def test_happy_path_event_stream(self):
        events = list(iter_tsan_events(TSAN_DEMO.splitlines()))
        assert [event.etype for event in events] == [
            EventType.FORK, EventType.ACQUIRE, EventType.WRITE,
            EventType.RELEASE, EventType.RACQ_R, EventType.READ,
            EventType.RREL, EventType.BARRIER, EventType.BARRIER,
            EventType.ACQUIRE, EventType.RELEASE, EventType.ACQUIRE,
            EventType.NOTIFY, EventType.RELEASE, EventType.WAIT,
            EventType.RELEASE, EventType.JOIN,
        ]
        assert events[1].loc == "0x4a2f"  # optional pc column
        assert events[5].loc is None

    def test_verbs_are_case_insensitive(self):
        events = list(iter_tsan_events(["T0 MUTEX_LOCK m"]))
        assert events[0].etype is EventType.ACQUIRE

    def test_malformed_line_names_line_and_shape(self):
        with pytest.raises(TraceParseError) as err:
            list(iter_tsan_events(["T0 mutex_lock"]))
        message = str(err.value)
        assert "line 1" in message
        assert "thread verb target [pc]" in message

    def test_unknown_verb_names_line_and_token(self):
        with pytest.raises(TraceParseError, match=r"line 1: unknown tsan operation 'mutex_grab'"):
            list(iter_tsan_events(["T0 mutex_grab m"]))

    def test_registry_stamps_tids(self):
        registry = ThreadRegistry()
        events = list(iter_tsan_events(TSAN_DEMO.splitlines(), registry=registry))
        assert events[0].tid == registry.intern("T0")


class TestErrorContractAcrossFormats:
    """Every format's parse errors name the line/row and the bad token."""

    def test_std_unknown_token(self, tmp_path):
        path = tmp_path / "t.std"
        path.write_text("t1|acq(m)\nt1|frobnicate(m)\n")
        with pytest.raises(TraceParseError, match=r"line 2: unknown operation token 'frobnicate'"):
            load_trace(path)

    def test_csv_unknown_token(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("thread,etype,target,loc\nt1,acq,m,\nt1,frobnicate,m,\n")
        with pytest.raises(TraceParseError, match=r"row 3: unknown event type token 'frobnicate'"):
            load_trace(path)

    def test_mtrace_unknown_record(self, tmp_path):
        path = tmp_path / "t.mtrace"
        path.write_text("w-1 [000] 1.0: lock_acquire: m\nw-1 [000] 1.1: frobnicate: m\n")
        with pytest.raises(TraceParseError, match=r"line 2: unknown mtrace record 'frobnicate'"):
            load_trace(path)

    def test_tsan_unknown_verb(self, tmp_path):
        path = tmp_path / "t.tsan"
        path.write_text("T0 mutex_lock m\nT0 frobnicate m\n")
        with pytest.raises(TraceParseError, match=r"line 2: unknown tsan operation 'frobnicate'"):
            load_trace(path)


class TestFormatDispatch:
    def test_extension_dispatch(self):
        assert detect_format("a/b/trace.std") == "std"
        assert detect_format("trace.csv") == "csv"
        assert detect_format("trace.MTRACE") == "mtrace"
        assert detect_format("trace.tsan") == "tsan"
        assert detect_format("trace.log") == "std"

    def test_unknown_format_is_rejected_with_choices(self):
        with pytest.raises(ValueError) as err:
            event_iterator("perfetto")
        message = str(err.value)
        assert "unknown trace format 'perfetto'" in message
        for name in ("std", "csv", "mtrace", "tsan"):
            assert name in message

    def test_load_trace_format_overrides_extension(self, tmp_path):
        path = tmp_path / "kernel.log"  # .log would dispatch to std
        path.write_text(MTRACE_DEMO)
        trace = load_trace(path, format="mtrace")
        assert len(trace) == 11
        assert trace.events[3].etype is EventType.RACQ_R


class TestCliFormatFlag:
    def test_analyze_mtrace(self, tmp_path, capsys):
        path = tmp_path / "kernel.mtrace"
        path.write_text(MTRACE_DEMO)
        assert main(["analyze", str(path), "--detector", "wcp"]) == 0
        assert "race" in capsys.readouterr().out

    def test_analyze_format_override(self, tmp_path, capsys):
        path = tmp_path / "kernel.log"
        path.write_text(MTRACE_DEMO)
        assert main(["analyze", str(path), "--format", "mtrace", "--detector", "wcp"]) == 0
        capsys.readouterr()

    def test_stats_census_on_tsan(self, tmp_path, capsys):
        path = tmp_path / "run.tsan"
        path.write_text(TSAN_DEMO)
        assert main(["stats", str(path)]) == 0
        output = capsys.readouterr().out
        assert "event census:" in output
        assert "barrier" in output
        assert "racq_r" in output

    @pytest.mark.parametrize("suffix, text", [
        (".mtrace", MTRACE_DEMO), (".tsan", TSAN_DEMO),
    ], ids=["mtrace", "tsan"])
    def test_stream_reports_batch_stats(self, tmp_path, capsys, suffix, text):
        # The adapters decode to column blocks sharing one op table, so
        # --stream takes the file's census and prints batch's report,
        # stats included (WCP's max_queue_total among them).
        path = tmp_path / ("run" + suffix)
        path.write_text(text)
        found = {}
        for label, flags in (("batch", []), ("stream", ["--stream"])):
            out = tmp_path / ("%s.json" % label)
            main(["analyze", str(path), "--detector", "wcp,hb",
                  "--json", str(out)] + flags)
            capsys.readouterr()
            found[label] = {}
            for name in ("wcp", "hb"):
                report = json.loads(
                    (tmp_path / ("%s.%s.json" % (label, name))).read_text()
                )
                for timing in ("time_s", "events_per_s"):
                    report["stats"].pop(timing)
                found[label][name] = report
        assert found["stream"] == found["batch"]

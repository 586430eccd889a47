"""Tests for push ingestion.

Producers push events two ways: in process, a producer thread feeds a
:class:`QueueSource` that :class:`RaceEngine` drains; over a socket,
``repro-race serve`` decodes the STD line protocol
(:class:`LineProtocolSource`) and steps each read through the engine's
block stepper.  Both must report what a pull pass over the same events
reports.  :class:`LineProtocolSource` is not an event source: the
engine and :class:`ValidatingSource` refuse it up front.
"""

import asyncio
import threading

import pytest

from repro import (
    IterableSource,
    LineProtocolSource,
    QueueSource,
    RaceEngine,
    ValidatingSource,
    detect_races,
)
from repro.cli import _build_parser, _serve_async
from repro.trace.event import Event
from repro.trace.trace import LockSemanticsError
from repro.trace.writers import write_std

from conftest import random_trace


def _fingerprint(report):
    """Everything that identifies a report's findings (not its timings)."""
    return (
        sorted(tuple(sorted(key)) for key in report.location_pairs()),
        sorted(
            (pair.first_event.index, pair.second_event.index)
            for pair in report.pairs()
        ),
        sorted(pair.distance for pair in report.pairs()),
        report.raw_race_count,
        report.count(),
    )


class TestQueueSource:
    def _producer(self, source, events):
        for event in events:
            source.put(event)
        source.close()

    def test_sync_consumption_with_backpressure(self):
        """A bounded queue (maxsize 4) forces the producer to block while
        the engine drains: the backpressure contract, exercised by
        running producer and engine on different threads."""
        trace = random_trace(seed=7, n_events=60)
        source = QueueSource(name=trace.name, maxsize=4)
        producer = threading.Thread(
            target=self._producer, args=(source, list(trace))
        )
        producer.start()
        report = detect_races(source)
        producer.join()
        assert _fingerprint(report) == _fingerprint(detect_races(
            IterableSource(iter(trace), name=trace.name)
        ))

    def test_push_convenience_and_close(self):
        from repro.trace.event import EventType

        source = QueueSource(maxsize=8)
        source.push("t1", EventType.WRITE, "x", loc="a:1")
        source.push("t2", EventType.WRITE, "x", loc="b:1")
        source.close()
        report = detect_races(source)
        assert report.count() == 1
        assert source.closed
        with pytest.raises(RuntimeError):
            source.put(Event(-1, "t1", EventType.WRITE, "x"))

    def test_exhausted_queue_terminates_again(self):
        source = QueueSource()
        source.close()
        assert list(source) == []
        assert list(source) == []


class TestLineProtocolSource:
    def _feed_reader(self, text):
        reader = asyncio.StreamReader()
        reader.feed_data(text.encode("utf-8"))
        reader.feed_eof()
        return reader

    def _blocks(self, text, initial_lines=None):
        counted = []

        async def run():
            source = LineProtocolSource(
                self._feed_reader(text), name="wire",
                initial_lines=initial_lines, on_bytes=counted.append,
            )
            return [block async for block in source.batches()]

        return asyncio.run(run()), counted

    def _events(self, text):
        blocks, _ = self._blocks(text)
        return [event for block in blocks for event in block]

    def test_decodes_std_lines(self):
        events = self._events(
            "# comment\n"
            "t1|acq(l)|a:1\n"
            "\n"
            "t1|w(x)|a:2\n"
            "t1|rel(l)|a:3\n"
        )
        assert [(e.index, e.thread, str(e.etype), e.target) for e in events] == [
            (0, "t1", "acq", "l"),
            (1, "t1", "w", "x"),
            (2, "t1", "rel", "l"),
        ]
        assert all(e.tid is not None for e in events)

    @pytest.mark.parametrize("seed", [1, 6])
    def test_wire_report_matches_file_report(self, seed, tmp_path):
        trace = random_trace(seed=seed, n_events=50)
        events = self._events(write_std(trace))
        wire = detect_races(
            ValidatingSource(IterableSource(events, name="wire"))
        )
        direct = detect_races(IterableSource(iter(trace), name="wire"))
        assert _fingerprint(wire) == _fingerprint(direct)

    def test_peeked_line_joins_the_first_read(self):
        # A handshake peeks at the first line; the first block must still
        # hold every line of the first read, peeked line included.
        lines = ["t%d|w(x%d)|a:%d\n" % (i % 3, i % 5, i) for i in range(100)]
        blocks, counted = self._blocks("".join(lines[1:]), [lines[0].encode()])
        assert [len(block) for block in blocks] == [100]
        assert [event.index for event in blocks[0]] == list(range(100))
        assert sum(counted) == len("".join(lines))

    def test_peeked_line_ended_by_eof_still_decodes(self):
        blocks, counted = self._blocks("", [b"t1|w(x)|a:1"])
        assert [[(e.thread, e.target) for e in block] for block in blocks] == [
            [("t1", "x")]
        ]
        assert counted == [len(b"t1|w(x)|a:1")]

    def test_malformed_wire_stream_raises_validation_error(self):
        events = self._events("t1|acq(l)\nt2|acq(l)\n")
        with pytest.raises(LockSemanticsError):
            detect_races(ValidatingSource(IterableSource(events)))

    def test_engine_and_validator_refuse_it_unread(self):
        """The socket reader's ``batches()`` must be awaited, so the pull
        engine and the validating wrapper refuse it at construction with
        a one-line error naming it -- never a hang or a traceback from
        inside the pass."""

        class Reader:
            reads = 0

            async def read(self, size):  # pragma: no cover - must not run
                Reader.reads += 1
                return b""

        for build in (
            lambda source: ValidatingSource(source),
            lambda source: RaceEngine().run(source),
        ):
            with pytest.raises(TypeError) as excinfo:
                build(LineProtocolSource(Reader()))
            message = str(excinfo.value)
            assert "LineProtocolSource" in message
            assert "\n" not in message
        assert Reader.reads == 0


class TestServe:
    def _serve_args(self, *extra):
        return _build_parser().parse_args(["serve", "--once"] + list(extra))

    async def _roundtrip(self, args, payload):
        """Start serve, push ``payload`` over one connection, return
        (response text, exit code)."""
        holder = {}
        task = asyncio.ensure_future(
            _serve_async(args, ready=lambda server: holder.update(s=server))
        )
        while "s" not in holder:
            await asyncio.sleep(0.005)
        port = holder["s"].sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(payload.encode("utf-8"))
        writer.write_eof()
        await writer.drain()
        response = (await reader.read()).decode("utf-8")
        writer.close()
        return response, await task

    def test_serve_race_count_matches_analyze(self, tmp_path):
        trace = random_trace(seed=4, n_events=60)
        expected = detect_races(IterableSource(iter(trace), name="x"))

        args = self._serve_args("--port", "0", "--detector", "wcp")
        response, code = asyncio.run(
            self._roundtrip(args, write_std(trace))
        )
        lines = response.strip().splitlines()
        assert lines[-1] == "done %d" % len(trace)
        name, distinct, raw = lines[0].split()
        assert name == "WCP"
        assert int(distinct) == expected.count()
        assert int(raw) == expected.raw_race_count
        assert code == (1 if expected.has_race() else 0)

    def test_serve_multi_detector_response(self):
        args = self._serve_args("--port", "0", "--detector", "wcp,hb")
        payload = "t1|w(x)|a:1\nt2|w(x)|b:1\n"
        response, code = asyncio.run(self._roundtrip(args, payload))
        lines = response.strip().splitlines()
        assert lines[0].startswith("WCP 1 ")
        assert lines[1].startswith("HB ")
        assert lines[-1] == "done 2"
        assert code == 1

    def test_serve_rejects_oversized_line_with_error_response(self):
        """Regression: a line over the stream reader's buffer limit used
        to escape the connection handler (no response, --once never exited);
        it must answer an error line and exit like a rejected stream."""
        args = self._serve_args("--port", "0")
        payload = "t1|w(" + "x" * 100_000 + ")\n"
        response, code = asyncio.run(self._roundtrip(args, payload))
        assert response.startswith("error ValueError")
        assert code == 2

    def test_serve_rejects_malformed_stream(self):
        args = self._serve_args("--port", "0")
        response, code = asyncio.run(
            self._roundtrip(args, "t1|acq(l)\nt2|acq(l)\n")
        )
        assert response.startswith("error LockSemanticsError:")
        assert "while held by thread" in response
        assert code == 2

    def test_serve_no_validate_accepts_malformed_stream(self):
        args = self._serve_args("--port", "0", "--no-validate")
        response, code = asyncio.run(
            self._roundtrip(args, "t1|acq(l)\nt2|acq(l)\n")
        )
        assert response.strip().endswith("done 2")
        assert code in (0, 1)

    def test_serve_max_events(self):
        args = self._serve_args("--port", "0", "--max-events", "2")
        payload = "t1|w(x)\nt1|w(x)\nt1|w(x)\nt1|w(x)\n"
        response, _ = asyncio.run(self._roundtrip(args, payload))
        assert response.strip().endswith("done 2")

    def test_serve_unix_socket(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        args = _build_parser().parse_args(
            ["serve", "--once", "--socket", path]
        )

        async def run():
            holder = {}
            task = asyncio.ensure_future(
                _serve_async(args, ready=lambda server: holder.update(s=server))
            )
            while "s" not in holder:
                await asyncio.sleep(0.005)
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(b"t1|w(x)|a:1\nt2|w(x)|b:1\n")
            writer.write_eof()
            await writer.drain()
            response = (await reader.read()).decode("utf-8")
            writer.close()
            return response, await task

        response, code = asyncio.run(run())
        assert response.strip().splitlines()[0].startswith("WCP 1 ")
        assert code == 1

    def test_serve_requires_listen_argument(self, capsys):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["serve"])

    def test_serve_unknown_detector(self, capsys):
        from repro.cli import main

        assert main(["serve", "--port", "0", "--detector", "quantum"]) == 2

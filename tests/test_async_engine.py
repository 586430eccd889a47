"""Tests for push ingestion and the asynchronous engine.

The acceptance property: :class:`AsyncRaceEngine` produces reports
identical to :class:`RaceEngine` (races, witnesses, distances, stop
reasons) on the same stream, because both drive the shared
:class:`EnginePass` stepper.
"""

import asyncio
import threading

import pytest

from repro import (
    AsyncRaceEngine,
    EngineConfig,
    IterableSource,
    LineProtocolSource,
    QueueSource,
    RaceEngine,
    ValidatingSource,
    detect_races,
    detect_races_async,
    run_engine_async,
)
from repro.cli import _build_parser, _serve_async
from repro.engine import STOP_EVENT_BUDGET, STOP_RACE_BUDGET, as_async_source
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


def _result_fingerprint(result):
    return (
        result.events,
        result.stop_reason,
        {name: _fingerprint(report) for name, report in result.items()},
    )


class TestAsyncSyncParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_reports_identical_on_random_traces(self, seed):
        trace = random_trace(seed=seed, n_events=60, n_threads=4, n_vars=3)
        sync_result = RaceEngine().run(trace)
        async_result = asyncio.run(AsyncRaceEngine().run(trace))
        assert _result_fingerprint(async_result) == _result_fingerprint(
            sync_result
        )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_stream_source_parity(self, seed):
        """Same stream (no prescan) through both engines."""
        trace = random_trace(seed=seed, n_events=50)
        sync_result = RaceEngine().run(
            IterableSource(iter(trace), name=trace.name)
        )
        async_result = asyncio.run(
            AsyncRaceEngine().run(IterableSource(iter(trace), name=trace.name))
        )
        assert _result_fingerprint(async_result) == _result_fingerprint(
            sync_result
        )

    def test_stop_reasons_match(self):
        trace = random_trace(seed=3, n_events=60)
        config = EngineConfig().with_detectors("wcp").stop_on_first_race()
        sync_result = RaceEngine(config).run(trace)
        config2 = EngineConfig().with_detectors("wcp").stop_on_first_race()
        async_result = asyncio.run(AsyncRaceEngine(config2).run(trace))
        assert sync_result.stop_reason == STOP_RACE_BUDGET
        assert async_result.stop_reason == sync_result.stop_reason
        assert async_result.events == sync_result.events

    def test_event_budget(self, simple_race_trace):
        config = EngineConfig().with_detectors("hb").stop_after_events(1)
        result = asyncio.run(AsyncRaceEngine(config).run(simple_race_trace))
        assert result.stop_reason == STOP_EVENT_BUDGET
        assert result.events == 1

    def test_snapshots_match(self):
        trace = random_trace(seed=5, n_events=40)
        def snap_config():
            return EngineConfig().with_detectors("wcp", "hb").snapshot_every(10)
        sync_result = RaceEngine(snap_config()).run(trace)
        async_result = asyncio.run(AsyncRaceEngine(snap_config()).run(trace))
        assert [
            (s.detector_name, s.events, s.races) for s in async_result.snapshots
        ] == [
            (s.detector_name, s.events, s.races) for s in sync_result.snapshots
        ]

    def test_api_helpers(self, simple_race_trace):
        report = asyncio.run(detect_races_async(simple_race_trace))
        assert report.count() == detect_races(simple_race_trace).count()
        result = asyncio.run(
            run_engine_async(simple_race_trace, detectors=["wcp", "hb"])
        )
        assert set(result.keys()) == {"WCP", "HB"}


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

    def test_async_consumption(self):
        trace = random_trace(seed=9, n_events=50)
        source = QueueSource(name=trace.name, maxsize=8)
        producer = threading.Thread(
            target=self._producer, args=(source, list(trace))
        )
        producer.start()
        report = asyncio.run(detect_races_async(source))
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

    def test_cancelled_async_consumer_does_not_wedge_shutdown(self):
        """Regression: the async drain parks queue waits on an executor
        thread in bounded slices, so cancelling a consumer of an empty
        (never-closed) queue leaves nothing blocked and asyncio.run's
        executor shutdown returns promptly."""
        async def run():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    AsyncRaceEngine().run(QueueSource()), timeout=0.2
                )

        # The hang mode was asyncio.run never returning (stuck in
        # loop.shutdown_default_executor); completing at all is the pass.
        asyncio.run(run())


class TestLineProtocolSource:
    def _feed_reader(self, text):
        reader = asyncio.StreamReader()
        reader.feed_data(text.encode("utf-8"))
        reader.feed_eof()
        return reader

    def test_decodes_std_lines(self):
        async def run():
            reader = self._feed_reader(
                "# comment\n"
                "t1|acq(l)|a:1\n"
                "\n"
                "t1|w(x)|a:2\n"
                "t1|rel(l)|a:3\n"
            )
            source = LineProtocolSource(reader, name="wire")
            return [event async for event in source]

        events = asyncio.run(run())
        assert [(e.index, e.thread, str(e.etype), e.target) for e in events] == [
            (0, "t1", "acq", "l"),
            (1, "t1", "w", "x"),
            (2, "t1", "rel", "l"),
        ]
        assert all(e.tid is not None for e in events)

    @pytest.mark.parametrize("seed", [1, 6])
    def test_wire_report_matches_file_report(self, seed, tmp_path):
        trace = random_trace(seed=seed, n_events=50)
        text = write_std(trace)

        async def run():
            source = LineProtocolSource(self._feed_reader(text), name="wire")
            return await detect_races_async(ValidatingSource(source))

        wire = asyncio.run(run())
        direct = detect_races(IterableSource(iter(trace), name="wire"))
        assert _fingerprint(wire) == _fingerprint(direct)

    def _blocks(self, text, initial_lines):
        counted = []

        async def run():
            source = LineProtocolSource(
                self._feed_reader(text), initial_lines=initial_lines,
                on_bytes=counted.append,
            )
            return [block async for block in source.batches()]

        return asyncio.run(run()), counted

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
        async def run():
            reader = self._feed_reader("t1|acq(l)\nt2|acq(l)\n")
            source = ValidatingSource(LineProtocolSource(reader))
            return await detect_races_async(source)

        with pytest.raises(LockSemanticsError):
            asyncio.run(run())


class TestCooperativeAdapter:
    def test_adapter_forwards_protocol(self, protected_trace):
        adapted = as_async_source(protected_trace)
        assert adapted.is_complete
        assert adapted.trace is protected_trace
        assert adapted.length_hint() == len(protected_trace)

    def test_async_source_returned_unchanged(self):
        source = QueueSource()
        assert as_async_source(source) is source


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

"""Tests for the multi-tenant serve tier (``repro.serve``).

The acceptance properties:

* per-connection isolation -- N simultaneous socket clients, each
  pushing its own interleaved stream, get exactly the counts ``analyze``
  produces for their trace;
* governance is explicit -- an over-quota client is shed with one
  ``error Overloaded: ...; retry after <n>s`` line while in-quota
  clients are unaffected;
* interruption is invisible in the output -- an evicted-and-restored or
  drained-and-resumed session produces a report byte-identical to an
  uninterrupted run (witnesses and distances included).
"""

import asyncio
import json
import logging
import time

import pytest

from repro import (
    EngineConfig,
    IterableSource,
    Overloaded,
    QuotaManager,
    RaceServer,
    ServeMetrics,
    ServeSettings,
    SessionManager,
    StreamSession,
    TenantQuota,
    run_engine,
)
from repro.analysis.export import report_to_dict
from repro.serve.quotas import TokenBucket
from repro.serve.sessions import ANONYMOUS_TENANT, tenant_of
from repro.trace.writers import write_std

from conftest import random_trace


# --------------------------------------------------------------------- #
# Unit layer: quotas
# --------------------------------------------------------------------- #


class TestTokenBucket:
    def test_burst_grants_then_deficit(self):
        bucket = TokenBucket(rate=10, burst=5)
        t0 = 1000.0
        for _ in range(5):
            assert bucket.consume(1, now=t0) == 0.0
        wait = bucket.consume(1, now=t0)
        assert wait == pytest.approx(0.1)

    def test_refill_is_rate_proportional(self):
        bucket = TokenBucket(rate=10, burst=5)
        t0 = 1000.0
        for _ in range(5):
            bucket.consume(1, now=t0)
        # 0.35s later: 3.5 tokens back.
        assert bucket.consume(1, now=t0 + 0.35) == 0.0
        assert bucket.consume(1, now=t0 + 0.35) == 0.0
        assert bucket.consume(1, now=t0 + 0.35) == 0.0
        assert bucket.consume(1, now=t0 + 0.35) > 0.0

    def test_burst_capacity_caps_refill(self):
        bucket = TokenBucket(rate=100, burst=2)
        t0 = 50.0
        bucket.consume(1, now=t0)
        # A long quiet period must not accumulate beyond the burst.
        bucket.consume(0, now=t0 + 60.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_default_burst_and_validation(self):
        assert TokenBucket(rate=8).burst == 16.0
        assert TokenBucket(rate=0.1).burst == 1.0
        with pytest.raises(ValueError):
            TokenBucket(rate=0)


class TestQuotaManager:
    def test_unlimited_by_default(self):
        quotas = QuotaManager()
        quotas.admit_stream("acme", active_streams=10_000)
        assert quotas.throttle("acme") == 0.0
        quotas.check_memory("acme", 1 << 40)

    def test_stream_ceiling(self):
        quotas = QuotaManager(TenantQuota(max_streams=2))
        quotas.admit_stream("acme", active_streams=1)
        with pytest.raises(Overloaded) as exc:
            quotas.admit_stream("acme", active_streams=2)
        assert "retry after" in str(exc.value)
        assert exc.value.retry_after >= 1

    def test_throttle_small_deficit_sheds_large(self):
        quotas = QuotaManager(
            TenantQuota(events_per_sec=1.0, burst_events=1.0),
            throttle_budget_s=0.5,
        )
        assert quotas.throttle("acme") == 0.0  # the burst token
        # Deficit of one event at 1/s is ~1s > 0.5s budget: shed.
        with pytest.raises(Overloaded) as exc:
            quotas.throttle("acme")
        assert "exceeded 1 events/sec" in str(exc.value)

    def test_throttle_within_budget_returns_sleep(self):
        quotas = QuotaManager(
            TenantQuota(events_per_sec=1000.0, burst_events=1.0),
            throttle_budget_s=2.0,
        )
        assert quotas.throttle("acme") == 0.0
        wait = quotas.throttle("acme")
        assert 0.0 < wait <= 2.0

    def test_memory_quota(self):
        quotas = QuotaManager(TenantQuota(max_detector_bytes=1000))
        quotas.check_memory("acme", 1000)
        with pytest.raises(Overloaded) as exc:
            quotas.check_memory("acme", 1001)
        assert "max 1000" in str(exc.value)

    def test_per_tenant_override(self):
        quotas = QuotaManager(TenantQuota(max_streams=1))
        quotas.set_quota("vip", TenantQuota(max_streams=50))
        quotas.admit_stream("vip", active_streams=10)
        with pytest.raises(Overloaded):
            quotas.admit_stream("basic", active_streams=1)
        assert quotas.quota_for("vip").max_streams == 50
        assert quotas.quota_for("basic").max_streams == 1


# --------------------------------------------------------------------- #
# Unit layer: sessions
# --------------------------------------------------------------------- #


class TestSessions:
    def test_tenant_derivation(self):
        assert tenant_of("acme.stream-7") == "acme"
        assert tenant_of("acme.a.b") == "acme"
        assert tenant_of("solo") == "solo"
        assert tenant_of(None) == ANONYMOUS_TENANT
        assert tenant_of("") == ANONYMOUS_TENANT

    def test_global_ceiling(self):
        manager = SessionManager(max_connections=2)
        a = manager.open_session()
        manager.open_session()
        with pytest.raises(Overloaded) as exc:
            manager.open_session()
        assert "max connections (2)" in str(exc.value)
        manager.release(a)
        manager.open_session()  # freed slot is admitted again

    def test_bind_stream_names_tenant(self):
        manager = SessionManager()
        session = manager.open_session()
        assert session.state == "handshake"
        manager.bind_stream(session, "acme.s1")
        assert session.tenant == "acme"
        assert session.stream_id == "acme.s1"
        assert session.state == "active"

    def test_per_tenant_ceiling_ignores_handshakes(self):
        manager = SessionManager(
            quotas=QuotaManager(TenantQuota(max_streams=1))
        )
        first = manager.open_session()
        manager.bind_stream(first, "acme.a")
        # A second connection still handshaking does not count ...
        second = manager.open_session()
        assert manager.tenant_count("acme") == 1
        # ... but binding it to the same tenant trips the ceiling.
        with pytest.raises(Overloaded):
            manager.bind_stream(second, "acme.b")

    def test_release_is_idempotent(self):
        manager = SessionManager()
        session = manager.open_session()
        manager.release(session)
        manager.release(session)
        assert session.state == "closed"
        assert manager.active_count() == 0

    def test_session_counters_and_dict(self):
        session = StreamSession(7, tenant="acme")
        session.note_events(3, bytes_=120)
        data = session.to_dict()
        assert data["id"] == 7
        assert data["events"] == 3
        assert data["bytes"] == 120
        assert data["state"] == "handshake"
        assert session.idle_for() < 1.0


# --------------------------------------------------------------------- #
# Unit layer: metrics
# --------------------------------------------------------------------- #


class TestServeMetrics:
    def test_counters_and_rendering(self):
        metrics = ServeMetrics()
        metrics.record_accept("acme")
        metrics.count("completed")
        metrics.count("shed", tenant="acme")
        metrics.add_events("acme", 10, bytes_=500)
        lines = metrics.render_lines()
        assert lines[-1] == "done stats"
        assert "accepted 1" in lines
        assert "completed 1" in lines
        assert "shed 1" in lines
        assert any(
            line.startswith("tenant acme events 10 bytes 500 streams 1 shed 1")
            for line in lines
        )

    def test_detector_fold_and_json(self):
        metrics = ServeMetrics()
        trace = random_trace(seed=2, n_events=40)
        result = run_engine(trace, detectors=["wcp"])
        metrics.record_result(result)
        metrics.record_result(result)
        data = metrics.to_dict()
        assert data["detectors"]["WCP"]["streams"] == 2
        assert data["detectors"]["WCP"]["events"] == 2 * result.events
        assert data["counters"]["accepted"] == 0
        assert data["latency"]["samples"] == 0
        json.dumps(data)  # the --metrics-port body must be serialisable

    def test_latency_quantiles(self):
        metrics = ServeMetrics(latency_samples=100)
        assert metrics.latency_quantile(0.99) is None
        for i in range(1, 101):
            metrics.observe_latency(i / 1000.0)
        assert metrics.latency_quantile(0.50) == pytest.approx(0.050, abs=0.002)
        assert metrics.latency_quantile(0.99) == pytest.approx(0.099, abs=0.002)
        rendered = metrics.render_lines()
        assert any(line.startswith("latency_p99_us") for line in rendered)


# --------------------------------------------------------------------- #
# Integration layer: RaceServer over real sockets
# --------------------------------------------------------------------- #


def _expected_lines(trace, detectors=("wcp", "hb")):
    """The exact wire reply ``analyze`` semantics dictate for ``trace``."""
    result = run_engine(
        IterableSource(iter(trace), name="x"), detectors=list(detectors)
    )
    lines = [
        "%s %d %d" % (name, report.count(), report.raw_race_count)
        for name, report in result.items()
    ]
    lines.append("done %d" % result.events)
    return lines


def _trace_lines(trace):
    return write_std(trace).strip("\n").split("\n")


async def _start_server(settings=None, detectors=("wcp", "hb"), config=None,
                        on_session_end=None):
    server = RaceServer(
        list(detectors),
        config=config,
        settings=settings or ServeSettings(port=0),
        on_session_end=on_session_end,
    )
    await server.start()
    return server


def _port(server):
    return server.listener.sockets[0].getsockname()[1]


async def _connect(server):
    return await asyncio.open_connection("127.0.0.1", _port(server))


async def _roundtrip(server, payload, chunks=1, delay=0.0):
    """Push ``payload`` over one connection (optionally in slices) and
    return the full response text."""
    reader, writer = await _connect(server)
    data = payload.encode("utf-8")
    step = max(1, len(data) // chunks)
    try:
        for start in range(0, len(data), step):
            writer.write(data[start:start + step])
            await writer.drain()
            if delay:
                await asyncio.sleep(delay)
        writer.write_eof()
    except (ConnectionResetError, BrokenPipeError):
        pass  # the server may have shed and closed already
    response = (await reader.read()).decode("utf-8")
    writer.close()
    return response


async def _until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not met in time"
        await asyncio.sleep(0.01)


def _race_fields(report_dict):
    """report_to_dict minus the timing noise: the byte-comparable part."""
    data = dict(report_dict)
    data.pop("stats")
    return data


class TestConcurrentClients:
    def test_simultaneous_clients_isolated_and_match_analyze(self):
        """Eight clients, each interleaving its pushes with the others,
        all get exactly the counts a standalone analyze produces."""
        traces = [
            random_trace(seed=seed, n_events=80, n_threads=4, n_vars=3)
            for seed in range(8)
        ]
        expected = [_expected_lines(trace) for trace in traces]

        async def run():
            server = await _start_server()
            try:
                responses = await asyncio.gather(*[
                    _roundtrip(server, write_std(trace), chunks=10,
                               delay=0.002)
                    for trace in traces
                ])
            finally:
                await server.close()
            return responses, server

        responses, server = asyncio.run(run())
        for response, lines in zip(responses, expected):
            assert response.strip().splitlines() == lines
        assert server.metrics.counters["accepted"] == 8
        assert server.metrics.counters["completed"] == 8
        assert server.metrics.tenants["-"]["events"] == sum(
            len(trace) for trace in traces
        )

    def test_tenants_accounted_separately(self):
        trace = random_trace(seed=3, n_events=30)
        payload_a = "# stream-id: acme.s1\n" + write_std(trace)
        payload_b = "# stream-id: globex.s1\n" + write_std(trace)

        async def run():
            server = await _start_server()
            try:
                await asyncio.gather(
                    _roundtrip(server, payload_a),
                    _roundtrip(server, payload_b),
                )
                return server.metrics.to_dict(server.manager)
            finally:
                await server.close()

        data = asyncio.run(run())
        assert set(data["tenants"]) == {"acme", "globex"}
        assert data["tenants"]["acme"]["events"] == len(trace)
        assert data["tenants"]["globex"]["events"] == len(trace)
        assert data["active_sessions"] == 0


class TestQuotaEnforcement:
    def test_global_connection_ceiling_sheds_extra(self):
        trace = random_trace(seed=5, n_events=30)

        async def run():
            server = await _start_server(
                settings=ServeSettings(port=0, max_connections=1)
            )
            try:
                # First client holds the only slot mid-handshake.
                reader, writer = await _connect(server)
                extra_reader, extra_writer = await _connect(server)
                shed = (await extra_reader.readline()).decode("utf-8")
                extra_writer.close()
                # The held client still completes normally afterwards.
                writer.write(write_std(trace).encode("utf-8"))
                writer.write_eof()
                await writer.drain()
                response = (await reader.read()).decode("utf-8")
                writer.close()
            finally:
                await server.close()
            return shed, response, server.metrics.counters

        shed, response, counters = asyncio.run(run())
        assert shed.startswith("error Overloaded: server at max connections")
        assert "retry after" in shed
        assert response.strip().splitlines() == _expected_lines(trace)
        assert counters["rejected"] == 1
        assert counters["completed"] == 1

    def test_per_tenant_stream_ceiling(self):
        async def run():
            server = await _start_server(
                settings=ServeSettings(
                    port=0,
                    quotas=QuotaManager(TenantQuota(max_streams=1)),
                )
            )
            try:
                reader, writer = await _connect(server)
                writer.write(b"# stream-id: acme.first\n")
                await writer.drain()
                await _until(
                    lambda: server.manager.tenant_count("acme") == 1
                )
                second = await _roundtrip(
                    server, "# stream-id: acme.second\nt1|w(x)\n"
                )
                writer.write_eof()
                await reader.read()
                writer.close()
            finally:
                await server.close()
            return second

        second = asyncio.run(run())
        assert second.startswith("error Overloaded: tenant 'acme'")
        assert "retry after" in second

    def test_rate_quota_sheds_noisy_tenant_in_quota_unaffected(self):
        """The acceptance property: an over-quota client is shed with an
        explicit error while an in-quota client on the same server gets
        byte-exact analyze results."""
        calm_trace = random_trace(seed=6, n_events=60)
        noisy_payload = "# stream-id: noisy.a\n" + (
            "t1|w(x)|spam:1\n" * 200
        )
        calm_payload = "# stream-id: calm.a\n" + write_std(calm_trace)

        async def run():
            quotas = QuotaManager(throttle_budget_s=0.01)
            quotas.set_quota(
                "noisy", TenantQuota(events_per_sec=5.0, burst_events=1.0)
            )
            server = await _start_server(
                settings=ServeSettings(port=0, quotas=quotas)
            )
            try:
                noisy, calm = await asyncio.gather(
                    _roundtrip(server, noisy_payload),
                    _roundtrip(server, calm_payload, chunks=5, delay=0.005),
                )
            finally:
                await server.close()
            return noisy, calm, server.metrics

        noisy, calm, metrics = asyncio.run(run())
        assert noisy.startswith("error Overloaded: tenant 'noisy' exceeded")
        assert "retry after" in noisy
        assert calm.strip().splitlines() == _expected_lines(calm_trace)
        assert metrics.counters["shed"] == 1
        assert metrics.tenants["noisy"]["shed"] == 1
        assert metrics.tenants["calm"]["shed"] == 0

    def test_memory_quota_sheds_growing_stream(self):
        trace = random_trace(seed=7, n_events=64, n_threads=4, n_vars=6)
        payload = "# stream-id: tiny.a\n" + write_std(trace)

        async def run():
            settings = ServeSettings(
                port=0,
                quotas=QuotaManager(TenantQuota(max_detector_bytes=1)),
                mem_check_every=16,
            )
            server = await _start_server(settings=settings)
            try:
                return await _roundtrip(server, payload), server.metrics
            finally:
                await server.close()

        response, metrics = asyncio.run(run())
        assert response.startswith("error Overloaded: detector state grew")
        assert metrics.counters["shed"] == 1


class TestObservability:
    def test_stats_inband_query(self):
        trace = random_trace(seed=8, n_events=30)

        async def run():
            server = await _start_server()
            try:
                await _roundtrip(server, write_std(trace))
                return await _roundtrip(server, "/stats\n")
            finally:
                await server.close()

        response = asyncio.run(run())
        lines = response.strip().splitlines()
        assert lines[0].startswith("uptime_s ")
        assert lines[-1] == "done stats"
        assert "completed 1" in lines
        assert any(line.startswith("tenant - events %d" % len(trace))
                   for line in lines)
        assert any(line.startswith("detector WCP ") for line in lines)

    def test_metrics_http_endpoint(self):
        trace = random_trace(seed=9, n_events=30)

        async def http(address, request):
            reader, writer = await asyncio.open_connection(*address)
            writer.write(request)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            head, _, body = raw.partition(b"\r\n\r\n")
            return head.decode("ascii").splitlines()[0], body

        async def run():
            server = await _start_server(
                settings=ServeSettings(port=0, metrics_port=0)
            )
            try:
                assert server.metrics_address is not None
                await _roundtrip(server, write_std(trace))
                status, body = await http(
                    server.metrics_address,
                    b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n",
                )
                refused, _ = await http(
                    server.metrics_address,
                    b"POST /stats HTTP/1.1\r\nHost: x\r\n\r\n",
                )
            finally:
                await server.close()
            return status, body, refused

        status, body, refused = asyncio.run(run())
        assert status == "HTTP/1.1 200 OK"
        data = json.loads(body)
        assert data["counters"]["completed"] == 1
        assert data["tenants"]["-"]["events"] == len(trace)
        assert data["active_sessions"] == 0
        assert refused.startswith("HTTP/1.1 405")

    def test_structured_event_log(self, caplog):
        trace = random_trace(seed=10, n_events=20)
        payload = "# stream-id: acme.logged\n" + write_std(trace)

        async def run():
            server = await _start_server()
            try:
                await _roundtrip(server, payload)
            finally:
                await server.close()

        with caplog.at_level(logging.INFO, logger="repro.serve"):
            asyncio.run(run())
        messages = [record.getMessage() for record in caplog.records]
        assert any(
            message.startswith("accept ") and "tenant=acme" in message
            for message in messages
        )
        assert any(message.startswith("complete ") for message in messages)

    def test_abrupt_disconnect_recorded_cleanly(self):
        import socket
        import struct

        async def run():
            server = await _start_server()
            try:
                reader, writer = await _connect(server)
                writer.write(b"t1|w(x)|a:1\nt1|w(x)|a:2\n")
                await writer.drain()
                await _until(lambda: server.manager.queue_depth() == 0
                             and server.metrics.tenants)
                # SO_LINGER(0) + abort sends a genuine RST, not a FIN --
                # the rude case a plain close() cannot reproduce.
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                writer.transport.abort()
                await _until(
                    lambda: server.metrics.counters["disconnected"] >= 1
                )
            finally:
                await server.close()
            return server.metrics.counters, server.manager.active_count()

        counters, active = asyncio.run(run())
        assert counters["disconnected"] >= 1
        assert counters["completed"] == 0
        assert active == 0


class TestEvictionAndDrain:
    """Interruption must be invisible in the report: the acceptance
    criterion is byte-identical output versus an uninterrupted run."""

    def _evict_settings(self, directory):
        return ServeSettings(
            port=0,
            checkpoint_dir=str(directory),
            idle_poll_s=0.02,
            idle_evict_after_s=0.05,
        )

    def test_evicted_and_restored_report_byte_identical(self, tmp_path):
        trace = random_trace(seed=11, n_events=60, n_threads=4)
        lines = _trace_lines(trace)
        half = len(lines) // 2
        captured = []

        async def interrupted():
            server = await _start_server(
                settings=self._evict_settings(tmp_path / "ev"),
                on_session_end=lambda session, result:
                    captured.append((session, result)),
            )
            try:
                reader, writer = await _connect(server)
                writer.write(b"# stream-id: acme.ev\n")
                await writer.drain()
                assert (await reader.readline()) == b"resume 0\n"
                writer.write(("\n".join(lines[:half]) + "\n").encode())
                await writer.drain()
                # Go quiet until the session is checkpointed out.
                await _until(
                    lambda: server.metrics.counters["evicted"] >= 1
                )
                writer.write(("\n".join(lines[half:]) + "\n").encode())
                writer.write_eof()
                await writer.drain()
                response = (await reader.read()).decode("utf-8")
                writer.close()
            finally:
                await server.close()
            return response

        async def uninterrupted():
            server = await _start_server(
                settings=ServeSettings(
                    port=0, checkpoint_dir=str(tmp_path / "base")
                ),
                on_session_end=lambda session, result:
                    captured.append((session, result)),
            )
            try:
                return await _roundtrip(
                    server, "# stream-id: acme.ev\n" + write_std(trace)
                )
            finally:
                await server.close()

        response = asyncio.run(interrupted())
        baseline = asyncio.run(uninterrupted())
        assert response == baseline.replace("resume 0\n", "", 1)

        (evicted_session, evicted_result), (_, base_result) = captured
        assert evicted_session.evictions == 1
        assert evicted_session.restores == 1
        # Byte-identical reports: witnesses, distances, counts.
        for name in evicted_result.keys():
            assert _race_fields(report_to_dict(evicted_result[name])) == \
                _race_fields(report_to_dict(base_result[name]))
        # Clean completion removed the stream's recovery state.
        assert not (tmp_path / "ev" / "acme.ev").exists()

    def test_eof_while_evicted_restores_for_the_report(self, tmp_path):
        trace = random_trace(seed=12, n_events=40)

        async def run():
            server = await _start_server(
                settings=self._evict_settings(tmp_path)
            )
            try:
                reader, writer = await _connect(server)
                writer.write(
                    b"# stream-id: acme.eof\n" + write_std(trace).encode()
                )
                await writer.drain()
                await reader.readline()  # resume 0
                await _until(
                    lambda: server.metrics.counters["evicted"] >= 1
                )
                writer.write_eof()
                response = (await reader.read()).decode("utf-8")
                writer.close()
            finally:
                await server.close()
            return response, server.metrics.counters

        response, counters = asyncio.run(run())
        assert response.strip().splitlines() == _expected_lines(trace)
        assert counters["evicted"] == 1
        assert counters["restored"] == 1

    def test_drain_and_reattach_report_byte_identical(self, tmp_path):
        """SIGTERM semantics end to end: the drained server checkpoints
        the live session and advertises ``resume <offset>``; replaying
        from the offset against a fresh instance yields the exact
        uninterrupted report."""
        trace = random_trace(seed=13, n_events=60, n_threads=4)
        lines = _trace_lines(trace)
        half = len(lines) // 2
        captured = []

        def capture(session, result):
            captured.append((session, result))

        async def first_instance():
            server = await _start_server(
                settings=self._evict_settings(tmp_path),
                on_session_end=capture,
            )
            try:
                reader, writer = await _connect(server)
                writer.write(b"# stream-id: acme.dr\n")
                await writer.drain()
                assert (await reader.readline()) == b"resume 0\n"
                writer.write(("\n".join(lines[:half]) + "\n").encode())
                await writer.drain()
                await _until(
                    lambda: server.manager.live()
                    and server.manager.live()[0].events == half
                )
                # What SIGTERM invokes (the handler is request_drain).
                server.request_drain()
                resume = (await reader.readline()).decode("utf-8")
                assert (await reader.read()) == b""  # server closed us
                writer.close()
                await server.wait_closed()
            finally:
                await server.close()
            return resume

        async def second_instance(offset):
            server = await _start_server(
                settings=self._evict_settings(tmp_path),
                on_session_end=capture,
            )
            try:
                reader, writer = await _connect(server)
                writer.write(b"# stream-id: acme.dr\n")
                await writer.drain()
                resume = (await reader.readline()).decode("utf-8")
                assert resume == "resume %d\n" % offset
                writer.write(("\n".join(lines[offset:]) + "\n").encode())
                writer.write_eof()
                await writer.drain()
                response = (await reader.read()).decode("utf-8")
                writer.close()
            finally:
                await server.close()
            return response

        async def uninterrupted():
            server = await _start_server(
                settings=ServeSettings(
                    port=0, checkpoint_dir=str(tmp_path / "base")
                ),
                on_session_end=capture,
            )
            try:
                return await _roundtrip(
                    server, "# stream-id: acme.dr\n" + write_std(trace)
                )
            finally:
                await server.close()

        resume = asyncio.run(first_instance())
        assert resume.startswith("resume ")
        offset = int(resume.split()[1])
        assert offset == half

        response = asyncio.run(second_instance(offset))
        baseline = asyncio.run(uninterrupted())
        # second_instance consumed its "resume <offset>" line already;
        # strip the baseline's "resume 0" for the byte comparison.
        assert response == baseline.split("\n", 1)[1]

        drained = captured[0][0]
        assert drained.state in ("draining", "closed")
        resumed_result = captured[1][1]
        base_result = captured[2][1]
        assert resumed_result.events == len(trace)
        for name in resumed_result.keys():
            assert _race_fields(report_to_dict(resumed_result[name])) == \
                _race_fields(report_to_dict(base_result[name]))

    def test_connection_during_drain_is_refused(self, tmp_path):
        async def run():
            server = await _start_server(
                settings=ServeSettings(port=0)
            )
            port = _port(server)
            server.request_drain()
            try:
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                except ConnectionError:
                    return "refused"
                reply = (await reader.read()).decode("utf-8")
                writer.close()
                return reply
            finally:
                await server.close()

        reply = asyncio.run(run())
        # Either the closed listener refuses outright or the in-flight
        # accept answers with the explicit draining error.
        assert reply == "refused" or reply.startswith("error Draining:")


# --------------------------------------------------------------------- #
# CLI layer
# --------------------------------------------------------------------- #


class TestServeCli:
    def test_new_serve_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args([
            "serve", "--port", "0",
            "--max-connections", "8",
            "--max-streams-per-tenant", "2",
            "--max-events-per-sec", "1000",
            "--burst-events", "50",
            "--max-detector-bytes", "1048576",
            "--throttle-budget", "0.25",
            "--idle-evict-after", "30",
            "--metrics-port", "0",
            "--log-level", "info",
        ])
        assert args.max_connections == 8
        assert args.max_streams_per_tenant == 2
        assert args.max_events_per_sec == 1000.0
        assert args.throttle_budget == 0.25
        assert args.idle_evict_after == 30.0
        assert args.log_level == "info"

    def test_serve_flags_build_a_governed_server(self):
        from repro.cli import _build_parser, _make_serve_server

        args = _build_parser().parse_args([
            "serve", "--port", "0", "--max-connections", "4",
            "--max-streams-per-tenant", "2", "--max-events-per-sec", "100",
            "--throttle-budget", "0.5",
        ])
        server = _make_serve_server(args)
        assert server.settings.max_connections == 4
        assert server.settings.quotas.throttle_budget_s == 0.5
        quota = server.settings.quotas.quota_for("anyone")
        assert quota.max_streams == 2
        assert quota.events_per_sec == 100.0

    def test_stats_detectors_cost_table(self, tmp_path, capsys):
        from repro.cli import main

        trace = random_trace(seed=14, n_events=40)
        path = tmp_path / "t.std"
        path.write_text(write_std(trace))
        assert main(["stats", str(path), "--detectors", "wcp,hb"]) == 0
        out = capsys.readouterr().out
        assert "per-detector cost over %d event(s)" % len(trace) in out
        assert "WCP" in out and "HB" in out
        assert "state(B)" in out

    def test_stats_detectors_rejects_unknown(self, tmp_path, capsys):
        from repro.cli import main

        trace = random_trace(seed=15, n_events=10)
        path = tmp_path / "t.std"
        path.write_text(write_std(trace))
        assert main(["stats", str(path), "--detectors", "quantum"]) == 2


# --------------------------------------------------------------------- #
# Fault injection: client disconnects and supervision observability
# --------------------------------------------------------------------- #


class TestServeFaultInjection:
    def test_injected_midstream_disconnect_is_governed(self):
        """A connection dropped mid-stream (injected deterministically)
        must finish with the governed `disconnected` counter -- never a
        hang or a traceback-shaped reply."""
        from repro import Fault, FaultPlan

        trace = random_trace(seed=71, n_events=60, n_threads=3)
        plan = FaultPlan([Fault.disconnect(20)])

        async def run():
            server = await _start_server(
                settings=ServeSettings(port=0, fault_plan=plan)
            )
            try:
                await _roundtrip(server, write_std(trace))
                await _until(
                    lambda: server.metrics.counters["disconnected"] >= 1
                )
            finally:
                await server.close()
            return server.metrics.counters

        counters = asyncio.run(run())
        assert counters["disconnected"] == 1
        assert counters["completed"] == 0
        assert counters["errored"] == 0
        assert not plan.unfired()

    def test_midline_client_close_counts_as_disconnect(self):
        """A client that dies mid-line (no trailing newline before EOF)
        is a disconnect, not a parse error."""

        async def run():
            server = await _start_server()
            try:
                reader, writer = await _connect(server)
                # Two whole events, then a partial line and EOF.
                writer.write(b"t1|w(x)|a:1\nt1|w(x)|a:2\nt2|w(")
                await writer.drain()
                writer.write_eof()
                await _until(
                    lambda: server.metrics.counters["disconnected"] >= 1
                )
                writer.close()
            finally:
                await server.close()
            return server.metrics.counters

        counters = asyncio.run(run())
        assert counters["disconnected"] == 1
        assert counters["completed"] == 0
        assert counters["errored"] == 0

    def test_stats_surface_supervision_counters(self):
        trace = random_trace(seed=73, n_events=30)

        async def run():
            server = await _start_server()
            try:
                await _roundtrip(server, write_std(trace))
                stats = await _roundtrip(server, "/stats\n")
                data = server.metrics.to_dict(server.manager)
            finally:
                await server.close()
            return stats, data

        stats, data = asyncio.run(run())
        assert "worker_restarts 0" in stats.splitlines()
        assert "shutdown_escalations 0" in stats.splitlines()
        assert data["supervision"] == {
            "worker_restarts": 0, "heartbeat_timeouts": 0,
            "snapshot_fallbacks": 0, "shutdown_escalations": 0,
            "coordinator_restarts": 0,
        }

    def test_metrics_fold_supervision_off_results(self):
        metrics = ServeMetrics()

        class _Result:
            events = 10
            supervision = {
                "worker_restarts": 2, "heartbeat_timeouts": 1,
                "snapshot_fallbacks": 0, "shutdown_escalations": 3,
                "restarts_by_shard": {0: 2},
            }

            def items(self):
                return []

        metrics.record_result(_Result())
        metrics.record_result(_Result())
        assert metrics.supervision["worker_restarts"] == 4
        assert metrics.supervision["heartbeat_timeouts"] == 2
        assert metrics.supervision["shutdown_escalations"] == 6
        lines = metrics.render_lines()
        assert "worker_restarts 4" in lines
        assert metrics.to_dict()["supervision"]["worker_restarts"] == 4


# --------------------------------------------------------------------- #
# Handshake timeout (serve --handshake-timeout)
# --------------------------------------------------------------------- #


class TestHandshakeTimeout:
    def test_silent_connection_is_bounded_and_counted(self):
        """A connection that never sends its first line is answered with
        one actionable error line (no traceback) and counted."""

        async def run():
            server = await _start_server(
                settings=ServeSettings(port=0, handshake_timeout_s=0.2),
            )
            reader, writer = await _connect(server)
            response = (await reader.read()).decode("utf-8")
            writer.close()
            assert response.startswith("error Timeout: no handshake line")
            await _until(
                lambda: server.metrics.counters["handshake_timeout"] == 1
            )
            assert "handshake_timeout 1" in server.metrics.render_lines()
            await server.close()

        asyncio.run(run())

    def test_prompt_first_line_is_unaffected(self):
        async def run():
            server = await _start_server(
                settings=ServeSettings(port=0, handshake_timeout_s=5.0),
            )
            trace = random_trace(seed=3, n_events=40, n_threads=3, n_vars=3)
            response = await _roundtrip(server, write_std(trace))
            assert "done" in response
            assert server.metrics.counters["handshake_timeout"] == 0
            await server.close()

        asyncio.run(run())


# --------------------------------------------------------------------- #
# Batch granularity: the drive loop steps decoded batches, one per
# socket read.  A push whose lines arrive in one read puts every offset
# below mid-batch; each stop, fault, shed and error must still land on
# exactly the event it landed on when the hand-off was per event.
# --------------------------------------------------------------------- #


def _one_read_payload(std_text):
    """Directive plus the whole stream in one write: the directive is
    consumed by the handshake, so every event arrives in one read."""
    payload = "# stream-id: batch.s\n" + std_text
    assert len(payload) < 65536
    return payload


async def _push_once(settings, payload, config=None):
    """Serve one push; return (response, metrics counters, session)."""
    ended = []
    server = await _start_server(
        settings=settings, config=config,
        on_session_end=lambda session, result: ended.append(session),
    )
    try:
        response = await _roundtrip(server, payload)
        await _until(lambda: ended)
    finally:
        await server.close()
    return response, server.metrics.counters, ended[0]


class TestBatchGranularity:
    def test_peeked_first_line_reports_like_analyze(self):
        # Without a directive the handshake peeks at the first event
        # line; it joins the first read's block, and the reply is still
        # exactly what analyze reports.
        trace = random_trace(seed=84, n_events=400, n_threads=4)
        response, _, session = asyncio.run(_push_once(
            ServeSettings(port=0), write_std(trace),
        ))
        assert response.strip().splitlines() == _expected_lines(trace)
        assert session.events == len(trace)

    def test_max_events_stops_mid_batch(self):
        trace = random_trace(seed=81, n_events=120, n_threads=3)
        config = EngineConfig().stop_after_events(37)
        response, counters, session = asyncio.run(_push_once(
            ServeSettings(port=0), _one_read_payload(write_std(trace)),
            config=config,
        ))
        assert response.strip().splitlines()[-1] == "done 37"
        assert session.events == 37
        assert counters["completed"] == 1

    def test_injected_disconnect_mid_batch(self):
        from repro import Fault, FaultPlan

        trace = random_trace(seed=82, n_events=120, n_threads=3)
        plan = FaultPlan([Fault.disconnect(45)])
        _, counters, session = asyncio.run(_push_once(
            ServeSettings(port=0, fault_plan=plan),
            _one_read_payload(write_std(trace)),
        ))
        assert counters["disconnected"] == 1
        assert counters["completed"] == 0
        # The faulting event was stepped but is not accounted: the
        # session saw the 44 events before it.
        assert session.events == 44
        assert not plan.unfired()

    def test_memory_quota_sheds_at_the_same_offset(self):
        trace = random_trace(seed=83, n_events=120, n_threads=4, n_vars=6)
        settings = ServeSettings(
            port=0,
            quotas=QuotaManager(TenantQuota(max_detector_bytes=1)),
            mem_check_every=7,
        )
        response, counters, session = asyncio.run(
            _push_once(settings, _one_read_payload(write_std(trace)))
        )
        assert response.startswith("error Overloaded: detector state grew")
        assert counters["shed"] == 1
        assert session.events == 7

    def test_validation_error_mid_batch(self):
        from repro import OnlineValidator
        from repro.trace.parsers import parse_std_batch

        lines = _trace_lines(random_trace(seed=84, n_events=60, n_threads=3))
        # A release of a lock nobody holds, at event 50.
        lines.insert(50, "t9|rel(l0)|bad:1")
        events, _, _ = parse_std_batch(lines)
        validator = OnlineValidator()
        with pytest.raises(ValueError) as info:
            for event in events:
                validator.check(event)
        expected = "error %s: %s" % (type(info.value).__name__, info.value)

        payload = _one_read_payload("\n".join(lines) + "\n")
        response, counters, session = asyncio.run(
            _push_once(ServeSettings(port=0), payload)
        )
        assert response.strip() == expected
        assert counters["errored"] == 1
        assert session.events == 50


def _throttled_settings(**kwargs):
    """Settings whose drive loop sleeps 1.5 s on every event.

    A burst below one token means no event is ever granted outright:
    each waits (1 - 0.5) / (1 / 3) s, well inside the throttle budget.
    The pump keeps reading meanwhile, which is the blocked-drive state.
    """
    quotas = QuotaManager(
        TenantQuota(events_per_sec=1 / 3, burst_events=0.5),
        throttle_budget_s=10.0,
    )
    return ServeSettings(port=0, quotas=quotas, **kwargs)


class TestHandOffBounds:
    def test_blocked_drive_bounds_what_the_server_reads(self, monkeypatch):
        from repro.serve.server import SessionDriver

        read = [0]
        original = SessionDriver._count_bytes

        def counting(self, raw):
            original(self, raw)
            read[0] = self._bytes_read  # bytes the decoder consumed

        monkeypatch.setattr(SessionDriver, "_count_bytes", counting)
        settings = _throttled_settings()
        payload = b"t1|w(x)|a:1\n" * 200_000  # 2.4 MB

        async def run():
            server = await _start_server(settings=settings)
            try:
                reader, writer = await _connect(server)
                writer.write(payload)
                # The drive loop sleeps on event 1; give the pump time to
                # fill the queue and the transport time to pause.
                await asyncio.sleep(0.4)
                seen = read[0]
                writer.transport.abort()
            finally:
                await server.close()
            return seen

        seen = asyncio.run(run())
        assert 0 < seen <= (settings.queue_maxsize + 2) * 65536

    def test_queue_depth_counts_events(self):
        async def run():
            server = await _start_server(settings=_throttled_settings())
            try:
                reader, writer = await _connect(server)
                # The handshake line and the next read make the first
                # block: the drive loop takes it and sleeps.
                writer.write(b"t1|w(x)|a:1\n")
                await writer.drain()
                await _until(lambda: server.manager.live()
                             and server.manager.live()[0].state == "active")
                writer.write(b"t1|w(x)|a:2\n" * 30)
                await writer.drain()
                await asyncio.sleep(0.05)
                for count in (70, 90):
                    writer.write(b"t1|w(x)|a:2\n" * count)
                    await writer.drain()
                    await asyncio.sleep(0.05)
                await _until(lambda: server.manager.queue_depth() == 160,
                             timeout=1.0)
                session = server.manager.live()[0].to_dict()
                lines = server.metrics.render_lines(server.manager)
                writer.transport.abort()
            finally:
                await server.close()
            return session, lines

        session, lines = asyncio.run(run())
        assert session["queue_depth"] == 160
        assert "queue_depth 160" in lines


class TestServeRetention:
    def test_long_running_serve_keeps_no_finished_results(self, monkeypatch):
        """Without --once, a finished session's EngineResult must be
        garbage once its reply is sent: a long-running server would
        otherwise grow by one result per push."""
        import gc
        import weakref

        from repro.cli import _build_parser, _serve_async
        from repro.serve.server import SessionDriver

        refs = []
        original = SessionDriver._finish

        async def finish(self):
            result = await original(self)
            refs.append(weakref.ref(result))
            return result

        monkeypatch.setattr(SessionDriver, "_finish", finish)
        args = _build_parser().parse_args(
            ["serve", "--port", "0", "--detector", "wcp,hb"]
        )
        trace = random_trace(seed=85, n_events=50, n_threads=3)

        async def run():
            holder = {}
            task = asyncio.ensure_future(
                _serve_async(args, ready=lambda listener: holder.update(s=listener))
            )
            await _until(lambda: "s" in holder)
            port = holder["s"].sockets[0].getsockname()[1]
            try:
                for _ in range(3):
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    writer.write(write_std(trace).encode("utf-8"))
                    writer.write_eof()
                    reply = await reader.read()
                    assert reply.endswith(b"done %d\n" % len(trace))
                    writer.close()
                # The session ends (and on_session_end runs) just after
                # the reply; poll until every result could be freed.
                deadline = time.monotonic() + 2.0
                while time.monotonic() < deadline:
                    gc.collect()
                    if len(refs) == 3 and all(ref() is None for ref in refs):
                        break
                    await asyncio.sleep(0.02)
                return [ref() is None for ref in refs]
            finally:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass

        assert asyncio.run(run()) == [True, True, True]

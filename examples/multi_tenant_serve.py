#!/usr/bin/env python
"""The multi-tenant serve tier: quotas, shedding, eviction, drain, metrics.

``repro-race serve`` is more than one engine pass per connection: it is
a governed service.  This walkthrough drives an in-process
:class:`~repro.RaceServer` through the full lifecycle with real socket
clients, one scenario per feature:

1. **Tenancy and isolation** -- three tenants stream concurrently; each
   gets exactly the report a standalone ``analyze`` would produce, and
   the metrics surface attributes events per tenant.  Tenancy rides on
   the existing crash-recovery handshake: the part of
   ``# stream-id: <tenant>.<stream>`` before the first dot names the
   tenant, no new wire syntax.
2. **Quotas and explicit load-shedding** -- a noisy tenant exceeds its
   events/sec token bucket and is shed with one explicit
   ``error Overloaded: ...; retry after <n>s`` line, while an in-quota
   tenant on the same server is untouched.  Small deficits throttle
   (TCP backpressure); only deficits beyond the throttle budget shed.
3. **Idle-stream eviction** -- a stream goes quiet; the server
   checkpoints its detector state through the snapshot protocol and
   releases the memory.  The tenant's next events restore it
   transparently: the final report is byte-identical to an undisturbed
   run.
4. **Graceful drain** -- SIGTERM semantics: the server stops accepting,
   checkpoints the live session durably and replies
   ``resume <offset>``; the client re-attaches to a *fresh* instance,
   which advertises the same offset, replays from there, and completes
   the exact report.
5. **The metrics surface** -- the in-band ``/stats`` first-line query
   (flat ``key value`` lines) and the same data as JSON, the shape the
   ``--metrics-port`` HTTP endpoint serves.

The CLI equivalent of this server is::

    repro-race serve --port 7777 --detector wcp,hb \
        --max-connections 64 --max-streams-per-tenant 4 \
        --max-events-per-sec 10000 --checkpoint-dir /var/lib/repro \
        --idle-evict-after 300 --metrics-port 7778 --log-level info

Run with::

    python examples/multi_tenant_serve.py
"""

import asyncio
import json
import tempfile

from repro import (
    QuotaManager,
    RaceServer,
    ServeSettings,
    TenantQuota,
)

# One racy stream, shared by every scenario: t2 reads ``counter``
# *before* taking the lock, so nothing orders it against t1's write --
# a race.  The lock-protected ``shared`` accesses are properly ordered.
STREAM = (
    "t1|w(counter)|app.py:10\n"
    "t1|acq(lock)|app.py:11\n"
    "t1|w(shared)|app.py:12\n"
    "t1|rel(lock)|app.py:13\n"
    "t2|r(counter)|app.py:29\n"
    "t2|acq(lock)|app.py:30\n"
    "t2|r(shared)|app.py:31\n"
    "t2|rel(lock)|app.py:32\n"
)


def _port(server):
    return server.listener.sockets[0].getsockname()[1]


async def push(server, payload, label=""):
    """One client: stream ``payload``, return the server's full reply."""
    reader, writer = await asyncio.open_connection("127.0.0.1", _port(server))
    writer.write(payload.encode("utf-8"))
    writer.write_eof()
    await writer.drain()
    reply = (await reader.read()).decode("utf-8")
    writer.close()
    if label:
        for line in reply.strip().splitlines():
            print("  %s<- %s" % (label, line))
    return reply


async def scenario_tenancy():
    print("— tenancy: three tenants, isolated reports, attributed metrics")
    server = await RaceServer(["wcp", "hb"]).start()
    try:
        await asyncio.gather(
            push(server, "# stream-id: acme.orders\n" + STREAM, "acme    "),
            push(server, "# stream-id: globex.jobs\n" + STREAM, "globex  "),
            push(server, "# stream-id: initech.tps\n" + STREAM, "initech "),
        )
        for tenant, stats in server.metrics.to_dict()["tenants"].items():
            print("  tenant %-8s events=%d streams=%d"
                  % (tenant, stats["events"], stats["streams"]))
    finally:
        await server.close()


async def scenario_quotas():
    print("\n— quotas: the noisy tenant is shed, the calm one unaffected")
    quotas = QuotaManager(throttle_budget_s=0.05)
    quotas.set_quota("noisy", TenantQuota(events_per_sec=10, burst_events=2))
    server = await RaceServer(
        ["wcp"], settings=ServeSettings(port=0, quotas=quotas)
    ).start()
    try:
        noisy = "# stream-id: noisy.spam\n" + "t1|w(x)|spam:1\n" * 100
        calm = "# stream-id: calm.work\n" + STREAM
        await asyncio.gather(
            push(server, noisy, "noisy "),
            push(server, calm, "calm  "),
        )
        print("  shed counter: %d" % server.metrics.counters["shed"])
    finally:
        await server.close()


async def scenario_eviction():
    print("\n— eviction: a quiet stream is checkpointed out, then restored")
    with tempfile.TemporaryDirectory() as directory:
        settings = ServeSettings(
            port=0, checkpoint_dir=directory, idle_evict_after_s=0.05,
        )
        server = await RaceServer(["wcp", "hb"], settings=settings).start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", _port(server)
            )
            writer.write(b"# stream-id: acme.sleepy\n")
            await writer.drain()
            print("  handshake <- %s"
                  % (await reader.readline()).decode().strip())
            lines = STREAM.splitlines(keepends=True)
            writer.write("".join(lines[:4]).encode())
            await writer.drain()
            while not server.metrics.counters["evicted"]:
                await asyncio.sleep(0.02)  # stream idle: eviction fires
            session = server.manager.live()[0]
            print("  evicted after %d event(s); detector state on disk: "
                  "%d bytes" % (session.events,
                                session.detector_memory_bytes))
            writer.write("".join(lines[4:]).encode())
            writer.write_eof()
            await writer.drain()
            reply = (await reader.read()).decode("utf-8")
            writer.close()
            print("  restored transparently; final report:")
            for line in reply.strip().splitlines():
                print("    <- %s" % line)
        finally:
            await server.close()


async def scenario_drain():
    print("\n— drain: SIGTERM-style handoff to a fresh instance")
    with tempfile.TemporaryDirectory() as directory:
        settings = lambda: ServeSettings(  # noqa: E731 - two instances
            port=0, checkpoint_dir=directory,
        )
        first = await RaceServer(["wcp", "hb"], settings=settings()).start()
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", _port(first)
        )
        writer.write(b"# stream-id: acme.longrun\n")
        await writer.drain()
        await reader.readline()  # resume 0
        lines = STREAM.splitlines(keepends=True)
        writer.write("".join(lines[:4]).encode())
        await writer.drain()
        while not (first.manager.live()
                   and first.manager.live()[0].events == 4):
            await asyncio.sleep(0.02)
        first.request_drain()  # what the SIGTERM handler calls
        offset = int((await reader.readline()).split()[1])
        writer.close()
        await first.close()
        print("  first instance drained; client told: resume %d" % offset)

        second = await RaceServer(["wcp", "hb"], settings=settings()).start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", _port(second)
            )
            writer.write(b"# stream-id: acme.longrun\n")
            await writer.drain()
            advertised = int((await reader.readline()).split()[1])
            print("  fresh instance advertises: resume %d" % advertised)
            writer.write("".join(lines[advertised:]).encode())
            writer.write_eof()
            await writer.drain()
            reply = (await reader.read()).decode("utf-8")
            writer.close()
            print("  replayed the tail; merged report:")
            for line in reply.strip().splitlines():
                print("    <- %s" % line)
        finally:
            await second.close()


async def scenario_metrics():
    print("\n— metrics: the in-band /stats query (and the JSON shape)")
    server = await RaceServer(["wcp"]).start()
    try:
        await push(server, "# stream-id: acme.m\n" + STREAM)
        stats = await push(server, "/stats\n")
        wanted = ("accepted", "completed", "tenant ", "detector ", "done")
        for line in stats.strip().splitlines():
            if line.startswith(wanted):
                print("  <- %s" % line)
        blob = server.metrics.to_dict(server.manager)
        print("  JSON (the --metrics-port body): counters=%s"
              % json.dumps(blob["counters"]))
    finally:
        await server.close()


async def main():
    await scenario_tenancy()
    await scenario_quotas()
    await scenario_eviction()
    await scenario_drain()
    await scenario_metrics()


if __name__ == "__main__":
    asyncio.run(main())

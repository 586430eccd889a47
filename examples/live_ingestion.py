#!/usr/bin/env python
"""Live ingestion: push events into the engine instead of pulling them.

Three escalating scenarios:

1. **Callback producers** -- an instrumentation hook on another thread
   ``put``s events into a bounded :class:`~repro.QueueSource` while the
   engine drains it.  The queue's bound is the backpressure
   contract: a producer outrunning the analysis blocks instead of
   buffering unboundedly.
2. **Socket ingestion** -- a logger streams the STD line protocol
   (``thread|op(arg)[|loc]``, the same bytes it would write to a log
   file) over a unix socket to an embedded race server
   (:func:`~repro.start_race_server`, what ``repro-race serve`` runs),
   which analyses the stream as it arrives and answers with the race
   counts; the logger is a :class:`~repro.RaceClient` ``push``.
3. **Online validation** -- the same socket path rejecting a malformed
   stream (two overlapping critical sections over one lock) with the
   exact error a batch ``Trace(validate=True)`` would raise, caught in
   O(1) per event *before* it can corrupt detector state.

Run with::

    python examples/live_ingestion.py
"""

import asyncio
import os
import tempfile
import threading

from repro import (
    EventType,
    PushError,
    QueueSource,
    RaceClient,
    ServeSettings,
    detect_races,
    start_race_server,
)


def scenario_queue():
    """A producer thread pushes events; the engine analyses concurrently."""
    source = QueueSource(name="instrumented-app", maxsize=16)

    def producer():
        # An instrumentation callback would do exactly this, one call
        # per intercepted operation (the shape is the paper's Figure 2b:
        # the race on ``counter`` is invisible to happens-before).
        source.push("t1", EventType.WRITE, "counter", loc="app.py:10")
        source.push("t1", EventType.ACQUIRE, "lock")
        source.push("t1", EventType.WRITE, "shared", loc="app.py:12")
        source.push("t1", EventType.RELEASE, "lock")
        source.push("t2", EventType.ACQUIRE, "lock")
        source.push("t2", EventType.READ, "counter", loc="app.py:30")
        source.push("t2", EventType.READ, "shared", loc="app.py:31")
        source.push("t2", EventType.RELEASE, "lock")
        source.close()

    thread = threading.Thread(target=producer)
    thread.start()
    report = detect_races(source)  # blocks on the queue until close()
    thread.join()
    print("1. queue push: %d WCP race(s) from %r" % (
        report.count(), source.name
    ))
    for pair in report.pairs():
        print("   %s" % (pair,))


async def push_to_server(lines):
    """Push ``lines`` to a fresh server on a unix socket; return the reply.

    The server (WCP + HB, online validation on) runs on this event loop;
    the client is blocking, so it pushes from a worker thread.
    """
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "serve.sock")
        server = await start_race_server(
            ["wcp", "hb"], settings=ServeSettings(socket_path=path)
        )
        try:
            client = RaceClient(socket_path=path, retries=0)
            return await asyncio.to_thread(client.push, lines)
        finally:
            await server.close()


async def scenario_socket():
    """A logger pushes STD lines over a socket; the server analyses them."""
    # The "logger": any process that can open a socket, sending the same
    # lines it would append to a trace file.
    outcome = await push_to_server([
        "t1|w(y)|Worker.java:12",
        "t1|acq(lock)",
        "t1|w(x)|Worker.java:14",
        "t1|rel(lock)",
        "t2|acq(lock)",
        "t2|r(y)|Monitor.java:40",
        "t2|r(x)|Monitor.java:41",
        "t2|rel(lock)",
    ])
    print("2. socket push: %d event(s), WCP %d race(s), HB %d race(s)" % (
        outcome.events, outcome.races["WCP"][0], outcome.races["HB"][0]
    ))


async def scenario_validation():
    """The online validator rejects a malformed stream at the socket."""
    try:
        # Two threads inside the same critical section: not a trace.
        await push_to_server(["t1|acq(lock)", "t2|acq(lock)"])
    except PushError as error:
        # The server answers "error <Type>: <message>" on the wire.
        print("3. malformed stream rejected: %s" % (
            str(error).partition(": error ")[2]
        ))


def main():
    scenario_queue()
    asyncio.run(scenario_socket())
    asyncio.run(scenario_validation())


if __name__ == "__main__":
    main()

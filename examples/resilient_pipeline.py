#!/usr/bin/env python
"""End-to-end resilience: crash-surviving runs and a reconnecting client.

Two halves of the same guarantee -- a race-prediction pipeline whose
*whole process tree* can fail mid-run without changing the answer:

1. the **run supervisor** (:class:`~repro.engine.RunSupervisor`, the
   machinery behind ``analyze --auto-resume``) executes the engine in a
   supervised child process; when that child is hard-killed mid-stream
   it forks a fresh one that resumes from the newest intact checkpoint,
   and the final report is **identical** to the uninterrupted run;
2. the **resilient client** (:class:`~repro.RaceClient`, the machinery
   behind ``repro-race push``) streams a trace to a ``repro-race
   serve`` instance through refused connects, a mid-line connection
   reset and a stalled read -- reconnecting with exponential backoff
   and resuming exactly from the server's ``resume <offset>`` reply --
   and the response is **byte-identical** to an undisturbed push;
3. when the network is *actually* down, exhaustion is a typed,
   actionable :class:`~repro.RetriesExhausted`, never a raw socket
   error from deep inside a retry loop.

All faults come from the deterministic harness
(:mod:`repro.engine.faults`), so this demo is reproducible: the same
kill fires at the same event offset every run.

Run with::

    python examples/resilient_pipeline.py
"""

import random
import shutil
import tempfile

from repro import (
    EngineConfig,
    Event,
    EventType,
    RaceClient,
    RetriesExhausted,
    RunSupervisor,
    Trace,
    run_engine,
)
from repro.engine.faults import Fault, FaultPlan
from repro.trace.writers import write_std


def build_workload(n_threads=4, bursts=200, run_length=10, seed=19):
    """Per-thread work plus a lock-protected shared counter, with a few
    deliberately unprotected writes so the detectors have races to find."""
    rng = random.Random(seed)
    events = []
    threads = ["worker%d" % i for i in range(n_threads)]
    for burst in range(bursts):
        thread = threads[burst % n_threads]
        for _ in range(run_length):
            var = "%s_slot%d" % (thread, rng.randrange(3))
            etype = EventType.READ if rng.random() < 0.5 else EventType.WRITE
            events.append(Event(-1, thread, etype, var, loc="app.py:%s" % var))
        events.append(Event(-1, thread, EventType.ACQUIRE, "shared_lock",
                            loc="app.py:acq"))
        events.append(Event(-1, thread, EventType.WRITE, "shared_counter",
                            loc="app.py:counter"))
        events.append(Event(-1, thread, EventType.RELEASE, "shared_lock",
                            loc="app.py:rel"))
        if burst % 60 == 13:
            events.append(Event(-1, thread, EventType.WRITE, "shared_counter",
                                loc="app.py:oops"))
    return Trace(events, validate=False, name="resilient_demo")


def signature(result):
    return {
        name: (sorted(tuple(sorted(k)) for k in report.location_pairs()),
               report.raw_race_count)
        for name, report in result.items()
    }


def demo_supervised_run(trace):
    """1. Kill the coordinator process twice; the report must not change."""
    reference = run_engine(trace, ["wcp", "hb"])
    print("uninterrupted run: %d event(s), %d distinct WCP race(s)"
          % (reference.events, reference["WCP"].count()))

    half, three_quarters = len(trace) // 2, (3 * len(trace)) // 4
    print("\n1. hard-killing the engine process at events %d and %d..."
          % (half, three_quarters))
    plan = FaultPlan([
        Fault.kill_coordinator(half),
        Fault.kill_coordinator(three_quarters),
    ])
    supervisor = RunSupervisor(
        trace, ["wcp", "hb"],
        checkpoint_every=200,   # private temp dir, cleaned up on success
        retries=3, backoff_s=0.0,
        fault_plan=plan,
    )
    survived = supervisor.run()
    print("  coordinator restarts: %d (every kill fired: %s)"
          % (supervisor.restarts, plan.unfired() == []))
    print("  report identical to uninterrupted run: %s"
          % (signature(survived) == signature(reference)))


def start_server(checkpoint_dir):
    """A real `repro-race serve` instance on a background thread."""
    import asyncio
    import threading

    from repro.serve import RaceServer, ServeSettings

    config = EngineConfig()
    config.checkpoint_every = 100   # frequent per-stream checkpoints
    ready = threading.Event()
    box = {}

    async def serve():
        loop = asyncio.get_event_loop()
        stop = asyncio.Event()
        server = RaceServer(
            ["wcp", "hb"], config=config,
            settings=ServeSettings(port=0, checkpoint_dir=checkpoint_dir),
        )
        await server.start()
        box["port"] = server.listener.sockets[0].getsockname()[1]
        box["stop"] = lambda: loop.call_soon_threadsafe(stop.set)
        ready.set()
        await stop.wait()
        await server.close()

    thread = threading.Thread(target=lambda: asyncio.run(serve()),
                              daemon=True)
    thread.start()
    ready.wait(10.0)
    box["thread"] = thread
    return box


def demo_flaky_client(trace, port):
    """2. Push through a refused connect, a reset and a stall."""
    lines = write_std(trace).strip("\n").split("\n")

    clean = RaceClient(port=port, stream_id="demo.clean").push(lines)
    print("\n2. pushing %d line(s) over a flaky network..." % len(lines))

    plan = FaultPlan([
        Fault.refuse_connect(0),                      # first dial refused
        Fault.reset_connection(len(trace) // 3),      # RST mid-stream
        Fault.stall_connection(0),                    # then a read stalls
    ])
    client = RaceClient(
        port=port, stream_id="demo.flaky",
        retries=10, backoff_s=0.05, jitter_s=0.0,
        read_timeout_s=1.0,    # turn the stall into a quick retry
        fault_plan=plan,
    )
    outcome = client.push(lines)
    stats = client.stats
    print("  reconnects=%d  refused=%d  resets=%d  stalls=%d  skipped=%d"
          % (stats["reconnects"], stats["refused_connects"],
             stats["injected_resets"], stats["stalled_reads"],
             stats["events_skipped"]))
    print("  every planned fault fired: %s" % (plan.unfired() == []))
    print("  response byte-identical to the undisturbed push: %s"
          % (outcome.lines == clean.lines))
    print("  parsed: %r" % outcome)


def demo_exhaustion():
    """3. A dead endpoint fails with one typed, actionable error."""
    print("\n3. pushing to a port nobody is listening on...")
    client = RaceClient(port=1, retries=2, backoff_s=0.01, jitter_s=0.0)
    try:
        client.push(["T1|acq(l)"])
    except RetriesExhausted as exc:
        print("  RetriesExhausted: %s" % exc)
        print("  underlying cause: %r" % exc.last_error)


def main():
    trace = build_workload()
    demo_supervised_run(trace)

    checkpoint_dir = tempfile.mkdtemp(prefix="resilient-demo-")
    server = start_server(checkpoint_dir)
    try:
        demo_flaky_client(trace, server["port"])
    finally:
        server["stop"]()
        server["thread"].join(10.0)
        shutil.rmtree(checkpoint_dir, ignore_errors=True)

    demo_exhaustion()


if __name__ == "__main__":
    main()

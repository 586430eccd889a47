#!/usr/bin/env python
"""The extended event vocabulary: rwlocks, barriers, wait/notify, adapters.

Walks the declarative event-semantics layer end to end:

1. Reader/writer locks -- two read-mode critical sections overlap (their
   conflicting accesses race), while write-mode sections serialize; WCP
   and HB agree on both verdicts.
2. Barriers -- a two-phase computation where every cross-phase pair is
   ordered by the all-to-all barrier join, including the blocked-arriver
   edge that orders a waiter after arrivals recorded later in the stream.
3. Wait/notify -- a monitor hand-off ordering producer writes before the
   woken consumer's reads.
4. Real-trace adapters -- the same kernel-style mtrace log analysed via
   ``--format mtrace`` semantics, plus the per-kind event census.
5. The sharding contract -- the mixed-vocabulary fuzz generator's traces
   produce identical reports on the single and the sharded engine.

Run with::

    python examples/rwlock_barrier_analysis.py
"""

from repro import EngineConfig, RaceEngine, ShardedEngine, compare_detectors
from repro.analysis import event_census
from repro.bench.generators import mixed_vocabulary_trace
from repro.trace import Trace, TraceBuilder, iter_mtrace_events

DETECTORS = ["wcp", "hb"]


def banner(title: str) -> None:
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def show_counts(trace) -> None:
    for name, report in RaceEngine().run(trace, detectors=DETECTORS).items():
        print("  %-9s %d race(s)" % (name, report.count()))


def rwlock_demo() -> None:
    banner("1. Reader/writer locks")
    read_read = (
        TraceBuilder()
        .read_acquire("t1", "rw").read("t1", "x").rw_release("t1", "rw")
        .read_acquire("t2", "rw").write("t2", "x").rw_release("t2", "rw")
        .build()
    )
    print("overlapping read-mode sections (r(x) vs w(x)) -- a real race:")
    show_counts(read_read)

    write_write = (
        TraceBuilder()
        .write_acquire("t1", "rw").write("t1", "x").rw_release("t1", "rw")
        .write_acquire("t2", "rw").write("t2", "x").rw_release("t2", "rw")
        .build()
    )
    print("the same accesses under write-mode sections -- serialized:")
    show_counts(write_write)


def barrier_demo() -> None:
    banner("2. Barriers")
    trace = (
        TraceBuilder()
        .write("t1", "phase1")
        .barrier("t1", "b").barrier("t2", "b")
        .write("t2", "phase1")          # t2's phase-2 work
        .barrier("t1", "b").barrier("t2", "b")
        .write("t1", "phase1")          # t1's phase-3 work
        .build()
    )
    print("two barrier generations order every cross-phase write pair")
    print("(the final write is ordered after t2's even though t2's second")
    print("arrival appears later in the stream -- the blocked-arriver edge):")
    show_counts(trace)


def wait_notify_demo() -> None:
    banner("3. Wait/notify")
    trace = (
        TraceBuilder()
        # Consumer takes the monitor, then waits (wait-start desugars to a
        # release; the ``wait`` event is the wake-side re-acquire).
        .acquire("consumer", "m").release("consumer", "m")
        # Producer fills the buffer and notifies under the monitor.
        .write("producer", "buffer")
        .acquire("producer", "m").notify("producer", "m").release("producer", "m")
        # Consumer wakes holding the monitor and drains the buffer.
        .wait("consumer", "m")
        .read("consumer", "buffer")
        .release("consumer", "m")
        .build()
    )
    print("producer's write is ordered before the woken consumer's read:")
    show_counts(trace)


MTRACE_LOG = """\
# ftrace-style kernel lock log: one writer, one reader over &sem
writer-11 [000] 100.000100: lock_acquire: write &sem
writer-11 [000] 100.000200: mem_write: counter
writer-11 [001] 100.000300: lock_release: &sem
reader-22 [001] 100.000400: lock_acquire: read &sem
reader-22 [001] 100.000500: mem_read: counter
reader-22 [001] 100.000600: lock_release: &sem
reader-22 [002] 100.000700: mem_read: unshared
"""


def adapter_demo() -> None:
    banner("4. Real-trace adapters (mtrace)")
    trace = Trace(iter_mtrace_events(MTRACE_LOG.splitlines()), name="kernel")
    print("kernel log decoded to: %s" % " ".join(
        event.etype.value for event in trace.events
    ))
    print("event census: %s" % event_census(trace))
    print("w-in-write-section vs r-in-read-section -- ordered, no race:")
    show_counts(trace)


def sharding_demo() -> None:
    banner("5. Sharded parity on the full vocabulary")
    trace = mixed_vocabulary_trace(seed=3, threads=3, steps=150)
    print("fuzzed mixed-vocabulary trace: %d events, census %s" % (
        len(trace), event_census(trace)
    ))
    serial = RaceEngine().run(trace, detectors=DETECTORS)
    config = EngineConfig().with_shards(3, mode="serial", batch_size=16)
    sharded = ShardedEngine(config).run(trace, detectors=DETECTORS)
    def pairs(report):
        return sorted(tuple(sorted(pair)) for pair in report.location_pairs())

    for name, report in serial.items():
        twin = sharded[name]
        status = "OK" if pairs(report) == pairs(twin) else "MISMATCH"
        print("  %-9s serial=%d sharded=%d  %s" % (
            name, report.count(), twin.count(), status
        ))
        assert status == "OK"


def main() -> None:
    rwlock_demo()
    barrier_demo()
    wait_notify_demo()
    adapter_demo()
    sharding_demo()
    print()
    print("All demos agree across detectors and engines.")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Streaming analysis of an on-disk trace log without materialising it.

Demonstrates the three pluggable event-source shapes of the engine:

1. a **log file**, parsed lazily block by block (`FileSource`) -- the
   full trace is never materialised: a decode-only first pass takes the
   file's thread census, so memory is the detectors' live state plus the
   census, and the reports equal the in-memory run's;
2. a **live simulator run** (`SimulatorSource`) -- events flow from the
   interpreter straight into the detectors;
3. a **counting wrapper** (`CountingSource`) proving the single-pass
   property: four detectors, one iteration.

Also shows incremental monitoring via snapshots.

Run with::

    python examples/streaming_engine.py
"""

import tempfile
from pathlib import Path

from repro import (
    CountingSource,
    EngineConfig,
    FileSource,
    RaceEngine,
    SimulatorSource,
    run_engine,
)
from repro.bench.suite import get_benchmark
from repro.simulator import Program, Write
from repro.trace.writers import dump_trace


def main():
    # --- 1. Stream a log file without materialising a trace. ----------- #
    trace = get_benchmark("pingpong")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pingpong.std"
        dump_trace(trace, path)

        seen = []
        config = (
            EngineConfig()
            .with_detectors("wcp", "hb")
            .snapshot_every(50, callback=seen.append)
        )
        result = RaceEngine(config).run(FileSource(path))
        print("Streamed %s: %d event(s), %d snapshot(s)" % (
            path.name, result.events, len(seen)
        ))
        print(result.summary())
        print("\nRace-count trajectory (WCP):")
        for snap in seen:
            if snap.detector_name == "WCP":
                print("  after %4d events: %d race(s)" % (snap.events, snap.races))

    # --- 2. Analyse a live simulator run. ------------------------------ #
    program = Program(
        {"t1": [Write("x", loc="a:1")], "t2": [Write("x", loc="b:1")]},
        name="two-writers",
    )
    live = run_engine(SimulatorSource(program), detectors=["wcp"])
    print("\nLive simulation %r: %d WCP race(s)" % (
        live.source_name, live["WCP"].count()
    ))

    # --- 3. Prove the single-pass property. ---------------------------- #
    counter = CountingSource(trace)
    run_engine(counter, detectors=["wcp", "hb", "fasttrack", "eraser"])
    print("\n4 detectors drove the source with %d iteration(s) "
          "(%d events emitted)" % (counter.passes, counter.events_emitted))


if __name__ == "__main__":
    main()

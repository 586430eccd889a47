"""Seeded workload inputs and their reference verdicts.

Every input is a pure function of ``(workload, seed, scale)``: the same
seed writes byte-identical files.  Generation and the reference pass run
before any timed region, in the benchmark process, never in the program
under test.

The reference is the exact verdict on the materialised trace: the
per-detector distinct and raw race counts of one in-process engine pass
with default (non-streaming) detectors.  Every CLI stdout and every serve
reply is compared against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from repro.analysis.metrics import event_census, trace_summary
from repro.api import make_detector, run_engine
from repro.bench.generators import mixed_vocabulary_trace
from repro.bench.suite import get_benchmark
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
from repro.trace.writers import dump_trace

#: detector name (as the CLI prints it) -> (distinct pairs, raw races).
Verdict = Dict[str, Tuple[int, int]]

#: Events in a full-size CLI workload input (xalan at scale 3 is ~180k).
CLI_EVENTS = 180_000
#: Events in the tiny input the CLI ``setup_s`` runs use.
TINY_EVENTS = 600
#: Random steps per pushed serve stream (~430 events each).
SERVE_STEPS = 400
#: Distinct streams in the serve pool; pushes cycle through it.
SERVE_POOL = 48
#: Events of the serve-push probe file the traced run's layer probes use.
SERVE_PROBE_STEPS = 20_000


@dataclass
class Input:
    """One generated trace file plus everything the checks need."""

    path: Path
    events: int
    verdict: Verdict
    summary: Dict[str, int]
    census: Dict[str, int]

    def record(self) -> dict:
        return {
            "file": self.path.name,
            "events": self.events,
            "summary": self.summary,
            "census": self.census,
            "verdict": {name: list(pair) for name, pair in self.verdict.items()},
        }


@dataclass
class WorkloadInputs:
    """The inputs of one workload run."""

    main: Input
    #: Tiny input from the same generator (CLI set-up runs).
    tiny: Input
    #: Pushed streams (serve-push only).
    streams: List[Input] = field(default_factory=list)

    def record(self) -> dict:
        record = {"main": self.main.record(), "tiny": self.tiny.record()}
        if self.streams:
            census: Dict[str, int] = {}
            for stream in self.streams:
                for token, count in stream.census.items():
                    census[token] = census.get(token, 0) + count
            record["streams"] = {
                "count": len(self.streams),
                "events": sum(stream.events for stream in self.streams),
                "census": census,
            }
        return record


def contention_trace(rng: random.Random, n_events: int, n_threads: int = 12,
                     n_vars: int = 6) -> Trace:
    """The ``high_contention`` shape: every thread updates shared
    variables under one lock.  About one section in 256 reads its variable
    just before acquiring, so both detectors report a few races and the
    verdict check compares non-empty reports."""
    threads = ["t%d" % i for i in range(n_threads)]
    events: List[Event] = []
    section = 0
    while len(events) < n_events:
        thread = threads[section % n_threads]
        choice = rng.randrange(n_vars)
        variable = "x%d" % choice
        loc = "hc.py:%d" % choice
        racy = rng.randrange(256) == 0
        if racy:
            events.append(Event(-1, thread, EventType.READ, variable,
                                loc=loc + ":early"))
        events.append(Event(-1, thread, EventType.ACQUIRE, "l", loc="hc.py:acq"))
        if not racy:
            events.append(Event(-1, thread, EventType.READ, variable,
                                loc=loc + ":r"))
        events.append(Event(-1, thread, EventType.WRITE, variable, loc=loc + ":w"))
        events.append(Event(-1, thread, EventType.RELEASE, "l", loc="hc.py:rel"))
        section += 1
    return Trace(events, validate=True, name="high_contention")


def partitionable_trace(rng: random.Random, n_events: int, n_threads: int = 8,
                        vars_per_thread: int = 8,
                        run_length: int = 64) -> Trace:
    """The ``partitionable`` shape: bursts of unprotected accesses to
    per-thread private variables, each followed by a short critical
    section on one shared lock.  Two racer threads that never synchronize
    write shared variables every 16 bursts, so the reports are non-empty."""
    threads = ["t%d" % i for i in range(n_threads)]
    events: List[Event] = []
    burst = 0
    while len(events) < n_events:
        thread = threads[burst % n_threads]
        for _ in range(run_length):
            variable = "%s_v%d" % (thread, rng.randrange(vars_per_thread))
            kind = EventType.READ if rng.random() < 0.5 else EventType.WRITE
            events.append(Event(-1, thread, kind, variable,
                                loc="sh.py:%s:%s" % (variable, kind.value)))
        events.append(Event(-1, thread, EventType.ACQUIRE, "shared",
                            loc="sh.py:acq"))
        events.append(Event(-1, thread, EventType.WRITE, "counter",
                            loc="sh.py:counter"))
        events.append(Event(-1, thread, EventType.RELEASE, "shared",
                            loc="sh.py:rel"))
        if burst % 16 == 0:
            racer = "racer%d" % (burst // 16 % 2)
            slot = burst // 16 % 3
            events.append(Event(-1, racer, EventType.WRITE, "u%d" % slot,
                                loc="sh.py:%s:%d" % (racer, slot)))
        burst += 1
    return Trace(events, validate=True, name="partitionable")


def reference_verdict(trace: Trace, detectors: List[str]) -> Verdict:
    """Exact per-detector race counts from one in-process engine pass."""
    result = run_engine(trace, detectors=[make_detector(n) for n in detectors])
    return {
        name: (report.count(), report.raw_race_count)
        for name, report in result.items()
    }


def _materialise(trace: Trace, path: Path, detectors: List[str]) -> Input:
    dump_trace(trace, path)
    return Input(
        path=path,
        events=len(trace),
        verdict=reference_verdict(trace, detectors),
        summary=trace_summary(trace),
        census=event_census(trace),
    )


def _cli_trace(workload: str, seed: int, n_events: int) -> Trace:
    rng = random.Random("%s/%d/%d" % (workload, seed, n_events))
    if workload == "batch-xalan":
        # get_benchmark("xalan", scale=1) is ~60k events.
        return get_benchmark("xalan", scale=n_events / 60_000.0, seed=seed)
    if workload == "stream-contention":
        return contention_trace(rng, n_events)
    if workload == "shard-partitionable":
        return partitionable_trace(rng, n_events)
    raise ValueError("no CLI input generator for workload %r" % workload)


def make_inputs(workload: str, detectors: List[str], seed: int, scale: float,
                directory: Path) -> WorkloadInputs:
    """Write the workload's inputs for ``seed`` under ``directory``."""
    if workload == "serve-push":
        streams = []
        rng = random.Random("serve-push/%d" % seed)
        pool = max(2, int(round(SERVE_POOL * min(1.0, scale * 4))))
        for index in range(pool):
            trace = mixed_vocabulary_trace(
                rng.randrange(1 << 30), threads=3, steps=SERVE_STEPS,
                name="stream%d" % index,
            )
            streams.append(_materialise(
                trace, directory / ("stream%03d.std" % index), detectors
            ))
        probe = mixed_vocabulary_trace(
            rng.randrange(1 << 30), threads=3,
            steps=max(SERVE_STEPS, int(SERVE_PROBE_STEPS * scale)),
            name="probe",
        )
        return WorkloadInputs(
            main=_materialise(probe, directory / "probe.std", detectors),
            tiny=streams[0],
            streams=streams,
        )
    main = _cli_trace(workload, seed, max(TINY_EVENTS, int(CLI_EVENTS * scale)))
    tiny = _cli_trace(workload, seed, TINY_EVENTS)
    return WorkloadInputs(
        main=_materialise(main, directory / "main.std", detectors),
        tiny=_materialise(tiny, directory / "tiny.std", detectors),
    )

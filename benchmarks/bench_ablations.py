"""Remaining ablations from DESIGN.md.

* streaming Algorithm 1 vs. the explicit closure (design choice 1): the
  closure is the correctness oracle but is super-quadratic; the streaming
  detector is linear.  We measure both on growing prefixes of a benchmark
  trace and assert the gap widens.
* windowed CP vs. whole-trace WCP (the practical deployment gap that
  motivates the paper).
"""

import time

import pytest

from repro.bench import BENCHMARKS
from repro.core.closure import WCPClosureDetector
from repro.core.wcp import WCPDetector
from repro.cp import CPDetector
from repro.trace.trace import Trace

from _bench_utils import record_result, scaled


def _prefix(trace, size):
    return Trace([e for e in list(trace)[:size]], validate=False, name=trace.name)


def _timed(detector, trace):
    started = time.perf_counter()
    report = detector.run(trace)
    return report, time.perf_counter() - started


@pytest.mark.parametrize("size", [100, 200, 400])
def test_streaming_vs_closure(benchmark, size):
    spec = BENCHMARKS["mergesort"]
    trace = _prefix(spec.generate(scale=1.0, seed=0), size)

    streaming_report, streaming_time = _timed(WCPDetector(), trace)
    closure_report, closure_time = benchmark.pedantic(
        lambda: _timed(WCPClosureDetector(), trace), iterations=1, rounds=1,
    )

    # Same races, very different asymptotics.
    assert set(streaming_report.location_pairs()) == set(
        closure_report.location_pairs()
    )
    record_result("ablation_closure", "events_%d" % size, {
        "streaming_time_s": round(streaming_time, 4),
        "closure_time_s": round(closure_time, 4),
        "slowdown": round(closure_time / max(streaming_time, 1e-9), 1),
    })


@pytest.mark.parametrize("name", ["mergesort", "raytracer"])
def test_windowed_cp_vs_wcp(benchmark, name):
    spec = BENCHMARKS[name]
    trace = spec.generate(scale=scaled(spec.category), seed=0)
    window = max(50, len(trace) // 10)

    cp_report = benchmark.pedantic(
        lambda: CPDetector(window_size=window).run(trace), iterations=1, rounds=1,
    )
    wcp_report = WCPDetector().run(trace)

    # CP (windowed, as deployed in practice) never finds more than WCP on
    # the whole trace for these workloads.
    assert cp_report.count() <= wcp_report.count()
    record_result("ablation_cp", name, {
        "window": window,
        "cp_races": cp_report.count(),
        "wcp_races": wcp_report.count(),
        "cp_time_s": round(cp_report.stats["time_s"], 4),
        "wcp_time_s": round(wcp_report.stats["time_s"], 4),
    })

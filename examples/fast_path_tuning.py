"""The raw-speed layer, end to end: kernels, batch decode, shard transport.

Three independent layers sit between the WCP algorithm and the
hardware, and each one is *governed* — you can see which variant is
live, force either variant, and prove the choice never changes a race
report:

1. **Compiled kernels** — STD decoding, batch lock validation and the
   WCP detector's Algorithm 1 run as cffi-compiled C when a compiler
   is available, and as the equivalent pure-Python code otherwise.
   ``REPRO_CLOCK_KERNEL`` selects ``auto``/``cffi``/``python``;
   ``kernels.describe()`` reports what's live and why.
2. **Batch decoding** — the STD/CSV parsers decode many lines per call
   instead of one, so parse throughput tracks memory bandwidth rather
   than per-line interpreter overhead.
3. **Shard transport** — ``ShardedEngine(mode="process")`` ships
   event batches to one worker process per shard over a pipe;
   ``mode="serial"`` runs the same workers inline and is the
   deterministic reference both must agree with.

Run from the repository root:

    PYTHONPATH=src python examples/fast_path_tuning.py
"""

import os
import subprocess
import sys
import tempfile
import time

from repro import EngineConfig, RaceEngine, ShardedEngine
from repro.bench.generators import mixed_vocabulary_trace
from repro.trace.parsers import iter_std_events
from repro.trace.writers import write_std
from repro.vectorclock import kernels

BAR = "=" * 66


# ------------------------------------------------------------------ #
# 1. Which kernel backend is live?
# ------------------------------------------------------------------ #

print(BAR)
print("1. Kernel backend governance")
print(BAR)
print("active backend :", kernels.BACKEND)
print("fallback reason:", kernels.FALLBACK_REASON)
print("describe()     :", kernels.describe())

# Backend choice is a per-process decision made on first import, so
# forcing the *other* backend is demonstrated in a subprocess.  The
# transcript comparison below is the point: same trace, same races,
# whichever backend runs the detector.
FORCED = r"""
import json, sys
from repro.bench.generators import mixed_vocabulary_trace
from repro.vectorclock import kernels
from repro import RaceEngine

trace = mixed_vocabulary_trace(seed=7, steps=400)
report = RaceEngine().run(trace, detectors=["wcp"])["WCP"]
print(json.dumps({
    "backend": kernels.BACKEND,
    "races": sorted(sorted(pair) for pair in report.location_pairs()),
}))
"""

results = {}
for backend in ("python", "auto"):
    env = dict(os.environ, REPRO_CLOCK_KERNEL=backend,
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", FORCED],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise SystemExit(proc.stderr)
    import json
    results[backend] = json.loads(proc.stdout)

print("forced python  :", results["python"]["backend"],
      "| races:", len(results["python"]["races"]))
print("auto           :", results["auto"]["backend"],
      "| races:", len(results["auto"]["races"]))
assert results["python"]["races"] == results["auto"]["races"]
print("-> identical race reports under both backends")

# ------------------------------------------------------------------ #
# 2. Batch decoding: parse throughput without detector work
# ------------------------------------------------------------------ #

print()
print(BAR)
print("2. Batch STD decoding")
print(BAR)

trace = mixed_vocabulary_trace(seed=11, threads=6, steps=6000)
with tempfile.NamedTemporaryFile(
        "w", suffix=".std", delete=False) as handle:
    path = handle.name
    handle.write(write_std(trace))
try:
    started = time.perf_counter()
    with open(path) as lines:
        n = sum(1 for _ in iter_std_events(lines))
    elapsed = time.perf_counter() - started
    print("decoded %d events in %.3fs  (%.0f events/s)"
          % (n, elapsed, n / elapsed))
finally:
    os.unlink(path)

# ------------------------------------------------------------------ #
# 3. Shard transports: process against the serial reference
# ------------------------------------------------------------------ #

print()
print(BAR)
print("3. Shard transport parity")
print(BAR)

trace = mixed_vocabulary_trace(seed=3, threads=4, steps=1200)
reference = RaceEngine().run(trace, detectors=["wcp", "hb"])


def fingerprint(report):
    pairs = sorted(tuple(sorted(pair)) for pair in report.location_pairs())
    return (pairs, report.count())


for mode in ("serial", "process"):
    config = EngineConfig().with_detectors("wcp", "hb")
    config.with_shards(3, mode=mode, batch_size=256)
    result = ShardedEngine(config).run(trace)
    match = all(
        fingerprint(reference[name]) == fingerprint(result[name])
        for name in ("WCP", "HB")
    )
    print("mode=%-8s races: WCP=%d HB=%d  parity=%s"
          % (mode, result["WCP"].count(), result["HB"].count(),
             "OK" if match else "MISMATCH"))
    assert match, mode

print()
print("All three layers active and observably equivalent.")

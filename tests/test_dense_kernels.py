"""Differential tests for the dense clock, kernel governance and the codec.

The list-backed :class:`DenseClock` must agree with the dict-backed
:class:`VectorClock` reference.  The fuzz here drives random operation
sequences through both and compares every observable after every step;
the subprocess tests additionally run the same sequence under both
``REPRO_CLOCK_KERNEL`` values and compare the transcripts -- the
backend choice (which governs the compiled decode, lock validator and WCP
kernels of :mod:`repro.vectorclock.kernels`) never changes a clock.
"""

import os
import random
import subprocess
import sys

import pytest

from repro.trace.event import Event, EventType
from repro.vectorclock import kernels
from repro.vectorclock.clock import VectorClock
from repro.vectorclock.codec import CodecError, decode, decode_clock, encode
from repro.vectorclock.dense import DenseClock
from repro.vectorclock.registry import ThreadRegistry

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


# --------------------------------------------------------------------- #
# In-process differential fuzz: DenseClock vs the VectorClock reference
# --------------------------------------------------------------------- #

def _random_ops(rng, n_ops, width):
    """A reproducible op tape: (op, args) tuples."""
    ops = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.35:
            ops.append(("assign", rng.randrange(width), rng.randrange(1, 1 << 40)))
        elif roll < 0.55:
            ops.append(("increment", rng.randrange(width)))
        elif roll < 0.75:
            ops.append(("merge", [rng.randrange(1 << 20) for _ in range(rng.randrange(width + 1))]))
        elif roll < 0.85:
            ops.append(("leq", [rng.randrange(4) for _ in range(rng.randrange(width + 1))]))
        elif roll < 0.95:
            ops.append(("eq", [rng.randrange(4) for _ in range(rng.randrange(width + 1))]))
        else:
            ops.append(("clear",))
    return ops


def _apply(ops, make_clock, make_probe):
    """Run an op tape, returning the transcript of observables."""
    clock = make_clock()
    transcript = []
    for op in ops:
        if op[0] == "assign":
            clock.assign(op[1], op[2])
        elif op[0] == "increment":
            clock.increment(op[1])
        elif op[0] == "merge":
            transcript.append(clock.merge(make_probe(op[1])))
        elif op[0] == "leq":
            probe = make_probe(op[1])
            transcript.append((clock <= probe, probe <= clock))
        elif op[0] == "eq":
            transcript.append(clock == make_probe(op[1]))
        elif op[0] == "clear":
            clock.clear()
        transcript.append(sorted(clock.items()))
    return transcript


def _dense_from(values):
    clock = DenseClock()
    for tid, value in enumerate(values):
        if value:
            clock.assign(tid, value)
    return clock


def _vector_from(values):
    clock = VectorClock()
    for tid, value in enumerate(values):
        if value:
            clock.assign(tid, value)
    return clock


class TestKernelDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(12))
    def test_dense_matches_vector_reference(self, seed):
        rng = random.Random(seed)
        ops = _random_ops(rng, n_ops=120, width=8)
        dense = _apply(ops, DenseClock, _dense_from)
        reference = _apply(ops, VectorClock, _vector_from)
        assert dense == reference

    @pytest.mark.parametrize("seed", range(6))
    def test_copy_is_independent(self, seed):
        rng = random.Random(seed)
        clock = _dense_from([rng.randrange(100) for _ in range(6)])
        snapshot = clock.copy()
        frozen = sorted(snapshot.items())
        clock.increment(2)
        clock.assign(5, 10 ** 9)
        assert sorted(snapshot.items()) == frozen

    def test_trailing_zero_semantics(self):
        # [1, 0] and [1] are the same clock for merge/leq/eq.
        wide = _dense_from([1, 0, 0, 0])
        narrow = _dense_from([1])
        assert wide == narrow
        assert wide <= narrow and narrow <= wide
        assert not wide.merge(narrow)
        tall = _dense_from([1, 2])
        assert narrow <= tall and not tall <= narrow

    def test_merge_reports_growth_exactly(self):
        base = _dense_from([5, 5])
        assert not base.merge(_dense_from([5, 4]))
        assert base.merge(_dense_from([0, 6]))
        assert sorted(base.items()) == [(0, 5), (1, 6)]


# --------------------------------------------------------------------- #
# Backend-forcing subprocess runs: python vs cffi transcripts
# --------------------------------------------------------------------- #

_SUBPROCESS_FUZZ = r"""
import json, random, sys
from repro.vectorclock import kernels
from repro.vectorclock.clock import VectorClock
from repro.vectorclock.dense import DenseClock
from repro.vectorclock.codec import decode, encode

sys.path.insert(0, %(tests)r)
from test_dense_kernels import _apply, _dense_from, _random_ops

transcripts = []
for seed in range(8):
    rng = random.Random(seed)
    ops = _random_ops(rng, n_ops=150, width=10)
    transcripts.append(_apply(ops, DenseClock, _dense_from))
    # Codec round-trip under this backend rides along: encoded bytes
    # must be backend-independent.
    clock = _dense_from([rng.randrange(1 << 45) for _ in range(10)])
    transcripts.append(sorted(decode(encode(clock)).items()))
print(json.dumps({"backend": kernels.BACKEND,
                  "fallback": kernels.FALLBACK_REASON,
                  "transcripts": transcripts}))
"""


def _run_forced(backend):
    env = dict(os.environ)
    env["REPRO_CLOCK_KERNEL"] = backend
    env["PYTHONPATH"] = SRC
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_FUZZ % {"tests": tests_dir}],
        capture_output=True, text=True, env=env,
    )
    return proc


class TestBackendForcedParity:
    def test_python_and_cffi_transcripts_identical(self):
        import json

        python_run = _run_forced("python")
        assert python_run.returncode == 0, python_run.stderr
        python_out = json.loads(python_run.stdout)
        assert python_out["backend"] == "python"

        cffi_run = _run_forced("cffi")
        if cffi_run.returncode != 0:
            if "compiled clock kernels are unavailable" in cffi_run.stderr:
                pytest.skip("no compiler/cffi on this machine")
            raise AssertionError(cffi_run.stderr)
        cffi_out = json.loads(cffi_run.stdout)
        assert cffi_out["backend"] == "cffi"
        assert cffi_out["fallback"] is None
        assert cffi_out["transcripts"] == python_out["transcripts"]

    def test_forced_python_records_reason(self):
        import json

        run = _run_forced("python")
        out = json.loads(run.stdout)
        assert out["fallback"] == "REPRO_CLOCK_KERNEL=python"

    def test_describe_names_active_backend(self):
        text = kernels.describe()
        assert kernels.BACKEND in text
        if kernels.BACKEND == "cffi":
            assert text == (
                "cffi (compiled STD decode, lock validator and WCP "
                "kernels; HB runs in the WCP kernel's HB mode)"
            )


# --------------------------------------------------------------------- #
# Codec round-trips: large clocks, varint extremes, event payloads
# --------------------------------------------------------------------- #

class TestCodecRoundTrips:
    def test_large_component_clock(self):
        clock = DenseClock()
        clock.assign(0, 1)
        clock.assign(511, (1 << 62) - 1)
        back = decode(encode(clock))
        assert isinstance(back, DenseClock)
        assert sorted(back.items()) == sorted(clock.items())

    def test_trailing_zeros_canonicalized(self):
        wide = _dense_from([3, 7, 0, 0, 0, 0])
        narrow = _dense_from([3, 7])
        assert encode(wide) == encode(narrow)

    def test_varint_boundaries(self):
        for value in (0, 127, 128, 16383, 16384, (1 << 35) + 1, -1, -128, -(1 << 40)):
            assert decode(encode(value)) == value

    def test_vector_clock_round_trip(self):
        # A name-keyed clock crosses the wire in its tid-keyed dense form.
        registry = ThreadRegistry()
        clock = VectorClock({"a": 5, "b": (1 << 50)})
        back = registry.to_public(decode(encode(registry.to_dense(clock))))
        assert isinstance(back, VectorClock)
        assert dict(back.items()) == dict(clock.items())

    def test_decode_clock_coerces_to_dense(self):
        registry = ThreadRegistry(["t0", "t1", "t2", "t3"])
        blob = encode(registry.to_dense(VectorClock({"t0": 4, "t3": 9})))
        dense = decode_clock(blob)
        assert isinstance(dense, DenseClock)
        assert dense.get(0) == 4
        assert dense.get(3) == 9

    def test_name_keyed_clocks_are_refused(self):
        # VectorClock is the reporting type, never detector state.
        with pytest.raises(CodecError):
            encode(VectorClock({"a": 5}))
        with pytest.raises(CodecError):
            decode_clock(encode({0: 4, 3: 9}))

    def test_event_round_trip(self):
        event = Event(7, "t1", EventType.WRITE, "x", "file.c:9", tid=2)
        back = decode(encode(event))
        assert (back.index, back.thread, back.etype, back.target,
                back.loc, back.tid) == (7, "t1", EventType.WRITE, "x",
                                        "file.c:9", 2)

    def test_wire_batch_round_trip(self):
        # The shard wire-batch shape: a list of 6-tuples.
        batch = [
            (0, "t1", EventType.ACQUIRE.value, "l", None, True),
            (1, "t1", EventType.WRITE.value, "x", "a.c:3", True),
            (2, "t2", EventType.READ.value, "x", "a.c:4", False),
        ]
        assert decode(encode(batch)) == batch

    def test_malformed_blobs_raise(self):
        blob = encode([1, 2, 3])
        with pytest.raises(CodecError):
            decode(blob[:-1])
        with pytest.raises(CodecError):
            decode(blob + b"\x00")
        with pytest.raises(CodecError):
            decode(b"\xff")

"""The lock-discipline validator: one verdict on every path and backend.

:class:`~repro.trace.lockcheck.OnlineValidator` checks lock semantics
and well nestedness for ``Trace(validate=True)`` on a fresh state, and
block by block with state across blocks for ``--stream`` (through
:class:`~repro.engine.validate.ValidatingSource`) and serve's drive
loop.  With the compiled kernels the state is C and
:class:`~repro.trace.semantics.LockDiscipline` raises the error at the
row C declines; under ``REPRO_CLOCK_KERNEL=python`` ``LockDiscipline``
is the whole path.  These tests corrupt every sync row of a small corpus
in turn (drop it, duplicate it, retarget its lock) and pin that every
path and both backends give the same exception class, message and valid
prefix; that the validator state of a checkpoint, at any offset inside a
block, is the Python validator's and resumes across backends; and how
``--stream --first-race`` meets a late lock error.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
from contextlib import contextmanager
from random import Random

import pytest

import repro.trace.parsers as parsers
from repro.bench.generators import mixed_vocabulary_trace
from repro.bench.suite import get_benchmark
from repro.engine import FileSource, ValidatingSource
from repro.engine.validate import OnlineValidator
from repro.serve.server import ServeSettings
from repro.trace.columns import ColumnBlock
from repro.trace.event import Event, EventType
from repro.trace.semantics import REGISTRY, TraceError
from repro.trace.trace import Trace
from repro.trace.writers import write_std
from repro.vectorclock import codec, kernels

from test_serve_tier import _one_read_payload, _push_once

COMPILED = kernels.BACKEND == "cffi"
BACKENDS = ["cffi", "python"] if COMPILED else ["python"]
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


@contextmanager
def backend(name):
    """Run the block under the named backend (``python`` forces the
    ``LockDiscipline`` path in process; ``cffi`` leaves it as is)."""
    saved = kernels.BACKEND
    if name == "python":
        kernels.BACKEND = "python"
    try:
        yield
    finally:
        kernels.BACKEND = saved


def contention_rows(n_events, seed=1, n_threads=12, n_vars=6):
    """The contention shape: every thread updates shared variables under
    one lock, and about one section in 16 reads its variable before
    acquiring (a race)."""
    rng = Random(seed)
    rows = []
    section = 0
    while len(rows) < n_events:
        thread = "t%d" % (section % n_threads)
        variable = "x%d" % rng.randrange(n_vars)
        racy = rng.randrange(16) == 0
        if racy:
            rows.append((thread, EventType.READ, variable))
        rows.append((thread, EventType.ACQUIRE, "l"))
        if not racy:
            rows.append((thread, EventType.READ, variable))
        rows.append((thread, EventType.WRITE, variable))
        rows.append((thread, EventType.RELEASE, "l"))
        section += 1
    return rows


def _rows(trace):
    return [(event.thread, event.etype, event.target) for event in trace]


CORPUS = {
    "derby": lambda: _rows(get_benchmark("derby", scale=0.004, seed=1)),
    "xalan": lambda: _rows(get_benchmark("xalan", scale=0.004, seed=1)),
    "mixed-0": lambda: _rows(mixed_vocabulary_trace(seed=0, steps=40)),
    "mixed-1": lambda: _rows(mixed_vocabulary_trace(seed=1, steps=40)),
    "mixed-2": lambda: _rows(mixed_vocabulary_trace(seed=2, steps=40)),
    "contention": lambda: contention_rows(160),
}


def _events(rows):
    return [Event(i, thread, etype, target, loc="p:%d" % i)
            for i, (thread, etype, target) in enumerate(rows)]


def mutants(rows):
    """``(label, rows)`` for each sync row dropped, duplicated and with
    its lock retargeted (the next lock to appear, or a fresh one)."""
    locks = list(dict.fromkeys(
        target for _, etype, target in rows if REGISTRY[etype].role
    ))
    for row, (thread, etype, lock) in enumerate(rows):
        if REGISTRY[etype].role is None:
            continue
        other = locks[(locks.index(lock) + 1) % len(locks)]
        if other == lock:
            other = lock + "'"
        yield "drop-%d" % row, rows[:row] + rows[row + 1:]
        yield "dup-%d" % row, rows[:row + 1] + rows[row:]
        yield "retarget-%d" % row, (
            rows[:row] + [(thread, etype, other)] + rows[row + 1:]
        )


def _verdict(error):
    return None if error is None else "%s: %s" % (type(error).__name__, error)


def batch_verdict(rows):
    try:
        Trace(_events(rows))
    except TraceError as error:
        return _verdict(error)
    return None


def stream_verdict(path):
    """``(events yielded, verdict)`` of ``ValidatingSource(FileSource)``."""
    yielded = 0
    try:
        for block in ValidatingSource(FileSource(path)).batches():
            yielded += len(block)
    except TraceError as error:
        return yielded, _verdict(error)
    return yielded, None


def blocks_verdict(rows, size=5):
    """``(valid prefix, verdict)`` of one :class:`OnlineValidator` fed
    lists of ``size`` events, as serve's drive loop feeds its batches."""
    validator = OnlineValidator()
    events = _events(rows)
    valid = 0
    for lo in range(0, len(events), size):
        prefix, error = validator.check_batch(events[lo:lo + size])
        valid += len(prefix)
        if error is not None:
            return valid, _verdict(error)
    return valid, None


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corrupted_corpus_same_verdict_everywhere(name, tmp_path,
                                                  monkeypatch):
    # Small reads make FileSource's blocks split open sections.
    monkeypatch.setattr(parsers, "READ_BYTES", 97)
    path = tmp_path / "mutant.std"
    rejected = 0
    for label, rows in mutants(CORPUS[name]()):
        path.write_text(write_std(Trace(_events(rows), validate=False)))
        found = {}
        for which in BACKENDS:
            with backend(which):
                found[which] = (batch_verdict(rows), stream_verdict(path),
                                blocks_verdict(rows))
        expected = found["python"]
        assert found[BACKENDS[0]] == expected, (label, found)
        verdict, (streamed, stream), (valid, blocks) = expected
        assert stream == blocks == verdict, label
        if verdict is None:
            assert streamed == valid == len(rows), label
        else:
            # The valid prefix ends right before the row that failed.
            assert streamed == valid, label
            assert "at event %d" % valid in verdict, label
            rejected += 1
    assert rejected


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_serve_session_reports_the_batch_error(name):
    # A real serve session validates each decoded batch in its drive
    # loop: its error reply and the events it stepped match batch.
    shown = 0
    for label, rows in mutants(CORPUS[name]()):
        verdict = batch_verdict(rows)
        if verdict is None:
            continue
        payload = _one_read_payload(
            write_std(Trace(_events(rows), validate=False))
        )
        for which in BACKENDS:
            with backend(which):
                response, _, session = asyncio.run(
                    _push_once(ServeSettings(port=0), payload)
                )
            assert response.strip() == "error " + verdict, (label, which)
            assert session.events == blocks_verdict(rows)[0], (label, which)
        shown += 1
        if shown == 3:
            break
    assert shown


@pytest.mark.skipif(not COMPILED, reason="needs the compiled kernels")
def test_a_decline_python_accepts_is_an_internal_error(monkeypatch):
    # A row the C pass declines goes to LockDiscipline; if it accepts
    # the row, that is a bug, raised -- never a silent accept.
    monkeypatch.setattr(OnlineValidator, "_run",
                        lambda self, handle, block, start: 1)
    validator = OnlineValidator()
    with pytest.raises(RuntimeError, match="declined event 1, which "
                       "LockDiscipline accepts"):
        validator.check_batch(_events([("t0", EventType.ACQUIRE, "a"),
                                       ("t1", EventType.ACQUIRE, "b")]))


# --------------------------------------------------------------------- #
# Checkpoints: the state at any offset, resumed on either backend
# --------------------------------------------------------------------- #

def _blocks(rows, size):
    block = ColumnBlock.from_events(_events(rows), start=0)
    return [block[lo:lo + size] for lo in range(0, len(block), size)]


def _run(validator, blocks):
    """Feed ``blocks``; return the verdict of the first error."""
    for block in blocks:
        error = validator.check_batch(block)[1]
        if error is not None:
            return _verdict(error)
    return None


def _reference_states(rows):
    """The Python validator's state after each prefix of ``rows``."""
    with backend("python"):
        states = []
        validator = OnlineValidator()
        for block in _blocks(rows, 1):
            states.append(validator.state_dict())
            if validator.check_batch(block)[1] is not None:
                break
        states.append(validator.state_dict())
        return states


@pytest.mark.parametrize("name", ["mixed-0", "mixed-1", "contention"])
@pytest.mark.parametrize("size", [7, 64])
def test_state_at_every_offset_is_the_python_state(name, size):
    rows = CORPUS[name]()
    reference = _reference_states(rows)
    for which in BACKENDS:
        with backend(which):
            validator = OnlineValidator()
            for block in _blocks(rows, size):
                start = validator.events_checked
                assert validator.check_batch(block)[1] is None
                for events in range(start, start + len(block)):
                    assert validator.state_dict(events) == reference[events]
                assert validator.state_dict() == reference[start + len(block)]
                assert validator.state_size() == 2 * sum(
                    map(len, reference[start + len(block)]["open"].values())
                )


@pytest.mark.parametrize("name", ["mixed-1", "contention"])
def test_restored_validator_reaches_the_uninterrupted_verdict(name):
    # A late dropped release: the verdict comes long after most restore
    # points, and sections are open across them.
    rows = CORPUS[name]()
    for late in reversed(range(len(rows))):
        if rows[late][1] in (EventType.RELEASE, EventType.RREL):
            dropped = rows[:late] + rows[late + 1:]
            if batch_verdict(dropped) is not None:
                rows = dropped
                break
    with backend("python"):
        expected = _run(OnlineValidator(), _blocks(rows, 9))
        failing = blocks_verdict(rows)[0]
    assert expected is not None and failing > 4 * 9
    for writer in BACKENDS:
        for reader in BACKENDS:
            blocks = _blocks(rows, 9)
            for cut in range(1, failing // 9 + 1):
                with backend(writer):
                    first = OnlineValidator()
                    assert _run(first, blocks[:cut]) is None
                    # Through the checkpoint codec, as a bundle travels.
                    bundle = codec.decode(codec.encode(
                        {"validator": first.state_dict()}
                    ))
                with backend(reader):
                    resumed = OnlineValidator.from_state(bundle["validator"])
                    assert resumed.state_dict() == bundle["validator"]
                    assert _run(resumed, blocks[cut:]) == expected, (
                        writer, reader, cut)


def test_pre_rwlock_state_resumes():
    # Checkpoints written before the rwlock vocabulary carry two-field
    # open-stack entries and no read-holder map.
    state = {"holder": {"l": ("t0", 3)}, "open": {"t0": [["l", 3]]},
             "events": 5}
    for which in BACKENDS:
        with backend(which):
            validator = OnlineValidator.from_state(state)
            assert validator.state_dict()["open"] == {"t0": [("l", 3, "excl")]}
            error = validator.check_batch(
                [Event(-1, "t1", EventType.ACQUIRE, "l")]
            )[1]
            assert str(error) == (
                "lock 'l' acquired at event 5 while held by thread 't0' "
                "(acquired at event 3)"
            )


def late_dropped_release(rows):
    """``rows`` without the last ``rel`` at least 40 rows from the end."""
    late = len(rows) - 40
    while rows[late][1] is not EventType.RELEASE:
        late -= 1
    return rows[:late] + rows[late + 1:]


def _cli(backend_name, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    if backend_name is not None:
        env["REPRO_CLOCK_KERNEL"] = backend_name
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.skipif(not COMPILED, reason="needs the compiled kernels")
@pytest.mark.parametrize("writer,reader", [("python", "cffi"),
                                           ("cffi", "python")])
def test_stream_checkpoint_resumes_across_backends(writer, reader, tmp_path):
    # A checkpoint's {"validator": ...} bundle, written under one backend
    # mid-section, resumes under the other to the report and the lock
    # error of the uninterrupted run.  A fresh pass refuses the late-error
    # file in its census pass, so that checkpoint is written on the valid
    # log, whose first 2001 rows it shares, and the late-error log then
    # takes its place: a resumed pass takes no census and meets the error
    # online.
    rows = contention_rows(4000)
    for label, trace_rows in (("valid", rows),
                              ("late-error", late_dropped_release(rows))):
        path = tmp_path / ("%s.std" % label)
        path.write_text(write_std(Trace(_events(trace_rows), validate=False)))
        flags = ["analyze", str(path), "--stream", "--detector", "wcp,hb"]
        expected = _cli(reader, *flags)
        checkpoint = tmp_path / ("ckpt-%s" % label)
        path.write_text(write_std(Trace(_events(rows), validate=False)))
        first = _cli(writer, *flags, "--checkpoint", str(checkpoint),
                     "--checkpoint-every", "333", "--max-events", "2001")
        assert first.returncode in (0, 1), first.stderr
        path.write_text(write_std(Trace(_events(trace_rows), validate=False)))
        resumed = _cli(reader, *flags, "--resume", str(checkpoint))
        assert resumed.returncode == expected.returncode, resumed.stderr
        notice, _, error = resumed.stderr.partition("\n")
        assert notice.startswith("resuming from ")
        assert "event offset 1998" in notice
        assert error == expected.stderr
        assert _report(resumed) == _report(expected)
        assert _report(expected) if label == "valid" else (
            expected.returncode == 2)


def _report(run):
    """The race lines of ``run``'s report (stats vary across a resume)."""
    return [line for line in run.stdout.splitlines()
            if not line.strip().startswith("stat ")]


@pytest.mark.parametrize("flags", [
    [], ["--stream"], ["--first-race"], ["--stream", "--first-race"],
    ["--max-events", "500"], ["--stream", "--max-events", "500"],
], ids=["default", "stream", "first-race", "stream-first-race",
        "max-events", "stream-max-events"])
def test_every_spelling_refuses_a_late_lock_error(tmp_path, flags):
    # The census pass validates every row before any detector steps, so
    # a lock error near the end of the log refuses the file under every
    # spelling -- a race budget or an event budget would otherwise stop
    # the stream pass long before the error -- with the one-line error a
    # batch load of the file raises and nothing on stdout.
    rows = late_dropped_release(contention_rows(4000))
    path = tmp_path / "late-error.std"
    path.write_text(write_std(Trace(_events(rows), validate=False)))
    run = _cli(None, "analyze", str(path), *flags)
    assert run.returncode == 2, run.stdout
    assert run.stdout == ""
    assert "error: " + run.stderr.strip() == "error: " + (
        batch_verdict(rows).split(": ", 1)[1])

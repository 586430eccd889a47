#!/usr/bin/env python
"""Checkpoint/resume: survive a crash without losing the analysis pass.

The paper's central property -- WCP keeps *bounded, incrementally
maintained* state per event -- means a pass can be frozen at any event
boundary into a compact, versioned snapshot.  This walkthrough exercises
the whole subsystem:

1. **Checkpoint a pass** -- run the engine with a checkpoint directory;
   every N events it atomically writes an offset-keyed checkpoint file
   (detector snapshots through the shared codec, never pickle).
2. **"Crash" and resume** -- stop the pass mid-stream, then resume from
   the newest checkpoint in a fresh engine: the source is repositioned,
   the detectors restored, and the final report is *identical* to an
   uninterrupted run -- witnesses and distances included.
3. **Fail-fast mismatches** -- resuming with a different detector
   configuration is refused with an actionable error instead of a
   silently-wrong report.
4. **Sharded resume** -- the multi-core engine checkpoints through the
   same code path: each worker's snapshot plus the partitioner state,
   restorable even on a different transport mode.

Run with::

    python examples/checkpoint_resume.py
"""

import shutil
import tempfile
from pathlib import Path

from repro import (
    Checkpointer,
    CheckpointMismatchError,
    EngineConfig,
    RaceEngine,
    ShardedEngine,
    TraceBuilder,
    WCPDetector,
    resume_engine,
    run_engine,
)


def build_trace(rounds=120):
    """A trace long enough to checkpoint, with one WCP-predictable race.

    Two workers take turns in critical sections of one lock, but each
    touches only its own counter inside -- the sections do not conflict,
    so WCP (unlike HB) does not order them, and the unprotected ``flag``
    write/read pair is a predictable race (the paper's Figure 2b shape,
    stretched long enough to span several checkpoints).
    """
    builder = TraceBuilder()
    builder.write("t1", "flag", loc="init.py:1")
    for round_number in range(rounds):
        for thread in ("t1", "t2"):
            builder.acquire(thread, "l")
            builder.read(thread, "counter_%s" % thread, loc="%s.py:10" % thread)
            builder.write(thread, "counter_%s" % thread, loc="%s.py:11" % thread)
            builder.release(thread, "l")
    builder.read("t2", "flag", loc="worker.py:40")  # races with init.py:1
    return builder.build()


def fingerprint(report):
    return [
        (tuple(sorted(pair.locations)), pair.first_event.index,
         pair.second_event.index)
        for pair in report.pairs()
    ]


def main():
    trace = build_trace()
    workdir = Path(tempfile.mkdtemp(prefix="repro-ckpt-"))
    try:
        # The ground truth: one uninterrupted pass.
        reference = run_engine(trace, detectors=["wcp", "hb"])
        print("uninterrupted run: %d event(s), WCP=%d race(s), HB=%d" % (
            reference.events, reference["WCP"].count(), reference["HB"].count(),
        ))

        # 1. Checkpoint every 100 events; stop "crashed" at the midpoint.
        checkpoint_dir = workdir / "checkpoints"
        config = (
            EngineConfig()
            .with_detectors("wcp", "hb")
            .with_checkpoints(checkpoint_dir, every=100)
            .stop_after_events(len(trace) // 2)
        )
        RaceEngine(config).run(trace)
        offsets = Checkpointer(checkpoint_dir).offsets()
        print("\nafter the 'crash': checkpoints at offsets %s" % offsets)

        # 2. Resume in a fresh engine.  The detectors are rebuilt from the
        # checkpoint's configuration stamps -- no selection needed -- and
        # the trace is replayed from the checkpointed offset only.
        result = resume_engine(trace, checkpoint_dir)
        print("resumed run:       %d event(s), WCP=%d race(s), HB=%d" % (
            result.events, result["WCP"].count(), result["HB"].count(),
        ))
        assert result.events == reference.events
        for key in reference.keys():
            assert fingerprint(result[key]) == fingerprint(reference[key])
        print("report parity: witnesses and distances identical")

        # 3. A mismatched resume fails fast instead of lying: here WCP is
        # configured differently from the checkpointed one.
        try:
            resume_engine(
                trace, checkpoint_dir,
                detectors=[WCPDetector(strict_pseudocode=True), "hb"],
            )
        except CheckpointMismatchError as error:
            print("\nmismatched resume refused:\n  %s" % error)

        # 4. The sharded engine checkpoints through the same code path.
        shard_dir = workdir / "sharded"
        sharded_config = (
            EngineConfig()
            .with_detectors("wcp", "hb")
            .with_shards(3, mode="serial", batch_size=64)
            .with_checkpoints(shard_dir, every=100)
            .stop_after_events(len(trace) // 2)
        )
        ShardedEngine(sharded_config).run(trace)
        sharded = ShardedEngine(
            EngineConfig().with_shards(3, mode="serial", batch_size=64)
        ).resume(trace, shard_dir)
        for key in reference.keys():
            assert fingerprint(sharded[key]) == fingerprint(reference[key])
        print("\nsharded resume: 3 workers restored, merged report identical "
              "to the single engine")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()

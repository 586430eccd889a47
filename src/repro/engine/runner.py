"""The run supervisor: coordinator crashes become bounded resumes.

PR 7 made the sharded engine survive *worker* death, but the coordinator
process itself -- the one iterating the source, whether it drives a
:class:`~repro.engine.RaceEngine` or a
:class:`~repro.engine.ShardedEngine` -- remained a single point of
failure: a SIGKILL or OOM lost the whole run.  :class:`RunSupervisor`
closes that gap with the PR 5 checkpoint directory:

* every attempt executes the engine pass in a supervised **child
  process** (fork), checkpointing detector state into the directory at a
  fixed event cadence;
* when the child vanishes without reporting a result (killed, OOMed, or
  an injected :meth:`~repro.engine.faults.Fault.kill_coordinator`
  fault), the supervisor waits out an exponential backoff and spawns a
  fresh child that **resumes** from the newest intact checkpoint
  (:func:`~repro.api.resume_engine`) -- or from the stream start when no
  checkpoint landed yet;
* deterministic child errors (validation failures, checkpoint
  mismatches, :class:`~repro.engine.supervision.WorkerFailure`) are
  *not* retried: they are re-raised in the caller, exactly once;
* when the retry budget is spent, one actionable
  :class:`CoordinatorFailure` names the crash count and the remedy.

Because resume replays the identical suffix into detectors restored
from the identical snapshot, the final report -- witnesses and
distances included -- equals the uninterrupted run's byte for byte
(asserted by ``tests/test_runner.py`` for WCP and HB, sharded and
unsharded).  The number of coordinator restarts is folded into
``EngineResult.supervision`` next to the PR 7 worker counters.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import time
from typing import Optional

from repro.engine.checkpoint import (
    CheckpointError,
    CheckpointMismatchError,
    Checkpointer,
)
from repro.engine.sources import EventSource, SourceWrapper, as_source

__all__ = ["CoordinatorFailure", "RunSupervisor"]

#: Exit status of an injected coordinator kill (mirrors 128+SIGKILL so
#: the supervisor treats it exactly like the real thing).
_KILL_EXIT = 137


class CoordinatorFailure(RuntimeError):
    """The supervised engine process kept dying; the retry budget is spent.

    The one actionable error the run supervisor raises for repeated
    coordinator death -- it names the attempt count, the checkpoint
    directory and what to do next, never a bare broken-pipe traceback.
    """


class _KillAt(SourceWrapper, EventSource):
    """Transparent source wrapper that hard-exits the process at an offset.

    The injection vehicle for
    :meth:`~repro.engine.faults.Fault.kill_coordinator`: the wrapped
    source behaves identically until ``at_event`` events (absolute
    stream offset, resumes included) have been handed out, then the
    process ``os._exit``\\ s -- no exception propagation, no cleanup, no
    final checkpoint: what a SIGKILL looks like from inside.
    """

    def __init__(self, inner, at_event: int) -> None:
        super().__init__(as_source(inner))
        self._at = at_event
        self._offset = 0

    def seek_events(self, events: int) -> None:
        super().seek_events(events)
        self._offset = events

    def batches(self):
        # The events before the offset are handed out (and stepped)
        # first; the process dies when the consumer asks for more.
        position = self._offset
        at = self._at
        for block in self._inner.batches():
            if position + len(block) > at:
                if at > position:
                    yield block[:at - position]
                os._exit(_KILL_EXIT)
            yield block
            position += len(block)


def _child_main(
    conn,
    source,
    detectors,
    config,
    checkpoint_dir,
    checkpoint_every,
    kill_at: Optional[int],
) -> None:
    """One supervised attempt (runs in the forked child).

    Resumes from the directory's newest intact checkpoint when one
    exists, else runs fresh with checkpointing enabled; reports
    ``("ok", result)`` or ``("error", exception)`` over the pipe.  A
    crash reports nothing -- the parent sees the process sentinel fire.
    """
    try:
        # Lead a fresh process group: process-mode shard workers forked
        # below inherit it (and the result pipe's write end), so after a
        # hard kill the supervisor can sweep the whole group instead of
        # leaking orphaned workers that hold the pipe open forever.
        os.setpgid(0, 0)
    except OSError:  # pragma: no cover - permitted to fail (e.g. setsid)
        pass
    try:
        from repro.api import resume_engine, run_engine

        event_source = source() if callable(source) else source
        if kill_at is not None:
            event_source = _KillAt(event_source, kill_at)
        resume = bool(Checkpointer(checkpoint_dir).offsets())
        if resume:
            try:
                # The *directory* (not a loaded Checkpoint) keeps the
                # resumed pass checkpointing into it at the original
                # cadence, so a second crash resumes from a later offset.
                result = resume_engine(
                    event_source, checkpoint_dir, config=config
                )
            except CheckpointMismatchError:
                raise
            except CheckpointError:
                # Every retained file is corrupt: fall back to a fresh
                # run rather than wedging the supervisor on a dead
                # directory (it keeps checkpointing into the same one).
                resume = False
        if not resume:
            result = run_engine(
                event_source, detectors, config=config,
                checkpoint=checkpoint_dir, checkpoint_every=checkpoint_every,
            )
        payload = ("ok", result)
    except BaseException as error:  # deterministic: reported, not retried
        try:
            payload = ("error", error)
            conn.send(payload)
        except Exception:
            conn.send(("error", RuntimeError(
                "%s: %s" % (type(error).__name__, error)
            )))
        return
    try:
        conn.send(payload)
    except Exception:
        # An unpicklable result is a deterministic failure, not a crash.
        conn.send(("error", RuntimeError(
            "engine result could not be sent back to the supervisor"
        )))


class RunSupervisor:
    """Execute an engine run in a supervised, auto-resuming child process.

    Parameters
    ----------
    source:
        Anything :func:`~repro.engine.as_source` accepts, or a
        zero-argument callable returning one (called inside each child,
        so crashed attempts never share iterator state).
    detectors / config:
        Forwarded to :func:`~repro.api.run_engine`; sharded
        configurations are supervised the same way.  Resumed attempts
        rebuild detectors from the checkpoint stamps.
    checkpoint_dir:
        Where the child persists detector state (every
        ``checkpoint_every`` events).  None creates a private temporary
        directory, removed after a successful run.
    retries:
        Coordinator restarts allowed before :class:`CoordinatorFailure`
        (each restart resumes from the newest intact checkpoint).
    backoff_s / backoff_max_s:
        Exponential restart backoff, matching the worker supervisor's.
    fault_plan:
        Deterministic harness hook: each
        :meth:`~repro.engine.faults.Fault.kill_coordinator` fault makes
        one successive child hard-exit at an exact event offset
        (defaults to ``config.fault_plan``).

    Usage::

        supervisor = RunSupervisor("trace.std", detectors=["wcp"],
                                   checkpoint_dir="ckpts", retries=3)
        result = supervisor.run()   # survives SIGKILL/OOM of the engine
        result.supervision["coordinator_restarts"]
    """

    def __init__(
        self,
        source,
        detectors=None,
        config=None,
        checkpoint_dir=None,
        checkpoint_every: Optional[int] = None,
        retries: int = 2,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
        fault_plan=None,
    ) -> None:
        if retries < 0:
            raise ValueError("coordinator retries must be >= 0")
        self.source = source
        self.detectors = detectors
        self.config = config
        self._owns_dir = checkpoint_dir is None
        self.checkpoint_dir = (
            checkpoint_dir if checkpoint_dir is not None
            else tempfile.mkdtemp(prefix="repro-supervised-")
        )
        self.checkpoint_every = checkpoint_every
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.fault_plan = (
            fault_plan if fault_plan is not None
            else getattr(config, "fault_plan", None)
        )
        #: Coordinator restarts performed by the last :meth:`run`.
        self.restarts = 0

    def run(self):
        """Run to completion (or exhaustion), resuming across crashes."""
        plan = self.fault_plan
        self.restarts = 0
        last_exit: Optional[int] = None
        while True:
            # Each attempt arms at most one (one-shot) coordinator-kill
            # fault, so a plan with N kills crashes N successive children.
            kill_at = (
                plan.take_coordinator_kill() if plan is not None else None
            )
            outcome = self._attempt(kill_at)
            if outcome is not None:
                kind, payload = outcome
                if kind == "ok":
                    self._fold_supervision(payload)
                    self._cleanup()
                    return payload
                raise payload  # deterministic child error, never retried
            last_exit = self._last_exitcode
            if self.restarts >= self.retries:
                raise CoordinatorFailure(
                    "engine process died %d time(s) (last exit status %s) "
                    "and the retry budget is exhausted; checkpoints up to "
                    "the last crash remain in %s -- resume manually with "
                    "resume_engine()/--resume, or raise the retry budget "
                    "(--auto-resume)"
                    % (self.restarts + 1, last_exit, self.checkpoint_dir)
                )
            delay = min(
                self.backoff_max_s, self.backoff_s * (2 ** self.restarts)
            )
            if delay > 0:
                time.sleep(delay)
            self.restarts += 1

    # ------------------------------------------------------------------ #
    # One attempt
    # ------------------------------------------------------------------ #

    def _attempt(self, kill_at: Optional[int]):
        """Fork one supervised child; None means it crashed silently."""
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            context = multiprocessing.get_context()
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(
            target=_child_main,
            args=(
                sender, self.source, self.detectors, self.config,
                self.checkpoint_dir, self.checkpoint_every, kill_at,
            ),
            name="repro-supervised-run",
        )
        child.start()
        sender.close()
        try:
            message = self._await_child(receiver, child)
        finally:
            receiver.close()
            child.join()
        self._last_exitcode = child.exitcode
        if message is None:
            self._sweep_orphans(child)
        return message

    @staticmethod
    def _await_child(receiver, child):
        """Wait for the child's reply or its death, whichever is first.

        Neither pipe EOF nor the process sentinel can signal death on
        their own: a killed child's own shard workers (process mode)
        survive as orphans holding inherited copies of both write ends,
        which would hold them off forever.  ``is_alive`` (``waitpid``)
        is the only descendant-proof death signal, so poll it.
        """
        while True:
            if receiver.poll(0.05):
                try:
                    return receiver.recv()
                except EOFError:
                    return None
            if not child.is_alive():
                # Died.  The reply, if any, was sent before exit and is
                # already buffered -- one final grace poll picks it up.
                if receiver.poll(0.25):
                    try:
                        return receiver.recv()
                    except EOFError:
                        return None
                return None

    @staticmethod
    def _sweep_orphans(child) -> None:
        """Kill what remains of a crashed child's process group."""
        if child.pid is None:  # pragma: no cover - never started
            return
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        except OSError:  # pragma: no cover - platform quirks
            pass

    _last_exitcode: Optional[int] = None

    def _fold_supervision(self, result) -> None:
        supervision = getattr(result, "supervision", None)
        if supervision is None:
            supervision = {}
            result.supervision = supervision
        supervision["coordinator_restarts"] = (
            supervision.get("coordinator_restarts", 0) + self.restarts
        )

    def _cleanup(self) -> None:
        if self._owns_dir:
            shutil.rmtree(self.checkpoint_dir, ignore_errors=True)

    def __repr__(self) -> str:
        return "RunSupervisor(dir=%r, retries=%d, restarts=%d)" % (
            str(self.checkpoint_dir), self.retries, self.restarts,
        )

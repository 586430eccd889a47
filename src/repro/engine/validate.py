"""Online stream validation: O(1)-per-event trace well-formedness checks.

:class:`~repro.trace.trace.Trace` validates lock semantics and well
nestedness at construction time -- which requires materialising the
trace.  The streaming paths (CLI ``analyze``/``compare``, push sources,
the serve subcommand) never build a :class:`Trace`; they validate online
instead, so a malformed stream is rejected rather than corrupting
detector state.

:class:`~repro.trace.lockcheck.OnlineValidator` (defined next to the
``Trace`` that runs it too, and importable from here) carries one state
from block to block: with the compiled kernels one C call per block over
its columns, on a state of per-thread stacks of open critical sections
(the holders derived from them); without them the
:class:`~repro.trace.semantics.LockDiscipline` specification, row by
row.  State is proportional to the number of *currently open* critical
sections -- never to the length of the stream -- and shrinks back as
sections close.  On a violation ``LockDiscipline`` raises the
**identical exception class and message** that ``Trace(validate=True)``
raises on the materialised prefix, so callers cannot tell (and tests
assert) which path or backend rejected the stream.  Checkpoints carry
the state in ``LockDiscipline.state_dict()``'s format under either
backend.

:class:`ValidatingSource` wraps any event source with an online
validator, transparently forwarding the source protocol
(:class:`~repro.engine.sources.SourceWrapper`) so wrapped traces and
files keep their census and checkpoints keep the validator state.  A
file's census pass runs the wrapper's validator over every row, so a
malformed file is refused before any detector steps, and the stream
pass restarts that validator on a clean state: both passes decode
through the file's one op table, so no lock is translated twice.  The
CLI wires it into ``analyze`` and ``compare`` (``--no-validate`` opts
out).  The
``serve`` subcommand does not wrap its connections: its pump
reads ahead of the pass, so a source-side validator would run ahead of
the events stepped.  Instead each session drives an
:class:`OnlineValidator` from its drive loop, checking every block just
before stepping it, in step order.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, List, Optional

from repro.engine.sources import EventSource, SourceWrapper, as_source
from repro.trace.event import Event
from repro.trace.lockcheck import OnlineValidator
from repro.trace.trace import ThreadCensus
from repro.trace.trace import LockSemanticsError, WellNestednessError  # noqa: F401  (re-exported API)

__all__ = ["OnlineValidator", "ValidatingSource"]

#: Why a validated pass cannot resume from a checkpoint without validator
#: state; raised by :class:`ValidatingSource` and by the serve tier's
#: handshake resume alike.
NEEDS_VALIDATOR_STATE = (
    "resuming a validated stream mid-way requires the checkpoint to carry "
    "validator state, and this checkpoint carries none (it was written "
    "without validation, or by an in-memory trace pass); resume with "
    "--no-validate"
)


class ValidatingSource(SourceWrapper, EventSource):
    """Wrap a source with online validation; otherwise fully transparent.

    Accepts anything :func:`~repro.engine.sources.as_source` accepts,
    and refuses the rest with its ``TypeError``.  The source protocol
    is forwarded (:class:`~repro.engine.sources.SourceWrapper`), so
    wrapping a trace or a file costs detectors nothing they would have
    read.

    One :class:`OnlineValidator` checks every pass: a file's census
    pass, then each iteration pass, which restarts it from a clean state
    (:meth:`OnlineValidator.restart`; replayable sources like
    :class:`~repro.engine.sources.FileSource` restart from scratch) and
    so reuses its translation of the file's op table and registry.  The
    validator of the most recent pass is kept on :attr:`validator` for
    inspection.
    """

    def __init__(self, inner, name: Optional[str] = None) -> None:
        super().__init__(as_source(inner), name)
        #: The validator of the most recent (or current) pass.
        self.validator = OnlineValidator()
        #: Restored validator to adopt on the next iteration pass (resume).
        self._resume_validator: Optional[OnlineValidator] = None
        #: Set by a non-zero seek: iteration refuses to start without a
        #: restored validator (a fresh one would spuriously reject valid
        #: suffixes whose critical sections opened in the prefix).
        self._needs_resume_validator = False

    @cached_property
    def thread_census(self) -> Optional[ThreadCensus]:
        """The wrapped source's census.  A file's census pass validates
        every row too (:meth:`FileSource.take_census
        <repro.engine.sources.FileSource.take_census>`), so a malformed
        file is refused before any detector steps."""
        take_census = getattr(self._inner, "take_census", None)
        if take_census is None:
            return super().thread_census
        self.validator.restart()
        return take_census(self.validator)

    def seek_events(self, events: int) -> None:
        """Delegate positioning to the wrapped source (checkpoint/resume).

        Validating a stream *suffix* soundly requires the validator state
        at the seek offset (prefix-opened critical sections would
        otherwise make valid releases look unmatched), so seeking also
        arms a check that :meth:`restore_checkpoint_state` supplies one
        before iteration starts.
        """
        super().seek_events(events)
        self._needs_resume_validator = events > 0

    def checkpoint_state(self, events: Optional[int] = None) -> dict:
        """Bundle the online validator's state at stream offset ``events``
        (default: everything checked) into engine checkpoints."""
        return {"validator": self.validator.state_dict(events)}

    def restore_checkpoint_state(self, state: dict) -> None:
        """Adopt a checkpointed validator for the next iteration pass."""
        validator = state.get("validator")
        if validator is not None:
            self._resume_validator = OnlineValidator.from_state(validator)

    def batches(self) -> Iterator[List[Event]]:
        """The wrapped source's blocks, each checked before it is yielded.

        On a violation the block's valid prefix is yielded first and the
        error raised on the next pull, so a pass reaches exactly the
        events (and checkpoints and snapshots) it would reach consuming
        the stream one event at a time.
        """
        if self._needs_resume_validator and self._resume_validator is None:
            raise ValueError(NEEDS_VALIDATOR_STATE)
        if self._resume_validator is not None:
            self.validator = self._resume_validator
            self._resume_validator = None
        else:
            self.validator.restart()
        validator = self.validator
        for block in self._inner.batches():
            block, error = validator.check_batch(block)
            if block:
                yield block
            if error is not None:
                raise error

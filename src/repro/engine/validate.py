"""Online stream validation: O(1)-per-event trace well-formedness checks.

:class:`~repro.trace.trace.Trace` validates lock semantics and well
nestedness at construction time -- which requires materialising the
trace.  The streaming paths (CLI ``--stream``, push sources, the serve
subcommand) never build a :class:`Trace`, so before this module they
silently skipped validation: a malformed stream corrupted detector
state instead of being rejected.

:class:`OnlineValidator` performs exactly the same checks incrementally,
with **O(1) work and state per event**: a held-lock map (lock ->
holding thread + acquire position, the ``LockDiscipline`` ``holder``
that ``Trace`` validation uses too) and a per-thread stack of open
critical sections.  State is proportional to the number of *currently
open* critical sections -- never to the length of the stream -- and
shrinks back as sections close.  On a violation it raises the **identical exception class and
message** that ``Trace(validate=True)`` raises on the materialised
prefix, so callers cannot tell (and tests assert) which path rejected
the stream.

:class:`ValidatingSource` wraps any event source with an online
validator, transparently forwarding the source protocol
(:class:`~repro.engine.sources.SourceWrapper`) so wrapped traces and
files keep their census and checkpoints keep the validator state.  The
CLI wires it in by default under ``--stream`` (``--no-validate`` opts
out).  The ``serve`` subcommand does not wrap its connections: its pump
reads ahead of the pass, so a source-side validator would run ahead of
the events stepped.  Instead each session drives an
:class:`OnlineValidator` from its drive loop, checking every block just
before stepping it, in step order.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.engine.sources import EventSource, SourceWrapper, as_source
from repro.trace.columns import ColumnBlock
from repro.trace.event import Event
from repro.trace.semantics import LockDiscipline
from repro.trace.trace import LockSemanticsError, WellNestednessError  # noqa: F401  (re-exported API)

__all__ = ["OnlineValidator", "ValidatingSource"]

#: Why a validated pass cannot resume from a checkpoint without validator
#: state; raised by :class:`ValidatingSource` and by the serve tier's
#: handshake resume alike.
NEEDS_VALIDATOR_STATE = (
    "resuming a validated stream mid-way requires the checkpoint to carry "
    "validator state (checkpoints written by a non-streaming run do not); "
    "resume without --stream, or disable validation with --no-validate"
)


class OnlineValidator:
    """Incremental lock-semantics / well-nestedness checker.

    Feed events in stream order through :meth:`check`; the validator
    numbers them by position (the same renumbering :class:`Trace` and
    the engine apply), so error messages quote the same event indices a
    batch ``Trace(validate=True)`` would.

    The checks themselves live in one place -- the
    :class:`~repro.trace.semantics.LockDiscipline` state machine that
    ``Trace`` construction drives too, so both paths raise the identical
    exception class and message by construction.  State is proportional
    to the number of *currently open* critical sections (exclusive and
    read-mode) -- never to the length of the stream -- and shrinks back
    as sections close.
    """

    def __init__(self) -> None:
        self._discipline = LockDiscipline()
        #: Events checked so far == the position assigned to the next event.
        self.events_checked = 0
        #: ``(offset, state, events)`` of the last :meth:`check_batch`
        #: block, so :meth:`state_dict` can report any offset inside it.
        self._block = None

    def check(self, event: Event) -> None:
        """Validate one event; raises on the first violation.

        Raises :class:`~repro.trace.semantics.LockSemanticsError` for
        overlapping/re-entrant acquires and releases with no open
        section, :class:`~repro.trace.semantics.WellNestednessError`
        for a release that does not match the innermost open acquire
        (including a release of the wrong kind, e.g. ``rel`` closing a
        reader/writer section).
        """
        index = self.events_checked
        self.events_checked = index + 1
        self._discipline.step(
            event.etype, event.thread, event.target, index, validate=True
        )

    def check_batch(
        self, events: Sequence[Event]
    ) -> Tuple[Sequence[Event], Optional[Exception]]:
        """Validate a block in stream order, stopping at the first violation.

        Returns ``(events, None)`` for a valid block, else the block's
        valid prefix and the violation -- unraised, so the caller can
        step the prefix before raising it, exactly as a per-event
        consumer would.  The validator runs ahead of the pass stepping
        the block, so the state at the block's start is kept for
        :meth:`state_dict`.  Only the rows whose kind has a
        lock-discipline role are read, from the block's columns (any
        other sequence of events is adapted to columns first).
        """
        start = self.events_checked
        self._block = (start, self._discipline.state_dict(), events)
        block = (
            events if isinstance(events, ColumnBlock)
            else ColumnBlock.from_events(events)
        )
        tids, ops = block.columns()
        optable = block.table.ops
        names = block.registry.names()
        step = self._discipline.step
        row = 0
        try:
            for row in block.sync_rows():
                etype, target = optable[ops[row]]
                step(etype, names[tids[row]], target, start + row)
        except Exception as error:
            self.events_checked = start + row + 1
            return events[:row], error
        self.events_checked = start + len(block)
        return events, None

    # ------------------------------------------------------------------ #
    # Snapshot support (checkpoint/resume protocol)
    # ------------------------------------------------------------------ #

    def state_dict(self, events: Optional[int] = None) -> dict:
        """Return the validator state as codec-encodable structures.

        A resumed stream pass restores this so prefix-opened critical
        sections are still known -- otherwise every release in the suffix
        of a section opened before the checkpoint would be (wrongly)
        rejected as unmatched.  ``events`` asks for the state at an
        earlier stream offset inside the last :meth:`check_batch` block
        (a checkpoint of a pass still stepping that block); the state
        there is rebuilt from the block's start.
        """
        if events is not None and events != self.events_checked:
            start, state, block = self._block or (None, None, ())
            if start is None or not start <= events < start + len(block):
                raise ValueError(
                    "validator state at event %d is not available "
                    "(checked %d)" % (events, self.events_checked)
                )
            replay = OnlineValidator.from_state(dict(state, events=start))
            replay.check_batch(block[:events - start])
            return replay.state_dict()
        state = self._discipline.state_dict()
        state["events"] = self.events_checked
        return state

    @classmethod
    def from_state(cls, state: dict) -> "OnlineValidator":
        """Inverse of :meth:`state_dict`.

        Accepts checkpoints written before the rwlock vocabulary: their
        open-stack entries lack the section mode (normalised to
        exclusive) and they carry no read-holder map.
        """
        validator = cls()
        validator._discipline = LockDiscipline.from_state(state)
        validator.events_checked = state["events"]
        return validator

    def state_size(self) -> int:
        """Entries currently held: open sections counted on both indexes.

        Zero on a fully closed stream; bounded by the number of
        concurrently open critical sections, never by stream length --
        the observable form of the O(1)-per-event contract.
        """
        return self._discipline.state_size()

    def __repr__(self) -> str:
        return "OnlineValidator(events_checked=%d, state=%d)" % (
            self.events_checked, self.state_size(),
        )


class ValidatingSource(SourceWrapper, EventSource):
    """Wrap a source with online validation; otherwise fully transparent.

    Accepts anything :func:`~repro.engine.sources.as_source` accepts,
    and refuses the rest with its ``TypeError``.  The source protocol
    is forwarded (:class:`~repro.engine.sources.SourceWrapper`), so
    wrapping a trace or a file costs detectors nothing they would have
    read.

    Each iteration pass runs a fresh :class:`OnlineValidator` (replayable
    sources like :class:`~repro.engine.sources.FileSource` restart from
    scratch); the most recent pass's validator is kept on
    :attr:`validator` for inspection.
    """

    def __init__(self, inner, name: Optional[str] = None) -> None:
        super().__init__(as_source(inner), name)
        #: The validator of the most recent (or current) iteration pass.
        self.validator = OnlineValidator()
        #: Restored validator to adopt on the next iteration pass (resume).
        self._resume_validator: Optional[OnlineValidator] = None
        #: Set by a non-zero seek: iteration refuses to start without a
        #: restored validator (a fresh one would spuriously reject valid
        #: suffixes whose critical sections opened in the prefix).
        self._needs_resume_validator = False

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
        self.validator = validator = (
            self._resume_validator or OnlineValidator()
        )
        self._resume_validator = None
        for block in self._inner.batches():
            block, error = validator.check_batch(block)
            if block:
                yield block
            if error is not None:
                raise error

"""Lock-discipline validation of column blocks, with state across blocks.

:class:`OnlineValidator` is the one validating entry:
``Trace(validate=True)`` runs it on a fresh state over the whole trace,
and the streaming paths (``analyze``/``compare`` through
:class:`~repro.engine.validate.ValidatingSource` -- once in the file's
census pass, once in the stream pass -- the sharded coordinator's
source, serve's drive loop) run one validator block by block.

With the compiled kernels the state is C (``lv_state`` in
:mod:`repro.vectorclock.kernels`): per thread the stack of open sections
``(lock, open index, mode)``, from which each lock's holder and
read-mode holder count are derived.  Thread ids are the blocks' tids
translated per registry, and lock ids come from the validator's own map,
translated per op table, so blocks of fresh tables and registries (the
:meth:`~repro.trace.columns.ColumnBlock.from_events` adapter) share the
state.  :meth:`OnlineValidator.restart` clears the state and keeps the
translation: a file's stream pass restarts its census pass's validator,
and since both passes decode through one op table and one registry, the
stream pass translates no lock or thread again.  One C call checks a
block; it stops at the first row
:class:`~repro.trace.semantics.LockDiscipline` would refuse, and the
state there is exported into a ``LockDiscipline``, which steps the row
and raises the exact error.  A row the C pass declines and
``LockDiscipline`` accepts is an internal error, never an accept.

Under ``REPRO_CLOCK_KERNEL=python`` the ``LockDiscipline`` is the state,
stepped over the rows with a role.  Either way the exported state is
``LockDiscipline.state_dict()``'s, so checkpoints carry one format.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from repro.trace.columns import ColumnBlock
from repro.trace.event import Event
from repro.trace.semantics import LockDiscipline, TraceError

__all__ = ["OnlineValidator"]

#: C section mode -> the ``LockDiscipline`` mode.
_MODES = ("excl", "read", "write")

#: ``LockDiscipline`` mode -> its C code.
_MODE_CODES = {mode: code for code, mode in enumerate(_MODES)}


def _step(discipline: LockDiscipline, block: ColumnBlock,
          start: int) -> Tuple[int, Optional[TraceError]]:
    """Step ``block``'s rows with a role through ``discipline``; return
    the rows that hold and the first error (None when all hold)."""
    tids, ops = block.columns()
    optable = block.table.ops
    names = block.registry.names()
    step = discipline.step
    row = 0
    try:
        for row in block.sync_rows():
            etype, target = optable[ops[row]]
            step(etype, names[tids[row]], target, start + row)
    except TraceError as error:
        return row, error
    return len(block), None


class OnlineValidator:
    """Incremental lock-semantics / well-nestedness checker.

    Feed blocks in stream order through :meth:`check_batch` (or single
    events through :meth:`check`); the validator numbers events by
    position (the same renumbering :class:`~repro.trace.trace.Trace` and
    the engine apply), so error messages quote the same event indices a
    batch ``Trace(validate=True)`` would -- which runs this class.
    State is proportional to the number of *currently open* critical
    sections (exclusive and read-mode) -- never to the length of the
    stream -- and shrinks back as sections close.
    """

    def __init__(self) -> None:
        from repro.vectorclock import kernels

        #: Events checked so far == the position assigned to the next event.
        self.events_checked = 0
        #: ``(offset, block)`` of the last :meth:`check_batch` call, whose
        #: starting state is kept, so :meth:`state_dict` can report any
        #: offset inside it.
        self._block: Optional[Tuple[int, ColumnBlock]] = None
        #: The Python state (None: the compiled state is live), and its
        #: copy at the last block's start.
        self._discipline: Optional[LockDiscipline] = None
        self._marked: Optional[dict] = None
        if kernels.BACKEND != "cffi":
            self._discipline = LockDiscipline()
            return
        self._ffi, self._lib = kernels.ffi, kernels.lib
        self._handle = self._new()
        self._lock_ids: Dict[str, int] = {}
        self._lock_names: List[str] = []
        self._thread_ids: Dict[str, int] = {}
        self._thread_names: List[str] = []
        # Translation of the last op table (a lock id per op) and of the
        # last registry (a thread id per tid).
        self._table = None
        self._locks = array("i")
        self._registry = None
        self._tids = array("i")

    def restart(self) -> None:
        """Start over from a clean state at event 0, keeping the
        translation of the op tables and registries seen so far: a second
        pass over a file, whose blocks share the first pass's op table
        and registry, translates no lock or thread again."""
        self.events_checked = 0
        self._block = None
        self._marked = None
        if self._discipline is not None:
            self._discipline = LockDiscipline()
        else:
            self._handle = self._new()

    def check(self, event: Event) -> None:
        """Validate one event; raises on the first violation.

        Raises :class:`~repro.trace.semantics.LockSemanticsError` for
        overlapping/re-entrant acquires and releases with no open
        section, :class:`~repro.trace.semantics.WellNestednessError`
        for a release that does not match the innermost open acquire
        (including a release of the wrong kind, e.g. ``rel`` closing a
        reader/writer section).
        """
        error = self.check_batch([event])[1]
        if error is not None:
            raise error

    def check_batch(
        self, events: Sequence[Event]
    ) -> Tuple[Sequence[Event], Optional[TraceError]]:
        """Validate a block in stream order, stopping at the first violation.

        Returns ``(events, None)`` for a valid block, else the block's
        valid prefix and the violation -- unraised, so the caller can
        step the prefix before raising it, exactly as a per-event
        consumer would.  The validator runs ahead of the pass stepping
        the block, so the state at the block's start is kept for
        :meth:`state_dict`.  The block's columns are read (any other
        sequence of events is adapted to columns first).
        """
        start = self.events_checked
        block = (
            events if isinstance(events, ColumnBlock)
            else ColumnBlock.from_events(events)
        )
        self._block = (start, block)
        if self._discipline is not None:
            self._marked = self._discipline.state_dict()
            row, error = _step(self._discipline, block, start)
        else:
            self._call(self._lib.lv_mark_now(self._handle))
            row = self._run(self._handle, block, start)
            error = None if row == len(block) else self._error(
                block, row, start
            )
        if error is None:
            self.events_checked = start + len(block)
            return events, None
        self.events_checked = start + row + 1
        return events[:row], error

    def _error(self, block: ColumnBlock, row: int, start: int) -> TraceError:
        """``LockDiscipline``'s error at the row the C pass declined."""
        tids, ops = block.columns()
        etype, lock = block.table.ops[ops[row]]
        try:
            LockDiscipline.from_state(self._export(self._handle)).step(
                etype, block.registry.name_of(tids[row]), lock, start + row
            )
        except TraceError as error:
            return error
        raise RuntimeError(
            "the compiled lock validator declined event %d, which "
            "LockDiscipline accepts" % (start + row,)
        )

    # ------------------------------------------------------------------ #
    # The compiled state
    # ------------------------------------------------------------------ #

    def _new(self):
        handle = self._lib.lv_new()
        if handle == self._ffi.NULL:
            raise MemoryError("lock validator")
        return self._ffi.gc(handle, self._lib.lv_free)

    @staticmethod
    def _call(code: int) -> int:
        if code == -1:
            raise MemoryError("lock validator")
        if code < 0:
            raise RuntimeError("lock validator: id out of range")
        return code

    def _lock_id(self, lock: str) -> int:
        lock_id = self._lock_ids.get(lock)
        if lock_id is None:
            lock_id = self._lock_ids[lock] = len(self._lock_names)
            self._lock_names.append(lock)
        return lock_id

    def _thread_id(self, thread: str) -> int:
        thread_id = self._thread_ids.get(thread)
        if thread_id is None:
            thread_id = self._thread_ids[thread] = len(self._thread_names)
            self._thread_names.append(thread)
        return thread_id

    def _run(self, handle, block: ColumnBlock, start: int) -> int:
        """Run ``block`` on ``handle``; return the first row declined
        (``len(block)`` when none is)."""
        ffi, lib = self._ffi, self._lib
        tids, ops = block.columns()
        if not tids:
            return 0
        table = block.table
        roles = table.roles()
        if table is not self._table:
            self._table = table
            self._locks = array("i")
        done = len(self._locks)
        if done < len(table.ops):
            lock_id = self._lock_id
            self._locks.extend(
                lock_id(target) if role else 0
                for role, (_, target) in zip(roles[done:], table.ops[done:])
            )
        registry = block.registry
        if registry is not self._registry:
            self._registry = registry
            self._tids = array("i")
        if len(self._tids) < len(registry):
            self._tids.extend(
                self._thread_id(registry.name_of(tid))
                for tid in range(len(self._tids), len(registry))
            )
        self._call(lib.lv_reserve(
            handle, len(self._thread_names), len(self._lock_names)
        ))
        with ffi.from_buffer("int[]", tids) as tids_p, \
                ffi.from_buffer("int[]", ops) as ops_p, \
                ffi.from_buffer("int[]", self._tids) as threads, \
                ffi.from_buffer("unsigned char[]", roles) as roles_p, \
                ffi.from_buffer("int[]", self._locks) as locks:
            return self._call(lib.lv_run(
                handle, tids_p, ops_p, len(tids), threads, len(self._tids),
                roles_p, locks, len(self._locks), start,
            ))

    def _export(self, handle) -> dict:
        """``LockDiscipline.state_dict()`` of a compiled state."""
        # Ordered as LockDiscipline's dicts are when it steps the same
        # rows: threads by their outermost open section, holders by
        # open index.
        state = self._ffi.cast("lv_state *", handle)
        threads, locks = self._thread_names, self._lock_names
        stacks = []
        for tid in range(state.nthreads):
            stack = state.threads[tid]
            if stack.n:
                secs = stack.secs
                stacks.append((threads[tid], [
                    (locks[secs[k].lock], secs[k].index, _MODES[secs[k].mode])
                    for k in range(stack.n)
                ]))
        stacks.sort(key=lambda item: item[1][0][1])
        holder: Dict[str, Tuple[str, int]] = {}
        read_holders: Dict[str, Dict[str, int]] = {}
        for index, thread, lock, mode in sorted(
            (index, thread, lock, mode)
            for thread, stack in stacks for lock, index, mode in stack
        ):
            if mode == "read":
                read_holders.setdefault(lock, {})[thread] = index
            else:
                holder[lock] = (thread, index)
        return {"holder": holder, "open": dict(stacks),
                "read_holders": read_holders}

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
        if events is None or events == self.events_checked:
            state = (self._discipline.state_dict() if self._discipline
                     is not None else self._export(self._handle))
            state["events"] = self.events_checked
            return state
        start, block = self._block or (None, ())
        if start is None or not start <= events < start + len(block):
            raise ValueError(
                "validator state at event %d is not available "
                "(checked %d)" % (events, self.events_checked)
            )
        prefix = block[:events - start]
        if self._discipline is not None:
            discipline = LockDiscipline.from_state(self._marked)
            _step(discipline, prefix, start)
            state = discipline.state_dict()
        else:
            replay = self._new()
            self._call(self._lib.lv_from_mark(replay, self._handle))
            self._run(replay, prefix, start)
            state = self._export(replay)
        state["events"] = events
        return state

    @classmethod
    def from_state(cls, state: dict) -> "OnlineValidator":
        """Inverse of :meth:`state_dict`.

        Accepts checkpoints written before the rwlock vocabulary: their
        open-stack entries lack the section mode (normalised to
        exclusive) and they carry no read-holder map.
        """
        validator = cls()
        validator.events_checked = state["events"]
        discipline = LockDiscipline.from_state(state)
        if validator._discipline is not None:
            validator._discipline = discipline
            return validator
        sections = [
            (validator._thread_id(thread), validator._lock_id(lock),
             _MODE_CODES[mode], index)
            for thread, stack in discipline.open.items()
            for lock, index, mode in stack
        ]
        lib, handle = validator._lib, validator._handle
        validator._call(lib.lv_reserve(
            handle, len(validator._thread_names), len(validator._lock_names)
        ))
        for section in sections:
            validator._call(lib.lv_open(handle, *section))
        return validator

    def state_size(self) -> int:
        """Entries currently held: open sections counted on both indexes.

        Zero on a fully closed stream; bounded by the number of
        concurrently open critical sections, never by stream length --
        the observable form of the O(1)-per-event contract.
        """
        if self._discipline is not None:
            return self._discipline.state_size()
        return 2 * self._ffi.cast("lv_state *", self._handle).open

    def __repr__(self) -> str:
        return "OnlineValidator(events_checked=%d, state=%d)" % (
            self.events_checked, self.state_size(),
        )

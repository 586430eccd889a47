"""The compiled clock kernel: WCP or HB in one C call per column block.

Algorithm 1 keeps HB's clocks as well as WCP's: ``H_t`` is the
happens-before clock of thread ``t``, with component ``t`` equal to
``N_t``, and ``H_l`` that of the last release of ``l``.  So one C core
(``wcp_state`` in :mod:`repro.vectorclock.kernels`) serves two
detectors.  :class:`~repro.core.wcp.WCPDetector` runs it in full, and
:class:`~repro.hb.hb.HBDetector` runs its HB mode, which keeps only
HB's fields (``H_t``, ``H_l``, the read-release and notify clocks, the
read-held locks and the barrier generations; no Rule (a), Rule (b),
sections or logs) and checks each access against a cached frozen
``H_t`` -- HB's ``_snap`` -- that goes only when ``H_t`` changes.  Both
go through :class:`CompiledPass`, the one kernel lifecycle: start at the
pass's first block, run each block in C while the kernel is live, and
hand over for good.

The C state mirrors the detector's Python state field for field --
per-thread ``N_t``, ``P_t``, ``H_t``, open sections, read-held rwlock
sections and barrier waits; per-lock Rule (b) logs, cursors,
reclamation state, Rule (a) cells (the read sections' too) and the
read-release and notify accumulators; per-barrier open generations;
per-variable access histories -- with the same orders wherever an order
is observable (the history's threads and cells, each log, each cell's
releasers, the lock, barrier and per-thread dicts a snapshot writes in
insertion order).  So
:meth:`WCPKernel.transcribe` can rebuild either detector's Python state
at any row boundary (one shared history transcription, then each
detector's own fields), and the Python ``process_batch`` -- the
specification -- carries on from there.

Per block the kernel reads the tid and op columns plus one code and one
dense id per op (:meth:`WCPKernel._translate`, memoised per op table).
A location reaches the kernel as a byte span of the decoded buffer
(:class:`~repro.trace.columns.LocSpans`), which it hashes into its one
UTF-8-keyed location table; Python interns only the locations it holds
as strings, and only for the access rows that reach the history.  A race
comes back as a record -- the row, and the earlier access's index,
thread, kind and location -- from which the two events are built and
reported in the order the Python loop reports them.

The kernel runs every kind of the vocabulary: accesses, acquire and
release, fork and join, begin and end, rwlock read- and write-acquires
and releases, barriers, wait and notify.  In the WCP mode it returns
before a row that would taint a lock (overlapping sections, possible
only on an unvalidated trace) or that names a thread-local lock in an
rwlock, wait or notify role (which a census never allows), and the
detector then hands over to Python for the rest of the pass; the HB
mode runs every row.  A location of None is
keyed by its row index, as the Python history keys it
(:func:`~repro.core.history.cell_key`).
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import compress
from typing import Dict, List, Optional

from repro.core.history import AccessHistory, VariableHistory, cell_key
from repro.trace.columns import ColumnBlock, LocSpans
from repro.trace.event import Event, EventType
from repro.vectorclock import kernels
from repro.vectorclock.dense import DenseClock

_new_event = Event.__new__

#: ``id(kind)`` -> the kernel's code, for every kind.
_CODES = {
    id(EventType.READ): 0,
    id(EventType.WRITE): 1,
    id(EventType.ACQUIRE): 2,
    id(EventType.RELEASE): 3,
    id(EventType.FORK): 4,
    id(EventType.JOIN): 5,
    id(EventType.BEGIN): 6,
    id(EventType.END): 6,
    id(EventType.RACQ_R): 7,
    id(EventType.RACQ_W): 8,
    id(EventType.RREL): 9,
    id(EventType.BARRIER): 10,
    id(EventType.WAIT): 11,
    id(EventType.NOTIFY): 12,
}


class CompiledPass:
    """The kernel lifecycle a clock detector mixes in.

    :meth:`_arm_kernel` (at the end of ``reset``) lets the pass's first
    block start the kernel; :meth:`_run_kernel` (at the top of
    ``process_batch``) runs each block in C while it is live and hands
    over for good -- one transcription into the Python fields -- at the
    first row it does not run (a row that would taint a lock).  While it
    is live the Python fields are stale: ``state_snapshot``,
    ``sync_clock_state`` and pickling :meth:`_sync` first, and
    ``mark_foreign`` :meth:`_hand_over`.  ``finish`` (:meth:`_end_pass`)
    leaves a live kernel holding the pass's state, so a pass nobody
    inspects after ``finish`` -- every serve session -- never pays for
    the transcription; code that reads a detector's fields directly
    after ``finish`` calls :meth:`_sync` first.

    :attr:`kernel_rows` counts the rows the pass ran in C, and
    :attr:`kernel_exit` says why the kernel never started (``"not armed:
    <why>"``, ``"short first block"``) or where it handed over
    (``"taint"``, ``"mark_foreign"``, ``"finish"``).  Both are
    deterministic and stay out of the report.
    """

    #: A first block with fewer rows than this keeps the pass on the
    #: Python path: the kernel could not win back its start and
    #: transcription there.  A serve session's first block is one
    #: latency-sample run of 64 rows, so its kernel starts.
    _KERNEL_MIN_ROWS = 64

    #: Private per-instance switch: False keeps this detector on the
    #: Python path even when the compiled kernels are active.
    _use_kernel = True

    #: The kernel's mode: HB (``H_t`` and ``H_l`` only) or WCP.
    _hb_kernel = False

    #: The live compiled state (None: the Python fields are the state),
    #: whether the next block starts it, and whether the Python fields
    #: are current.
    _kernel = None
    _kernel_pending = False
    _synced = True

    #: Rows of this pass the kernel ran, and why it never started or
    #: handed over (None while it may still run).
    kernel_rows = 0
    kernel_exit: Optional[str] = None

    def _arm_kernel(self, refused: Optional[str] = None) -> None:
        """Drop any compiled state, and let the next block start the
        kernel from the Python state as it stands -- unless ``refused``
        names why this pass may not, or the compiled kernels are off, the
        per-instance switch is off or a restore is pending."""
        if refused is None:
            if kernels.BACKEND != "cffi":
                refused = "backend"
            elif not self._use_kernel:
                refused = "switch"
            elif self.restore_pending:
                refused = "restore"
        self._kernel = None
        self._synced = True
        self._kernel_pending = refused is None
        self.kernel_rows = 0
        self.kernel_exit = None if refused is None else "not armed: " + refused

    def _run_kernel(self, block: ColumnBlock) -> Optional[ColumnBlock]:
        """Run ``block`` in the kernel as far as it goes; return the rows
        left for the Python loop (None: every row ran)."""
        kernel = self._kernel
        if kernel is None and self._kernel_pending:
            self._kernel_pending = False
            if len(block) >= self._KERNEL_MIN_ROWS:
                kernel = self._kernel = WCPKernel(self)
            else:
                self.kernel_exit = "short first block"
        if kernel is None:
            return block
        self._synced = False
        done = kernel.run(block, self.report.add, self)
        self.kernel_rows += done
        if done == len(block):
            return None
        self._hand_over("taint")
        return block[done:]

    def _sync(self) -> None:
        """Bring the Python fields up to date with a live kernel."""
        if not self._synced:
            self._kernel.transcribe(self)
            self._synced = True

    def _hand_over(self, reason: str) -> None:
        """Transcribe the compiled state and continue in Python for good;
        ``reason`` becomes :attr:`kernel_exit` if the kernel was live or
        could still start."""
        if self._kernel is not None or self._kernel_pending:
            self.kernel_exit = reason
        self._kernel_pending = False
        if self._kernel is not None:
            self._sync()
            self._kernel = None

    def _end_pass(self) -> None:
        """At ``finish``: record the exit if the kernel was live or could
        still start; a live kernel keeps the state (see the class
        docstring)."""
        if self._kernel is not None or self._kernel_pending:
            self.kernel_exit = "finish"
        self._kernel_pending = False

    def kernel_counts(self) -> Dict[str, object]:
        """``{"rows": rows run in C, "exit": why it stopped or never
        started}`` for this pass (see the class docstring)."""
        return {"rows": self.kernel_rows, "exit": self.kernel_exit}

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the Python state (a live kernel's transcribed); the copy
        continues on the Python path."""
        self._sync()
        state = dict(self.__dict__)
        state["_kernel"] = None
        return state


class WCPKernel:
    """The compiled state of one WCP or HB pass (see the module docstring)."""

    def __init__(self, detector) -> None:
        ffi, lib = kernels.ffi, kernels.lib
        self._ffi = ffi
        self._lib = lib
        hb = self._hb = detector._hb_kernel
        handle = lib.wcp_new(int(not hb and detector._effective_prune),
                             int(hb))
        if handle == ffi.NULL:
            raise MemoryError("wcp_new")
        self._handle = ffi.gc(handle, lib.wcp_free)
        self._state = ffi.cast("wcp_state *", handle)
        self._registry = detector._registry
        self._out = ffi.new("long long[2]")
        self._lock_ids: Dict[str, int] = {}
        self._lock_names: List[Optional[str]] = [None]
        self._var_ids: Dict[str, int] = {}
        self._var_names: List[Optional[str]] = [None]
        self._barrier_ids: Dict[str, int] = {}
        self._barrier_names: List[str] = []
        self._local_variables = detector._local_variables
        # The census' locks (HB keeps a clock for every lock instead).
        # Thread-local ones keep their Python state: nothing ever changes
        # it.  In C, all of them share one lock id, and all thread-local
        # variables one variable id.
        census_locks = {} if hb else detector._locks
        # Their order, which the transcribed ``_locks`` keeps.
        self._census_locks = list(census_locks)
        self._local_locks = {
            lock: state for lock, state in census_locks.items()
            if state.local
        }
        self._shared_lock = self._check(lib.wcp_add_lock(handle, 1))
        self._check(lib.wcp_census_lock(handle, self._shared_lock, -1))
        self._shared_var = self._check(lib.wcp_add_var(handle, 1))
        self._loc_ids: Dict[str, int] = {}
        self._loc_names: Dict[int, str] = {}
        # Op translation of the last op table seen: a code and an id per
        # op in C arrays, and per op whether its rows reach the history.
        self._table = None
        self._n_ops = 0
        self._kinds = ffi.new("unsigned char[]", 64)
        self._targets = ffi.new("int[]", 64)
        self._checked = bytearray()
        self._decoded = None
        self._decoded_ids = array("i")
        # The reset state: initialised threads and the census' locks.
        if hb:
            tids = [
                tid for tid, clock in enumerate(detector._clocks)
                if clock is not None
            ]
        else:
            tids = map(self._registry.lookup, detector._thread_names)
        for tid in tids:
            self._check(lib.wcp_thread_init(handle, tid))
        for lock, state in census_locks.items():
            if state.local:
                continue
            lock_id = self._lock_id(lock)
            self._check(lib.wcp_census_lock(handle, lock_id, -1))
            for tid in state.releasers:
                self._check(lib.wcp_census_lock(handle, lock_id, tid))

    @staticmethod
    def _check(code: int) -> int:
        if code == -1:
            raise MemoryError("WCP kernel")
        if code < 0:
            raise RuntimeError("WCP kernel: id out of range")
        return code

    # ------------------------------------------------------------------ #
    # Interning: ops, locks, variables, locations
    # ------------------------------------------------------------------ #

    def _lock_id(self, lock: str) -> int:
        lock_id = self._lock_ids.get(lock)
        if lock_id is None:
            if lock in self._local_locks:
                return self._shared_lock
            lock_id = self._check(self._lib.wcp_add_lock(self._handle, 0))
            self._lock_ids[lock] = lock_id
            self._lock_names.append(lock)
        return lock_id

    def _var_id(self, variable: str) -> int:
        var_id = self._var_ids.get(variable)
        if var_id is None:
            if variable in self._local_variables:
                return self._shared_var
            var_id = self._check(self._lib.wcp_add_var(self._handle, 0))
            self._var_ids[variable] = var_id
            self._var_names.append(variable)
        return var_id

    def _barrier_id(self, barrier: str) -> int:
        barrier_id = self._barrier_ids.get(barrier)
        if barrier_id is None:
            barrier_id = self._check(self._lib.wcp_add_barrier(self._handle))
            self._barrier_ids[barrier] = barrier_id
            self._barrier_names.append(barrier)
        return barrier_id

    def _translate(self, table) -> None:
        """Extend the op codes and ids to every op of ``table``."""
        ffi = self._ffi
        if table is not self._table:
            self._table = table
            self._n_ops = 0
            self._checked = bytearray()
        ops = table.ops
        if len(ops) > len(self._kinds):
            size = 2 * len(ops)
            kinds = ffi.new("unsigned char[]", size)
            targets = ffi.new("int[]", size)
            ffi.memmove(kinds, self._kinds, self._n_ops)
            ffi.memmove(targets, self._targets, 4 * self._n_ops)
            self._kinds, self._targets = kinds, targets
        kinds, targets, checked = self._kinds, self._targets, self._checked
        lookup = self._registry.lookup
        local_variables = self._local_variables
        for op in range(self._n_ops, len(ops)):
            etype, target = ops[op]
            code = _CODES[id(etype)]
            if code < 2:
                ident = self._var_id(target)
            elif code in (4, 5):
                tid = lookup(target)
                ident = -1 if tid is None else tid
            elif code == 6:
                ident = 0
            elif code == 10:
                ident = self._barrier_id(target)
            else:
                ident = self._lock_id(target)
            kinds[op] = code
            targets[op] = ident
            checked.append(code < 2 and target not in local_variables)
        self._n_ops = len(ops)

    def _loc_id(self, loc: str) -> int:
        loc_id = self._loc_ids.get(loc)
        if loc_id is None:
            key = loc.encode("utf-8", "surrogatepass")
            loc_id = self._check(
                self._lib.wcp_loc_put(self._handle, key, len(key))
            )
            self._loc_ids[loc] = loc_id
            self._loc_names[loc_id] = loc
        return loc_id

    def _loc_name(self, loc_id: int) -> Optional[str]:
        if loc_id < 0:
            return None
        name = self._loc_names.get(loc_id)
        if name is None:
            key = self._ffi.new("char **")
            size = self._lib.wcp_loc_get(self._handle, loc_id, key)
            name = self._ffi.unpack(key[0], size).decode(
                "utf-8", "surrogatepass"
            )
            self._loc_names[loc_id] = name
        return name

    # ------------------------------------------------------------------ #
    # Running a block
    # ------------------------------------------------------------------ #

    @staticmethod
    def _indices(block: ColumnBlock, lo: int, hi: int) -> Optional[array]:
        """The block's explicit row indices (None: row ``j`` is
        ``start + j``)."""
        if block._indices is None:
            return None
        return array("q", block._indices[lo:hi])

    def run(self, block: ColumnBlock, report_add, detector) -> int:
        """Run ``block``'s rows; return how many ran (all, unless a row
        would taint a lock)."""
        ffi, lib = self._ffi, self._lib
        table = block.table
        if table is not self._table or len(table.ops) != self._n_ops:
            self._translate(table)
        tids, ops = block.columns()
        n = len(tids)
        lo = block._lo
        locs = block.locs
        indices = self._indices(block, lo, block._hi)
        buffers = []

        def view(kind, buffer):
            pointer = ffi.from_buffer(kind, buffer)
            buffers.append(pointer)
            return pointer

        try:
            tids_p = view("int[]", tids)
            ops_p = view("int[]", ops)
            kinds, targets, n_ops = self._kinds, self._targets, self._n_ops
            data, n_data = ffi.NULL, 0
            starts = ends = loc_ids = decoded = indices_p = ffi.NULL
            n_decoded = 0
            if isinstance(locs, LocSpans):
                data = view("char[]", locs.data)
                n_data = len(locs.data)
                starts = view("long long[]", locs.starts) + lo
                ends = view("long long[]", locs.ends) + lo
                if locs.decoded:
                    # The strings the Python decoder built are interned
                    # when an access row that reaches the history needs
                    # one (-2: not yet).
                    if locs.decoded is not self._decoded:
                        self._decoded = locs.decoded
                        self._decoded_ids = array("i", [-2]) * len(
                            locs.decoded
                        )
                    decoded = view("int[]", self._decoded_ids)
                    n_decoded = len(self._decoded_ids)
            else:
                # Only the access rows the kernel will reach need an id.
                ids = array("i", [-1]) * n
                loc_id = self._loc_id
                checked = self._checked.__getitem__
                for k in compress(range(n), map(checked, ops)):
                    loc = locs[lo + k]
                    if loc is not None:
                        ids[k] = loc_id(loc)
                loc_ids = view("int[]", ids)
            if indices is not None:
                indices_p = view("long long[]", indices)
            out = self._out
            state = self._state
            local = row = 0
            while True:
                done = lib.wcp_run(
                    self._handle, tids_p + row, ops_p + row, n - row,
                    kinds, targets, n_ops, len(self._registry),
                    data, n_data,
                    starts if starts == ffi.NULL else starts + row,
                    ends if ends == ffi.NULL else ends + row,
                    decoded, n_decoded,
                    loc_ids if loc_ids == ffi.NULL else loc_ids + row,
                    indices_p if indices_p == ffi.NULL else indices_p + row,
                    block.start + row, out,
                )
                local += out[1]
                if state.nraces:
                    self._report(block, ops, row, indices, report_add)
                row += done
                reason = out[0]
                if reason == 2:
                    # A fork/join names a thread not interned yet.
                    op = ops[row]
                    targets[op] = self._registry.intern(table.ops[op][1])
                    continue
                if reason == 3:
                    string = ~locs.starts[lo + row]
                    self._decoded_ids[string] = self._loc_id(
                        locs.decoded[string]
                    )
                    continue
                if reason < 0:
                    self._check(reason)
                break
        finally:
            for pointer in buffers:
                ffi.release(pointer)
        detector._local_accesses += local
        return row

    def _report(self, block, ops, base, indices, report_add) -> None:
        """Report the races the last call recorded, in its order."""
        state = self._state
        records = self._ffi.unpack(state.races, 5 * state.nraces)
        state.nraces = 0
        optable = block.table.ops
        name_of = self._registry.name_of
        row_of = block.row
        start, size = block.start, len(block)
        for k in range(0, len(records), 5):
            row, index, tid, kind, loc = records[k:k + 5]
            row += base
            second = row_of(row)
            if indices is None and start <= index < start + size:
                first = row_of(index - start)
            else:
                first = _new_event(Event)
                first.etype = EventType.READ if kind == 0 else EventType.WRITE
                first.target = optable[ops[row]][1]
                first.tid = tid
                first.thread = name_of(tid)
                first.index = index
                first.loc = self._loc_name(loc)
            report_add(first, second)

    @property
    def max_queue_total(self) -> int:
        """WCP's queue peak so far (its ``_max_queue_total``)."""
        return self._state.max_queue_total

    def clock_c(self, tid: int) -> DenseClock:
        """``C_t`` of an initialised thread (``H_t`` in the HB mode)."""
        clock = self._lib.wcp_ct(self._handle, tid)
        if clock == self._ffi.NULL:
            raise MemoryError("wcp_ct")
        return DenseClock._from_times(self._ffi.unpack(clock + 2, clock[1]))

    # ------------------------------------------------------------------ #
    # Transcription
    # ------------------------------------------------------------------ #

    def _ints(self, pointer, size) -> list:
        return self._ffi.unpack(pointer, size) if size else []

    def _mutable(self, clock) -> DenseClock:
        return DenseClock._from_times(self._ints(clock.t, clock.n))

    def _owned(self, pointer) -> Optional[DenseClock]:
        """A fresh clock from an owned accumulator (None: NULL); the
        Python detectors merge into these in place."""
        if pointer == self._ffi.NULL:
            return None
        return DenseClock._from_times(self._ints(pointer + 2, pointer[1]))

    def _accumulators(self, field: str, order: str) -> Dict[str, DenseClock]:
        """HB's ``_read_rel`` (``rhl``) or ``_notify_clocks`` (``nhl``):
        every lock's accumulator, in dict insertion order."""
        state = self._state
        null = self._ffi.NULL
        found = []
        for lock_id in range(1, state.nlocks):  # 0: the shared local lock
            lock = state.locks[lock_id]
            clock = getattr(lock, field)
            if clock != null:
                found.append((getattr(lock, order), lock_id, clock))
        return {
            self._lock_names[lock_id]: self._owned(clock)
            for _, lock_id, clock in sorted(found, key=lambda item: item[0])
        }

    def _barriers(self) -> Dict[str, list]:
        """The open barrier generations, in first-arrival order: WCP's
        ``[acc_p, acc_h, participants, version]``, HB's ``[acc,
        participants, version]``."""
        state = self._state
        barriers = {}
        for bar in self._ints(state.barrier_order, state.nbarrier_order):
            source = state.barriers[bar]
            parts = set(self._ints(source.parts.items, source.parts.n))
            acch = self._owned(source.acch)
            barriers[self._barrier_names[bar]] = (
                [acch, parts, source.version] if self._hb else
                [self._owned(source.accp), acch, parts, source.version]
            )
        return barriers

    def _barrier_waiting(self) -> Dict[int, Dict[str, int]]:
        """``_barrier_waiting``: per thread that ever arrived, the open
        generations it waits in and the version it merged."""
        state = self._state
        names = self._barrier_names
        waiting = {}
        for tid in self._ints(state.bw_order, state.nbw_order):
            thread = state.th[tid]
            waiting[tid] = {
                names[thread.waits[k].barrier]: thread.waits[k].seen
                for k in range(thread.nwait)
            }
        return waiting

    def transcribe(self, detector) -> None:
        """Write the C state back into ``detector``'s Python fields."""
        ffi = self._ffi
        ints = self._ints
        frozen: Dict[int, DenseClock] = {}
        null = ffi.NULL

        def shared(pointer) -> Optional[DenseClock]:
            # Aliased clocks stay aliased (the Python detectors share
            # their frozen clocks the same way).
            if pointer == null:
                return None
            key = int(ffi.cast("uintptr_t", pointer))
            clock = frozen.get(key)
            if clock is None:
                clock = frozen[key] = DenseClock._from_times(
                    ints(pointer + 2, pointer[1])
                )
            return clock

        history = self._transcribe_history(shared)
        if self._hb:
            self._transcribe_hb(detector, shared, history)
        else:
            self._transcribe_wcp(detector, shared, history)

    def _locks_in_order(self):
        """(id, name, C lock) of every lock the pass created, in order
        (census locks first, then by first use -- by first release
        in the HB mode, the order of HB's ``_lock_clocks``)."""
        state = self._state
        for lock_id in self._ints(state.lock_order, state.nlock_order):
            if lock_id != self._shared_lock:
                yield lock_id, self._lock_names[lock_id], state.locks[lock_id]

    def _transcribe_history(self, shared) -> AccessHistory:
        """The access histories, in creation order."""
        state = self._state
        name_of = self._registry.name_of
        var_names = self._var_names
        history = AccessHistory()
        variables = history._variables
        read, write = EventType.READ, EventType.WRITE
        for var_id in self._ints(state.var_order, state.nvar_order):
            source = state.vars[var_id]
            variable = var_names[var_id]
            target = VariableHistory()
            target.read_join = shared(source.rj)
            target.write_join = shared(source.wj)
            target._rj_owned = bool(source.rj_owned)
            target._wj_owned = bool(source.wj_owned)
            target.r_tid = None if source.r_tid < 0 else source.r_tid
            target.r_time = source.r_time
            target.r_fast = bool(source.r_fast)
            target.w_tid = None if source.w_tid < 0 else source.w_tid
            target.w_time = source.w_time
            target.w_fast = bool(source.w_fast)
            for kind, cells in ((0, target.reads), (1, target.writes)):
                etype = write if kind else read
                for l in range(source.nlists[kind]):
                    tlist = state.tlists[source.lists[kind][l]]
                    thread = name_of(tlist.tid)
                    by_loc = cells[thread] = {}
                    c = tlist.head
                    while c >= 0:
                        item = state.hcells[c]
                        event = _new_event(Event)
                        event.etype = etype
                        event.target = variable
                        event.tid = tlist.tid
                        event.thread = thread
                        event.index = item.index
                        event.loc = self._loc_name(item.loc)
                        by_loc[cell_key(event)] = (
                            event, shared(item.clk), item.rank
                        )
                        c = item.next
            variables[variable] = target
        return history

    def _transcribe_hb(self, detector, shared, history) -> None:
        """:class:`~repro.hb.hb.HBDetector`'s fields: ``_clocks`` from
        ``H_t``, ``_pending`` from the deferred bumps, ``_snap`` from the
        frozen ``H_t``, ``_read_held`` from the read-held locks,
        ``_lock_clocks`` from ``H_l`` (in first-release order), and
        ``_read_rel``, ``_notify_clocks``, ``_barriers`` and
        ``_barrier_waiting`` from their C mirrors."""
        state = self._state
        lock_names = self._lock_names
        size = max(state.nth, len(detector._clocks))
        clocks: List[object] = [None] * size
        pending = [False] * size
        snaps: List[object] = [None] * size
        read_held: List[Optional[set]] = [None] * size
        for tid in range(state.nth):
            thread = state.th[tid]
            if thread.nt == 0:
                continue
            clocks[tid] = self._mutable(thread.h)
            pending[tid] = bool(thread.prev)
            snaps[tid] = shared(thread.ct)
            read_held[tid] = {
                lock_names[thread.rsecs[k].lock] for k in range(thread.nrsec)
            }
        detector._clocks = clocks
        detector._pending = pending
        detector._snap = snaps
        detector._read_held = read_held
        detector._lock_clocks = {
            name: shared(lock.hl) for _, name, lock in self._locks_in_order()
        }
        detector._read_rel = self._accumulators("rhl", "rseq")
        detector._notify_clocks = self._accumulators("nhl", "nseq")
        detector._barriers = self._barriers()
        detector._barrier_waiting = self._barrier_waiting()
        detector._history = history

    def _transcribe_wcp(self, detector, shared, history) -> None:
        """:class:`~repro.core.wcp.WCPDetector`'s fields."""
        from repro.core.wcp import _LockState, _RuleACell

        state = self._state
        ints = self._ints

        def ids(idset) -> list:
            return ints(idset.items, idset.n)

        name_of = self._registry.name_of
        var_names = self._var_names

        # Locks, in creation order (the census' first, the thread-local
        # ones among them), with their Rule (a) cells.
        locks: Dict[str, _LockState] = dict.fromkeys(self._census_locks)
        locks.update(self._local_locks)
        by_id: Dict[int, _LockState] = {}
        for lock_id, name, lock in self._locks_in_order():
            entry = _LockState()
            mask = lock.cap - 1
            log = []
            for k in range(lock.len):
                item = lock.log[(lock.head + k) & mask]
                log.append([
                    shared(item.acq), shared(item.rel), item.owner, item.epoch
                ])
            entry.log = deque(log)
            entry.base = lock.base
            entry.cursor = {
                lock.cursors[k].tid: lock.cursors[k].cur
                for k in range(lock.ncur)
            }
            if lock.open_tid >= 0:
                entry.open_entry = {lock.open_tid: lock.open_idx}
            entry.pl = shared(lock.pl)
            entry.hl = shared(lock.hl)
            entry.holder = None if lock.holder < 0 else lock.holder
            entry.releasers = set(ids(lock.releasers))
            entry.local = bool(lock.local)
            entry.reclaim_blocker = None if lock.blocker < 0 else lock.blocker
            entry.read_pl = self._owned(lock.rpl)
            entry.read_hl = self._owned(lock.rhl)
            entry.notify_p = self._owned(lock.npl)
            entry.notify_h = self._owned(lock.nhl)
            locks[name] = entry
            by_id[lock_id] = entry
        for k in range(state.ncells):
            source = state.cells[k]
            cell = _RuleACell()
            cell.by_tid = {
                source.bt[b].tid: shared(source.bt[b].clk)
                for b in range(source.nbt)
            }
            cell.top_tid = source.top_tid
            cell.second_tid = source.second_tid
            cell.top = cell.by_tid.get(cell.top_tid)
            cell.second = cell.by_tid.get(cell.second_tid)
            cell.version = source.version
            cell.seen = {
                source.seen[s].tid: source.seen[s].ver
                for s in range(source.nseen)
            }
            owner = by_id[source.lock]
            table = (owner.lr, owner.lw, owner.read_lr, owner.read_lw)
            table[source.kind][var_names[source.var]] = cell

        def section_sets(section):
            # (lock, variables read, variables written) of a section.
            return (
                self._lock_names[section.lock],
                {var_names[v] for v in ids(section.reads)},
                {var_names[v] for v in ids(section.writes)},
            )

        # Threads.
        size = max(state.nth, len(detector._nt))
        nt = [0] * size
        pt: List[object] = [None] * size
        ht: List[object] = [None] * size
        prev = [False] * size
        sections: List[Optional[list]] = [None] * size
        read_held: List[Optional[dict]] = [None] * size
        for tid in range(state.nth):
            thread = state.th[tid]
            if thread.nt == 0:
                continue
            nt[tid] = thread.nt
            pt[tid] = self._mutable(thread.p)
            ht[tid] = self._mutable(thread.h)
            prev[tid] = bool(thread.prev)
            held = read_held[tid] = {}
            for k in range(thread.nrsec):
                lock, reads, writes = section_sets(thread.rsecs[k])
                held[lock] = [reads, writes]
            stack = sections[tid] = []
            for k in range(thread.nsec):
                lock, reads, writes = section_sets(thread.secs[k])
                stack.append((lock, reads, writes, locks[lock]))

        detector._nt = nt
        detector._pt = pt
        detector._ht = ht
        detector._ct = [None] * size
        detector._prev_release = prev
        detector._open_sections = sections
        detector._read_held = read_held
        detector._thread_names = [
            name_of(tid) for tid in ints(state.order, state.norder)
        ]
        detector._barriers = self._barriers()
        detector._barrier_waiting = self._barrier_waiting()
        detector._locks = locks
        detector._history = history
        detector._queue_total = state.queue_total
        detector._max_queue_total = state.max_queue_total

"""Algorithm 1: the linear-time WCP vector-clock detector.

This is the paper's central algorithmic contribution (Section 3).  The
detector processes the trace in a single streaming pass and maintains:

``N_t``
    an integer local clock per thread, incremented just before processing
    an event whose thread-order predecessor was a release (or another
    event the event registry marks as bumping -- see below);
``P_t``
    the WCP-predecessor clock of thread ``t`` (the join of ``C_e`` over all
    events ``e`` WCP-before the last event of ``t``);
``H_t``
    the happens-before clock of thread ``t`` (component ``t`` always equals
    ``N_t``);
``P_l`` / ``H_l``
    per-lock copies of the WCP/HB clocks of the last release of ``l``;
``L^r_{l,x}`` / ``L^w_{l,x}``
    per lock and variable, the join of the HB times of all releases of
    ``l`` whose critical section read / wrote ``x`` (these implement
    Rule (a) of WCP);
``Acq_l(t)`` / ``Rel_l(t)``
    per lock and thread, FIFO queues holding the acquire timestamps and
    release HB-times of critical sections performed by *other* threads
    (these implement Rule (b)).

The pseudocode's per-(lock, thread) queues are represented here as one
shared per-lock **log** of critical sections (acquire timestamp, release
HB-time, owning thread) plus a per-(lock, thread) FIFO *cursor* into it.
The two are observationally identical on complete traces -- each thread's
queue is exactly the other-thread suffix of the log past its cursor --
but the log form has two advantages: appends are O(1) instead of O(T),
and a thread first observed *mid-stream* (the engine's live sources have
no thread census at reset time) still sees every earlier critical
section, which per-thread queues materialised at append time cannot
provide.  Consumed log entries are reclaimed when queue pruning is
active (see below).

The derived event timestamp is ``C_e = P_t[t := N_t]`` taken right after
processing ``e``.  Theorem 2 states ``a <=_WCP b  iff  C_a <= C_b`` (for
``a`` earlier than ``b``), so the race check is a per-variable clock
comparison (see :mod:`repro.core.history`).

Fork and join events are not part of the paper's formal model but are
emitted by real loggers; we treat them as inviolable program-order edges
(like thread order) by joining the parent's ``C`` into the child's ``P``
and ``H`` on fork, and symmetrically on join.  Like every event that
publishes a thread's clock, they end that thread's local interval: fork
defers a bump of the parent's ``N_t`` and join one of the child's, the
same rule HB follows (the registry's ``bumps`` field in
:mod:`repro.trace.semantics`).  Without it the parent's later events in
the same block would look ordered before the child's, hiding races that
HB reports.

One deliberate deviation from the literal pseudocode: Definition 3's
Rule (a) requires the event in ``CS(r)`` to *conflict* with the later
access, and conflicting events must be from different threads.  The
pseudocode's ``L^r_{l,x}`` / ``L^w_{l,x}`` clocks join the HB times of all
releases -- including releases performed by the reading/writing thread
itself -- which can introduce orderings (and hence hide races) that the
definition does not impose.  We therefore keep those clocks per releasing
thread and skip the accessing thread's own contribution, which makes the
detector agree exactly with the closure oracle
(:class:`repro.core.closure.WCPClosure`); pass ``strict_pseudocode=True``
to reproduce the literal Algorithm 1 behaviour instead.

Hot-path engineering (the constant factor behind Theorem 3's
``O(N * (T^2 + L))`` bound):

* **Interned thread ids** -- every per-thread structure is a flat list
  indexed by the dense integer tid of a
  :class:`~repro.vectorclock.registry.ThreadRegistry` (adopted from the
  trace / engine pass, whose column blocks carry those tids, so no
  per-event hashing happens at all).
* **Columns** -- :meth:`WCPDetector.process_batch` reads a block's
  thread and op columns (:class:`~repro.trace.columns.ColumnBlock`) and
  builds an :class:`Event` only for a checked access, a rare kind or a
  race witness; a thread-local access or lock costs no event at all.
* **Dense clocks** -- all internal clocks are list-backed
  :class:`~repro.vectorclock.dense.DenseClock`\\ s.
* **Batch-native dispatch** -- :meth:`WCPDetector.process_batch` is the
  implementation (``process`` is a one-event batch): it binds the
  per-thread lists once per block and runs the prologue, Rule (a) and
  the race check of every access inline.
* **Incremental ``C_t``** -- instead of materialising
  ``P_t.copy().assign(t, N_t)`` per event, each thread's ``C_t`` is
  cached and invalidated only when ``P_t`` actually grows (all ``P_t``
  mutations go through ``merge``, which reports changes) or ``N_t``
  bumps.  The cached object is *frozen*: it is replaced on rebuild, never
  mutated, so the Rule (b) log and the access history can hold references
  to it without copying.  Inside the Rule (b) cursor walk this turns the
  per-iteration ``_clock_c`` rebuild into a rebuild-on-actual-change.
* **Compiled kernel and hand-over** -- with the cffi kernels
  (:mod:`repro.vectorclock.kernels`) each block runs in one C call
  (:class:`~repro.core.wcp_compiled.WCPKernel`) whose state mirrors the
  fields below field for field, for every kind: rwlock sections
  (:meth:`WCPDetector._racq_r`, :meth:`WCPDetector._racq_w`,
  :meth:`WCPDetector._rrel` and :meth:`WCPDetector._read_held_rule_a`),
  barriers (with the :meth:`WCPDetector._join_open_barriers` prologue)
  and wait/notify included.  The kernel returns before a row that would
  taint a lock and before a :meth:`WCPDetector.mark_foreign`; the
  detector then transcribes the C state into its Python fields once and
  runs :meth:`WCPDetector.process_batch` -- the specification -- for the
  rest of the pass.  While the kernel is live the Python fields are
  stale: ``state_snapshot``, ``sync_clock_state`` and pickling transcribe
  first, ``_clock_c`` reads ``C_t`` from C, and ``finish`` leaves the
  state in C until one of them asks for it.
  Under ``REPRO_CLOCK_KERNEL=python``, with
  ``strict_pseudocode=True`` or on a restored detector the kernel never
  starts.  The lifecycle is
  :class:`~repro.core.wcp_compiled.CompiledPass`, which
  :class:`~repro.hb.hb.HBDetector` shares: it runs the same kernel in
  its HB mode (``H_t`` and ``H_l`` only).
* **Epoch-accelerated race checks** -- accesses flow into the shared
  :class:`~repro.core.history.AccessHistory`, whose FastTrack-style O(1)
  epoch comparison is provably equivalent to the full join comparison
  because a thread's clock only escapes at the end of a local interval
  (see the history module's exactness contract).  The same lemma turns
  the Rule (b) gate ``A <= C_t`` into the O(1) comparison of the
  acquire's owner epoch.

Space is linear in the worst case due to the FIFO queues, and the
detector records the maximum total queue length so Table 1's column 11
can be reproduced.

One exact (semantics-preserving) optimisation is applied by default: log
entries are reclaimed once every thread that releases ``l`` somewhere in
the trace has consumed them (a thread that never releases the lock never
reads its cursor, so it cannot hold entries alive).  This changes the
memory profile dramatically on traces with thread-local locks (which
would otherwise accumulate entries forever).  The releaser census needs
the whole trace at :meth:`reset`: a :class:`~repro.trace.trace.Trace`
has it, and so does ``--stream`` over a regular file, whose census a
decode-only first pass takes
(:attr:`FileSource.thread_census
<repro.engine.sources.FileSource.thread_census>`).  A stream with no
census -- a socket, a push queue, a FIFO, a shard worker -- keeps the
log in full: exact, at the pseudocode's worst-case linear space.  A
pass stopped early stays exact under the whole file's census: next to
its prefix's census, that has every releaser and no more thread-local
locks or variables, so it keeps entries alive longer and elides less.

The same census applies a second exact optimisation, *thread-local lock
elision*: a lock that only mutex ``acq``/``rel`` events of a single
thread name (no rwlock, ``wait`` or ``notify`` event, no second thread --
not even one that acquires and never releases) keeps no per-lock state.
Its acquires and releases skip the ``H_l``/``P_l`` merges and snapshots,
the log entry, the Rule (b) walk, reclamation, the Rule (a) tables and
the open-section entry (so accesses inside run Rule (a) only for the
shared locks enclosing them); a release still defers the ``N_t`` bump.
Nothing observable changes, because all that state is read only by
other threads:

1. only other threads' acquires read ``H_l``/``P_l`` -- there are none;
2. Rule (b) consumers of a log entry are releasers other than its owner
   -- there are none;
3. the lock's Rule (a) cells would hold only the owner's releases, which
   Definition 3 excludes (so ``strict_pseudocode=True``, which counts
   them, never elides);
4. the pseudocode queue occupancy of a single-releaser lock already
   changes by zero, so ``max_queue_total`` is unchanged.

The census (:attr:`Trace.thread_census
<repro.trace.trace.Trace.thread_census>`, shared with the HB detector
of the pass) also drives *thread-local access
elision*: an access to a variable that only one thread reads or writes
runs the per-event prologue (intern, the deferred ``N_t`` bump, the
barrier re-join) and then stops -- no Rule (a) join, no open-section
read/write set, no access history.  This is exact for the same reason:

5. a variable one thread touches has no conflicting pair, so no race;
6. its Rule (a) cells would hold only the owner's releases, which the
   owner's own accesses skip (Definition 3 again, so
   ``strict_pseudocode=True`` keeps the full path here too);
7. accesses bump no clock, so ``C_t``, ``timestamps()`` and every other
   variable's race check are unchanged.

Snapshots carry each lock's thread-local flag and the set of thread-local
variables, so a resumed pass, batch or ``--stream`` (which skips the
census), keeps both elisions.

``report.stats["max_queue_total"]`` still reports the *pseudocode's*
queue occupancy (each critical section contributes one acquire and one
release entry per other-thread queue) so that Table 1's column 11 stays
comparable with the paper.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Set

from repro.core.detector import Detector
from repro.core.history import AccessHistory, VariableHistory
from repro.core.races import RaceReport
from repro.core.snapshot import adopt_registry_names, pack_state, unpack_for
from repro.core.wcp_compiled import CompiledPass
from repro.trace.columns import as_block
from repro.trace.event import Event, EventType
from repro.trace.trace import ThreadCensus, Trace
from repro.vectorclock.clock import VectorClock
from repro.vectorclock.codec import encode_clock
from repro.vectorclock.dense import DenseClock
from repro.vectorclock.registry import ThreadRegistry


class _RuleACell:
    """One ``L^r_{l,x}`` / ``L^w_{l,x}`` cell: release HB-times per thread.

    ``by_tid`` holds, per releasing thread, the join of the HB times of its
    releases of the lock whose critical section touched the variable --
    the exact structure Rule (a) is defined over.

    On traces obeying lock semantics the entries form a *chain*: critical
    sections of one lock are HB-totally-ordered (each acquire joins the
    previous release's ``H_l``), so the most recent release's HB time
    dominates every entry.  ``top`` / ``second`` cache the most recent
    entry and the most recent entry owned by a different thread, which
    collapses the per-access "join all entries except the accessing
    thread's own" to a single merge:

    * accessing thread != ``top_tid``  ->  join is exactly ``top``;
    * accessing thread == ``top_tid``  ->  join is exactly ``second``.

    The caches alias the ``by_tid`` objects (which only mutate inside
    :meth:`WCPDetector._join_release_time`, where the caches are
    re-established), so maintaining them costs no allocation.  Locks whose
    critical sections are observed to overlap (possible only on
    unvalidated, e.g. windowed, trace fragments) are marked tainted by the
    detector, and Rule (a) falls back to the full ``by_tid`` walk there.

    ``version`` / ``seen`` implement the per-cell *visit memo*: ``version``
    is bumped on every release that touches the cell, and ``seen`` records,
    per accessing thread, the version whose content that thread last joined
    into its ``P_t``.  Since ``P_t`` only grows and the cell only changes
    when ``version`` bumps, a repeat visit at an unchanged version is a
    guaranteed no-op and the merge (even the tainted full walk) is skipped
    entirely -- the Rule (a) lookup degenerates to one dict probe.
    """

    __slots__ = (
        "by_tid", "top_tid", "top", "second_tid", "second", "version", "seen",
    )

    def __init__(self) -> None:
        self.by_tid: Dict[int, object] = {}
        self.top_tid = -1
        self.top = None
        self.second_tid = -1
        self.second = None
        self.version = 0
        self.seen: Dict[int, int] = {}


class _LockState:
    """All per-lock detector state, consolidated behind one dict lookup.

    A lock event used to pay half a dozen string-keyed lookups (log, base,
    cursor, ``P_l``, ``H_l``, holder, Rule (a) tables); everything now
    lives on one object fetched once, with the per-thread cursors and
    open-entry indices keyed by plain int tids.

    ``local`` marks a *thread-local* lock: the whole-trace census found
    that every event naming it is a mutex ``acq``/``rel`` by one thread.
    Such a lock keeps no state at all -- :meth:`WCPDetector._acquire` and
    :meth:`WCPDetector._release` return before touching ``H_l``/``P_l``,
    the log, the Rule (a) tables or the open-section stack -- which is
    exact because every reader of that state is another thread:

    1. only other threads' acquires read ``H_l``/``P_l`` (a same-thread
       re-acquire merges clocks its own monotone ``H_t``/``P_t`` already
       dominate);
    2. Rule (b) consumers of a log entry are releasers other than its
       owner;
    3. the Rule (a) cells hold only the owner's releases, which
       Definition 3 excludes (hence never under ``strict_pseudocode``);
    4. the pseudocode queue occupancy of a single-thread lock changes by
       zero at every acquire and release.
    """

    __slots__ = (
        "log", "base", "cursor", "open_entry", "pl", "hl",
        "holder", "tainted", "releasers", "local", "lr", "lw",
        "read_lr", "read_lw",
        "read_pl", "read_hl", "notify_p", "notify_h",
        "reclaim_blocker",
    )

    def __init__(self) -> None:
        #: Shared critical-section log: [acquire clock, release HB-time or
        #: None while open, owning tid, acquire epoch] per entry.  The
        #: epoch is the owner's ``N_o`` at acquire, through which the
        #: Rule (b) gate ``A <= C_t`` reduces to the O(1) comparison
        #: ``N_o <= C_t(o)`` (same exactness lemma as the access
        #: history's epoch fast path).  It equals ``A(o)``, so snapshots
        #: leave it out and restore derives it.
        self.log: Deque[list] = deque()
        #: Absolute index of the log's first retained entry.
        self.base = 0
        #: tid -> absolute log index consumed so far (Rule (b) cursor).
        self.cursor: Dict[int, int] = {}
        #: tid -> absolute log index of the thread's open section.
        self.open_entry: Dict[int, int] = {}
        #: P / H clocks of the last release (None = bottom).
        self.pl = None
        self.hl = None
        #: tid currently holding the lock (chain-taint tracking).
        self.holder: Optional[int] = None
        #: True once overlapping critical sections were observed.
        self.tainted = False
        #: tids that release this lock somewhere in the trace (pruned mode).
        self.releasers: Set[int] = set()
        #: True when the census found the lock thread-local (see above).
        self.local = False
        #: Rule (a) tables: variable -> cell.
        self.lr: Dict[str, _RuleACell] = {}
        self.lw: Dict[str, _RuleACell] = {}
        #: Rule (a) cells published by *read-mode* releases (variable ->
        #: cell).  Kept apart from ``lr``/``lw`` because only accesses
        #: inside exclusive sections may consume them (read sections do
        #: not exclude each other), and because read releases are not
        #: totally ordered -- consumers must always take the full
        #: ``by_tid`` walk, never the chain fast path.
        self.read_lr: Dict[str, _RuleACell] = {}
        self.read_lw: Dict[str, _RuleACell] = {}
        #: Joined P / H clocks of read-mode rwlock releases since the last
        #: write-acquire (None = no published read sections).  A
        #: write-acquire consumes and clears them; read sections do not
        #: order each other, so read-acquires never look at them.
        self.read_pl = None
        self.read_hl = None
        #: Joined C / H clocks of every notify on this monitor (never
        #: cleared: notifies wake all present and future waiters).
        self.notify_p = None
        self.notify_h = None
        #: Consumer that blocked the last reclaim scan (transient
        #: accelerator: while its cursor still sits at the log base and it
        #: does not own the front entry, rescanning is pointless).  Never
        #: serialized; restore starts from None.
        self.reclaim_blocker: Optional[int] = None


class WCPDetector(CompiledPass, Detector):
    """Streaming WCP race detector (Algorithm 1).

    The maximum total FIFO-queue length is always recorded in
    ``report.stats["max_queue_total"]``, and its fraction of the processed
    events in ``report.stats["max_queue_fraction"]`` (Table 1, col 11).

    Parameters
    ----------
    strict_pseudocode:
        When True, follow Algorithm 1 literally and let Rule (a) joins
        include releases performed by the accessing thread itself (see the
        module docstring).  Default False (agree with Definition 3).
    stream_reclaim:
        Accepted and ignored.  It selected a stream-mode log-reclamation
        heuristic that the census of a file's first pass replaced; the
        keyword stays for callers that still pass it.
    """

    name = "WCP"

    #: Sharded-engine contract: clock state depends on the sync skeleton
    #: plus in-critical-section accesses, which Rule (a) feeds into P_t --
    #: so those must also reach non-owner shards (see mark_foreign).
    shardable = True
    needs_foreign_accesses = True

    #: WCP's per-event state is bounded and incrementally maintained (the
    #: paper's central property), so a mid-run snapshot is compact and the
    #: checkpoint/resume protocol is supported in full.
    supports_snapshot = True
    snapshot_version = 8

    def __init__(
        self,
        strict_pseudocode: bool = False,
        stream_reclaim: bool = False,
    ) -> None:
        super().__init__()
        self._strict_pseudocode = strict_pseudocode
        self._trace: Optional[Trace] = None

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #

    def reset(self, trace: Trace) -> None:
        self._trace = trace
        self._new_report(trace)
        registry = getattr(trace, "registry", None)
        # Blocks decoded with the adopted registry are read as they are;
        # any other block is re-interned once (columns.as_block).
        self._registry: ThreadRegistry = (
            registry if registry is not None else ThreadRegistry()
        )

        # Per-thread state, indexed by tid.  ``_nt[tid] == 0`` means the
        # thread has not been initialised yet (live local clocks are >= 1).
        self._nt: List[int] = []
        self._pt: List[object] = []
        self._ht: List[object] = []
        # Cached frozen ``C_t`` per thread (None = needs rebuild).
        self._ct: List[object] = []
        self._prev_release: List[bool] = []
        # Per-thread stack of open critical sections:
        # (lock, variables read, variables written).
        self._open_sections: List[Optional[list]] = []
        # Per-thread map of rwlocks currently held in read mode:
        # lock -> [variables read, variables written] inside the section
        # (their ``rrel`` must publish into the lock's read accumulators
        # and read cells, not run the full mutex-release procedure).
        self._read_held: List[Optional[Dict[str, list]]] = []
        #: Thread names in initialisation order (audience statistics).
        self._thread_names: List[str] = []
        #: Per-barrier generation state: [acc_p, acc_h, participant tids].
        self._barriers: Dict[str, list] = {}
        #: tid -> {barrier name: accumulator version already merged} for
        #: barriers where the thread has an outstanding arrival in a
        #: still-open generation.  A real barrier keeps such a thread
        #: blocked until every party has arrived, so each of its
        #: subsequent events first re-joins the open generation's
        #: accumulator (which may have grown since the arrival); the
        #: version gate skips the merge when it has not.  See
        #: :meth:`_join_open_barriers`.
        self._barrier_waiting: Dict[int, Dict[str, int]] = {}

        # All per-lock state (Rule (a) tables, Rule (b) log + cursors,
        # P_l / H_l, chain-taint tracking) lives in one object per lock.
        self._locks: Dict[str, _LockState] = {}

        self._history = AccessHistory()
        self._queue_total = 0
        self._max_queue_total = 0
        self._processed_events = 0

        #: Variables only one thread accesses (census); their accesses
        #: skip Rule (a) and the race check.
        self._local_variables: FrozenSet[str] = frozenset()
        self._local_accesses = 0

        # The census (releasers, thread-local locks and variables, see
        # _take_census) needs the whole trace up front; a stream without
        # one keeps every queue and elides nothing.  A pending restore
        # makes the census pure waste (the snapshot carries the censused
        # releaser sets, thread-local flags and mode), so skip it --
        # conservatively disabling pruning, which the restore overwrites.
        census = self._thread_census(trace)
        self._effective_prune = census is not None
        if census is not None:
            self._take_census(census)

        intern = self._registry.intern
        for thread in trace.threads:
            self._ensure_thread(intern(thread), thread)

        self._arm_kernel("strict" if self._strict_pseudocode else None)

    def _take_census(self, census: ThreadCensus) -> None:
        """Apply the trace's census: releasers, thread-local locks and variables.

        Threads that release each lock somewhere in the trace are the only
        readers of its Rule (b) log, so queues for other threads need not
        be kept (see :meth:`_reclaim`).  ``rrel`` threads count too: a
        write-mode rrel walks the log as a mutex release does, so its
        cursor must gate reclamation (read-mode rrels never walk --
        counting them is conservative, not wrong).  Outside
        ``strict_pseudocode``, a lock that only mutex ``acq``/``rel``
        events of one thread name is marked thread-local and skips all
        per-lock bookkeeping (see :class:`_LockState`), and an access to
        a variable only one thread touches skips Rule (a) and the race
        check.
        """
        intern = self._registry.intern
        lock_state = self._lock_state
        for lock, threads in census.releasers.items():
            lock_state(lock).releasers.update(map(intern, threads))
        if self._strict_pseudocode:
            return
        for lock in census.local_locks:
            lock_state(lock).local = True
        self._local_variables = census.local_variables

    def _ensure_thread(self, tid: int, name: str) -> None:
        nt = self._nt
        if tid >= len(nt):
            grow = tid + 1 - len(nt)
            nt.extend([0] * grow)
            self._pt.extend([None] * grow)
            self._ht.extend([None] * grow)
            self._ct.extend([None] * grow)
            self._prev_release.extend([False] * grow)
            self._open_sections.extend([None] * grow)
            self._read_held.extend([None] * grow)
        if nt[tid] == 0:
            nt[tid] = 1
            self._pt[tid] = DenseClock()
            self._ht[tid] = DenseClock.single(tid, 1)
            self._ct[tid] = None
            self._prev_release[tid] = False
            self._open_sections[tid] = []
            self._read_held[tid] = {}
            self._thread_names.append(name)

    def _lock_state(self, lock: str) -> _LockState:
        state = self._locks.get(lock)
        if state is None:
            state = self._locks[lock] = _LockState()
        return state

    # ------------------------------------------------------------------ #
    # Clock helpers
    # ------------------------------------------------------------------ #

    def _clock_c(self, tid: int) -> object:
        """Return the cached frozen ``C_t = P_t[t := N_t]``.

        The returned object must never be mutated: invalidation replaces
        it with a fresh build, so the Rule (b) log and the access history
        can safely alias it.
        """
        if self._kernel is not None:
            return self._kernel.clock_c(tid)
        ct = self._ct[tid]
        if ct is None:
            ct = self._pt[tid].copy().assign(tid, self._nt[tid])
            self._ct[tid] = ct
        return ct

    # ------------------------------------------------------------------ #
    # Event dispatch
    # ------------------------------------------------------------------ #

    def _join_open_barriers(self, tid: int, waiting: Dict[str, int]) -> None:
        """Order a blocked arriver's next events after all arrivals so far.

        Between its own arrival and the generation's close the thread was
        really blocked inside the barrier, so any event it performs
        afterwards is ordered after every arrival the open generation has
        accumulated -- including arrivals recorded *after* its own.
        Arrivals are replicated, so the accumulator content is identical
        on every shard at every stream position and the merge stays
        deterministic under sharding.
        """
        pt = self._pt[tid]
        ht = self._ht[tid]
        changed = False
        for name, seen in waiting.items():
            entry = self._barriers.get(name)
            if entry is None or entry[3] == seen:
                continue
            waiting[name] = entry[3]
            if entry[0] is not None and pt.merge(entry[0]):
                changed = True
            if entry[1] is not None:
                ht.merge(entry[1])
        if changed:
            self._ct[tid] = None

    def process(self, event: Event) -> None:
        """Process one event: a one-event :meth:`process_batch`."""
        self.process_batch((event,))

    def process_batch(self, events: Sequence[Event]) -> None:
        """The detector: prologue and hot kinds inline, rare kinds by method.

        Runs over the columns of ``events`` (a
        :class:`~repro.trace.columns.ColumnBlock`; any other sequence
        goes through its one adapter, :func:`~repro.trace.columns.as_block`)
        and builds an :class:`Event` only for a checked access or a rare
        kind.  Per-thread lists and the history are bound once per batch
        (a pass only grows or mutates them in place).  Each row runs the
        prologue (initialise, the deferred ``N_t`` bump, the barrier
        re-join) inline; reads and writes run Rule (a) and the race check
        here -- except accesses to a thread-local variable, which stop
        after the prologue -- acquires and releases go straight to
        :meth:`_acquire` / :meth:`_release`, and every other kind to its
        method in :attr:`_RARE`.
        """
        block = as_block(events, self._registry)
        self._processed_events += len(block)
        block = self._run_kernel(block)
        if block is None:
            return
        tids, ops = block.columns()
        optable = block.table.ops
        row = block.row
        name_of = self._registry.name_of
        nt_list = self._nt
        pt_list = self._pt
        ht_list = self._ht
        ct_cache = self._ct
        prev = self._prev_release
        open_sections = self._open_sections
        read_held_of = self._read_held
        barrier_waiting = self._barrier_waiting
        local_variables = self._local_variables
        local_accesses = 0
        variables = self._history._variables
        report_add = self.report.add
        read_rule_a = self._read_rule_a
        write_rule_a = self._write_rule_a
        acquire_rule = self._acquire
        release_rule = self._release
        rare = self._RARE
        read = EventType.READ
        write = EventType.WRITE
        acquire = EventType.ACQUIRE
        release = EventType.RELEASE
        for j, tid, op in zip(count(), tids, ops):
            if tid >= len(nt_list) or nt_list[tid] == 0:
                self._ensure_thread(tid, name_of(tid))
            if prev[tid]:
                # The previous event of this thread was a release: bump N_t.
                nt = nt_list[tid] + 1
                nt_list[tid] = nt
                ht_list[tid].assign(tid, nt)
                ct_cache[tid] = None
                prev[tid] = False
            if barrier_waiting:
                waiting = barrier_waiting.get(tid)
                if waiting:
                    self._join_open_barriers(tid, waiting)
            etype, target = optable[op]
            if etype is read or etype is write:
                if target in local_variables:
                    local_accesses += 1
                    continue
                event = row(j)
                sections = open_sections[tid]
                read_held = read_held_of[tid]
                if etype is read:
                    if sections:
                        read_rule_a(target, tid, sections)
                    if read_held:
                        self._read_held_rule_a(target, tid, read_held, False)
                else:
                    if sections:
                        write_rule_a(target, tid, sections)
                    if read_held:
                        self._read_held_rule_a(target, tid, read_held, True)
                # Race check (the per-access hot path).
                ct = ct_cache[tid]
                if ct is None:
                    ct = ct_cache[tid] = pt_list[tid].copy().assign(
                        tid, nt_list[tid]
                    )
                history = variables.get(target)
                if history is None:
                    history = variables[target] = VariableHistory()
                if etype is read:
                    racy = history.observe_read(event, ct, tid)
                else:
                    racy = history.observe_write(event, ct, tid)
                for earlier in racy:
                    report_add(earlier, event)
            elif etype is acquire:
                acquire_rule(target, tid)
            elif etype is release:
                release_rule(target, tid)
                prev[tid] = True
            else:
                handler = rare.get(id(etype))
                if handler is not None:
                    handler(self, row(j), tid)
                # BEGIN / END need no clock work.
        self._local_accesses += local_accesses

    # ------------------------------------------------------------------ #
    # Algorithm 1 procedures
    # ------------------------------------------------------------------ #

    def _acquire(self, lock: str, tid: int) -> None:
        state = self._locks.get(lock)
        if state is None:
            state = self._locks[lock] = _LockState()
        elif state.local:
            # Thread-local lock: nothing to receive or advertise.
            return
        # Overlapping critical sections break the release chain the
        # Rule (a) fast path relies on; fall back to the full walk then.
        if state.holder is not None:
            state.tainted = True
        state.holder = tid
        # Lines 1-2: receive the HB / WCP knowledge of the last release of l.
        hl = state.hl
        if hl is not None:
            self._ht[tid].merge(hl)
        ct_cache = self._ct
        pl = state.pl
        if pl is not None and self._pt[tid].merge(pl):
            ct_cache[tid] = None
        # Line 3: advertise this acquire's timestamp by opening a log entry
        # (the pseudocode appends to every other thread's Acq queue; the
        # shared log defers that fan-out to the consumers' cursors).  The
        # acquire epoch arms the consumers' O(1) gate (see _LockState.log).
        nt = self._nt[tid]
        ct = ct_cache[tid]
        if ct is None:
            ct = ct_cache[tid] = self._pt[tid].copy().assign(tid, nt)
        log = state.log
        state.open_entry[tid] = state.base + len(log)
        log.append([ct, None, tid, nt])
        # Pseudocode queue occupancy: one entry per other-thread queue
        # (with pruning, queues exist only for the lock's releasers).
        if self._effective_prune:
            audience = state.releasers
            delta = len(audience) - (1 if tid in audience else 0)
        else:
            delta = len(self._thread_names) - 1
        total = self._queue_total + delta
        self._queue_total = total
        if total > self._max_queue_total:
            self._max_queue_total = total
        # Track the opening of the critical section for R/W collection.
        self._open_sections[tid].append((lock, set(), set(), state))

    def _release(self, lock: str, tid: int) -> None:
        state = self._locks.get(lock)
        if state is None:
            state = self._locks[lock] = _LockState()
        elif state.local:
            # Thread-local lock: nothing to publish (the caller still
            # defers the N_t bump).
            return
        if state.holder == tid:
            state.holder = None
        else:
            state.tainted = True
        pt = self._pt[tid]
        nt = self._nt[tid]
        ct_cache = self._ct

        # Lines 4-6: apply Rule (b) for every earlier critical section of
        # this lock (by another thread) whose acquire is WCP-ordered before
        # this release.  The cursor is this thread's FIFO position in the
        # shared log; own sections are invisible to it.  ``ct`` is hoisted
        # out of the walk and rebuilt only when a join actually grew P_t.
        #
        # On chain-clean locks the consumed release times are HB-ordered
        # (see :class:`_RuleACell`), so instead of merging each one we keep
        # only the latest (``pending``, which dominates the rest) and merge
        # it when the walk ends -- or mid-walk when an acquire comparison
        # fails, since the deferred knowledge may be exactly what makes the
        # next entry consumable (the retry keeps the walk equivalent to the
        # eager pseudocode).  Tainted locks take the eager path.
        log = state.log
        base = state.base
        # A cursor behind the log's first retained entry skips the gap:
        # pruning only drops entries this thread can never consume.
        cursor = max(state.cursor.get(tid, 0), base)
        if cursor - base < len(log):
            # Walk by index from the cursor: deque indexing hops 64-entry
            # blocks from the nearer end, where iterating from the front
            # would step over every entry before the cursor -- O(log
            # length) per release on a log nothing reclaims.  The walk
            # never appends to the log, so its length is fixed.
            # The cached C_t is rebuilt in place only when P_t grew.
            walk = range(cursor - base, len(log))
            ct = ct_cache[tid]
            if ct is None:
                ct = ct_cache[tid] = pt.copy().assign(tid, nt)
            # Epoch gates compare one component: the raw buffer is indexed
            # directly instead of bouncing through clock.get per entry.
            ct_times = ct._times
            nct = len(ct_times)
            consumed = 0
            if not state.tainted:
                pending = None
                for index in walk:
                    entry = log[index]
                    owner = entry[2]
                    if owner == tid:
                        cursor += 1
                        continue
                    gate = entry[3]
                    if not (owner < nct and gate <= ct_times[owner]):
                        if pending is None:
                            break
                        if pt.merge(pending):
                            ct = ct_cache[tid] = pt.copy().assign(tid, nt)
                            ct_times = ct._times
                            nct = len(ct_times)
                        pending = None
                        if not (owner < nct and gate <= ct_times[owner]):
                            break
                    release_time = entry[1]
                    if release_time is None:
                        # The earlier critical section is still open (only
                        # possible on malformed, e.g. windowed, traces).
                        break
                    pending = release_time
                    consumed += 1
                    cursor += 1
                if pending is not None and pt.merge(pending):
                    ct_cache[tid] = None
            else:
                for index in walk:
                    entry = log[index]
                    owner = entry[2]
                    if owner == tid:
                        cursor += 1
                        continue
                    if not (owner < nct and entry[3] <= ct_times[owner]):
                        break
                    release_time = entry[1]
                    if release_time is None:
                        break
                    if pt.merge(release_time):
                        ct = ct_cache[tid] = pt.copy().assign(tid, nt)
                        ct_times = ct._times
                        nct = len(ct_times)
                    consumed += 1
                    cursor += 1
            # A negative delta can never raise the max: plain decrement.
            self._queue_total -= 2 * consumed
        state.cursor[tid] = cursor

        # Close the critical section and fetch its accessed variables.
        reads: Optional[Set[str]] = None
        writes: Optional[Set[str]] = None
        stack = self._open_sections[tid]
        if stack:
            if stack[-1][0] == lock:
                _, reads, writes, _ = stack.pop()
            else:
                # Non-nested release (only on unvalidated traces): best effort.
                for position in range(len(stack) - 1, -1, -1):
                    if stack[position][0] == lock:
                        _, reads, writes, _ = stack.pop(position)
                        break

        # One frozen snapshot of this release's HB time serves the
        # Rule (a) cells, the per-lock ``H_l`` and the log entry -- every
        # consumer only ever reads it.
        release_snapshot = self._ht[tid].copy()
        # Lines 7-8: remember this release's HB time for Rule (a).
        if reads:
            per_lock = state.lr
            publish = self._join_release_time
            for variable in reads:
                cell = per_lock.get(variable)
                if cell is None:
                    cell = per_lock[variable] = _RuleACell()
                publish(cell, tid, release_snapshot)
        if writes:
            per_lock = state.lw
            publish = self._join_release_time
            for variable in writes:
                cell = per_lock.get(variable)
                if cell is None:
                    cell = per_lock[variable] = _RuleACell()
                publish(cell, tid, release_snapshot)

        # Lines 9-10: per-lock clocks now describe this (latest) release,
        # and the log entry closes with the same HB time.
        state.hl = release_snapshot
        state.pl = pt.copy()
        open_index = state.open_entry.pop(tid, None)
        if open_index is not None and open_index >= state.base:
            log[open_index - state.base][1] = release_snapshot
        # Pseudocode queue occupancy: one entry per other-thread queue
        # (with pruning, queues exist only for the lock's releasers).
        if self._effective_prune:
            audience = state.releasers
            delta = len(audience) - (1 if tid in audience else 0)
        else:
            delta = len(self._thread_names) - 1
        total = self._queue_total + delta
        self._queue_total = total
        if total > self._max_queue_total:
            self._max_queue_total = total

        if self._effective_prune:
            self._reclaim(state)

    def _reclaim(self, state: _LockState) -> None:
        """Drop closed log entries that every possible consumer has passed.

        Consumers of an entry are the threads that release the lock other
        than the entry's owner; with the releaser census available (pruned
        mode) an entry whose consumers' cursors have all moved past it can
        never be read again.
        """
        log = state.log
        if not log or log[0][1] is None:
            return
        base = state.base
        cursor_at = state.cursor.get
        # O(1) fast-out: the consumer that blocked the previous scan still
        # blocks this one unless its cursor advanced past the base or the
        # front entry is now its own.
        blocker = state.reclaim_blocker
        if (
            blocker is not None
            and blocker != log[0][2]
            and cursor_at(blocker, 0) <= base
        ):
            return
        # One scan finds the two smallest consumer cursors (and their
        # holders); each pop then checks its owner-adjusted bound in O(1)
        # instead of rescanning every releaser.
        min1 = min2 = 0
        arg1 = arg2 = None
        for consumer in state.releasers:
            c = cursor_at(consumer, 0)
            if arg1 is None or c < min1:
                min2 = min1
                arg2 = arg1
                min1 = c
                arg1 = consumer
            elif arg2 is None or c < min2:
                min2 = c
                arg2 = consumer
        while log:
            entry = log[0]
            if entry[1] is None:
                break
            if entry[2] == arg1:
                bound = min2
                holder = arg2
            else:
                bound = min1
                holder = arg1
            if holder is not None and bound <= base:
                state.reclaim_blocker = holder
                break
            log.popleft()
            base += 1
        state.base = base

    @staticmethod
    def _join_release_time(cell: _RuleACell, tid: int, frozen_time) -> None:
        """Publish ``frozen_time`` as ``tid``'s latest release HB-time.

        ``H_t`` is monotone, so the per-thread join of a thread's release
        times always equals its *latest* release time: the join collapses
        to replacement.  The caller passes a frozen snapshot (shared
        across every cell this release publishes to) that is never
        mutated afterwards.
        """
        cell.by_tid[tid] = frozen_time
        # This release is the lock's most recent, so (on chain-clean locks)
        # its entry now dominates the whole cell.
        top_tid = cell.top_tid
        if top_tid != tid:
            cell.second_tid = top_tid
            cell.second = cell.top
            cell.top_tid = tid
        cell.top = frozen_time
        # Invalidate every thread's visit memo (see _join_rule_a).
        cell.version += 1

    def _join_rule_a(self, target, cell: _RuleACell, tid: int, clean: bool) -> bool:
        """Join into ``target`` the Rule (a) release times relevant to ``tid``.

        ``clean`` selects the O(1) chain fast path (see :class:`_RuleACell`);
        returns True when ``target`` actually grew (so the caller can
        invalidate its cached ``C_t``).

        The version memo short-circuits repeat visits: ``target`` is always
        the accessing thread's ``P_t`` (which only grows in place), so once
        this thread has joined the cell at some version, revisiting the
        unchanged cell is a guaranteed no-op -- for the chain fast path
        *and* for the tainted full walk, since an unchanged version means
        no entry was added or grown.
        """
        seen = cell.seen
        version = cell.version
        if seen.get(tid) == version:
            return False
        if clean:
            if self._strict_pseudocode or cell.top_tid != tid:
                relevant = cell.top
            else:
                relevant = cell.second
            changed = relevant is not None and target.merge(relevant)
        else:
            changed = False
            if self._strict_pseudocode:
                for clock in cell.by_tid.values():
                    if target.merge(clock):
                        changed = True
            else:
                for releasing_tid, clock in cell.by_tid.items():
                    if releasing_tid != tid and target.merge(clock):
                        changed = True
        seen[tid] = version
        return changed

    def _read_rule_a(self, variable: str, tid: int, sections: list) -> None:
        # Line 11: Rule (a) -- order this read after every release of an
        # enclosing lock whose critical section wrote the same variable.
        # The access is also noted in each open section in the same walk
        # (no per-access held-locks list is materialised).
        pt = self._pt[tid]
        changed = False
        for _lock, section_reads, _section_writes, state in sections:
            cell = state.lw.get(variable) if state.lw else None
            if cell is not None and self._join_rule_a(
                pt, cell, tid, not state.tainted
            ):
                changed = True
            # Writes of past *read* sections conflict too; their releases
            # are mutually unordered, so never take the chain fast path.
            # (The read cells only exist on rwlock traces -- the truthiness
            # probe skips the dict lookup entirely for plain mutexes.)
            cell = state.read_lw.get(variable) if state.read_lw else None
            if cell is not None and self._join_rule_a(pt, cell, tid, False):
                changed = True
            section_reads.add(variable)
        if changed:
            self._ct[tid] = None

    def _write_rule_a(self, variable: str, tid: int, sections: list) -> None:
        # Line 12: Rule (a) for writes -- conflicting accesses are both
        # the reads and the writes of the enclosing critical sections.
        pt = self._pt[tid]
        changed = False
        for _lock, _section_reads, section_writes, state in sections:
            clean = not state.tainted
            cell = state.lr.get(variable) if state.lr else None
            if cell is not None and self._join_rule_a(pt, cell, tid, clean):
                changed = True
            cell = state.lw.get(variable) if state.lw else None
            if cell is not None and self._join_rule_a(pt, cell, tid, clean):
                changed = True
            # Reads and writes of past *read* sections conflict with this
            # write; read releases are mutually unordered -- full walk.
            # (Read cells only exist on rwlock traces: truthiness probe.)
            cell = state.read_lr.get(variable) if state.read_lr else None
            if cell is not None and self._join_rule_a(pt, cell, tid, False):
                changed = True
            cell = state.read_lw.get(variable) if state.read_lw else None
            if cell is not None and self._join_rule_a(pt, cell, tid, False):
                changed = True
            section_writes.add(variable)
        if changed:
            self._ct[tid] = None

    def _read_held_rule_a(
        self, variable: str, tid: int, read_held: Set[str], is_write: bool
    ) -> None:
        # Rule (a) for read-mode rwlock sections: a read section excludes
        # *write* sections, so this access is ordered after every
        # write-mode release of a read-held lock whose section accessed
        # the same variable conflictingly.  Only the exclusive-release
        # cells are consumed (read sections do not order each other); the
        # access is recorded in the section's read/write sets so the
        # read-mode ``rrel`` can publish it into the read cells consumed
        # by later exclusive sections.
        pt = self._pt[tid]
        changed = False
        for lock, section_sets in read_held.items():
            state = self._lock_state(lock)
            clean = not state.tainted
            if is_write:
                cell = state.lr.get(variable)
                if cell is not None and self._join_rule_a(
                    pt, cell, tid, clean
                ):
                    changed = True
                section_sets[1].add(variable)
            else:
                section_sets[0].add(variable)
            cell = state.lw.get(variable)
            if cell is not None and self._join_rule_a(pt, cell, tid, clean):
                changed = True
        if changed:
            self._ct[tid] = None

    def _fork(self, event: Event, tid: int) -> None:
        child_name = event.target
        child = self._registry.intern(child_name)
        self._ensure_thread(child, child_name)
        parent_clock = self._clock_c(tid)
        if self._pt[child].merge(parent_clock):
            self._ct[child] = None
        self._ht[child].merge(self._ht[tid])
        # Keep the child's own component pinned to its local clock.
        self._ht[child].assign(child, self._nt[child])
        # The parent's C/H escaped: its next event starts a new interval.
        self._prev_release[tid] = True

    def _join(self, event: Event, tid: int) -> None:
        child_name = event.target
        child = self._registry.intern(child_name)
        self._ensure_thread(child, child_name)
        if self._pt[tid].merge(self._clock_c(child)):
            self._ct[tid] = None
        self._ht[tid].merge(self._ht[child])
        self._ht[tid].assign(tid, self._nt[tid])
        # The child's C/H escaped into the parent: any (unusual) child
        # event after the join starts a new interval.
        self._prev_release[child] = True

    # ------------------------------------------------------------------ #
    # Extended vocabulary: rwlocks, barriers, wait/notify
    # ------------------------------------------------------------------ #

    def _racq_r(self, event: Event, tid: int) -> None:
        """Read-acquire: ordered after the last *write* release only.

        Read sections do not order each other, so a read-acquire receives
        the lock's ``H_l``/``P_l`` (describing the last write-mode or
        mutex release) but never the read accumulators, opens no Rule (b)
        log entry and no Rule (a) section.  Accesses inside the section
        still *consume* the lock's Rule (a) cells (see
        :meth:`_read_held_rule_a`): a read section excludes write
        sections, so it must pick up their conflicting-release edges --
        it just never publishes any of its own.
        """
        state = self._lock_state(event.target)
        hl = state.hl
        if hl is not None:
            self._ht[tid].merge(hl)
        pl = state.pl
        if pl is not None and self._pt[tid].merge(pl):
            self._ct[tid] = None
        self._read_held[tid][event.target] = [set(), set()]

    def _racq_w(self, event: Event, tid: int) -> None:
        """Write-acquire: a mutex acquire that also waits for all readers.

        Runs the full acquire procedure (Rule (b) log entry, Rule (a)
        section) and additionally joins the accumulated read-release
        clocks, then clears the accumulators: later sections are ordered
        after those readers transitively through this writer's release.
        """
        state = self._lock_state(event.target)
        read_hl = state.read_hl
        if read_hl is not None:
            self._ht[tid].merge(read_hl)
        read_pl = state.read_pl
        if read_pl is not None and self._pt[tid].merge(read_pl):
            self._ct[tid] = None
        state.read_hl = None
        state.read_pl = None
        self._acquire(event.target, tid)

    def _rrel(self, event: Event, tid: int) -> None:
        """Reader/writer release: mode-resolved against this thread's state.

        Closing a write section is exactly a mutex release.  Closing a
        read section publishes the thread's ``H_t``/``P_t`` into the
        lock's read accumulators (consumed by the next write-acquire) --
        deliberately *not* into ``H_l``/``P_l``, so concurrent read
        sections stay unordered.
        """
        lock = event.target
        read_held = self._read_held[tid]
        section_sets = read_held.pop(lock, None)
        if section_sets is not None:
            state = self._lock_state(lock)
            ht = self._ht[tid]
            # Publish the section's accesses into the read cells: a later
            # conflicting access under an exclusive section of this lock
            # is Rule (a)-ordered after this release.
            reads, writes = section_sets
            snapshot = ht.copy() if (reads or writes) else None
            if reads:
                per_lock = state.read_lr
                for variable in reads:
                    cell = per_lock.get(variable)
                    if cell is None:
                        cell = per_lock[variable] = _RuleACell()
                    self._join_release_time(cell, tid, snapshot)
            if writes:
                per_lock = state.read_lw
                for variable in writes:
                    cell = per_lock.get(variable)
                    if cell is None:
                        cell = per_lock[variable] = _RuleACell()
                    self._join_release_time(cell, tid, snapshot)
            if state.read_hl is None:
                state.read_hl = ht.copy()
            else:
                state.read_hl.merge(ht)
            pt = self._pt[tid]
            if state.read_pl is None:
                state.read_pl = pt.copy()
            else:
                state.read_pl.merge(pt)
        else:
            self._release(event.target, tid)
        self._prev_release[tid] = True

    def _barrier(self, event: Event, tid: int) -> None:
        """Barrier arrival: all-to-all join at each generation.

        A generation's arrivals accumulate into a pair of join clocks; it
        *closes* when some participant arrives again, at which point every
        participant of the closed generation receives the accumulated
        join (the all-to-all edge), and a fresh generation starts with the
        repeat arriver as its first participant.  Arrivals also receive
        the accumulator of the open generation so far, and while the
        generation stays open each participant keeps re-joining the
        accumulator at its subsequent events (a real barrier would have
        blocked it until every recorded arrival happened) -- together
        giving the partial order of a sequentially-consistent barrier
        implementation without knowing the party count.

        Barriers are replicated to every shard and the close fires at the
        same stream position everywhere, so sharded runs stay
        byte-identical to serial ones.
        """
        entry = self._barriers.get(event.target)
        if entry is None:
            entry = self._barriers[event.target] = [None, None, set(), 0]
        participants = entry[2]
        if tid in participants:
            # Generation complete: deliver the all-to-all join.
            acc_p, acc_h = entry[0], entry[1]
            for member in participants:
                if self._pt[member].merge(acc_p):
                    self._ct[member] = None
                self._ht[member].merge(acc_h)
                waiting = self._barrier_waiting.get(member)
                if waiting is not None:
                    waiting.pop(event.target, None)
            entry[0] = None
            entry[1] = None
            participants = entry[2] = set()
        acc_p, acc_h = entry[0], entry[1]
        if acc_h is not None:
            self._ht[tid].merge(acc_h)
        if acc_p is not None and self._pt[tid].merge(acc_p):
            self._ct[tid] = None
        ct = self._clock_c(tid)
        if entry[0] is None:
            entry[0] = ct.copy()
            entry[1] = self._ht[tid].copy()
        else:
            entry[0].merge(ct)
            entry[1].merge(self._ht[tid])
        participants.add(tid)
        entry[3] += 1
        # The arriver just merged the whole accumulator, so it has seen
        # the version its own contribution produced.
        self._barrier_waiting.setdefault(tid, {})[event.target] = entry[3]
        self._prev_release[tid] = True

    def _wait(self, event: Event, tid: int) -> None:
        """Wake-side wait: re-acquire the monitor plus the notify edge.

        Producers desugar ``wait(m)`` into ``rel(m)`` at wait-start and
        ``wait(m)`` at wake (the RVPredict convention), so this event
        runs the full acquire procedure and additionally joins the
        accumulated notify clocks -- a *hard* edge: the waiter provably
        resumed because of a notify, and ``C_t`` (not just ``P_l``) of
        every notifier is ordered before everything after the wake.
        """
        state = self._lock_state(event.target)
        notify_h = state.notify_h
        if notify_h is not None:
            self._ht[tid].merge(notify_h)
        notify_p = state.notify_p
        if notify_p is not None and self._pt[tid].merge(notify_p):
            self._ct[tid] = None
        self._acquire(event.target, tid)

    def _notify(self, event: Event, tid: int) -> None:
        """Publish ``C_t``/``H_t`` into the monitor's notify accumulators.

        The accumulators are never cleared (notifyAll semantics: every
        later waiter on the monitor is ordered after every notify), and a
        notify is release-like -- it defers an ``N_t`` bump, keeping
        access epochs exact.
        """
        state = self._lock_state(event.target)
        ct = self._clock_c(tid)
        if state.notify_p is None:
            state.notify_p = ct.copy()
            state.notify_h = self._ht[tid].copy()
        else:
            state.notify_p.merge(ct)
            state.notify_h.merge(self._ht[tid])
        self._prev_release[tid] = True

    #: id(kind) -> the method handling it (the batch loop inlines the rest).
    _RARE = {
        id(EventType.FORK): _fork,
        id(EventType.JOIN): _join,
        id(EventType.RACQ_R): _racq_r,
        id(EventType.RACQ_W): _racq_w,
        id(EventType.RREL): _rrel,
        id(EventType.BARRIER): _barrier,
        id(EventType.WAIT): _wait,
        id(EventType.NOTIFY): _notify,
    }

    # ------------------------------------------------------------------ #
    # Finishing and the shard-boundary protocol
    # ------------------------------------------------------------------ #

    def finish(self) -> None:
        self._end_pass()
        kernel = self._kernel
        peak = (
            self._max_queue_total if kernel is None
            else kernel.max_queue_total
        )
        self.report.stats["local_accesses"] = float(self._local_accesses)
        events = max(1, self._processed_events)
        self.report.stats["max_queue_total"] = float(peak)
        self.report.stats["max_queue_fraction"] = peak / float(events)

    def mark_foreign(self, variable: str) -> None:
        """Drop ``variable``'s race checks; its accesses still run
        Rule (a), which every shard needs for the full run's clocks."""
        self._hand_over("mark_foreign")
        self._history.mark_foreign(variable)

    def sync_clock_state(self) -> Dict[object, bytes]:
        """Serialized per-thread WCP times ``C_t`` (shard-boundary protocol).

        Deferred ``N_t`` bumps are applied to the exported copies so that
        shards which saw a thread's release but not (yet) its next routed
        access still report the same state.
        """
        self._sync()
        state: Dict[object, bytes] = {}
        name_of = self._registry.name_of
        for tid, nt in enumerate(self._nt):
            if nt == 0:
                continue
            if self._prev_release[tid]:
                nt += 1
            state[name_of(tid)] = encode_clock(
                self._pt[tid].copy().assign(tid, nt)
            )
        return state

    # ------------------------------------------------------------------ #
    # Snapshot protocol (checkpoint/resume, sharded worker restore)
    # ------------------------------------------------------------------ #

    def snapshot_config(self) -> Dict[str, object]:
        return {"strict_pseudocode": self._strict_pseudocode}

    @staticmethod
    def _cell_state(cell: _RuleACell) -> Dict[str, object]:
        return {
            "by_tid": dict(cell.by_tid),
            "top_tid": cell.top_tid,
            "second_tid": cell.second_tid,
            "version": cell.version,
            "seen": dict(cell.seen),
        }

    @classmethod
    def _cells_state(cls, table: Dict[str, _RuleACell]) -> Dict[str, object]:
        """A Rule (a) table in variable order: a release publishes its
        section's variables in set order in Python and in first-access
        order in the kernel, and equal states must give equal bytes."""
        return {
            variable: cls._cell_state(table[variable])
            for variable in sorted(table)
        }

    @staticmethod
    def _cell_from_state(state: Dict[str, object]) -> _RuleACell:
        cell = _RuleACell()
        cell.by_tid = dict(state["by_tid"])
        cell.top_tid = state["top_tid"]
        cell.second_tid = state["second_tid"]
        # top/second alias the by_tid entries, so they are re-linked
        # rather than stored twice.
        cell.top = cell.by_tid.get(cell.top_tid)
        cell.second = cell.by_tid.get(cell.second_tid)
        cell.version = state["version"]
        cell.seen = dict(state["seen"])
        return cell

    def state_snapshot(self) -> bytes:
        report = self.report  # raises before reset()
        self._sync()
        locks: Dict[str, object] = {}
        for lock, state in self._locks.items():
            locks[lock] = {
                # The acquire epoch (entry[3]) is the acquire clock's owner
                # component, so restore derives it instead of storing it.
                "log": [(entry[0], entry[1], entry[2]) for entry in state.log],
                "base": state.base,
                "cursor": dict(state.cursor),
                "open_entry": dict(state.open_entry),
                "pl": state.pl,
                "hl": state.hl,
                "holder": state.holder,
                "tainted": state.tainted,
                "releasers": state.releasers,
                "local": state.local,
                "lr": self._cells_state(state.lr),
                "lw": self._cells_state(state.lw),
                "read_lr": self._cells_state(state.read_lr),
                "read_lw": self._cells_state(state.read_lw),
                "read_pl": state.read_pl,
                "read_hl": state.read_hl,
                "notify_p": state.notify_p,
                "notify_h": state.notify_h,
            }
        state_dict = {
            "names": self._registry.names(),
            "nt": list(self._nt),
            "pt": list(self._pt),
            "ht": list(self._ht),
            "prev_release": list(self._prev_release),
            "open_sections": [
                None if sections is None else [
                    (lock, reads, writes)
                    for lock, reads, writes, _lock_state in sections
                ]
                for sections in self._open_sections
            ],
            "thread_names": list(self._thread_names),
            "read_held": [
                None if held is None else {
                    lock: (sets[0], sets[1])
                    for lock, sets in held.items()
                }
                for held in self._read_held
            ],
            "barriers": {
                barrier: (entry[0], entry[1], set(entry[2]), entry[3])
                for barrier, entry in self._barriers.items()
            },
            "barrier_waiting": {
                tid: dict(waiting)
                for tid, waiting in self._barrier_waiting.items()
                if waiting
            },
            "locks": locks,
            "history": self._history.state_dict(),
            "report": report.state_dict(),
            "counters": (
                self._queue_total,
                self._max_queue_total,
                self._processed_events,
                self._local_accesses,
            ),
            "prune": self._effective_prune,
            "local_variables": self._local_variables,
        }
        return pack_state(
            type(self).__name__, self.snapshot_version,
            self.snapshot_config(), state_dict,
        )

    def restore_state(self, blob: bytes) -> None:
        if self._report is None:
            raise RuntimeError(
                "restore_state() requires reset() first (the reset binds "
                "the pass context and its shared thread registry)"
            )
        state = unpack_for(self).unpack(blob)
        adopt_registry_names(self._registry, state["names"])
        self._arm_kernel("restore")  # a restored pass stays in Python

        self._nt = list(state["nt"])
        self._pt = list(state["pt"])
        self._ht = list(state["ht"])
        self._ct = [None] * len(self._nt)
        self._prev_release = list(state["prev_release"])
        self._thread_names = list(state["thread_names"])

        locks: Dict[str, _LockState] = {}
        for lock, entry in state["locks"].items():
            lock_state = _LockState()
            lock_state.log = deque(
                [acq, release, owner, acq.get(owner)]
                for acq, release, owner in entry["log"]
            )
            lock_state.base = entry["base"]
            lock_state.cursor = dict(entry["cursor"])
            lock_state.open_entry = dict(entry["open_entry"])
            lock_state.pl = entry["pl"]
            lock_state.hl = entry["hl"]
            lock_state.holder = entry["holder"]
            lock_state.tainted = entry["tainted"]
            lock_state.releasers = set(entry["releasers"])
            lock_state.local = entry["local"]
            lock_state.lr = {
                variable: self._cell_from_state(cell)
                for variable, cell in entry["lr"].items()
            }
            lock_state.lw = {
                variable: self._cell_from_state(cell)
                for variable, cell in entry["lw"].items()
            }
            lock_state.read_lr = {
                variable: self._cell_from_state(cell)
                for variable, cell in entry["read_lr"].items()
            }
            lock_state.read_lw = {
                variable: self._cell_from_state(cell)
                for variable, cell in entry["read_lw"].items()
            }
            lock_state.read_pl = entry["read_pl"]
            lock_state.read_hl = entry["read_hl"]
            lock_state.notify_p = entry["notify_p"]
            lock_state.notify_h = entry["notify_h"]
            locks[lock] = lock_state
        self._locks = locks
        self._read_held = [
            None if held is None else {
                lock: [set(reads), set(writes)]
                for lock, (reads, writes) in held.items()
            }
            for held in state["read_held"]
        ]
        self._barriers = {
            barrier: [acc_p, acc_h, set(participants), version]
            for barrier, (acc_p, acc_h, participants, version)
            in state["barriers"].items()
        }
        self._barrier_waiting = {
            tid: dict(waiting)
            for tid, waiting in state["barrier_waiting"].items()
        }

        # Re-link open sections to their (just rebuilt) lock states.
        self._open_sections = [
            None if sections is None else [
                (lock, set(reads), set(writes), self._lock_state(lock))
                for lock, reads, writes in sections
            ]
            for sections in state["open_sections"]
        ]

        self._history = AccessHistory.from_state(state["history"])
        self._report = RaceReport.from_state(state["report"])
        (
            self._queue_total,
            self._max_queue_total,
            self._processed_events,
            self._local_accesses,
        ) = state["counters"]
        self._effective_prune = state["prune"]
        self._local_variables = frozenset(state["local_variables"])
        self.restore_pending = False

    # ------------------------------------------------------------------ #
    # Introspection helpers used by tests and the closure cross-check
    # ------------------------------------------------------------------ #

    def timestamps(self, trace: Trace) -> List[VectorClock]:
        """Run over ``trace`` and return the WCP timestamp ``C_e`` per event.

        Timestamps are converted from the internal tid-keyed clocks to the
        public name-keyed :class:`VectorClock`.  Used by tests to
        cross-validate against the explicit closure (Theorem 2:
        ``a <=_WCP b  iff  C_a <= C_b`` for ``a`` earlier than ``b``).
        """
        self.reset(trace)
        clocks: List[VectorClock] = []
        to_public = self._registry.to_public
        intern = self._registry.intern
        for event in trace:
            self.process(event)
            tid = intern(event.thread)
            clocks.append(to_public(self._clock_c(tid)))
        self.finish()
        return clocks

"""Algorithm 1: the linear-time WCP vector-clock detector.

This is the paper's central algorithmic contribution (Section 3).  The
detector processes the trace in a single streaming pass and maintains:

``N_t``
    an integer local clock per thread, incremented just before processing
    an event whose thread-order predecessor was a release;
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
and ``H`` on fork, and symmetrically on join.

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
  trace / engine source when available, so pre-stamped ``event.tid``
  values are trusted and no per-event hashing happens at all).
* **Dense clocks** -- all internal clocks are array-backed
  :class:`~repro.vectorclock.dense.DenseClock`\\ s.
* **Incremental ``C_t``** -- instead of materialising
  ``P_t.copy().assign(t, N_t)`` per event, each thread's ``C_t`` is
  cached and invalidated only when ``P_t`` actually grows (all ``P_t``
  mutations go through ``merge``, which reports changes) or ``N_t``
  bumps.  The cached object is *frozen*: it is replaced on rebuild, never
  mutated, so the Rule (b) log and the access history can hold references
  to it without copying.  Inside the Rule (b) cursor walk this turns the
  per-iteration ``_clock_c`` rebuild into a rebuild-on-actual-change.
* **Epoch-accelerated race checks** -- accesses flow into the shared
  :class:`~repro.core.history.AccessHistory` with ``exact=True`` unless a
  fork/join leaked a mid-block snapshot of the thread's current
  release-free block (the condition under which the FastTrack-style O(1)
  epoch comparison is provably equivalent to the full join comparison for
  WCP timestamps -- see the history module docstring).

Space is linear in the worst case due to the FIFO queues, and the
detector records the maximum total queue length so Table 1's column 11
can be reproduced.

One exact (semantics-preserving) optimisation is applied by default: log
entries are reclaimed once every thread that releases ``l`` somewhere in
the trace has consumed them (a thread that never releases the lock never
reads its cursor, so it cannot hold entries alive).  This changes the
memory profile dramatically on traces with thread-local locks (which
would otherwise accumulate entries forever).  The releaser census needs
the whole trace at :meth:`reset`; when fed from a stream
(``is_complete`` False) or with ``prune_queues=False`` the log is kept
in full, matching the pseudocode's worst-case linear space.

``report.stats["max_queue_total"]`` still reports the *pseudocode's*
queue occupancy (each critical section contributes one acquire and one
release entry per other-thread queue) so that Table 1's column 11 stays
comparable with the paper.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set

from repro.core.detector import Detector
from repro.core.history import AccessHistory, VariableHistory
from repro.core.races import RaceReport
from repro.core.snapshot import adopt_registry_names, pack_state, unpack_for
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace
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
    """

    __slots__ = (
        "log", "base", "cursor", "open_entry", "pl", "hl",
        "holder", "tainted", "releasers", "lr", "lw",
        "evicted_acq", "evicted_rel",
        "read_lr", "read_lw",
        "read_pl", "read_hl", "notify_p", "notify_h",
        "reclaim_blocker",
    )

    def __init__(self) -> None:
        #: Shared critical-section log: [acquire clock, release HB-time or
        #: None while open, owning tid, acquire epoch] per entry.  The
        #: epoch (the owner's ``N_o`` at acquire) is set when no mid-block
        #: snapshot of the owner's block escaped before the acquire, in
        #: which case the Rule (b) gate ``A <= C_t`` reduces to the O(1)
        #: comparison ``N_o <= C_t(o)`` (same exactness lemma as the
        #: access history's epoch fast path); None forces the full
        #: comparison.  Snapshots strip the field (it is a pure
        #: accelerator), so restored detectors walk pre-snapshot entries
        #: with the full comparison and identical verdicts.
        self.log: Deque[list] = deque()
        #: Absolute index of the log's first retained entry.
        self.base = 0
        #: tid -> absolute log index consumed so far (Rule (b) cursor).
        self.cursor: Dict[int, int] = {}
        #: tid -> absolute log index of the thread's open section.
        self.open_entry: Dict[int, int] = {}
        #: Per-owner joins over entries dropped by the stream-mode
        #: quiescence heuristic (acquire clocks / release HB-times), the
        #: recovery summary for threads whose cursor lags the eviction
        #: horizon.  None until the first eviction.
        self.evicted_acq: Optional[Dict[int, object]] = None
        self.evicted_rel: Optional[Dict[int, object]] = None
        #: P / H clocks of the last release (None = bottom).
        self.pl = None
        self.hl = None
        #: tid currently holding the lock (chain-taint tracking).
        self.holder: Optional[int] = None
        #: True once overlapping critical sections were observed.
        self.tainted = False
        #: tids that release this lock somewhere in the trace (pruned mode).
        self.releasers: Set[int] = set()
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


class WCPDetector(Detector):
    """Streaming WCP race detector (Algorithm 1).

    Parameters
    ----------
    track_queue_stats:
        When True (default) record the maximum total FIFO-queue length in
        ``report.stats["max_queue_total"]`` and the fraction of the
        processed events in ``report.stats["max_queue_fraction"]``
        (Table 1, col 11).
    strict_pseudocode:
        When True, follow Algorithm 1 literally and let Rule (a) joins
        include releases performed by the accessing thread itself (see the
        module docstring).  Default False (agree with Definition 3).
    prune_queues:
        When True (default) reclaim critical-section log entries consumed
        by every releasing thread (exactly equivalent, far less memory).
        Requires the full trace at :meth:`reset`; automatically disabled
        when reset with a non-prescannable stream context.
    stream_reclaim:
        When True, reclaim Rule (b) log entries *in stream mode* (where the
        releaser census is unavailable) with the epoch-accelerated
        thread-quiescence heuristic: a closed front entry is dropped once
        every other known thread has either walked past it, never entered a
        critical section of the lock (locality assumption), or provably
        gains nothing from consuming it (the acquire is already below the
        thread's WCP time -- checked via an O(1) owner-epoch pre-filter
        before the full comparison -- and the release time is already in
        its ``P_t``).  Dropped entries leave behind per-owner acquire /
        release joins through which a thread whose assumed quiescence was
        wrong still consumes the whole evicted region exactly (see
        :meth:`_reclaim_quiescent` / :meth:`_consume_evicted`); the only
        loss is a late consumer entitled to a strict *prefix* of the
        evicted region, whose missing merges can surface extra (never
        fewer) race reports on adversarial streams -- why the heuristic
        is opt-in (the CLI enables it under ``--stream``).  Default False.
    """

    name = "WCP"

    #: Sharded-engine contract: clock state depends on the sync skeleton
    #: plus in-critical-section accesses, which Rule (a) feeds into P_t --
    #: so those must be replicated to non-owner shards (process_foreign).
    shardable = True
    needs_foreign_accesses = True

    #: WCP's per-event state is bounded and incrementally maintained (the
    #: paper's central property), so a mid-run snapshot is compact and the
    #: checkpoint/resume protocol is supported in full.
    supports_snapshot = True
    snapshot_version = 3

    #: Stream-reclaim only bothers scanning once a lock's log is this long.
    _QUIESCE_LOG_THRESHOLD = 64

    def __init__(
        self,
        track_queue_stats: bool = True,
        strict_pseudocode: bool = False,
        prune_queues: bool = True,
        stream_reclaim: bool = False,
    ) -> None:
        super().__init__()
        self._track_queue_stats = track_queue_stats
        self._strict_pseudocode = strict_pseudocode
        self._prune_queues = prune_queues
        self._stream_reclaim = stream_reclaim
        self._trace: Optional[Trace] = None

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #

    def reset(self, trace: Trace) -> None:
        self._trace = trace
        self._new_report(trace)
        registry = getattr(trace, "registry", None)
        # Events stamped by the adopted registry carry trustworthy tids;
        # with a private registry every tid is re-interned per event.
        self._trust_tids = registry is not None
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
        # ``N_t`` value at the last mid-block snapshot leak (fork by the
        # thread / join consuming it); -1 when the current block is clean.
        self._leak: List[int] = []
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

        # Threads that release each lock somewhere in the trace: queues for
        # other threads are never read, so they need not be kept.  The
        # prescan needs the whole trace up front; when fed from a stream
        # (``is_complete`` False) fall back to keeping every queue.  A
        # pending restore makes the prescan pure waste (the snapshot
        # carries the censused releaser sets and modes), so skip it --
        # conservatively disabling pruning, which the restore overwrites.
        self._effective_prune = (
            self._prune_queues
            and not self.restore_pending
            and getattr(trace, "is_complete", True)
        )
        # Quiescence reclamation replaces the census exactly when the
        # census is unavailable (stream) but pruning is wanted.
        self._quiesce_reclaim = (
            self._stream_reclaim
            and self._prune_queues
            and not self._effective_prune
        )
        self._stream_reclaimed = 0
        if self._effective_prune:
            intern = self._registry.intern
            locks = self._locks
            release = EventType.RELEASE
            rrel = EventType.RREL
            for event in trace:
                # ``rrel`` threads are censused too: a write-mode rrel runs
                # the same Rule (b) log walk a mutex release does, so its
                # thread's cursor must gate reclamation (read-mode rrels
                # never walk -- counting them is conservative, not wrong).
                etype = event.etype
                if etype is release or etype is rrel:
                    state = locks.get(event.target)
                    if state is None:
                        state = locks[event.target] = _LockState()
                    state.releasers.add(intern(event.thread))

        intern = self._registry.intern
        for thread in trace.threads:
            self._ensure_thread(intern(thread), thread)

    def _ensure_thread(self, tid: int, name: str) -> None:
        nt = self._nt
        if tid >= len(nt):
            grow = tid + 1 - len(nt)
            nt.extend([0] * grow)
            self._pt.extend([None] * grow)
            self._ht.extend([None] * grow)
            self._ct.extend([None] * grow)
            self._prev_release.extend([False] * grow)
            self._leak.extend([-1] * grow)
            self._open_sections.extend([None] * grow)
            self._read_held.extend([None] * grow)
        if nt[tid] == 0:
            nt[tid] = 1
            self._pt[tid] = DenseClock()
            self._ht[tid] = DenseClock.single(tid, 1)
            self._ct[tid] = None
            self._prev_release[tid] = False
            self._leak[tid] = -1
            self._open_sections[tid] = []
            self._read_held[tid] = {}
            self._thread_names.append(name)

    def _lock_state(self, lock: str) -> _LockState:
        state = self._locks.get(lock)
        if state is None:
            state = self._locks[lock] = _LockState()
        return state

    @property
    def _cs_log(self) -> Dict[str, Deque[list]]:
        """Per-lock critical-section logs (compatibility view)."""
        return {lock: state.log for lock, state in self._locks.items()}

    # ------------------------------------------------------------------ #
    # Clock helpers
    # ------------------------------------------------------------------ #

    def _clock_c(self, tid: int) -> object:
        """Return the cached frozen ``C_t = P_t[t := N_t]``.

        The returned object must never be mutated: invalidation replaces
        it with a fresh build, so the Rule (b) log and the access history
        can safely alias it.
        """
        ct = self._ct[tid]
        if ct is None:
            ct = self._pt[tid].copy().assign(tid, self._nt[tid])
            self._ct[tid] = ct
        return ct

    def _bump_queue_total(self, delta: int) -> None:
        if not self._track_queue_stats:
            return
        self._queue_total += delta
        if self._queue_total > self._max_queue_total:
            self._max_queue_total = self._queue_total

    # ------------------------------------------------------------------ #
    # Event dispatch
    # ------------------------------------------------------------------ #

    def _thread_prologue(self, event: Event) -> int:
        """Shared per-event prologue: intern, initialise, apply the bump.

        Returns the event's tid.  :meth:`process_foreign` calls this;
        :meth:`process` inlines a copy of it for speed -- the deferred
        ``N_t`` bump must advance at the same event on every shard, so any
        change here must be mirrored there.
        """
        self._processed_events += 1
        tid = event.tid
        if tid is None or not self._trust_tids:
            tid = self._registry.intern(event.thread)
        nt_list = self._nt
        if tid >= len(nt_list) or nt_list[tid] == 0:
            self._ensure_thread(tid, event.thread)
        prev = self._prev_release
        if prev[tid]:
            # The previous event of this thread was a release: bump N_t.
            nt = nt_list[tid] + 1
            nt_list[tid] = nt
            self._ht[tid].assign(tid, nt)
            self._ct[tid] = None
            prev[tid] = False
        if self._barrier_waiting:
            waiting = self._barrier_waiting.get(tid)
            if waiting:
                self._join_open_barriers(tid, waiting)
        return tid

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
        # Per-event prologue, inlined from _thread_prologue (which
        # process_foreign still calls): the deferred N_t bump must advance
        # at the same event on both paths, so keep the copies in sync.
        self._processed_events += 1
        tid = event.tid
        if tid is None or not self._trust_tids:
            tid = self._registry.intern(event.thread)
        nt_list = self._nt
        if tid >= len(nt_list) or nt_list[tid] == 0:
            self._ensure_thread(tid, event.thread)
        prev = self._prev_release
        if prev[tid]:
            # The previous event of this thread was a release: bump N_t.
            nt = nt_list[tid] + 1
            nt_list[tid] = nt
            self._ht[tid].assign(tid, nt)
            self._ct[tid] = None
            prev[tid] = False
        if self._barrier_waiting:
            waiting = self._barrier_waiting.get(tid)
            if waiting:
                self._join_open_barriers(tid, waiting)
        etype = event.etype
        if etype is EventType.READ:
            self._read(event, tid)
        elif etype is EventType.WRITE:
            self._write(event, tid)
        elif etype is EventType.ACQUIRE:
            self._acquire(event, tid)
        elif etype is EventType.RELEASE:
            self._release(event, tid)
            self._prev_release[tid] = True
        elif etype is EventType.FORK:
            self._fork(event, tid)
        elif etype is EventType.JOIN:
            self._join(event, tid)
        elif etype is EventType.RACQ_R:
            self._racq_r(event, tid)
        elif etype is EventType.RACQ_W:
            self._racq_w(event, tid)
        elif etype is EventType.RREL:
            self._rrel(event, tid)
            self._prev_release[tid] = True
        elif etype is EventType.BARRIER:
            self._barrier(event, tid)
            self._prev_release[tid] = True
        elif etype is EventType.WAIT:
            self._wait(event, tid)
        elif etype is EventType.NOTIFY:
            self._notify(event, tid)
            self._prev_release[tid] = True
        # BEGIN / END need no clock work.

    # ------------------------------------------------------------------ #
    # Algorithm 1 procedures
    # ------------------------------------------------------------------ #

    def _acquire(self, event: Event, tid: int) -> None:
        lock = event.target
        state = self._locks.get(lock)
        if state is None:
            state = self._locks[lock] = _LockState()
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
        # acquire epoch arms the consumers' O(1) gate unless a fork/join
        # already leaked a snapshot of this block (see _LockState.log).
        nt = self._nt[tid]
        ct = ct_cache[tid]
        if ct is None:
            ct = ct_cache[tid] = self._pt[tid].copy().assign(tid, nt)
        log = state.log
        state.open_entry[tid] = state.base + len(log)
        log.append([ct, None, tid, nt if self._leak[tid] != nt else None])
        if self._track_queue_stats:
            # Inlined _bump_queue_total(_audience_size(...)).
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

    def _release(self, event: Event, tid: int) -> None:
        lock = event.target
        state = self._locks.get(lock)
        if state is None:
            state = self._locks[lock] = _LockState()
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
        cursor = state.cursor.get(tid, 0)
        walk_allowed = True
        if cursor < base:
            # The thread's cursor lags the log's first retained entry:
            # either pruning established it can never read the gap (batch
            # census; advance freely), or the stream-mode heuristic
            # evicted entries it might still need, in which case it must
            # first consume the whole evicted region via the recovery
            # summary -- or not walk at all (FIFO order), retrying at its
            # next release once its clocks have grown.
            if self._consume_evicted(state, tid, pt):
                cursor = base
            else:
                walk_allowed = False
        if walk_allowed and cursor - base < len(log):
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
                    if gate is None:
                        ordered = entry[0] <= ct
                    else:
                        ordered = owner < nct and gate <= ct_times[owner]
                    if not ordered:
                        if pending is None:
                            break
                        if pt.merge(pending):
                            ct = ct_cache[tid] = pt.copy().assign(tid, nt)
                            ct_times = ct._times
                            nct = len(ct_times)
                        pending = None
                        if gate is None:
                            ordered = entry[0] <= ct
                        else:
                            ordered = owner < nct and gate <= ct_times[owner]
                        if not ordered:
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
                    gate = entry[3]
                    if gate is None:
                        ordered = entry[0] <= ct
                    else:
                        ordered = owner < nct and gate <= ct_times[owner]
                    if not ordered:
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
            if consumed and self._track_queue_stats:
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
        if self._track_queue_stats:
            # Inlined _bump_queue_total(_audience_size(...)).
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
        elif self._quiesce_reclaim:
            state.releasers.add(tid)
            if len(state.log) >= self._QUIESCE_LOG_THRESHOLD:
                self._reclaim_quiescent(state)

    def _audience_size(self, state: _LockState, tid: int) -> int:
        """Number of pseudocode queues this entry would be appended to.

        Only used for the Table-1 queue statistics: with pruning, queues
        exist for threads that release the lock; otherwise for every
        known thread (minus the owner in both cases).
        """
        if self._effective_prune:
            audience = state.releasers
            size = len(audience)
            return size - 1 if tid in audience else size
        # The owner is always initialised, hence always counted.
        return len(self._thread_names) - 1

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

    def _reclaim_quiescent(self, state: _LockState) -> None:
        """Stream-mode log reclamation by epoch-based thread quiescence.

        Without the whole-trace releaser census, an entry's future
        consumers are unknowable; the heuristic drops a closed front entry
        (owner ``o``, acquire clock ``A``, release HB-time ``R``) once
        every other currently-known thread ``t`` satisfies one of:

        * ``t`` has already walked past the entry (its cursor is beyond);
        * ``t`` has never released (nor currently holds) this lock --
          thread-locality: it is assumed to keep away from it;
        * consuming the entry would provably be a no-op forever:
          ``A <= C_t`` already holds (the Rule (b) gate only opens wider as
          ``C_t`` grows) and ``R <= P_t`` (the merge adds nothing, and
          ``R`` is fixed while ``P_t`` only grows).  The O(T) comparisons
          are pre-filtered by the O(1) owner-epoch check
          ``A(o) <= P_t(o)``, which dismisses most blocked entries without
          touching a full clock.

        Evicted entries are not forgotten: their acquire clocks and
        release times are folded into per-owner joins (the *recovery
        summary*, ``evicted_acq`` / ``evicted_rel``), through which a
        thread whose assumed quiescence turns out wrong -- it enters the
        lock's critical sections after evictions -- still consumes the
        evicted region (see :meth:`_consume_evicted`).  The remaining
        inexactness is strictly narrower: a late consumer that could only
        ever consume a *strict prefix* of the evicted region loses those
        merges (clocks can only get smaller, so in adversarial traces
        this may surface extra race reports, never hide any ordering that
        batch mode would miss).
        """
        log = state.log
        base = state.base
        cursor = state.cursor
        releasers = state.releasers
        open_entry = state.open_entry
        reclaimed = 0
        while log:
            entry = log[0]
            release_time = entry[1]
            if release_time is None:
                break
            acq_clock = entry[0]
            owner = entry[2]
            acq_owner_time = acq_clock.get(owner)
            blocked = False
            for tid, nt in enumerate(self._nt):
                if nt == 0 or tid == owner:
                    continue
                if cursor.get(tid, 0) > base:
                    continue
                if tid not in releasers and tid not in open_entry:
                    continue
                pt = self._pt[tid]
                if acq_owner_time > pt.get(owner):
                    blocked = True
                    break
                if not (acq_clock <= self._clock_c(tid) and release_time <= pt):
                    blocked = True
                    break
            if blocked:
                break
            # Fold the entry into the recovery summary before dropping it.
            acq_joins = state.evicted_acq
            if acq_joins is None:
                acq_joins = state.evicted_acq = {}
                state.evicted_rel = {}
            existing = acq_joins.get(owner)
            if existing is None:
                acq_joins[owner] = acq_clock.copy()
                state.evicted_rel[owner] = release_time.copy()
            else:
                existing.merge(acq_clock)
                state.evicted_rel[owner].merge(release_time)
            log.popleft()
            base += 1
            reclaimed += 1
        if reclaimed:
            state.base = base
            self._stream_reclaimed += reclaimed

    def _consume_evicted(self, state: _LockState, tid: int, pt) -> bool:
        """Consume the evicted log region through the recovery summary.

        Returns True when the thread may advance its cursor to the log
        base: either nothing heuristic was evicted (batch pruning already
        proved the gap unreadable), or every foreign evicted acquire is
        below the thread's current WCP time -- in which case the original
        walk would have consumed every evicted entry (gates only open
        wider as ``C_t`` grows), so merging the per-owner release joins is
        *exactly* the original effect.  Otherwise the caller must skip the
        live-log walk (FIFO) and retry at the thread's next release.
        """
        acq_joins = state.evicted_acq
        if acq_joins is None:
            return True
        ct = self._clock_c(tid)
        for owner, acq_join in acq_joins.items():
            if owner != tid and not acq_join <= ct:
                return False
        changed = False
        for owner, rel_join in state.evicted_rel.items():
            if owner != tid and pt.merge(rel_join):
                changed = True
        if changed:
            self._ct[tid] = None
        return True

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

    def _read(self, event: Event, tid: int) -> None:
        sections = self._open_sections[tid]
        if sections:
            self._read_rule_a(event.target, tid, sections)
        read_held = self._read_held[tid]
        if read_held:
            self._read_held_rule_a(event.target, tid, read_held, False)
        # Race check, inlined from _check_access (the per-access hot path).
        ct = self._ct[tid]
        if ct is None:
            ct = self._ct[tid] = self._pt[tid].copy().assign(tid, self._nt[tid])
        variables = self._history._variables
        history = variables.get(event.target)
        if history is None:
            history = variables[event.target] = VariableHistory()
        racy = history.observe_read(
            event, ct, tid, self._leak[tid] != self._nt[tid]
        )
        if racy:
            report = self.report
            for earlier in racy:
                report.add(earlier, event)

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

    def _write(self, event: Event, tid: int) -> None:
        sections = self._open_sections[tid]
        if sections:
            self._write_rule_a(event.target, tid, sections)
        read_held = self._read_held[tid]
        if read_held:
            self._read_held_rule_a(event.target, tid, read_held, True)
        # Race check, inlined from _check_access (the per-access hot path).
        ct = self._ct[tid]
        if ct is None:
            ct = self._ct[tid] = self._pt[tid].copy().assign(tid, self._nt[tid])
        variables = self._history._variables
        history = variables.get(event.target)
        if history is None:
            history = variables[event.target] = VariableHistory()
        racy = history.observe_write(
            event, ct, tid, self._leak[tid] != self._nt[tid]
        )
        if racy:
            report = self.report
            for earlier in racy:
                report.add(earlier, event)

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

    def process_foreign(self, event: Event) -> None:
        """Apply an access's clock effects without race-checking it.

        The sharded engine calls this for in-critical-section accesses
        whose variable belongs to another shard: the Rule (a) joins and the
        section read/write sets must be applied on *every* shard (they feed
        the releasing thread's ``P_t`` and the per-lock Rule (a) cells, so
        skipping them would leave this shard's clocks behind the full
        run's), while the access history and race check stay exclusively
        with the owner shard.  The thread-order prologue (the deferred
        ``N_t`` bump) is the same code :meth:`process` runs.
        """
        tid = self._thread_prologue(event)
        sections = self._open_sections[tid]
        read_held = self._read_held[tid]
        etype = event.etype
        if etype is EventType.READ:
            if sections:
                self._read_rule_a(event.target, tid, sections)
            if read_held:
                self._read_held_rule_a(event.target, tid, read_held, False)
        elif etype is EventType.WRITE:
            if sections:
                self._write_rule_a(event.target, tid, sections)
            if read_held:
                self._read_held_rule_a(event.target, tid, read_held, True)

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
        # The parent's mid-block C/H escaped: epoch checks for accesses in
        # the remainder of this block must take the full-join path.
        self._leak[tid] = self._nt[tid]

    def _join(self, event: Event, tid: int) -> None:
        child_name = event.target
        child = self._registry.intern(child_name)
        self._ensure_thread(child, child_name)
        if self._pt[tid].merge(self._clock_c(child)):
            self._ct[tid] = None
        self._ht[tid].merge(self._ht[child])
        self._ht[tid].assign(tid, self._nt[tid])
        # The child's mid-block C/H escaped into the parent.
        self._leak[child] = self._nt[child]

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
        self._acquire(event, tid)

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
            self._release(event, tid)

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
        self._acquire(event, tid)

    def _notify(self, event: Event, tid: int) -> None:
        """Publish ``C_t``/``H_t`` into the monitor's notify accumulators.

        The accumulators are never cleared (notifyAll semantics: every
        later waiter on the monitor is ordered after every notify), and a
        notify is release-like -- the caller marks the deferred ``N_t``
        bump, keeping access epochs exact.
        """
        state = self._lock_state(event.target)
        ct = self._clock_c(tid)
        if state.notify_p is None:
            state.notify_p = ct.copy()
            state.notify_h = self._ht[tid].copy()
        else:
            state.notify_p.merge(ct)
            state.notify_h.merge(self._ht[tid])

    # ------------------------------------------------------------------ #
    # Race checking
    # ------------------------------------------------------------------ #

    def _check_access(self, event: Event, tid: int) -> None:
        self._history.observe(
            event,
            self._clock_c(tid),
            self.report,
            key=tid,
            exact=self._leak[tid] != self._nt[tid],
        )

    def finish(self) -> None:
        if self._track_queue_stats:
            events = max(1, self._processed_events)
            self.report.stats["max_queue_total"] = float(self._max_queue_total)
            self.report.stats["max_queue_fraction"] = (
                self._max_queue_total / float(events)
            )
        if self._quiesce_reclaim:
            self.report.stats["stream_log_reclaimed"] = float(
                self._stream_reclaimed
            )

    def sync_clock_state(self) -> Dict[object, bytes]:
        """Serialized per-thread WCP times ``C_t`` (shard-boundary protocol).

        Deferred ``N_t`` bumps are applied to the exported copies so that
        shards which saw a thread's release but not (yet) its next routed
        access still report the same state.
        """
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
        return {
            "track_queue_stats": self._track_queue_stats,
            "strict_pseudocode": self._strict_pseudocode,
            "prune_queues": self._prune_queues,
            "stream_reclaim": self._stream_reclaim,
        }

    @staticmethod
    def _cell_state(cell: _RuleACell) -> Dict[str, object]:
        return {
            "by_tid": dict(cell.by_tid),
            "top_tid": cell.top_tid,
            "second_tid": cell.second_tid,
            "version": cell.version,
            "seen": dict(cell.seen),
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
        locks: Dict[str, object] = {}
        for lock, state in self._locks.items():
            locks[lock] = {
                # The acquire epoch (entry[3]) is a pure accelerator and
                # is rebuilt as "unknown" on restore; stripping it keeps
                # the wire format stable across detector versions.
                "log": [(entry[0], entry[1], entry[2]) for entry in state.log],
                "base": state.base,
                "cursor": dict(state.cursor),
                "open_entry": dict(state.open_entry),
                "pl": state.pl,
                "hl": state.hl,
                "holder": state.holder,
                "tainted": state.tainted,
                "releasers": state.releasers,
                "lr": {
                    variable: self._cell_state(cell)
                    for variable, cell in state.lr.items()
                },
                "lw": {
                    variable: self._cell_state(cell)
                    for variable, cell in state.lw.items()
                },
                "read_lr": {
                    variable: self._cell_state(cell)
                    for variable, cell in state.read_lr.items()
                },
                "read_lw": {
                    variable: self._cell_state(cell)
                    for variable, cell in state.read_lw.items()
                },
                "evicted_acq": state.evicted_acq,
                "evicted_rel": state.evicted_rel,
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
            "leak": list(self._leak),
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
                self._stream_reclaimed,
            ),
            "modes": (self._effective_prune, self._quiesce_reclaim),
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

        self._nt = list(state["nt"])
        self._pt = list(state["pt"])
        self._ht = list(state["ht"])
        self._ct = [None] * len(self._nt)
        self._prev_release = list(state["prev_release"])
        self._leak = list(state["leak"])
        self._thread_names = list(state["thread_names"])

        locks: Dict[str, _LockState] = {}
        for lock, entry in state["locks"].items():
            lock_state = _LockState()
            # Pad the stripped acquire-epoch field: None takes the full
            # Rule (b) comparison, which is verdict-identical.
            lock_state.log = deque(
                [item[0], item[1], item[2], None] for item in entry["log"]
            )
            lock_state.base = entry["base"]
            lock_state.cursor = dict(entry["cursor"])
            lock_state.open_entry = dict(entry["open_entry"])
            lock_state.pl = entry["pl"]
            lock_state.hl = entry["hl"]
            lock_state.holder = entry["holder"]
            lock_state.tainted = entry["tainted"]
            lock_state.releasers = set(entry["releasers"])
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
            lock_state.evicted_acq = entry["evicted_acq"]
            lock_state.evicted_rel = entry["evicted_rel"]
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
            for tid, waiting in dict(state.get("barrier_waiting", {})).items()
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
            self._stream_reclaimed,
        ) = state["counters"]
        self._effective_prune, self._quiesce_reclaim = state["modes"]
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
            tid = event.tid
            if tid is None or not self._trust_tids:
                tid = intern(event.thread)
            clocks.append(to_public(self._clock_c(tid)))
        self.finish()
        return clocks

"""Reusable building blocks for synthetic benchmark traces.

Every generator appends events to a plain list; the caller wraps the list
in a :class:`~repro.trace.trace.Trace` at the end.  The two seeded race
patterns are designed so that each contributes *exactly one* distinct race
pair to the relevant detectors:

* :func:`add_hb_race` -- two unsynchronised writes to a fresh variable by
  two threads: one race pair, visible to HB, WCP, CP and (given enough
  window) the MCM predictor;
* :func:`add_wcp_only_race` -- the paper's Figure 2b shape: the race on
  ``y`` is invisible to HB (the lock's release/acquire orders the two
  critical sections) but visible to WCP; exactly one race pair.

Filler activity (:func:`add_protected_block`, :func:`add_sync_block`) is
fully lock-protected and race-free, so the seeded counts are exact.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.trace.event import Event, EventType


def _append(events: List[Event], thread: str, etype: EventType,
            target: Optional[str], loc: str) -> None:
    events.append(Event(len(events), thread, etype, target, loc))


def add_hb_race(
    events: List[Event],
    first_thread: str,
    second_thread: str,
    variable: str,
    loc_prefix: str,
    gap_filler: Optional[callable] = None,
) -> None:
    """Seed one HB-visible race: two unsynchronised writes to ``variable``.

    ``gap_filler``, when given, is called between the two writes to insert
    arbitrary (race-free) events -- this controls the race distance.
    """
    _append(events, first_thread, EventType.WRITE, variable, "%s.first" % loc_prefix)
    if gap_filler is not None:
        gap_filler()
    _append(events, second_thread, EventType.WRITE, variable, "%s.second" % loc_prefix)


def add_wcp_only_race(
    events: List[Event],
    first_thread: str,
    second_thread: str,
    lock: str,
    variable_prefix: str,
    loc_prefix: str,
    gap_filler: Optional[callable] = None,
) -> None:
    """Seed one race visible to WCP but not to HB (the Figure 2b shape).

    ``first_thread`` writes ``<prefix>_y``, then writes ``<prefix>_x``
    inside a critical section on ``lock``; ``second_thread`` later enters a
    critical section on the same lock, reads ``<prefix>_y`` and then
    ``<prefix>_x``.  HB orders the two critical sections (and hence the
    ``y`` accesses); WCP only orders the ``x`` accesses, leaving the ``y``
    pair racy.  Exactly one distinct race pair results.
    """
    y = "%s_y" % variable_prefix
    x = "%s_x" % variable_prefix
    _append(events, first_thread, EventType.WRITE, y, "%s.wy" % loc_prefix)
    _append(events, first_thread, EventType.ACQUIRE, lock, "%s.acq1" % loc_prefix)
    _append(events, first_thread, EventType.WRITE, x, "%s.wx" % loc_prefix)
    _append(events, first_thread, EventType.RELEASE, lock, "%s.rel1" % loc_prefix)
    if gap_filler is not None:
        gap_filler()
    _append(events, second_thread, EventType.ACQUIRE, lock, "%s.acq2" % loc_prefix)
    _append(events, second_thread, EventType.READ, y, "%s.ry" % loc_prefix)
    _append(events, second_thread, EventType.READ, x, "%s.rx" % loc_prefix)
    _append(events, second_thread, EventType.RELEASE, lock, "%s.rel2" % loc_prefix)


def add_protected_block(
    events: List[Event],
    thread: str,
    lock: str,
    variable: str,
    loc_prefix: str,
    accesses: int = 2,
) -> None:
    """Append one race-free critical section: acq, r/w* on ``variable``, rel."""
    _append(events, thread, EventType.ACQUIRE, lock, "%s.acq" % loc_prefix)
    for position in range(accesses):
        etype = EventType.READ if position % 2 == 0 else EventType.WRITE
        _append(events, thread, etype, variable, "%s.a%d" % (loc_prefix, position))
    _append(events, thread, EventType.WRITE, variable, "%s.w" % loc_prefix)
    _append(events, thread, EventType.RELEASE, lock, "%s.rel" % loc_prefix)


def add_sync_block(
    events: List[Event], thread: str, lock: str, loc_prefix: str
) -> None:
    """Append the paper's ``sync(lock)`` idiom (acq, r, w of the lock's variable, rel)."""
    variable = "%sVar" % lock
    _append(events, thread, EventType.ACQUIRE, lock, "%s.acq" % loc_prefix)
    _append(events, thread, EventType.READ, variable, "%s.r" % loc_prefix)
    _append(events, thread, EventType.WRITE, variable, "%s.w" % loc_prefix)
    _append(events, thread, EventType.RELEASE, lock, "%s.rel" % loc_prefix)


def add_local_activity(
    events: List[Event],
    thread: str,
    variable: str,
    loc_prefix: str,
    accesses: int = 2,
) -> None:
    """Append thread-local (single-thread) accesses; race-free by construction."""
    for position in range(accesses):
        etype = EventType.WRITE if position % 2 == 0 else EventType.READ
        _append(events, thread, etype, variable, "%s.l%d" % (loc_prefix, position))


class FillerMill:
    """Deterministic race-free event filler used to pad traces to a target size.

    Each call to :meth:`emit` appends one protected critical section by a
    round-robin thread.  To keep the filler strictly neutral it must add
    neither races nor cross-thread orderings:

    * filler variables are private to a (thread, lock) pair, so no two
      threads ever touch the same filler variable (no races);
    * filler locks are partitioned among the threads -- each lock is only
      ever used by one thread -- so the filler introduces no
      release-to-acquire happens-before edges that could mask the seeded
      races.

    The locks passed in are still all exercised, which is how the benchmark
    generators hit the paper's per-benchmark lock counts.
    """

    def __init__(
        self,
        events: List[Event],
        threads: List[str],
        locks: List[str],
        rng: Optional[random.Random] = None,
    ) -> None:
        self.events = events
        self.threads = threads
        self.rng = rng or random.Random(0)
        self._counter = 0
        # Partition the locks among the threads; guarantee at least one
        # private lock per thread.
        self._locks_of: dict = {thread: [] for thread in threads}
        for index, lock in enumerate(locks):
            thread = threads[index % len(threads)]
            self._locks_of[thread].append(lock)
        for thread in threads:
            if not self._locks_of[thread]:
                self._locks_of[thread].append("fill_lock_%s" % thread)

    def emit(self, blocks: int = 1) -> None:
        """Append ``blocks`` race-free critical sections (~4 events each)."""
        for _ in range(blocks):
            thread = self.threads[self._counter % len(self.threads)]
            locks = self._locks_of[thread]
            lock = locks[(self._counter // len(self.threads)) % len(locks)]
            variable = "fill_%s_%s" % (thread, lock)
            add_protected_block(
                self.events, thread, lock, variable,
                "fill%d" % self._counter, accesses=1,
            )
            self._counter += 1

    def emit_events(self, approximate_events: int) -> None:
        """Append roughly ``approximate_events`` filler events."""
        blocks = max(0, approximate_events // 4)
        self.emit(blocks)


def mixed_vocabulary_events(
    events: List[Event],
    rng: random.Random,
    threads: List[str],
    steps: int,
    mutexes: int = 2,
    rwlocks: int = 2,
    monitors: int = 1,
    barriers: int = 1,
    variables: int = 4,
    loc_prefix: str = "mix",
) -> None:
    """Append a random, well-formed workload over the full event vocabulary.

    The generator only ever emits *legal moves* against the same lock
    discipline :class:`~repro.trace.semantics.LockDiscipline` enforces
    (mutexes and rwlock write sections are exclusive, read sections are
    not re-entrant, releases close the innermost open section with the
    matching release kind, ``wait`` only fires on a free monitor), so the
    result always passes ``Trace(validate=True)`` -- the fuzz tests rely
    on that to compare serial and sharded runs on arbitrary seeds.

    A deterministic preamble touches every event kind once (fork/join,
    begin, both rwlock modes, barrier, wait/notify), so even tiny ``steps``
    values exercise the whole registry; the random tail then interleaves
    the vocabulary freely.  Namespaces (``mx*``/``rw*``/``mon*``/``b*``)
    are disjoint so a name is never used as two different lock kinds.
    """
    mutex_names = ["%s_mx%d" % (loc_prefix, i) for i in range(max(1, mutexes))]
    rw_names = ["%s_rw%d" % (loc_prefix, i) for i in range(max(1, rwlocks))]
    monitor_names = ["%s_mon%d" % (loc_prefix, i) for i in range(max(1, monitors))]
    barrier_names = ["%s_b%d" % (loc_prefix, i) for i in range(max(1, barriers))]
    variable_names = ["%s_x%d" % (loc_prefix, i) for i in range(max(1, variables))]

    #: lock -> exclusively holding thread (mutexes, monitors, write mode).
    holder: dict = {}
    #: rwlock -> set of read-holding threads.
    read_holders: dict = {rw: set() for rw in rw_names}
    #: thread -> innermost-last stack of (lock, closing EventType, mode).
    stacks: dict = {thread: [] for thread in threads}

    def loc() -> str:
        return "%s.%d" % (loc_prefix, len(events))

    def emit(thread: str, etype: EventType, target: Optional[str]) -> None:
        _append(events, thread, etype, target, loc())

    def open_excl(thread: str, etype: EventType, lock: str,
                  closer: EventType) -> None:
        emit(thread, etype, lock)
        holder[lock] = thread
        stacks[thread].append((lock, closer, "excl"))

    def close_innermost(thread: str) -> None:
        lock, closer, mode = stacks[thread].pop()
        emit(thread, closer, lock)
        if mode == "read":
            read_holders[lock].discard(thread)
        else:
            holder.pop(lock, None)

    # ---- deterministic coverage preamble ----------------------------- #
    t0, t1 = threads[0], threads[1 % len(threads)]
    child = "%s_child" % loc_prefix
    for thread in threads:
        emit(thread, EventType.BEGIN, None)
    emit(t0, EventType.FORK, child)
    emit(child, EventType.BEGIN, None)
    emit(child, EventType.WRITE, "%s_xfork" % loc_prefix)
    emit(child, EventType.END, None)
    emit(t0, EventType.JOIN, child)
    open_excl(t0, EventType.RACQ_W, rw_names[0], EventType.RREL)
    emit(t0, EventType.WRITE, variable_names[0])
    close_innermost(t0)
    emit(t1, EventType.RACQ_R, rw_names[0])
    read_holders[rw_names[0]].add(t1)
    stacks[t1].append((rw_names[0], EventType.RREL, "read"))
    emit(t1, EventType.READ, variable_names[0])
    close_innermost(t1)
    for thread in (t0, t1):
        emit(thread, EventType.BARRIER, barrier_names[0])
    open_excl(t0, EventType.ACQUIRE, monitor_names[0], EventType.RELEASE)
    emit(t0, EventType.WRITE, variable_names[-1])
    emit(t0, EventType.NOTIFY, monitor_names[0])
    close_innermost(t0)
    open_excl(t1, EventType.WAIT, monitor_names[0], EventType.RELEASE)
    emit(t1, EventType.READ, variable_names[-1])
    close_innermost(t1)

    # ---- random tail ------------------------------------------------- #
    for _ in range(max(0, steps)):
        thread = rng.choice(threads)
        stack = stacks[thread]
        moves = ["access", "access", "barrier", "notify"]
        if stack:
            moves.extend(["close", "close"])
        if len(stack) < 3:
            free_mutexes = [m for m in mutex_names if m not in holder]
            if free_mutexes:
                moves.append("acq")
            if any(
                rw not in holder and thread not in read_holders[rw]
                for rw in rw_names
            ):
                moves.append("racq_r")
            if any(
                rw not in holder and not read_holders[rw] for rw in rw_names
            ):
                moves.append("racq_w")
            if any(mon not in holder for mon in monitor_names):
                moves.append("wait")
        move = rng.choice(moves)
        if move == "access":
            etype = EventType.WRITE if rng.random() < 0.5 else EventType.READ
            emit(thread, etype, rng.choice(variable_names))
        elif move == "close":
            close_innermost(thread)
        elif move == "barrier":
            emit(thread, EventType.BARRIER, rng.choice(barrier_names))
        elif move == "notify":
            emit(thread, EventType.NOTIFY, rng.choice(monitor_names))
        elif move == "acq":
            open_excl(
                thread, EventType.ACQUIRE, rng.choice(free_mutexes),
                EventType.RELEASE,
            )
        elif move == "racq_r":
            rw = rng.choice([
                r for r in rw_names
                if r not in holder and thread not in read_holders[r]
            ])
            emit(thread, EventType.RACQ_R, rw)
            read_holders[rw].add(thread)
            stack.append((rw, EventType.RREL, "read"))
        elif move == "racq_w":
            rw = rng.choice([
                r for r in rw_names if r not in holder and not read_holders[r]
            ])
            open_excl(thread, EventType.RACQ_W, rw, EventType.RREL)
        elif move == "wait":
            mon = rng.choice([m for m in monitor_names if m not in holder])
            open_excl(thread, EventType.WAIT, mon, EventType.RELEASE)

    # ---- epilogue: close every open section, innermost first --------- #
    for thread in threads:
        while stacks[thread]:
            close_innermost(thread)
        emit(thread, EventType.END, None)


def mixed_vocabulary_trace(
    seed: int = 0,
    threads: int = 3,
    steps: int = 200,
    name: Optional[str] = None,
):
    """Build a validated random mixed-vocabulary :class:`Trace`.

    Validation is deliberately on: it is the generator's own discipline
    self-check, so a fuzz failure always means a detector/engine bug, not
    a malformed input.
    """
    from repro.trace.trace import Trace

    rng = random.Random(seed)
    events: List[Event] = []
    thread_names = ["t%d" % i for i in range(max(2, threads))]
    mixed_vocabulary_events(events, rng, thread_names, steps)
    return Trace(
        events, validate=True, name=name or ("mixed-vocab-%d" % seed)
    )

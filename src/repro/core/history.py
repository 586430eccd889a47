"""Per-variable access histories used for race *reporting*.

The paper's race check (end of Section 3.2) keeps, for every variable
``x``, two vector clocks ``R_x`` and ``W_x`` joining the timestamps of all
reads and writes of ``x`` seen so far; an access whose timestamp is not
above the relevant join is in race with *some* earlier conflicting access.
Recovering *which* earlier access (needed to report distinct location
pairs, the unit counted in Table 1) requires a second pass in the paper.

We avoid the second pass by additionally remembering, per variable, per
thread and per program location, the latest access clock.  The ``R_x`` /
``W_x`` joins provide the fast path ("no race here"); only on a failed
check do we scan the per-thread histories to attribute the race to concrete
earlier events.  The history size is bounded by (#threads x #program
locations touching the variable).

Race attribution
----------------
The scan itself must not cost a pass over every (thread, location) cell:
on traces whose locations are unbounded (every event its own ``loc``) that
would make the detectors quadratic.  The exactness contract below decides
it instead: a cell of thread ``u`` recorded at clock ``C_a`` is unordered
with a later access clock ``C`` exactly when ``C_a(u) > C(u)``, and
``C_a(u)`` never decreases along ``u``'s accesses.  So each thread's cells
are kept in recency order and the scan walks them newest first, stopping
at the first ordered cell: it touches the racy cells plus one per thread.
The racy cells are then reported in the order their locations were first
recorded, which keeps witnesses and distances independent of the scan.

Epoch fast path
---------------
The joins alone make the no-race check O(T) per access (a full pointwise
comparison).  Following FastTrack (and the WCP paper's Section 6 pointer
to "epoch based optimizations"), each join also carries an *epoch*
``c@t`` of the most recent access plus a flag recording that the epoch
characterises the whole join.  The flag is set when the latest access's
clock dominated the join at record time (so the join collapsed to exactly
that clock); the exactness contract below makes that sufficient.
While the flag holds, ``join <= C`` reduces to the O(1) comparison
``c <= C(t)``, with no clock traversal and no allocation.  The flag drops
back to the slow path the moment an access fails to dominate (concurrent
readers, racy writes) and is restored by the next dominating access,
mirroring FastTrack's adaptive read representation.

Exactness contract
------------------
The O(1) reduction is only valid when, for every later access clock ``C``
produced by the same detector run, ``C_a(t) <= C(t)`` implies
``C_a <= C`` pointwise (``C_a`` being the recorded access's clock, ``t``
its thread).  Every vector-clock detector in the library guarantees it
unconditionally: a thread's own component only escapes into other
threads' clocks through end-of-interval snapshots, because every event
kind that publishes a thread's clock (release, fork, join for the joined
child, barrier arrival, notify, read-mode release) defers a bump of that
thread's local clock to its next event -- the ``bumps`` discipline of
:mod:`repro.trace.semantics`.  The epoch is therefore armed whenever the
access dominates the join, and the same lemma stops the race-attribution
scan at a thread's first ordered cell (see *Race attribution*).

Ownership contract
------------------
``observe`` takes a tid-keyed :class:`~repro.vectorclock.dense.DenseClock`
the caller guarantees never to mutate afterwards (WCP's cached ``C_t`` is
replaced, never mutated; HB passes a fresh snapshot).  The history stores
references instead of copies -- in the per-location cells and as the join
itself when the access dominates -- and copies lazily (copy-on-write) only
when a join must actually grow past a caller's clock.  On the steady-state
no-race path this eliminates every per-access clock allocation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.races import RaceReport
from repro.trace.event import Event
from repro.vectorclock.dense import DenseClock

# (event, clock, rank) of the latest access at one (thread, location);
# ``rank`` is the order in which the thread first accessed the location.
_Cell = Tuple[Event, DenseClock, int]


def cell_key(event: Event) -> Union[str, int]:
    """The key of ``event``'s cell: its location, or its row index.

    An access without a location is its own location (``Event.location``
    synthesises ``thread:op(target)@index`` for reports).  Keying it by
    the int index keeps it apart from a real location that spells the
    same string, as the compiled WCP kernel keys it.
    """
    loc = event.loc
    return event.index if loc is None else loc


def _rank(cell: _Cell) -> int:
    return cell[2]


class VariableHistory:
    """Access history for a single shared variable.

    ``read_join`` / ``write_join`` are ``None`` until the first access of
    the respective kind (None compares as the bottom clock).  The epoch
    state (``r_tid``/``r_time``/``r_fast`` and the write-side mirror) is
    documented in the module docstring.
    """

    __slots__ = (
        "read_join", "write_join", "_rj_owned", "_wj_owned",
        "reads", "writes",
        "w_tid", "w_time", "w_fast",
        "r_tid", "r_time", "r_fast",
    )

    def __init__(self) -> None:
        self.read_join = None
        self.write_join = None
        # Whether the history may mutate the join in place (False while the
        # join aliases a caller's clock; copy-on-write flips it).
        self._rj_owned = False
        self._wj_owned = False
        # thread -> cell_key -> cell, least recently accessed first
        self.reads: Dict[str, Dict[object, _Cell]] = {}
        self.writes: Dict[str, Dict[object, _Cell]] = {}
        self.w_tid = None
        self.w_time = 0
        self.w_fast = False
        self.r_tid = None
        self.r_time = 0
        self.r_fast = False

    def _unordered_cells(
        self, cells: Dict[str, Dict[object, _Cell]], event: Event, clock
    ) -> List[Event]:
        # Newest first, up to the first ordered cell (module docstring,
        # *Race attribution*); reported in first-access order.
        racy = []
        for thread, by_loc in cells.items():
            if thread == event.thread:
                continue
            unordered = []
            for cell in reversed(by_loc.values()):
                if cell[1] <= clock:
                    break
                unordered.append(cell)
            if unordered:
                unordered.sort(key=_rank)
                racy.extend([cell[0] for cell in unordered])
        return racy

    # ------------------------------------------------------------------ #
    # Fused observe paths (check + record without repeating comparisons)
    # ------------------------------------------------------------------ #

    def observe_read(
        self, event: Event, clock: DenseClock, key: int
    ) -> List[Event]:
        """Check a read against earlier writes, then record it.

        ``clock`` must follow the ownership contract; ``key`` is the
        accessing thread's tid.
        """
        # This is the per-access hot path: the epoch comparison must stay a
        # handful of bytecodes, so it indexes the raw component buffer
        # instead of bouncing through ``clock.get``.
        times = clock._times
        if self.w_fast:
            tid = self.w_tid
            writes_ordered = (
                self.w_time <= times[tid] if tid < len(times)
                else self.w_time <= 0
            )
        else:
            join = self.write_join
            writes_ordered = join is None or join <= clock
        if writes_ordered:
            racy: List[Event] = []
        else:
            racy = self._unordered_cells(self.writes, event, clock)

        if self.r_fast:
            tid = self.r_tid
            reads_ordered = (
                self.r_time <= times[tid] if tid < len(times)
                else self.r_time <= 0
            )
        else:
            join = self.read_join
            reads_ordered = join is None or join <= clock
        if reads_ordered:
            # The join collapses to this clock: alias it and (re)arm the epoch.
            self.read_join = clock
            self._rj_owned = False
            time = times[key] if key < len(times) else 0
            self.r_tid = key
            self.r_time = time
            self.r_fast = time > 0
        else:
            join = self.read_join
            if not self._rj_owned:
                join = self.read_join = join.copy()
                self._rj_owned = True
            join.join(clock)
            self.r_fast = False

        cells = self.reads.get(event.thread)
        if cells is None:
            cells = self.reads[event.thread] = {}
        # Re-insert to keep recency order; the rank survives the move.
        loc = event.loc
        if loc is None:
            loc = event.index  # cell_key, inlined
        old = cells.pop(loc, None)
        cells[loc] = (event, clock, len(cells) if old is None else old[2])
        return racy

    def observe_write(
        self, event: Event, clock: DenseClock, key: int
    ) -> List[Event]:
        """Check a write against earlier reads and writes, then record it."""
        # Epoch lookups index the raw buffer (see observe_read).
        times = clock._times
        if self.w_fast:
            tid = self.w_tid
            writes_ordered = (
                self.w_time <= times[tid] if tid < len(times)
                else self.w_time <= 0
            )
        else:
            join = self.write_join
            writes_ordered = join is None or join <= clock
        if self.r_fast:
            tid = self.r_tid
            reads_ordered = (
                self.r_time <= times[tid] if tid < len(times)
                else self.r_time <= 0
            )
        else:
            join = self.read_join
            reads_ordered = join is None or join <= clock
        racy: List[Event] = []
        if not writes_ordered:
            racy.extend(self._unordered_cells(self.writes, event, clock))
        if not reads_ordered:
            racy.extend(self._unordered_cells(self.reads, event, clock))

        if writes_ordered:
            self.write_join = clock
            self._wj_owned = False
            time = times[key] if key < len(times) else 0
            self.w_tid = key
            self.w_time = time
            self.w_fast = time > 0
        else:
            join = self.write_join
            if not self._wj_owned:
                join = self.write_join = join.copy()
                self._wj_owned = True
            join.join(clock)
            self.w_fast = False

        cells = self.writes.get(event.thread)
        if cells is None:
            cells = self.writes[event.thread] = {}
        # Re-insert to keep recency order; the rank survives the move.
        loc = event.loc
        if loc is None:
            loc = event.index  # cell_key, inlined
        old = cells.pop(loc, None)
        cells[loc] = (event, clock, len(cells) if old is None else old[2])
        return racy

    # ------------------------------------------------------------------ #
    # Snapshot support (checkpoint/resume protocol)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, object]:
        """Return this variable's history as codec-encodable structures.

        The join clocks are serialized by value; restore re-marks them as
        owned (the aliasing of caller clocks they may have had is a memory
        optimisation, never observable in verdicts), which keeps
        copy-on-write behaviour correct without tracking identities.  Each
        thread's cells are written as ``cell_key -> (event, clock)`` in
        first-access order; the ranks and the recency order are derived.
        """
        return {
            "read_join": self.read_join,
            "write_join": self.write_join,
            "reads": _cells_state(self.reads),
            "writes": _cells_state(self.writes),
            "w": (self.w_tid, self.w_time, self.w_fast),
            "r": (self.r_tid, self.r_time, self.r_fast),
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "VariableHistory":
        """Inverse of :meth:`state_dict`."""
        history = cls()
        history.read_join = state["read_join"]
        history.write_join = state["write_join"]
        history._rj_owned = history.read_join is not None
        history._wj_owned = history.write_join is not None
        history.reads = _cells_from_state(state["reads"])
        history.writes = _cells_from_state(state["writes"])
        history.w_tid, history.w_time, history.w_fast = state["w"]
        history.r_tid, history.r_time, history.r_fast = state["r"]
        return history


class _ForeignVariable:
    """History of a variable another shard owns: records and reports
    nothing (:meth:`AccessHistory.mark_foreign`); the detector's clock
    rules still run for its accesses."""

    __slots__ = ()

    def observe_read(self, event, clock, key) -> tuple:
        return ()

    observe_write = observe_read


#: The one shared stand-in; a snapshot writes it as None.
FOREIGN = _ForeignVariable()


def _cells_state(cells: Dict[str, Dict[object, _Cell]]) -> Dict[str, dict]:
    state = {}
    for thread, by_loc in cells.items():
        ranked = sorted(by_loc.items(), key=lambda item: item[1][2])
        state[thread] = {loc: (cell[0], cell[1]) for loc, cell in ranked}
    return state


def _cells_from_state(
    state: Dict[str, dict],
) -> Dict[str, Dict[object, _Cell]]:
    """Rank the cells by position, then restore their recency order.

    A thread's access clocks only grow, so one thread's cells form a chain
    (each later cell dominates every earlier one): ordering by component
    sum recovers their recency order, up to equal clocks, which the
    attribution scan treats alike.
    """
    cells = {}
    for thread, by_loc in state.items():
        # Keys come from the events: a snapshot may spell a cell without
        # a location by its synthesised string (see cell_key).
        ranked = [
            (cell_key(event), (event, clock, rank))
            for rank, (event, clock) in enumerate(by_loc.values())
        ]
        ranked.sort(key=lambda item: sum(item[1][1]._times))
        cells[thread] = dict(ranked)
    return cells


class AccessHistory:
    """All variable histories plus the report-recording glue."""

    def __init__(self) -> None:
        self._variables: Dict[str, VariableHistory] = {}

    def observe(
        self,
        event: Event,
        clock: DenseClock,
        report: RaceReport,
        on_race: Optional[Callable[[Event, Event], None]] = None,
        *,
        key: int,
    ) -> int:
        """Check ``event`` against the history, record it, report races.

        ``clock`` is the access's timestamp, handed over under the
        ownership contract (module docstring); ``key`` is the accessing
        thread's tid.

        Returns the number of racy earlier events found for this access.
        """
        history = self._variables.get(event.variable)
        if history is None:
            history = self._variables[event.variable] = VariableHistory()
        if event.is_read():
            racy = history.observe_read(event, clock, key)
        else:
            racy = history.observe_write(event, clock, key)
        if racy:
            for earlier in racy:
                report.add(earlier, event)
                if on_race is not None:
                    on_race(earlier, event)
        return len(racy)

    def mark_foreign(self, variable: str) -> None:
        """Check and record no access of ``variable`` (see :data:`FOREIGN`)."""
        self._variables[variable] = FOREIGN

    def clear(self) -> None:
        """Drop all recorded history."""
        self._variables.clear()

    # ------------------------------------------------------------------ #
    # Snapshot support (checkpoint/resume protocol)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, object]:
        """Every variable's history as codec-encodable structures
        (None for a foreign variable)."""
        return {
            variable: None if history is FOREIGN else history.state_dict()
            for variable, history in self._variables.items()
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "AccessHistory":
        """Inverse of :meth:`state_dict`."""
        history = cls()
        history._variables = {
            variable: (
                FOREIGN if entry is None else VariableHistory.from_state(entry)
            )
            for variable, entry in state.items()
        }
        return history

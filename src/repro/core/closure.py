"""Explicit (closure-based) computation of HB and WCP on small traces.

Algorithm 1 is linear-time but far from obviously correct; this module
computes the partial orders directly from their definitions (Definitions 1
and 3) by fixpoint iteration over explicit predecessor sets.  It is
quadratic-to-cubic in the trace length and is therefore only used:

* as a correctness oracle in the test suite (every timestamp comparison of
  the streaming detector is cross-checked against the closure on randomly
  generated small traces), and
* to analyse the paper's hand-written example traces in the examples.

The same machinery (HB predecessor sets, critical-section lookup) is reused
by the CP engine in :mod:`repro.cp`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.core.detector import Detector
from repro.core.races import RaceReport
from repro.trace.event import Event, EventType
from repro.trace.semantics import REGISTRY
from repro.trace.trace import Trace


def compute_hb_predecessors(trace: Trace) -> List[Set[int]]:
    """Return, for every event index ``j``, the set ``{i : e_i <_HB e_j}``.

    Happens-before (Definition 1) is generated by thread order, by
    release-to-later-acquire edges on the same lock, and (beyond the paper's
    formal model, but needed for logger traces) by fork/join edges.
    """
    n = len(trace)
    predecessors: List[Set[int]] = [set() for _ in range(n)]
    last_of_thread: Dict[str, int] = {}
    releases_of_lock: Dict[str, List[int]] = defaultdict(list)
    last_fork_to: Dict[str, List[int]] = defaultdict(list)
    last_of_thread_any: Dict[str, int] = {}

    for j, event in enumerate(trace):
        pred = predecessors[j]
        thread = event.thread

        previous = last_of_thread.get(thread)
        if previous is not None:
            pred.add(previous)
            pred.update(predecessors[previous])

        # Fork edges targeting this thread's first events.
        for fork_index in last_fork_to.get(thread, ()):
            if fork_index < j:
                pred.add(fork_index)
                pred.update(predecessors[fork_index])

        if event.is_acquire():
            for release_index in releases_of_lock.get(event.lock, ()):
                if release_index < j:
                    pred.add(release_index)
                    pred.update(predecessors[release_index])
        elif event.is_release():
            releases_of_lock[event.lock].append(j)
        elif event.etype is EventType.FORK:
            last_fork_to[event.other_thread].append(j)
        elif event.etype is EventType.JOIN:
            child_last = last_of_thread_any.get(event.other_thread)
            if child_last is not None:
                pred.add(child_last)
                pred.update(predecessors[child_last])

        last_of_thread[thread] = j
        last_of_thread_any[thread] = j

    return predecessors


def compute_must_happen_before(trace: Trace) -> List[Set[int]]:
    """Return predecessor sets for the *must-happen-before* skeleton.

    This is thread order plus fork/join edges only -- the orderings that no
    reordering of the trace can ever change.  CP and WCP are defined over
    traces without fork/join; when fork/join events are present (as in
    logger output), these orderings play the same role as thread order in
    the definitions of ``<=_CP`` and ``<=_WCP``.
    """
    n = len(trace)
    predecessors: List[Set[int]] = [set() for _ in range(n)]
    last_of_thread: Dict[str, int] = {}
    forks_to: Dict[str, List[int]] = defaultdict(list)

    for j, event in enumerate(trace):
        pred = predecessors[j]
        thread = event.thread

        previous = last_of_thread.get(thread)
        if previous is not None:
            pred.add(previous)
            pred.update(predecessors[previous])
        for fork_index in forks_to.get(thread, ()):
            if fork_index < j:
                pred.add(fork_index)
                pred.update(predecessors[fork_index])

        if event.etype is EventType.FORK:
            forks_to[event.other_thread].append(j)
        elif event.etype is EventType.JOIN:
            child_last = last_of_thread.get(event.other_thread)
            if child_last is not None:
                pred.add(child_last)
                pred.update(predecessors[child_last])

        last_of_thread[thread] = j

    return predecessors


def _critical_section_indices(trace: Trace) -> Dict[int, List[int]]:
    """Map each acquire/release index to the indices of its critical section.

    Releases whose matching acquire falls outside the trace (possible in
    windowed fragments) have no critical section and are skipped, and so
    are lock events that neither open nor close one (``notify``).
    """
    sections: Dict[int, List[int]] = {}
    for event in trace:
        semantics = REGISTRY[event.etype]
        if semantics.opens is None and (
            semantics.closes is None or trace.match(event) is None
        ):
            continue
        members = [member.index for member in trace.critical_section(event)]
        sections[event.index] = members
    return sections


class HBClosure:
    """Happens-before computed explicitly from Definition 1."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._predecessors = compute_hb_predecessors(trace)

    def ordered(self, first: int, second: int) -> bool:
        """Return True when ``e_first <=_HB e_second`` (indices, first <= second)."""
        if first == second:
            return True
        if first > second:
            return False
        return first in self._predecessors[second]

    def predecessors(self, index: int) -> Set[int]:
        """Return the strict HB-predecessors of event ``index``."""
        return set(self._predecessors[index])

    def races(self) -> List[Tuple[Event, Event]]:
        """Return all conflicting, HB-unordered event pairs."""
        racy = []
        for first, second in self.trace.conflicting_pairs():
            if not self.ordered(first.index, second.index):
                racy.append((first, second))
        return racy


class WCPClosure:
    """WCP computed explicitly from Definition 3 by fixpoint iteration.

    The object exposes the non-reflexive relation ``<_WCP`` (``prec``), the
    partial order ``<=_WCP = <_WCP union <=_TO`` (:meth:`ordered`), and the
    race pairs (:meth:`races`).
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.hb = HBClosure(trace)
        self._mhb = compute_must_happen_before(trace)
        self._wcp_predecessors: List[Set[int]] = [set() for _ in range(len(trace))]
        self._compute()

    # ------------------------------------------------------------------ #
    # Fixpoint computation
    # ------------------------------------------------------------------ #

    def _compute(self) -> None:
        trace = self.trace
        n = len(trace)
        sections = _critical_section_indices(trace)
        wcp = self._wcp_predecessors

        # Pre-compute Rule (a) edges: for a release r of lock l and a later
        # read/write e performed inside a critical section of l, if CS(r)
        # contains an event conflicting with e, then r < e.
        rule_a_edges: List[Tuple[int, int]] = []
        releases_by_lock: Dict[str, List[int]] = defaultdict(list)
        for event in trace:
            if event.is_release():
                releases_by_lock[event.lock].append(event.index)
        for event in trace:
            if not event.is_access():
                continue
            for lock in trace.held_locks(event):
                for release_index in releases_by_lock.get(lock, ()):
                    if release_index >= event.index:
                        continue
                    release = trace[release_index]
                    section = sections.get(release_index, [])
                    if any(
                        trace[i].conflicts_with(event) for i in section
                    ):
                        rule_a_edges.append((release_index, event.index))

        for source, target in rule_a_edges:
            wcp[target].add(source)

        # Candidate Rule (b) pairs: pairs of releases of the same lock.
        release_pairs: List[Tuple[int, int]] = []
        for indices in releases_by_lock.values():
            for i, first in enumerate(indices):
                for second in indices[i + 1:]:
                    release_pairs.append((first, second))

        changed = True
        while changed:
            changed = False

            # Rule (b): releases r1 < r2 of the same lock whose critical
            # sections contain WCP-ordered events.
            for first_release, second_release in release_pairs:
                if first_release in wcp[second_release]:
                    continue
                first_section = sections.get(first_release, [])
                second_section = sections.get(second_release, [])
                if any(
                    e1 in wcp[e2]
                    for e2 in second_section
                    for e1 in first_section
                ):
                    wcp[second_release].add(first_release)
                    changed = True

            # Rule (c): closure under composition with HB on either side.
            for j in range(n):
                additions: Set[int] = set()
                # <=HB ; <WCP : predecessors of k for each k <WCP j.
                for k in wcp[j]:
                    additions.update(self.hb.predecessors(k))
                # <WCP ; <=HB : anything WCP-before an HB-predecessor of j.
                for k in self.hb.predecessors(j):
                    additions.update(wcp[k])
                before = len(wcp[j])
                wcp[j].update(additions)
                if len(wcp[j]) != before:
                    changed = True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def prec(self, first: int, second: int) -> bool:
        """Return True when ``e_first <_WCP e_second`` (the non-reflexive relation)."""
        return first in self._wcp_predecessors[second]

    def ordered(self, first: int, second: int) -> bool:
        """Return True when ``e_first <=_WCP e_second``.

        ``<=_WCP`` includes thread order; fork/join edges (absent from the
        paper's formal model but present in logger traces) are treated the
        same way, since no reordering can ever invert them.
        """
        if first == second:
            return True
        if first > second:
            return False
        if self.trace[first].thread == self.trace[second].thread:
            return True
        if first in self._mhb[second]:
            return True
        return self.prec(first, second)

    def unordered(self, first: int, second: int) -> bool:
        """Return True when the two events are WCP-unordered."""
        lo, hi = min(first, second), max(first, second)
        return not self.ordered(lo, hi)

    def races(self) -> List[Tuple[Event, Event]]:
        """Return all conflicting, WCP-unordered event pairs in trace order."""
        racy = []
        for first, second in self.trace.conflicting_pairs():
            if not self.ordered(first.index, second.index):
                racy.append((first, second))
        return racy

    def report(self) -> RaceReport:
        """Return the races as a :class:`RaceReport` (detector-compatible)."""
        report = RaceReport("WCP-closure", self.trace.name)
        for first, second in self.races():
            report.add(first, second)
        return report


class WCPClosureDetector(Detector):
    """Detector adapter around :class:`WCPClosure` (for small traces only)."""

    name = "WCP-closure"

    def reset(self, trace: Trace) -> None:
        self._trace = trace
        self._new_report(trace)
        self._events: List[Event] = []

    def process(self, event: Event) -> None:
        self._events.append(event)

    def finish(self) -> None:
        closure = WCPClosure(
            Trace(self._events, validate=False, name=self._trace.name)
        )
        for first, second in closure.races():
            self.report.add(first, second)

"""The windowed maximal-causal-model predictor (RVPredict stand-in).

The predictor slices the trace into fixed-size windows, collects candidate
conflicting pairs per window, and asks the
:class:`~repro.mcm.solver.OrderingSolver` -- under a per-window time budget
-- for a correct-reordering witness for each candidate.  The reported races
are exactly the witnessed location pairs.

This reproduces the two failure modes the paper attributes to RVPredict
(Section 4.3): races whose accesses land in different windows are
structurally invisible, and hard windows burn the solver budget and report
nothing further.  The ``window_size`` and ``solver_timeout_s`` parameters
correspond one-to-one to the parameter grid of Table 1 and Figure 7.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.windowing import HeldLockTracker, make_window_trace
from repro.core.detector import Detector
from repro.mcm.constraints import collect_candidates
from repro.mcm.solver import OrderingSolver, SolverOutcome
from repro.trace.event import Event
from repro.trace.trace import Trace


class MCMPredictor(Detector):
    """Windowed predictive race detection over the maximal causal model.

    Parameters
    ----------
    window_size:
        Number of events per window (RVPredict's ``--window``), default 1000.
    solver_timeout_s:
        Wall-clock budget per window (RVPredict's solver timeout), default
        5 s, the budget of the Table 1 harness; ``None`` is unbounded
        (maximal prediction per window), which a hard window can keep
        busy for hours.  A window that hits the budget is counted in the
        ``windows_timed_out`` stat.
    max_states_per_query:
        Cap on interleavings explored per candidate pair, default 20,000
        (the Table 1 harness's).
    per_location_limit:
        Representative event pairs kept per candidate location pair.
    """

    name = "MCM"

    def __init__(
        self,
        window_size: int = 1000,
        solver_timeout_s: Optional[float] = 5.0,
        max_states_per_query: int = 20_000,
        per_location_limit: int = 3,
    ) -> None:
        super().__init__()
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        self.window_size = window_size
        self.solver_timeout_s = solver_timeout_s
        self.max_states_per_query = max_states_per_query
        self.per_location_limit = per_location_limit

    def reset(self, trace: Trace) -> None:
        self._trace = trace
        self._new_report(trace)
        self._buffer: List[Event] = []
        self._windows = 0
        self._windows_timed_out = 0
        self._candidates_total = 0
        self._candidates_witnessed = 0
        self._candidates_timeout = 0
        self._lock_context = HeldLockTracker()

    def process(self, event: Event) -> None:
        self._buffer.append(event)
        if len(self._buffer) >= self.window_size:
            self._analyze_window()

    def _analyze_window(self) -> None:
        if not self._buffer:
            return
        carried = self._lock_context.carried_prefix()
        for event in self._buffer:
            self._lock_context.observe(event)
        window = make_window_trace(
            self._buffer, carried,
            "%s#w%d" % (self._trace.name, self._windows),
        )
        self._buffer = []
        self._windows += 1

        candidates = collect_candidates(
            window, per_location_limit=self.per_location_limit
        )
        self._candidates_total += len(candidates)

        solver = OrderingSolver(
            window,
            time_budget_s=self.solver_timeout_s,
            max_states_per_query=self.max_states_per_query,
        )
        witnessed_locations = set()
        timed_out = False
        for candidate in candidates:
            if candidate.location_pair in witnessed_locations:
                continue
            if solver.budget_exhausted():
                timed_out = True
                break
            outcome = solver.query(candidate)
            if outcome is SolverOutcome.WITNESSED:
                witnessed_locations.add(candidate.location_pair)
                self.report.add(candidate.first, candidate.second)
                self._candidates_witnessed += 1
            elif outcome is SolverOutcome.TIMEOUT:
                self._candidates_timeout += 1
        if timed_out or solver.timeouts:
            self._windows_timed_out += 1

    def finish(self) -> None:
        self._analyze_window()
        self.report.stats["windows"] = float(self._windows)
        self.report.stats["windows_timed_out"] = float(self._windows_timed_out)
        self.report.stats["window_size"] = float(self.window_size)
        if self.solver_timeout_s is not None:
            self.report.stats["solver_timeout_s"] = float(self.solver_timeout_s)
        self.report.stats["candidates"] = float(self._candidates_total)
        self.report.stats["candidates_witnessed"] = float(self._candidates_witnessed)
        self.report.stats["candidates_timeout"] = float(self._candidates_timeout)

"""Race pairs and race reports.

The paper measures *distinct race pairs*: unordered tuples of program
locations such that some pair of events at those locations is unordered by
the partial order under analysis (Table 1, columns 6-10).  A
:class:`RacePair` is one such location pair together with the first
witnessing event pair and its distance (Section 4.3 discusses race
distances); a :class:`RaceReport` aggregates the pairs found by one
detector run plus detector-specific statistics.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.trace.event import Event


class RacePair:
    """A distinct race: an unordered pair of program locations.

    Attributes
    ----------
    locations:
        Frozenset of the two program locations (a single-element set when
        both events come from the same location).
    first_event / second_event:
        The first witnessing event pair encountered, in trace order.
    distance:
        Number of events separating the witnesses (``second.index -
        first.index``); the paper's race distance.
    variable:
        The shared variable involved.
    """

    __slots__ = ("locations", "first_event", "second_event", "distance", "variable")

    def __init__(self, first_event: Event, second_event: Event) -> None:
        if first_event.index > second_event.index:
            first_event, second_event = second_event, first_event
        self.first_event = first_event
        self.second_event = second_event
        self.locations = frozenset({first_event.location(), second_event.location()})
        self.distance = second_event.index - first_event.index
        self.variable = second_event.variable if second_event.is_access() else None

    def key(self) -> frozenset:
        """Return the de-duplication key (the unordered location pair)."""
        return self.locations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RacePair):
            return NotImplemented
        return self.locations == other.locations

    def __hash__(self) -> int:
        return hash(self.locations)

    def __repr__(self) -> str:
        locs = sorted(self.locations)
        return "RacePair(%s, var=%s, distance=%d)" % (
            " <-> ".join(locs), self.variable, self.distance
        )


class ReportSnapshot:
    """An immutable point-in-time view of a detector's progress.

    Snapshots are cheap (a handful of scalars, no event references beyond
    the report's own pairs) and are emitted by the streaming engine at
    configurable intervals so that long-running analyses can be monitored
    incrementally.
    """

    __slots__ = (
        "detector_name", "trace_name", "events", "races", "raw_races", "time_s"
    )

    def __init__(
        self,
        detector_name: str,
        trace_name: str,
        events: int,
        races: int,
        raw_races: int,
        time_s: float = 0.0,
    ) -> None:
        self.detector_name = detector_name
        self.trace_name = trace_name
        #: Number of events the detector had processed at snapshot time.
        self.events = events
        #: Distinct race pairs found so far.
        self.races = races
        #: Raw (non-deduplicated) racy event pairs observed so far.
        self.raw_races = raw_races
        #: Analysis seconds attributed to this detector so far.
        self.time_s = time_s

    def as_dict(self) -> Dict[str, object]:
        """Flatten the snapshot for logging or serialization."""
        return {
            "detector": self.detector_name,
            "trace": self.trace_name,
            "events": self.events,
            "races": self.races,
            "raw_races": self.raw_races,
            "time_s": self.time_s,
        }

    def __repr__(self) -> str:
        return "ReportSnapshot(%s@%d: %d race(s))" % (
            self.detector_name, self.events, self.races
        )


class RaceReport:
    """The result of running one detector on one trace.

    Race pairs are de-duplicated by location pair: the report keeps the
    earliest witness and the maximum observed distance for each pair.
    """

    def __init__(self, detector_name: str, trace_name: str = "trace") -> None:
        self.detector_name = detector_name
        self.trace_name = trace_name
        self._pairs: Dict[frozenset, RacePair] = {}
        self._max_distance: Dict[frozenset, int] = {}
        #: Detector-specific statistics (queue sizes, timings, windows, ...).
        self.stats: Dict[str, float] = {}
        #: Number of raw (non-deduplicated) racy event pairs observed.
        self.raw_race_count = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def add(self, first_event: Event, second_event: Event) -> RacePair:
        """Record a racy event pair; returns the (possibly existing) RacePair."""
        pair = RacePair(first_event, second_event)
        self.raw_race_count += 1
        key = pair.key()
        existing = self._pairs.get(key)
        if existing is None:
            self._pairs[key] = pair
            self._max_distance[key] = pair.distance
            return pair
        if pair.distance > self._max_distance[key]:
            self._max_distance[key] = pair.distance
        return existing

    def merge(self, other: "RaceReport") -> "RaceReport":
        """Merge another report (a different window or shard) into this one.

        De-duplication matches a single sequential run: per location pair
        the earliest-*detected* witness survives -- races are detected at
        their second (later) event, so detection order is the
        lexicographic order of ``(second.index, first.index)`` -- and the
        maximum distance is kept.  This makes the merge independent of
        the order reports are merged in, so a sharded run reproduces the
        single engine's witnesses exactly.
        """
        for pair in other.pairs():
            key = pair.key()
            existing = self._pairs.get(key)
            if existing is None:
                self._pairs[key] = pair
                self._max_distance[key] = pair.distance
                continue
            if (
                (pair.second_event.index, pair.first_event.index)
                < (existing.second_event.index, existing.first_event.index)
            ):
                self._pairs[key] = pair
            if pair.distance > self._max_distance[key]:
                self._max_distance[key] = pair.distance
        self.raw_race_count += other.raw_race_count
        return self

    # ------------------------------------------------------------------ #
    # Snapshot support (checkpoint/resume protocol)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> Dict[str, object]:
        """Return the report's full state as codec-encodable structures.

        Captures the pairs in insertion (detection) order with their
        maximum observed distances, so :meth:`from_state` rebuilds a
        report indistinguishable from the original -- including witness
        choice, which :meth:`add`'s first-wins rule pinned at detection
        time.
        """
        return {
            "detector": self.detector_name,
            "trace": self.trace_name,
            "pairs": [
                (pair.first_event, pair.second_event, self._max_distance[key])
                for key, pair in self._pairs.items()
            ],
            "stats": dict(self.stats),
            "raw": self.raw_race_count,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "RaceReport":
        """Inverse of :meth:`state_dict`."""
        report = cls(state["detector"], state["trace"])
        for first_event, second_event, max_distance in state["pairs"]:
            pair = RacePair(first_event, second_event)
            key = pair.key()
            report._pairs[key] = pair
            report._max_distance[key] = max_distance
        report.stats.update(state["stats"])
        report.raw_race_count = state["raw"]
        return report

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def pairs(self) -> List[RacePair]:
        """Return the distinct race pairs, sorted by first witness position."""
        return sorted(self._pairs.values(), key=lambda p: p.first_event.index)

    def location_pairs(self) -> List[frozenset]:
        """Return the distinct location pairs (the Table 1 count unit)."""
        return list(self._pairs.keys())

    def count(self) -> int:
        """Return the number of distinct race pairs."""
        return len(self._pairs)

    def max_distance(self) -> int:
        """Return the maximum race distance over all pairs (0 when race-free)."""
        if not self._max_distance:
            return 0
        return max(self._max_distance.values())

    def distance_of(self, pair: RacePair) -> int:
        """Return the maximum observed distance for ``pair``."""
        return self._max_distance.get(pair.key(), pair.distance)

    def has_race(self) -> bool:
        """Return True when at least one race pair was found."""
        return bool(self._pairs)

    def variables(self) -> List[str]:
        """Return the distinct variables involved in races."""
        seen = {}
        for pair in self._pairs.values():
            if pair.variable is not None:
                seen.setdefault(pair.variable, None)
        return list(seen)

    def __contains__(self, locations: Iterable[str]) -> bool:
        return frozenset(locations) in self._pairs

    def __iter__(self) -> Iterator[RacePair]:
        return iter(self.pairs())

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:
        return "RaceReport(%s on %s: %d distinct races)" % (
            self.detector_name, self.trace_name, len(self._pairs)
        )

    def summary(self) -> str:
        """Return a short multi-line human-readable summary."""
        lines = [
            "%s on %s: %d distinct race pair(s)" % (
                self.detector_name, self.trace_name, self.count()
            )
        ]
        for pair in self.pairs():
            lines.append("  - %s" % (pair,))
        for key, value in sorted(self.stats.items()):
            lines.append("  stat %s = %s" % (key, value))
        return "\n".join(lines)

"""Shared test fixtures and random-trace generation helpers."""

from __future__ import annotations

import random
from typing import List, Optional

import pytest

from repro.core.wcp import WCPDetector
from repro.trace.event import Event, EventType
from repro.trace.trace import Trace


def random_trace(
    seed: int,
    n_events: int = 40,
    n_threads: int = 3,
    n_locks: int = 2,
    n_vars: int = 3,
    name: Optional[str] = None,
) -> Trace:
    """Generate a random, well-formed trace.

    The generator respects lock semantics and well nestedness by
    construction: a thread only acquires locks it does not hold and that no
    other thread holds, and only releases its innermost held lock.
    """
    rng = random.Random(seed)
    threads = ["t%d" % i for i in range(n_threads)]
    locks = ["l%d" % i for i in range(n_locks)]
    variables = ["x%d" % i for i in range(n_vars)]

    held = {thread: [] for thread in threads}
    holder = {}
    events: List[Event] = []

    while len(events) < n_events:
        thread = rng.choice(threads)
        choices = ["read", "write"]
        free_locks = [
            lock for lock in locks
            if lock not in holder and lock not in held[thread]
        ]
        if free_locks:
            choices.append("acquire")
        if held[thread]:
            choices.append("release")
        action = rng.choice(choices)
        index = len(events)
        if action == "acquire":
            lock = rng.choice(free_locks)
            held[thread].append(lock)
            holder[lock] = thread
            events.append(Event(index, thread, EventType.ACQUIRE, lock))
        elif action == "release":
            lock = held[thread].pop()
            del holder[lock]
            events.append(Event(index, thread, EventType.RELEASE, lock))
        elif action == "read":
            events.append(Event(index, thread, EventType.READ, rng.choice(variables)))
        else:
            events.append(Event(index, thread, EventType.WRITE, rng.choice(variables)))

    # Close every open critical section so the trace is tidy (not required
    # for validity, but keeps the examples realistic).
    for thread in threads:
        while held[thread]:
            lock = held[thread].pop()
            events.append(Event(len(events), thread, EventType.RELEASE, lock))

    return Trace(events, name=name or "random_%d" % seed)


class NoCensus:
    """``trace`` behind a non-complete context: no census is taken.

    A clock detector reset on it keeps every lock and variable on its full
    path, the reference the census-driven elisions are compared with.
    """

    is_complete = False

    def __init__(self, trace):
        self._trace = trace
        self.name = trace.name
        self.registry = trace.registry
        self.threads = trace.threads

    def __iter__(self):
        return iter(self._trace)

    def __len__(self):
        return len(self._trace)


class UncensusedWCP(WCPDetector):
    """WCP that takes no census: every reset sees the trace through
    :class:`NoCensus`.  For windowed runs and detector factories, where
    the caller cannot wrap the trace itself."""

    def reset(self, trace):
        super().reset(NoCensus(trace))


class FileStreamWCP(WCPDetector):
    """WCP as a ``--stream`` pass over a regular file resets it: on a
    non-complete context that names no thread up front but carries the
    whole trace's census (the file's first pass)."""

    def reset(self, trace):
        context = NoCensus(trace)
        context.threads = []
        context.thread_census = trace.thread_census
        super().reset(context)


def private_shared_trace(seed, n_threads=3, steps=60):
    """Nested sections over per-thread private locks and shared locks.

    Each thread owns two private locks; two locks are shared.  Sections
    nest in any order (private inside shared and the reverse), accesses
    hit both shared and per-thread variables, and lock semantics and
    well-nestedness hold by construction.
    """
    rng = random.Random(seed)
    threads = ["t%d" % i for i in range(n_threads)]
    private = {t: ["p_%s_%d" % (t, i) for i in range(2)] for t in threads}
    shared = ["s0", "s1"]
    variables = ["x0", "x1", "x2"]
    held = {t: [] for t in threads}
    holder = {}
    events = []

    def add(thread, etype, target):
        events.append(Event(len(events), thread, etype, target))

    for _ in range(steps):
        thread = rng.choice(threads)
        free = [
            lock for lock in private[thread] + shared
            if lock not in holder
        ]
        roll = rng.random()
        if roll < 0.3 and free:
            lock = rng.choice(free)
            holder[lock] = thread
            held[thread].append(lock)
            add(thread, EventType.ACQUIRE, lock)
        elif roll < 0.55 and held[thread]:
            lock = held[thread].pop()
            del holder[lock]
            add(thread, EventType.RELEASE, lock)
        else:
            etype = EventType.READ if rng.random() < 0.5 else EventType.WRITE
            target = rng.choice(variables + ["y_" + thread])
            add(thread, etype, target)
    for thread in threads:
        while held[thread]:
            add(thread, EventType.RELEASE, held[thread].pop())
    return Trace(events, name="private_shared_%d" % seed)


@pytest.fixture
def simple_race_trace() -> Trace:
    """Two unsynchronised writes: the simplest possible racy trace."""
    return Trace([
        Event(0, "t1", EventType.WRITE, "x", "a.py:1"),
        Event(1, "t2", EventType.WRITE, "x", "b.py:2"),
    ], name="simple_race")


@pytest.fixture
def protected_trace() -> Trace:
    """Two lock-protected updates: race-free."""
    events = []
    for thread in ("t1", "t2"):
        events.append(Event(len(events), thread, EventType.ACQUIRE, "l"))
        events.append(Event(len(events), thread, EventType.READ, "x"))
        events.append(Event(len(events), thread, EventType.WRITE, "x"))
        events.append(Event(len(events), thread, EventType.RELEASE, "l"))
    return Trace(events, name="protected")

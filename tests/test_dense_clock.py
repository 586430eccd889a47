"""Unit and property tests for ThreadRegistry and DenseClock.

DenseClock must be observably equivalent to the dict-based VectorClock
under every operation (the detectors' DenseClock timestamps are reported
as VectorClocks), and the registry conversions must be lossless.
"""

import contextlib
import copy
import pickle
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vectorclock.clock import VectorClock
from repro.vectorclock.dense import DenseClock
from repro.vectorclock.registry import ThreadRegistry


class TestThreadRegistry:
    def test_intern_is_dense_and_stable(self):
        registry = ThreadRegistry()
        assert registry.intern("t1") == 0
        assert registry.intern("t2") == 1
        assert registry.intern("t1") == 0
        assert len(registry) == 2
        assert registry.names() == ["t1", "t2"]

    def test_lookup_and_name_of(self):
        registry = ThreadRegistry(["main", "worker"])
        assert registry.lookup("worker") == 1
        assert registry.lookup("absent") is None
        assert registry.name_of(0) == "main"
        assert "main" in registry
        assert list(registry) == ["main", "worker"]

    def test_interning_is_order_deterministic(self):
        names = ["b", "a", "c", "a", "b"]
        first = ThreadRegistry()
        second = ThreadRegistry()
        assert [first.intern(n) for n in names] == [
            second.intern(n) for n in names
        ]

    def test_clock_round_trip_is_lossless(self):
        registry = ThreadRegistry()
        public = VectorClock({"t1": 3, "t9": 7})
        dense = registry.to_dense(public)
        assert isinstance(dense, DenseClock)
        assert registry.to_public(dense) == public

    def test_to_public_accepts_tid_keyed_vectorclock(self):
        registry = ThreadRegistry(["t1", "t2"])
        internal = VectorClock({0: 2, 1: 5})
        assert registry.to_public(internal) == VectorClock({"t1": 2, "t2": 5})


@contextlib.contextmanager
def _alarm(seconds):
    """Fail (instead of hanging the suite) when the body never returns."""
    def expire(signum, frame):
        raise AssertionError("did not finish within %ds" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestDenseClockBasics:
    def test_bottom(self):
        assert DenseClock.bottom().is_bottom()
        assert DenseClock.bottom().width() == 0

    def test_single(self):
        clock = DenseClock.single(2, 5)
        assert clock.get(2) == 5
        assert clock.get(0) == 0
        assert clock.get(99) == 0
        assert clock.width() == 1

    def test_trailing_zeros_are_insignificant(self):
        assert DenseClock([1, 0, 0]) == DenseClock([1])
        assert hash(DenseClock([1, 0])) == hash(DenseClock([1]))
        assert DenseClock([1, 0]) <= DenseClock([1])
        assert DenseClock([1]) <= DenseClock([1, 0])

    def test_negative_components_rejected(self):
        with pytest.raises(ValueError):
            DenseClock([1, -1])
        with pytest.raises(ValueError):
            DenseClock().assign(0, -2)
        with pytest.raises(ValueError):
            DenseClock().assign(-1, 2)

    def test_copy_is_independent(self):
        original = DenseClock.single(0, 1)
        clone = original.copy()
        clone.assign(0, 9)
        assert original.get(0) == 1

    def test_pickle_and_copy_module_give_independent_clocks(self):
        original = DenseClock([2, 0, 5])
        for clone in (pickle.loads(pickle.dumps(original)),
                      copy.copy(original), copy.deepcopy(original)):
            assert clone == original and type(clone) is DenseClock
            clone.assign(0, 9)
            assert original.get(0) == 2

    def test_merge_reports_changes(self):
        clock = DenseClock([3, 1])
        assert clock.merge(DenseClock([1, 5])) is True
        assert clock.as_dict() == {0: 3, 1: 5}
        assert clock.merge(DenseClock([2, 2])) is False

    def test_vectorclock_merge_reports_changes(self):
        clock = VectorClock({"t1": 3})
        assert clock.merge(VectorClock({"t2": 1})) is True
        assert clock.merge(VectorClock({"t1": 2})) is False

    def test_join_operator_does_not_mutate(self):
        a = DenseClock([1, 4])
        b = DenseClock([3, 2])
        joined = a | b
        assert joined.as_dict() == {0: 3, 1: 4}
        assert a.as_dict() == {0: 1, 1: 4}

    def test_construct_from_dense_clock_copies(self):
        with _alarm(2):
            original = DenseClock([4, 0, 7])
            clone = DenseClock(original)
        assert clone == original
        clone.assign(0, 9)
        assert original.get(0) == 4

    def test_iteration_raises_instead_of_hanging(self):
        clock = DenseClock([1, 2])
        with _alarm(2):
            with pytest.raises(TypeError):
                list(clock)
            with pytest.raises(TypeError):
                iter(clock)
        assert sorted(clock.items()) == [(0, 1), (1, 2)]

    def test_clear_and_update_from(self):
        clock = DenseClock([1, 2])
        clock.clear()
        assert clock.is_bottom()
        clock.update_from(DenseClock([0, 7]))
        assert clock.get(1) == 7


# Mirror every operation on both representations and require identical
# observable results (the backend-parity property at the clock level).
_components = st.lists(st.integers(min_value=0, max_value=40), max_size=6)


def _pair(components):
    return DenseClock(components), VectorClock(
        {tid: value for tid, value in enumerate(components) if value}
    )


class TestDenseDictEquivalence:
    @given(_components, _components)
    @settings(max_examples=80, deadline=None)
    def test_comparisons_agree(self, first, second):
        dense_a, dict_a = _pair(first)
        dense_b, dict_b = _pair(second)
        assert (dense_a <= dense_b) == (dict_a <= dict_b)
        assert (dense_a == dense_b) == (dict_a == dict_b)
        assert dense_a.concurrent_with(dense_b) == dict_a.concurrent_with(dict_b)

    @given(_components, _components)
    @settings(max_examples=80, deadline=None)
    def test_join_and_merge_agree(self, first, second):
        dense_a, dict_a = _pair(first)
        dense_b, dict_b = _pair(second)
        assert dense_a.merge(dense_b) == dict_a.merge(dict_b)
        assert dense_a.as_dict() == dict_a.as_dict()

    @given(_components, st.integers(min_value=0, max_value=7),
           st.integers(min_value=0, max_value=30))
    @settings(max_examples=80, deadline=None)
    def test_assign_and_get_agree(self, components, tid, value):
        dense, sparse = _pair(components)
        dense.assign(tid, value)
        sparse.assign(tid, value)
        assert dense.as_dict() == sparse.as_dict()
        assert dense.get(tid) == sparse.get(tid)
        assert dense.width() == sparse.width()
        assert dense.is_bottom() == sparse.is_bottom()

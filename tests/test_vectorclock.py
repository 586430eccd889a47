"""Unit and property tests for vector clocks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vectorclock import VectorClock


# --------------------------------------------------------------------------- #
# VectorClock basics
# --------------------------------------------------------------------------- #

class TestVectorClockBasics:
    def test_bottom_is_empty(self):
        assert VectorClock.bottom().is_bottom()
        assert VectorClock.bottom().width() == 0

    def test_single_component(self):
        clock = VectorClock.single("t1", 5)
        assert clock["t1"] == 5
        assert clock["t2"] == 0
        assert clock.width() == 1

    def test_zero_components_are_dropped(self):
        clock = VectorClock({"t1": 0, "t2": 3})
        assert clock.width() == 1
        assert clock.as_dict() == {"t2": 3}

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            VectorClock({"t1": -1})
        with pytest.raises(ValueError):
            VectorClock().assign("t1", -2)

    def test_get_and_getitem_agree(self):
        clock = VectorClock({"t1": 7})
        assert clock.get("t1") == clock["t1"] == 7
        assert clock.get("missing") == clock["missing"] == 0

    def test_assign_and_increment(self):
        clock = VectorClock()
        clock.assign("t1", 2).increment("t1").increment("t2", 5)
        assert clock.as_dict() == {"t1": 3, "t2": 5}

    def test_assign_zero_removes_component(self):
        clock = VectorClock({"t1": 4})
        clock.assign("t1", 0)
        assert clock.is_bottom()

    def test_copy_is_independent(self):
        original = VectorClock({"t1": 1})
        clone = original.copy()
        clone.increment("t1")
        assert original["t1"] == 1
        assert clone["t1"] == 2

    def test_update_from_overwrites(self):
        clock = VectorClock({"t1": 9})
        clock.update_from(VectorClock({"t2": 2}))
        assert clock.as_dict() == {"t2": 2}

    def test_clear(self):
        clock = VectorClock({"t1": 9})
        assert clock.clear().is_bottom()

    def test_repr_is_stable(self):
        assert repr(VectorClock({"t1": 1})) == "VectorClock({'t1': 1})"

    def test_equality_and_hash(self):
        a = VectorClock({"t1": 1, "t2": 2})
        b = VectorClock({"t2": 2, "t1": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a != VectorClock({"t1": 1})
        assert a != "not a clock"


class TestVectorClockOrdering:
    def test_join_is_pointwise_max(self):
        a = VectorClock({"t1": 3, "t2": 1})
        b = VectorClock({"t1": 2, "t3": 4})
        joined = a | b
        assert joined.as_dict() == {"t1": 3, "t2": 1, "t3": 4}

    def test_join_in_place_returns_self(self):
        a = VectorClock({"t1": 1})
        assert a.join(VectorClock({"t2": 2})) is a
        assert a.as_dict() == {"t1": 1, "t2": 2}

    def test_leq_reflexive_and_bottom(self):
        a = VectorClock({"t1": 3})
        assert a <= a
        assert VectorClock.bottom() <= a
        assert not (a <= VectorClock.bottom())

    def test_incomparable_clocks(self):
        a = VectorClock({"t1": 1})
        b = VectorClock({"t2": 1})
        assert a.concurrent_with(b)
        assert not (a <= b) and not (b <= a)

    def test_strict_comparison(self):
        a = VectorClock({"t1": 1})
        b = VectorClock({"t1": 2})
        assert a < b
        assert b > a
        assert not (a < a)
        assert b >= a


# --------------------------------------------------------------------------- #
# Property-based tests
# --------------------------------------------------------------------------- #

clock_strategy = st.dictionaries(
    st.sampled_from(["t1", "t2", "t3", "t4"]),
    st.integers(min_value=0, max_value=50),
    max_size=4,
).map(VectorClock)


class TestVectorClockProperties:
    @given(clock_strategy, clock_strategy)
    @settings(max_examples=100)
    def test_join_commutative(self, a, b):
        assert (a | b) == (b | a)

    @given(clock_strategy, clock_strategy, clock_strategy)
    @settings(max_examples=100)
    def test_join_associative(self, a, b, c):
        assert ((a | b) | c) == (a | (b | c))

    @given(clock_strategy)
    @settings(max_examples=100)
    def test_join_idempotent(self, a):
        assert (a | a) == a

    @given(clock_strategy, clock_strategy)
    @settings(max_examples=100)
    def test_join_is_upper_bound(self, a, b):
        joined = a | b
        assert a <= joined
        assert b <= joined

    @given(clock_strategy, clock_strategy)
    @settings(max_examples=100)
    def test_leq_antisymmetric(self, a, b):
        if a <= b and b <= a:
            assert a == b

    @given(clock_strategy, clock_strategy, clock_strategy)
    @settings(max_examples=100)
    def test_leq_transitive(self, a, b, c):
        if a <= b and b <= c:
            assert a <= c

    @given(clock_strategy, clock_strategy)
    @settings(max_examples=100)
    def test_join_least_upper_bound(self, a, b):
        # Any clock above both a and b is above their join.
        joined = a | b
        upper = joined | VectorClock({"t1": 100})
        assert joined <= upper

"""Unit tests for arbiters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect import FixedPriorityArbiter, RoundRobinArbiter


def test_rr_rotates_among_active():
    arb = RoundRobinArbiter(3)
    grants = [arb.grant([True, True, True]) for _ in range(6)]
    assert grants == [0, 1, 2, 0, 1, 2]


def test_rr_skips_inactive():
    arb = RoundRobinArbiter(3)
    assert arb.grant([False, True, False]) == 1
    assert arb.grant([True, False, True]) == 2
    assert arb.grant([True, False, True]) == 0


def test_rr_none_when_no_requests():
    arb = RoundRobinArbiter(2)
    assert arb.grant([False, False]) is None


def test_rr_peek_does_not_advance():
    arb = RoundRobinArbiter(2)
    assert arb.peek([True, True]) == 0
    assert arb.peek([True, True]) == 0
    assert arb.grant([True, True]) == 0
    assert arb.peek([True, True]) == 1


def test_rr_wrong_width_raises():
    arb = RoundRobinArbiter(2)
    with pytest.raises(ValueError):
        arb.grant([True])


def test_rr_needs_positive_n():
    with pytest.raises(ValueError):
        RoundRobinArbiter(0)


def test_fixed_priority_lowest_wins():
    arb = FixedPriorityArbiter(3)
    assert arb.grant([False, True, True]) == 1
    assert arb.grant([False, True, True]) == 1  # no rotation


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=8))
def test_property_rr_grants_only_active(requests):
    arb = RoundRobinArbiter(len(requests))
    g = arb.grant(requests)
    if any(requests):
        assert g is not None and requests[g]
    else:
        assert g is None


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=2, max_value=8), rounds=st.integers(1, 50))
def test_property_rr_is_fair_under_full_load(n, rounds):
    """With all requesters active, grant counts differ by at most one."""
    arb = RoundRobinArbiter(n)
    counts = [0] * n
    for _ in range(rounds):
        counts[arb.grant([True] * n)] += 1
    assert max(counts) - min(counts) <= 1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_property_rr_grant_one_equals_one_hot_grant(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    pointer = data.draw(st.integers(0, n - 1))
    idx = data.draw(st.integers(0, n - 1))
    fast, ref = RoundRobinArbiter(n), RoundRobinArbiter(n)
    fast.state_restore(pointer)
    ref.state_restore(pointer)
    assert fast.grant_one(idx) == ref.grant([i == idx for i in range(n)])
    assert fast.state_capture() == ref.state_capture()

"""Unit tests for M&R bookkeeping counters."""

from repro.realm import BookkeepingUnit, ThrottleUnit


def test_transfer_accounting():
    book = BookkeepingUnit()
    book.on_transfer(64, is_read=True)
    book.on_transfer(32, is_read=False)
    snap = book.snapshot()
    assert snap.total_bytes == 96
    assert snap.read_bytes == 64
    assert snap.write_bytes == 32
    assert snap.bytes_this_period == 96


def test_period_rollover_clears_period_counters_only():
    book = BookkeepingUnit()
    book.on_transfer(64, is_read=True)
    book.on_cycle(stalled=False)
    book.on_period_rollover()
    snap = book.snapshot()
    assert snap.bytes_this_period == 0
    assert snap.cycles_into_period == 0
    assert snap.total_bytes == 64


def test_bandwidth_is_bytes_per_cycle_in_period():
    book = BookkeepingUnit()
    for _ in range(10):
        book.on_cycle(stalled=False)
    book.on_transfer(40, is_read=True)
    assert book.snapshot().bandwidth == 4.0


def test_bandwidth_zero_at_period_start():
    assert BookkeepingUnit().snapshot().bandwidth == 0.0


def test_latency_stats():
    book = BookkeepingUnit()
    for lat in (10, 30, 20):
        book.on_latency(lat)
    snap = book.snapshot()
    assert snap.txn_count == 3
    assert snap.latency_sum == 60
    assert snap.latency_avg == 20.0
    assert snap.latency_max == 30
    assert snap.latency_min == 10


def test_latency_avg_empty():
    assert BookkeepingUnit().snapshot().latency_avg == 0.0


def test_stall_cycles():
    book = BookkeepingUnit()
    book.on_cycle(stalled=True)
    book.on_cycle(stalled=False)
    book.on_cycle(stalled=True)
    assert book.snapshot().stall_cycles == 2


# ----------------------------------------------------------------------
# throttle unit
# ----------------------------------------------------------------------
def test_throttle_disabled_constant_cap():
    thr = ThrottleUnit(max_outstanding=8, enabled=False)
    assert thr.allowed_outstanding(0.01) == 8
    assert thr.admits(7, 0.01)


def test_throttle_scales_with_budget():
    thr = ThrottleUnit(max_outstanding=8, enabled=True)
    assert thr.allowed_outstanding(1.0) == 8
    assert thr.allowed_outstanding(0.5) == 4
    assert thr.allowed_outstanding(0.0) == 1  # floor of one


def test_throttle_admits():
    thr = ThrottleUnit(max_outstanding=4, enabled=True)
    assert thr.admits(1, 0.5)
    assert not thr.admits(2, 0.5)


def test_throttle_clamps_fraction():
    thr = ThrottleUnit(max_outstanding=4, enabled=True)
    assert thr.allowed_outstanding(2.0) == 4
    assert thr.allowed_outstanding(-1.0) == 1


def test_throttle_validates():
    import pytest

    with pytest.raises(ValueError):
        ThrottleUnit(max_outstanding=0)

"""Unit tests for subordinate regions (budget/period credit machinery)."""

from repro.realm import UNLIMITED, RegionConfig, RegionState


def make(budget=1024, period=100, base=0, size=0x1000):
    return RegionState(RegionConfig(base, size, budget, period))


def test_matches_address_range():
    cfg = RegionConfig(base=0x1000, size=0x100)
    assert cfg.matches(0x1000)
    assert cfg.matches(0x10FF)
    assert not cfg.matches(0x1100)
    assert not cfg.matches(0xFFF)


def test_zero_size_region_disabled():
    cfg = RegionConfig(base=0, size=0)
    assert not cfg.matches(0)


def test_charge_and_depletion():
    state = make(budget=100)
    state.charge(60)
    assert not state.depleted
    assert state.remaining == 40
    state.charge(50)  # overshoot by one fragment is allowed
    assert state.depleted
    assert state.remaining == -10


def test_replenish_on_period_boundary():
    state = make(budget=10, period=5)
    state.charge(10)
    assert state.depleted
    rolled = [state.advance_cycle() for _ in range(5)]
    assert rolled == [False] * 4 + [True]
    assert not state.depleted
    assert state.remaining == 10
    assert state.periods_elapsed == 1


def test_budget_fraction():
    state = make(budget=100)
    assert state.budget_fraction == 1.0
    state.charge(25)
    assert state.budget_fraction == 0.75
    state.charge(100)
    assert state.budget_fraction == 0.0


def test_unlimited_budget_never_depletes():
    state = RegionState(RegionConfig(0, 0x1000))
    state.charge(1 << 40)
    assert not state.depleted
    assert state.remaining > 0
    assert UNLIMITED > 1 << 60


def test_reconfigure_resets_credits():
    state = make(budget=10, period=5)
    state.charge(10)
    state.reconfigure(RegionConfig(0, 0x1000, 50, 10))
    assert state.remaining == 50
    assert state.cycles_into_period == 0
    assert state.periods_elapsed == 0

"""Tests for the monitoring-driven budget advisor."""

from pathlib import Path

import pytest

from repro.analysis.advisor import (
    BudgetAdvisor,
    BudgetPlan,
    ManagerObservation,
)
from repro.realm import BookkeepingUnit
from repro.scenario import apply_overrides, expand, load_file, run_campaign
from repro.scenario.runner import _elaborate_point

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def observe(name, bytes_per_cycle, cycles=1000, weight=1.0):
    book = BookkeepingUnit()
    for _ in range(cycles):
        book.on_cycle(stalled=False)
    book.on_transfer(int(bytes_per_cycle * cycles), is_read=True)
    return ManagerObservation(name, book.snapshot(), weight)


def test_equal_weights_split_link_equally():
    advisor = BudgetAdvisor(link_bytes_per_cycle=8)
    plans = advisor.plan(
        [observe("core", 6.0), observe("dma", 6.0)], period_cycles=1000
    )
    assert plans[0].share == plans[1].share == 0.5
    # Both demand 6 B/c but the fair share is 4 B/c: grants are capped.
    assert plans[0].budget_bytes == plans[1].budget_bytes == 4000
    assert all(p.saturated for p in plans)


def test_weights_skew_the_split():
    advisor = BudgetAdvisor(link_bytes_per_cycle=8)
    plans = advisor.plan(
        [observe("core", 8.0, weight=4.0), observe("dma", 8.0, weight=1.0)],
        period_cycles=1000,
    )
    by_name = {p.name: p for p in plans}
    assert by_name["core"].share == pytest.approx(0.8)
    assert by_name["core"].budget_bytes > by_name["dma"].budget_bytes


def test_low_demand_manager_granted_demand_plus_headroom():
    advisor = BudgetAdvisor(link_bytes_per_cycle=8, headroom=1.25)
    plans = advisor.plan(
        [observe("core", 1.0), observe("dma", 6.0)], period_cycles=1000
    )
    core = next(p for p in plans if p.name == "core")
    # 1 B/c demand x 1000 cycles x 1.25 headroom = 1250 < fair share 4000.
    assert core.budget_bytes == 1250
    assert not core.saturated


def test_plan_to_region_config():
    plan = BudgetPlan("core", budget_bytes=2048, share=0.5, saturated=False)
    region = plan.region(base=0x1000, size=0x1000, period=500)
    assert region.budget_bytes == 2048
    assert region.period_cycles == 500
    assert region.matches(0x1800)


def test_suggest_period_respects_latency_and_fragments():
    advisor = BudgetAdvisor()
    assert advisor.suggest_period(1000, fragment_beats=1) == 1000
    # 8 fragments of 256 beats need at least 2048 cycles.
    assert advisor.suggest_period(100, fragment_beats=256) == 2048


def test_utilization():
    advisor = BudgetAdvisor(link_bytes_per_cycle=8)
    u = advisor.utilization([observe("a", 2.0), observe("b", 4.0)])
    assert u == pytest.approx(0.75)


def test_validation():
    with pytest.raises(ValueError):
        BudgetAdvisor(link_bytes_per_cycle=0)
    with pytest.raises(ValueError):
        BudgetAdvisor(headroom=0.5)
    advisor = BudgetAdvisor()
    with pytest.raises(ValueError):
        advisor.plan([observe("a", 1.0)], period_cycles=0)
    with pytest.raises(ValueError):
        advisor.plan([observe("a", 1.0, weight=0.0)], period_cycles=100)
    with pytest.raises(ValueError):
        advisor.suggest_period(0, 1)
    assert advisor.plan([], 100) == []


def _fig6b_point(label, core_budget, dma_budget):
    """``scenarios/fig6b.toml`` (fragmentation 1, 1000-cycle periods) at
    60 core accesses: its core-alone baseline and one point *label*."""
    return apply_overrides(load_file(SCENARIO_DIR / "fig6b.toml"), {
        "traffic.core.n_accesses": 60,
        "topology.managers.core.regions.0.budget_bytes": core_budget,
        "campaign.sweep.0": {
            "field": "topology.managers.dma.regions.0.budget_bytes",
            "values": [dma_budget],
            "labels": [label],
        },
    })


def test_advisor_closes_the_loop_in_system():
    """Observe an unregulated system, plan budgets, apply, verify the
    core recovers — monitoring-driven reconfiguration end to end."""
    # Phase 1: observe under uncontrolled contention (budgets never bind).
    spec = _fig6b_point("observe", 1 << 40, 1 << 40)
    point = next(p for p in expand(spec) if p.label == "observe")
    system, _generators = _elaborate_point(point)
    system.sim.run(3000)
    advisor = BudgetAdvisor(link_bytes_per_cycle=8)
    observations = [
        ManagerObservation("core", system.realm("core").region_snapshot(0),
                           weight=4.0),
        ManagerObservation("dma", system.realm("dma").region_snapshot(0),
                           weight=1.0),
    ]
    plans = {p.name: p for p in advisor.plan(observations, 1000)}
    assert plans["dma"].budget_bytes < 8 * 1000  # DMA actually capped
    # Phase 2: apply the plan in a fresh run.
    result = run_campaign(_fig6b_point(
        "advised",
        core_budget=max(plans["core"].budget_bytes, 4000),
        dma_budget=plans["dma"].budget_bytes,
    ))
    assert result.point("advised").perf_percent > 85.0

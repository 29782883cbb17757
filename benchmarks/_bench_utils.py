"""Importable helpers for the benchmark harness.

Kept outside ``conftest.py`` so that ``from _bench_utils import emit``
cannot collide with the test suite's ``conftest`` module (pytest imports
every conftest under the same module name).
"""

from __future__ import annotations

import time
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# The idle-heavy period-sweep workload: a duty-cycled core (compute gaps
# between accesses) against a budget-throttled DMA at a constant share.
# Shared by bench_period_sweep.py (the figure) and kernel_speed.py (the
# BENCH_kernel.json datapoint) so the two always measure the same thing.
SWEEP_PERIODS = (250, 500, 1000, 2000, 4000)
SWEEP_DMA_SHARE = 0.125
SWEEP_GAP_MEAN = 30
SWEEP_N_ACCESSES = 100


def run_period_sweep(active_set: bool):
    """Run the idle-heavy period sweep on the chosen kernel.

    The campaign is ``scenarios/fig6a.toml`` with a duty-cycled core:
    its core-alone baseline point, then one fragmentation-1 point per
    period in place of the fragmentation sweep.

    Returns ``(rows, simulated_cycles, wall_seconds)``; rows are
    ``(period, dma_budget, perf_percent, worst_latency, mean_latency)``.
    """
    from repro.scenario import load_file, run_campaign, validate

    t0 = time.perf_counter()
    tree = load_file(SCENARIO_DIR / "fig6a.toml").to_dict()
    tree["traffic"]["core"].update(
        n_accesses=SWEEP_N_ACCESSES, gap_mean=SWEEP_GAP_MEAN
    )
    campaign = tree["campaign"]
    campaign["points"] = [
        point for point in campaign["points"]
        if point["label"] == campaign["baseline"]
    ]
    campaign["sweep"] = []
    budgets = [int(8 * period * SWEEP_DMA_SHARE)  # bytes per period
               for period in SWEEP_PERIODS]
    for period, budget in zip(SWEEP_PERIODS, budgets):
        campaign["points"].append({"label": f"period={period}", "set": {
            "topology.managers.core.granularity": 1,
            "topology.managers.dma.granularity": 1,
            "topology.managers.core.regions.0.budget_bytes": 1 << 40,
            "topology.managers.core.regions.0.period_cycles": period,
            "topology.managers.dma.regions.0.budget_bytes": budget,
            "topology.managers.dma.regions.0.period_cycles": period,
        }})
    result = run_campaign(validate(tree), active_set=active_set)
    rows = []
    for period, budget in zip(SWEEP_PERIODS, budgets):
        point = result.point(f"period={period}")
        rows.append((period, budget, point.perf_percent,
                     point.worst_case_latency, point.latency.mean))
    cycles = sum(point.sim_cycles for point in result.points)
    return rows, cycles, time.perf_counter() - t0


def emit(title: str, lines: list[str]) -> None:
    """Print a reproduction block (visible with -s and in tee'd output)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}")
    for line in lines:
        print(line)
    print(bar)

"""Ablation: the optional throttling unit (Section III-A).

The throttle caps outstanding transactions in proportion to the remaining
budget, spreading a manager's traffic across the period instead of letting
it burn the whole budget at period start and then hit a hard isolation
wall.  We measure the DMA-side effect: with the throttle, the DMA's
traffic is smoothed (its bytes arrive more evenly across the period).
"""

import pytest

from _bench_utils import SCENARIO_DIR, emit
from repro.scenario import apply_overrides, load_file, run_campaign

BUDGET = 2048  # 1/4 of link capacity: forces regulation to act


@pytest.fixture(scope="module")
def throttle_spec():
    """``scenarios/fig6b.toml``'s ``dma=1/4`` point at 80 accesses, with
    the throttle swept on both regulated units."""
    return apply_overrides(load_file(SCENARIO_DIR / "fig6b.toml"), {
        "traffic.core.n_accesses": 80,
        "topology.managers.dma.regions.0.budget_bytes": BUDGET,
        "campaign.sweep.0": {
            "fields": ["topology.managers.core.throttle",
                       "topology.managers.dma.throttle"],
            "values": [False, True],
            "labels": ["throttle off", "throttle on"],
        },
    })


def test_throttle_ablation(benchmark, throttle_spec):
    result = benchmark.pedantic(lambda: run_campaign(throttle_spec),
                                rounds=1, iterations=1)
    off = result.point("throttle off")
    on = result.point("throttle on")
    emit(
        "Ablation — throttling unit on/off (DMA budget 2 KiB / 1000 cycles)",
        [
            f"{'configuration':<16} {'perf [%]':>9} {'worst lat':>10} "
            f"{'mean lat':>9}",
            f"{'throttle off':<16} {off.perf_percent:>9.1f} "
            f"{off.worst_case_latency:>10d} {off.latency.mean:>9.1f}",
            f"{'throttle on':<16} {on.perf_percent:>9.1f} "
            f"{on.worst_case_latency:>10d} {on.latency.mean:>9.1f}",
        ],
    )
    # Both configurations respect the budget and keep the core near
    # baseline; the throttle must not break regulation.
    assert off.perf_percent > 80
    assert on.perf_percent > 80
    # Backpressure modulation keeps worst-case latency no worse than the
    # hard-wall configuration.
    assert on.worst_case_latency <= off.worst_case_latency + 4

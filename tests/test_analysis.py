"""Tests for stats helpers, interference monitoring, and the Figure 6
trends of the shipped scenario files."""

from pathlib import Path

import pytest

from repro.analysis import (
    InterferenceMatrix,
    LatencyStats,
    SystemInterferenceMonitor,
    bytes_per_cycle,
    percentile,
    performance_percent,
)
from repro.scenario import apply_overrides, load_file, run_campaign

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_latency_stats_basic():
    stats = LatencyStats.from_samples([10, 20, 30, 40, 50])
    assert stats.count == 5
    assert stats.minimum == 10
    assert stats.maximum == 50
    assert stats.mean == 30
    assert stats.p50 == 30


def test_latency_stats_empty():
    stats = LatencyStats.from_samples([])
    assert stats.count == 0
    assert stats.maximum == 0


def test_percentile_interpolates():
    assert percentile([0, 10], 50) == 5.0
    assert percentile([1, 2, 3, 4], 100) == 4
    assert percentile([7], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


def test_performance_percent():
    assert performance_percent(100, 100) == 100.0
    assert performance_percent(100, 200) == 50.0
    # Zero cycles is a measurement, not a missing value: an instant run
    # against an instant baseline matches it, against a positive one it
    # is infinitely fast.  Only negative counts are rejected.
    assert performance_percent(0, 0) == 100.0
    assert performance_percent(100, 0) == float("inf")
    with pytest.raises(ValueError):
        performance_percent(-1, 100)
    with pytest.raises(ValueError):
        performance_percent(100, -1)


def test_bytes_per_cycle():
    assert bytes_per_cycle(100, 10) == 10.0
    assert bytes_per_cycle(100, 0) == 0.0


# ----------------------------------------------------------------------
# interference matrix
# ----------------------------------------------------------------------
def test_interference_matrix_records_victim_aggressor():
    m = InterferenceMatrix(["core", "dma"])
    m.record(stalled=[True, False], transferring=[False, True])
    m.record(stalled=[True, False], transferring=[False, True])
    assert m.cycles("core", "dma") == 2
    assert m.cycles("dma", "core") == 0
    assert m.total_for_victim("core") == 2


def test_interference_matrix_ignores_self():
    m = InterferenceMatrix(["a", "b"])
    m.record(stalled=[True, False], transferring=[True, False])
    assert m.cycles("a", "a") == 0


def test_interference_matrix_format():
    m = InterferenceMatrix(["core", "dma"])
    m.record(stalled=[True, False], transferring=[False, True])
    text = m.format()
    assert "core" in text and "dma" in text


def _contention_matrix(active_set: bool = True, batched: bool = True):
    """The interference matrix of a core and a 256-beat DMA contending
    for the LLC, sampled until the core finishes."""
    from repro.sim import Simulator
    from repro.soc import CheshireSoC, DRAM_BASE, SPM_BASE
    from repro.traffic import CoreModel, DmaEngine, susan_like_trace

    sim = Simulator(active_set=active_set, batched=batched)
    soc = CheshireSoC(sim)
    soc.warm_llc(DRAM_BASE, 32 * 1024)
    monitor = SystemInterferenceMonitor(sim, soc.realm_units)
    trace = susan_like_trace(n_accesses=20, base=DRAM_BASE, footprint=8192)
    core = sim.add(CoreModel(soc.core_port, trace))
    sim.add(
        DmaEngine(soc.dma_port, src_base=DRAM_BASE + 8192, src_size=8192,
                  dst_base=SPM_BASE, dst_size=8192, burst_beats=256)
    )
    sim.run_until(lambda: core.done, max_cycles=100_000, what="core")
    return monitor.matrix


def test_system_monitor_detects_dma_interference():
    """Under heavy contention, the monitor blames the DMA for core stalls."""
    assert _contention_matrix().cycles("core", "dma") > 0


@pytest.mark.parametrize("active_set,batched",
                         [(False, False), (False, True), (True, False),
                          (True, True)])
def test_interference_matrix_is_the_same_on_every_kernel(active_set, batched):
    """The monitor samples every commit boundary, fast-forwards and
    sleeping units included, so each kernel combination sees the same
    matrix over the same cycles."""
    matrix = _contention_matrix(active_set, batched)
    assert matrix.cycles("core", "dma") == 2802
    assert matrix.cycles("dma", "core") == 19
    assert matrix.sampled_cycles == 2955


# ----------------------------------------------------------------------
# Figure 6 trends (the shipped campaigns at 40 core accesses)
# ----------------------------------------------------------------------
def _figure6(name: str, sweep: dict) -> dict:
    """*name*'s campaign at 40 core accesses, its sweep values replaced
    by *sweep* (label -> value); returns the points by label."""
    spec = apply_overrides(load_file(SCENARIO_DIR / f"{name}.toml"), {
        "traffic.core.n_accesses": 40,
        "campaign.sweep.0.values": list(sweep.values()),
        "campaign.sweep.0.labels": list(sweep),
    })
    return {point.label: point for point in run_campaign(spec).points}


@pytest.fixture(scope="module")
def fig6a():
    return _figure6("fig6a", {f"frag={f}": f for f in (256, 16, 4, 1)})


@pytest.fixture(scope="module")
def fig6b():
    return _figure6("fig6b", {"dma=1/1": 8192, "dma=1/5": 8192 // 5})


def test_single_source_baseline(fig6a):
    base = fig6a["single-source"]
    assert base.perf_percent == 100.0
    assert base.worst_case_latency <= 10  # paper: at most 8 + model epsilon


def test_uncontrolled_contention_collapses_performance(fig6a):
    r = fig6a["without-reservation"]
    assert r.perf_percent < 30.0
    assert r.worst_case_latency > 250  # >= one full 256-beat burst


def test_fragmentation_one_recovers_performance(fig6a):
    r = fig6a["frag=1"]
    assert r.perf_percent > 60.0
    assert r.worst_case_latency < 20


def test_fragmentation_sweep_monotone_trend(fig6a):
    results = [fig6a[f"frag={f}"] for f in (256, 16, 1)]
    perfs = [r.perf_percent for r in results]
    assert perfs[0] < perfs[1] < perfs[2]
    lats = [r.worst_case_latency for r in results]
    assert lats[0] > lats[1] > lats[2]


def test_budget_sweep_improves_with_skew(fig6b):
    skewed, even = fig6b["dma=1/5"], fig6b["dma=1/1"]
    assert skewed.perf_percent >= even.perf_percent
    assert skewed.perf_percent > 90.0


def test_result_fields(fig6a):
    r = fig6a["frag=4"]
    assert r.label == "frag=4"
    assert r.execution_cycles > 0
    assert r.dma_bytes() > 0
    assert r.sim_cycles >= r.execution_cycles

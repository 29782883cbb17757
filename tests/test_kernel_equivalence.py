"""Naive-kernel vs. active-set-kernel equivalence.

The active-set scheduler is a pure optimisation: every observable —
completion cycles, latencies, channel statistics, REALM bookkeeping down
to per-cycle stall counters — must be bit-identical to the naive
tick-everything kernel.  These tests run the same scenario on both
kernels and diff the observables.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.realm import RegionConfig
from repro.scenario import load_file, run_campaign, run_point, expand, validate
from repro.sim import Simulator
from repro.system import SystemBuilder
from repro.traffic import BandwidthHog, CoreModel, DmaEngine, susan_like_trace

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _regulated_contention(active_set: bool):
    """Core + budget-throttled DMA behind REALM units on a crossbar."""
    system = (
        SystemBuilder(active_set=active_set)
        .with_crossbar()
        .add_manager("core")
        .add_manager(
            "dma",
            granularity=1,
            regions=[RegionConfig(base=0, size=0x40000,
                                  budget_bytes=512, period_cycles=400)],
        )
        .add_sram("mem", base=0, size=0x40000, capacity=4)
        .build()
    )
    trace = susan_like_trace(n_accesses=40, base=0, footprint=8192,
                             beats=2, gap_mean=25)
    core = system.attach("core", lambda port: CoreModel(port, trace))
    system.attach(
        "dma",
        lambda port: DmaEngine(port, src_base=0x2000, src_size=0x8000,
                               dst_base=0x10000, dst_size=0x8000,
                               burst_beats=64),
    )
    system.sim.run_until(lambda: core.done, max_cycles=500_000, what="core")
    realm = system.realm("dma")
    snap = realm.region_snapshot(0)
    mem_port_channels = system.ports["core"].channels
    return (
        system.sim.cycle,
        core.execution_cycles,
        tuple(core.latencies),
        snap.total_bytes,
        snap.stall_cycles,
        snap.txn_count,
        snap.cycles_into_period,
        realm.mr.denied_by_budget,
        realm.isolation.blocked_aw + realm.isolation.blocked_ar,
        realm.isolated,
        tuple((ch.sent_total, ch.recv_total, ch.busy_cycles)
              for ch in mem_port_channels),
    )


def test_regulated_contention_is_cycle_identical():
    naive = _regulated_contention(active_set=False)
    active = _regulated_contention(active_set=True)
    assert naive == active


def _hog_with_snapshot_polling(active_set: bool):
    """Mid-run snapshot reads must see lazily-synced clocks/counters."""
    system = (
        SystemBuilder(active_set=active_set)
        .add_manager(
            "hog",
            granularity=1,
            regions=[RegionConfig(base=0, size=0x10000,
                                  budget_bytes=256, period_cycles=500)],
        )
        .add_sram("mem", base=0, size=0x10000)
        .build()
    )
    system.attach(
        "hog",
        lambda port: BandwidthHog(port, target_base=0, window=0x8000, beats=16),
    )
    realm = system.realm("hog")
    samples = []
    for _ in range(8):
        system.sim.run(333)  # deliberately not period-aligned
        snap = realm.region_snapshot(0)
        samples.append(
            (snap.total_bytes, snap.stall_cycles, snap.cycles_into_period,
             snap.bytes_this_period, realm.budget_exhausted, realm.isolated)
        )
    return samples


def test_mid_run_snapshots_are_cycle_identical():
    naive = _hog_with_snapshot_polling(active_set=False)
    active = _hog_with_snapshot_polling(active_set=True)
    assert naive == active


def _throttled_hog(active_set: bool, period: int):
    """Throttle-enabled regulation: the frozen-stall sleep must wake at
    every replenish edge (the throttle cap follows the budget fraction,
    which resets at the edge even when the region never depletes)."""
    system = (
        SystemBuilder(active_set=active_set)
        .add_manager(
            "hog", granularity=64, capacity=8, throttle=True,
            regions=[RegionConfig(base=0, size=0x10000,
                                  budget_bytes=2048, period_cycles=period)],
        )
        .add_sram("mem", base=0, size=0x10000, read_latency=60)
        .build()
    )
    system.attach(
        "hog",
        lambda port: BandwidthHog(port, target_base=0, window=0x8000,
                                  beats=64, max_outstanding=8),
    )
    system.sim.run(20_000)
    realm = system.realm("hog")
    snap = realm.region_snapshot(0)
    return (
        realm.mr.denied_by_throttle,
        realm.mr.denied_by_budget,
        snap.stall_cycles,
        snap.total_bytes,
        snap.cycles_into_period,
    )


@pytest.mark.parametrize("period", [105, 1000])
def test_throttled_regulation_is_cycle_identical(period):
    assert _throttled_hog(False, period) == _throttled_hog(True, period)


# ----------------------------------------------------------------------
# scenario-axis sweeps: the declarative campaign layer lets the
# equivalence suite cover far more of the configuration space than the
# original hand-coded period sweep — interconnect flavor x memory
# backend x (malicious) traffic mix, each diffed kernel-vs-kernel.
# ----------------------------------------------------------------------
def _axis_scenario(interconnect: str, memory: str, aggressor: str) -> dict:
    """One point of the equivalence grid in canonical scenario form."""
    managers = [
        {
            "name": "core",
            "granularity": 8,
            "regions": [{"base": 0x8000_0000, "size": 0x4_0000,
                         "budget_bytes": "unlimited",
                         "period_cycles": "unlimited"}],
        },
        {
            "name": "bad",
            "granularity": 1,
            "regions": [{"base": 0x8000_0000, "size": 0x4_0000,
                         "budget_bytes": 1024, "period_cycles": 400}],
        },
    ]
    memories = [{
        "name": "dram",
        "kind": memory,
        "base": 0x8000_0000,
        "size": 0x4_0000,
    }]
    if memory == "cached_dram":
        memories[0].update(llc_capacity=0x8000, llc_ways=4, front_capacity=4)
    topology: dict = {"interconnect": interconnect,
                      "managers": managers, "memories": memories}
    if interconnect == "noc":
        topology["noc"] = {"width": 3, "height": 2}
    aggressors = {
        "hog": {"kind": "hog", "target_base": 0x8000_0000,
                "window": 0x8000, "beats": 64},
        "trickler": {"kind": "trickler", "target": 0x8000_0000,
                     "beats": 8, "gap": 32},
        "dma": {"kind": "dma", "src_base": 0x8000_4000, "src_size": 0x4000,
                "dst_base": 0x8000_8000, "dst_size": 0x4000,
                "burst_beats": 64},
    }
    warm = []
    if memory == "cached_dram":
        warm = [{"cache": "llc", "base": 0x8000_0000, "size": 8192}]
    return {
        "scenario": {"name": "equiv-axis", "seed": 3},
        "run": {"horizon": 6_000},
        "topology": topology,
        "traffic": {
            "core": {"kind": "core", "pattern": "susan", "n_accesses": 200,
                     "base": 0x8000_0000, "footprint": 8192, "gap_mean": 3,
                     "beats": 2},
            "bad": aggressors[aggressor],
        },
        "warm": warm,
    }


AXIS_GRID = [
    ("crossbar", "cached_dram", "hog"),
    ("crossbar", "dram", "trickler"),
    ("noc", "cached_dram", "dma"),
    ("noc", "sram", "hog"),
    ("crossbar", "sram", "dma"),
]


# The full datapath grid: (active_set, batched).  ``(False, False)`` is
# the naive per-beat reference every other combination must match.
KERNEL_GRID = [(False, False), (False, True), (True, False), (True, True)]


@pytest.mark.parametrize("interconnect,memory,aggressor", AXIS_GRID)
def test_scenario_axes_are_cycle_identical(interconnect, memory, aggressor):
    spec = validate(_axis_scenario(interconnect, memory, aggressor))
    point = expand(spec)[0]
    reference = run_point(point, active_set=False, batched=False)
    for active_set, batched in KERNEL_GRID[1:]:
        result = run_point(point, active_set=active_set, batched=batched)
        combo = (active_set, batched)
        assert result.observables == reference.observables, combo
        assert result.latencies == reference.latencies, combo


@pytest.mark.parametrize(
    "name", [path.stem for path in sorted(SCENARIO_DIR.glob("*.toml"))]
)
def test_shipped_campaigns_are_cycle_identical(name):
    """Whole shipped campaigns (smoke scale) diffed kernel-vs-kernel and
    batched-vs-per-beat — independent of the checked-in goldens, so a
    stale golden can never mask an equivalence break."""
    spec = load_file(SCENARIO_DIR / f"{name}.toml")
    naive = run_campaign(spec, smoke=True, active_set=False)
    active = run_campaign(spec, smoke=True, active_set=True)
    per_beat = run_campaign(spec, smoke=True, active_set=True, batched=False)
    assert naive.digest() == active.digest()
    assert per_beat.digest() == active.digest()


# ----------------------------------------------------------------------
# batched-datapath burst edge cases: 1-beat and maximum-length bursts,
# bursts colliding with an arbitration hand-off mid-flight (a fragmenting
# REALM unit interleaves with a full-length burst at the AW arbiter), and
# a scheduled knob write landing mid-burst — each diffed over the whole
# (active_set, batched) grid.
# ----------------------------------------------------------------------
def _burst_collision(active_set, batched, beats_a, beats_b):
    system = (
        SystemBuilder(active_set=active_set, batched=batched)
        .with_crossbar()
        .add_manager("a")
        .add_manager(
            "b",
            granularity=min(beats_b, 16),
            regions=[RegionConfig(base=0, size=0x40000,
                                  budget_bytes=8192, period_cycles=600)],
        )
        .add_sram("mem", base=0, size=0x40000, capacity=4, read_latency=4)
        .build()
    )
    a = system.attach(
        "a",
        lambda port: DmaEngine(port, src_base=0x0, src_size=0x8000,
                               dst_base=0x10000, dst_size=0x8000,
                               burst_beats=beats_a),
    )
    b = system.attach(
        "b",
        lambda port: DmaEngine(port, src_base=0x8000, src_size=0x8000,
                               dst_base=0x18000, dst_size=0x8000,
                               burst_beats=beats_b),
    )
    system.sim.run(5_000)
    mem = system.memory("mem")
    return (
        system.sim.cycle,
        a.bytes_read, a.bytes_written, a.read_bursts, a.write_bursts,
        b.bytes_read, b.bytes_written, b.read_bursts, b.write_bursts,
        mem.reads_served, mem.writes_served,
        mem.read_beats, mem.write_beats,
        tuple(
            (ch.sent_total, ch.recv_total, ch.busy_cycles)
            for port in system.ports.values()
            for ch in port.channels
        ),
    )


@pytest.mark.parametrize(
    "beats_a,beats_b", [(1, 1), (256, 256), (256, 1), (64, 16)]
)
def test_burst_edges_are_cycle_identical(beats_a, beats_b):
    reference = _burst_collision(False, False, beats_a, beats_b)
    for active_set, batched in KERNEL_GRID[1:]:
        result = _burst_collision(active_set, batched, beats_a, beats_b)
        assert result == reference, (active_set, batched)


def _knob_mid_burst_scenario() -> dict:
    return {
        "scenario": {"name": "knob-mid-burst", "seed": 11},
        "run": {"horizon": 4_000},
        "topology": {
            "interconnect": "crossbar",
            "managers": [
                {"name": "core", "granularity": 8,
                 "regions": [{"base": 0, "size": 0x4_0000,
                              "budget_bytes": "unlimited",
                              "period_cycles": "unlimited"}]},
                {"name": "dma", "granularity": 256,
                 "regions": [{"base": 0, "size": 0x4_0000,
                              "budget_bytes": 65536,
                              "period_cycles": 1000}]},
            ],
            "memories": [{"name": "mem", "kind": "sram", "base": 0,
                          "size": 0x4_0000, "capacity": 4}],
        },
        "traffic": {
            "core": {"kind": "core", "pattern": "susan", "n_accesses": 60,
                     "base": 0, "footprint": 4096, "gap_mean": 6,
                     "beats": 2},
            "dma": {"kind": "dma", "src_base": 0x8000, "src_size": 0x8000,
                    "dst_base": 0x1_0000, "dst_size": 0x8000,
                    "burst_beats": 256},
        },
        "schedule": [
            # Cycle 777 lands inside a 256-beat burst middle: the budget
            # squeeze must bite at the same commit boundary on every
            # datapath, express routes notwithstanding.
            {"label": "squeeze", "at": 777,
             "set": {"realm.dma.region0.budget_bytes": 512}},
            # And a periodic sampler reads the probe counters mid-burst.
            {"label": "sample", "every": 333,
             "sample": ["realm.dma.region0.*", "port.dma.w.*"]},
        ],
    }


def test_knob_write_mid_burst_is_cycle_identical():
    spec = validate(_knob_mid_burst_scenario())
    point = expand(spec)[0]
    reference = run_point(point, active_set=False, batched=False)
    for active_set, batched in KERNEL_GRID[1:]:
        result = run_point(point, active_set=active_set, batched=batched)
        combo = (active_set, batched)
        assert result.observables == reference.observables, combo
        assert result.latencies == reference.latencies, combo

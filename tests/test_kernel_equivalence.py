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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.realm import RegionConfig
from repro.scenario import load_file, run_campaign, run_point, expand, validate
from repro.sim import Channel, Component, Simulator, drain
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


# ----------------------------------------------------------------------
# derived per-cycle counts: channel busy cycles and skipped ticks are
# functions of the clock, so every clock advance (step, fast-forward,
# span) agrees with the naive kernel's per-cycle commits by construction.
# ----------------------------------------------------------------------
def _busy_seen_by_a_watcher(active_set: bool):
    sim = Simulator(active_set=active_set)
    held = Channel(sim, "held")
    held.send("beat")  # committed by the first step; never consumed
    seen = []
    sim.add_watcher(lambda cycle: seen.append(held.busy_cycles))
    sim.run(10)
    return seen, sim.cycles_fast_forwarded


def test_watcher_reads_busy_cycles_during_a_fast_forward():
    naive, _ = _busy_seen_by_a_watcher(active_set=False)
    active, forwarded = _busy_seen_by_a_watcher(active_set=True)
    assert naive == list(range(1, 11))
    assert active == naive
    assert forwarded == 9  # the watcher really read inside the jump


class _Feeder(Component):
    """Sends whenever it can; sleeps while its channel is full."""

    def __init__(self, channel):
        super().__init__("feeder")
        self.channel = channel
        self.watch(channel)

    def tick(self, cycle):
        if self.channel.can_send():
            self.channel.send(cycle)

    def is_idle(self):
        return not self.channel.can_send()


def _drained_between_runs(active_set: bool) -> tuple:
    sim = Simulator(active_set=active_set)
    channel = Channel(sim, "fed", capacity=1)
    sim.add(_Feeder(channel))
    sim.run(5)
    drain(channel)  # a consume outside a step: a commit is owed
    sim.run(20)
    return channel.sent_total, channel.busy_cycles


def test_consume_outside_a_step_is_committed_before_a_fast_forward():
    naive = _drained_between_runs(active_set=False)
    assert naive == (2, 24)
    assert _drained_between_runs(active_set=True) == naive


def _drained_before_a_span(active_set: bool) -> tuple:
    sim = Simulator(active_set=active_set)
    system = (
        SystemBuilder(sim=sim)
        .add_manager("dma")
        .add_sram("mem", base=0, size=0x40000)
        .build()
    )
    system.attach(
        "dma",
        lambda port: DmaEngine(port, src_base=0x0, src_size=0x8000,
                               dst_base=0x10000, dst_size=0x8000,
                               burst_beats=256),
    )
    channel = Channel(sim, "fed", capacity=1)
    sim.add(_Feeder(channel))
    sim.run(300)  # the DMA streams: the next stretch could be a span
    drain(channel)
    sim.run(50)
    return (drain(channel), channel.busy_cycles), sim.spans_entered


def test_consume_outside_a_step_is_committed_before_a_span():
    naive, _ = _drained_before_a_span(active_set=False)
    assert naive == ([301], 349)  # the feeder refilled the next cycle
    active, spans = _drained_before_a_span(active_set=True)
    assert active == naive
    assert spans > 0


class _Pacer(Component):
    """Sends into (or receives from) one channel at most once every
    *period* cycles: asleep on a timer between turns, and on the channel
    while it is full (or empty)."""

    def __init__(self, name, channel, sends, period):
        super().__init__(name)
        self.channel = channel
        self.sends = sends
        self.period = period
        self.next_at = 0
        self.moved = 0
        self._idle = False
        self.watch(channel)

    def tick(self, cycle):
        channel = self.channel
        if cycle < self.next_at:
            self.wake_at(self.next_at)
            self._idle = True
            return
        ready = channel.can_send() if self.sends else channel.can_recv()
        if ready:
            if self.sends:
                channel.send(self.moved)
            else:
                channel.recv()
            self.moved += 1
            self.next_at = cycle + self.period
        self._idle = not ready

    def is_idle(self):
        return self._idle

    def state_capture(self):
        return {"next_at": self.next_at, "moved": self.moved}

    def state_restore(self, state):
        self.next_at = state["next_at"]
        self.moved = state["moved"]


_CHANNELS = 2

_PACER = st.tuples(
    st.just("add"), st.integers(0, _CHANNELS - 1), st.booleans(),
    st.integers(1, 4),
)
# Each generated step touches the machine, then runs it: a component
# added mid-run, a send or a receive outside a step, a capture, or a
# restore of the last capture.
_STEPS = st.tuples(
    st.one_of(
        _PACER,
        st.tuples(st.just("send"), st.integers(0, _CHANNELS - 1)),
        st.tuples(st.just("recv"), st.integers(0, _CHANNELS - 1)),
        st.tuples(st.just("capture")),
        st.tuples(st.just("restore")),
    ),
    st.integers(0, 30),
)


class _Machine:
    """One simulator driven by a generated program."""

    def __init__(self, active_set, capacities):
        self.sim = Simulator(active_set=active_set)
        self.channels = [
            Channel(self.sim, f"ch{i}", capacity)
            for i, capacity in enumerate(capacities)
        ]
        self.added_at = []
        self.saved = None

    def apply(self, step):
        sim = self.sim
        kind = step[0]
        if kind == "run":
            sim.run(step[1])
        elif kind == "add":
            _, index, sends, period = step
            name = f"pacer{len(self.added_at)}"
            sim.add(_Pacer(name, self.channels[index], sends, period))
            self.added_at.append(sim.cycle)
        elif kind == "send":
            channel = self.channels[step[1]]
            if channel.can_send():
                channel.send("outside")
        elif kind == "recv":
            channel = self.channels[step[1]]
            if channel.can_recv():
                channel.recv()
        elif kind == "capture":
            if not any(channel._pending for channel in self.channels):
                self.saved = (len(self.added_at), sim.checkpoint(),
                              self.counts())
        elif self.saved is not None and self.saved[0] == len(self.added_at):
            _, tree, counts = self.saved
            sim.restore_checkpoint(tree)
            assert self.counts() == counts

    def counts(self):
        return [
            (ch.busy_cycles, ch.sent_total, ch.recv_total)
            for ch in self.channels
        ]


@settings(max_examples=150, deadline=None)
@given(
    capacities=st.lists(st.integers(1, 3), min_size=_CHANNELS,
                        max_size=_CHANNELS),
    pacers=st.lists(_PACER, min_size=1, max_size=3),
    program=st.lists(_STEPS, min_size=1, max_size=12),
)
def test_derived_counts_match_the_naive_kernel(capacities, pacers, program):
    """Busy cycles and message counts equal the naive kernel's at every
    commit boundary of a generated program, and the tick slots of every
    registered component are either executed or skipped."""
    naive = _Machine(False, capacities)
    active = _Machine(True, capacities)
    steps = pacers + [
        step for touch, cycles in program for step in (touch, ("run", cycles))
    ]
    for step in steps:
        naive.apply(step)
        active.apply(step)
        assert active.sim.cycle == naive.sim.cycle, step
        assert active.counts() == naive.counts(), step
        assert naive.sim.ticks_skipped == 0
        for machine in (naive, active):
            sim = machine.sim
            slots = sum(sim.cycle - added for added in machine.added_at)
            assert sim.ticks_executed + sim.ticks_skipped == slots, step

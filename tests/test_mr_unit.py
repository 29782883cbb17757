"""Direct tests for the monitoring & regulation stage."""

import pytest

from repro.axi import ARBeat, AWBeat, BBeat, RBeat
from repro.realm import (
    MonitorRegulationStage,
    RegionConfig,
    RegionState,
    ThrottleUnit,
    WireBundle,
)


class Harness:
    def __init__(self, regions=None, throttle=None):
        self.up = WireBundle("up")
        self.down = WireBundle("down")
        regions = regions or [
            RegionState(RegionConfig(0, 0x10000, 1 << 40, 1 << 40))
        ]
        self.mr = MonitorRegulationStage(
            self.up, self.down, regions, throttle=throttle
        )
        self.cycle = 0

    def step(self, drain=True):
        self.mr.on_cycle(self.cycle)
        self.mr.tick_request(self.cycle)
        self.mr.tick_response(self.cycle)
        if drain:
            for name in ("aw", "w", "ar"):
                wire = getattr(self.down, name)
                if wire.can_recv():
                    wire.recv()
            for name in ("b", "r"):
                wire = getattr(self.up, name)
                if wire.can_recv():
                    wire.recv()
        self.cycle += 1


def test_region_index_matches_first_region():
    h = Harness(regions=[
        RegionState(RegionConfig(0x0, 0x100, 100, 1000)),
        RegionState(RegionConfig(0x100, 0x100, 100, 1000)),
    ])
    assert h.mr.region_index(0x50) == 0
    assert h.mr.region_index(0x150) == 1
    assert h.mr.region_index(0x999) is None


def test_budget_charged_per_burst_bytes():
    h = Harness(regions=[RegionState(RegionConfig(0, 0x10000, 100, 10_000))])
    h.up.ar.send(ARBeat(id=0, addr=0, beats=4, size=3))  # 32 B
    h.step()
    assert h.mr.regions[0].remaining == 68
    snap = h.mr.region_snapshot(0)
    assert snap.read_bytes == 32


def test_depleted_region_blocks_and_counts_denials():
    h = Harness(regions=[RegionState(RegionConfig(0, 0x10000, 8, 10_000))])
    h.up.ar.send(ARBeat(id=0, addr=0, beats=1, size=3))
    h.step()
    assert h.mr.budget_exhausted
    h.up.ar.send(ARBeat(id=1, addr=0, beats=1, size=3))
    h.step()
    h.step()
    assert h.mr.denied_by_budget >= 1
    assert h.mr.stalled_this_cycle or h.mr.denied_by_budget > 0


def test_latency_recorded_on_b_and_r_last():
    h = Harness()
    h.up.aw.send(AWBeat(id=3, addr=0, beats=1, size=3))
    h.step()
    for _ in range(5):
        h.step()
    h.down.b.send(BBeat(id=3))
    h.step()
    snap = h.mr.region_snapshot(0)
    assert snap.txn_count == 1
    assert snap.latency_max >= 5
    assert h.mr.outstanding == 0


def test_read_latency_on_last_beat_only():
    h = Harness()
    h.up.ar.send(ARBeat(id=1, addr=0, beats=2, size=3))
    h.step()
    h.down.r.send(RBeat(id=1, last=False))
    h.step()
    assert h.mr.region_snapshot(0).txn_count == 0
    h.down.r.send(RBeat(id=1, last=True))
    h.step()
    assert h.mr.region_snapshot(0).txn_count == 1


def test_throttle_denies_beyond_cap():
    throttle = ThrottleUnit(max_outstanding=1, enabled=True)
    h = Harness(throttle=throttle)
    h.up.ar.send(ARBeat(id=0, addr=0, beats=1, size=3))
    h.step()
    h.up.ar.send(ARBeat(id=1, addr=0, beats=1, size=3))
    h.step()
    assert h.mr.denied_by_throttle >= 1
    assert h.mr.outstanding == 1
    h.down.r.send(RBeat(id=0, last=True))
    h.step()
    h.step()
    assert h.mr.outstanding == 1  # second AR admitted after the first


def test_regulation_disabled_admits_everything():
    h = Harness(regions=[RegionState(RegionConfig(0, 0x10000, 0, 10_000))])
    h.mr.regulation_enabled = False
    h.up.ar.send(ARBeat(id=0, addr=0, beats=1, size=3))
    h.step()
    assert h.mr.denied_by_budget == 0
    assert not h.mr.budget_exhausted


def test_unmatched_response_id_ignored():
    h = Harness()
    h.down.b.send(BBeat(id=9))  # no tracked request
    h.step()
    assert h.mr.region_snapshot(0).txn_count == 0


def test_period_rollover_resets_books():
    h = Harness(regions=[RegionState(RegionConfig(0, 0x10000, 64, 10))])
    h.up.ar.send(ARBeat(id=0, addr=0, beats=1, size=3))
    h.step()
    assert h.mr.region_snapshot(0).bytes_this_period == 8
    for _ in range(12):
        h.step()
    assert h.mr.region_snapshot(0).bytes_this_period == 0
    assert h.mr.regions[0].periods_elapsed >= 1

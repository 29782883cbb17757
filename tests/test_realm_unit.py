"""Integration tests for the full REALM unit (driver -> realm -> SRAM),
and a differential test of its per-tick fast paths against a generic
reference unit."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.realm import (
    RealmUnit,
    RealmUnitParams,
    RegionConfig,
    UNLIMITED,
)
from repro.axi import AxiBundle, Resp
from repro.mem import SramMemory
from repro.sim import Simulator
from repro.traffic.driver import ManagerDriver

from helpers import (
    ScriptedManager,
    ScriptedSubordinate,
    TrafficLog,
    build_realm_system,
)


def finish(sim, drv, max_cycles=100_000):
    sim.run_until(lambda: drv.idle, max_cycles=max_cycles, what="driver")


# ----------------------------------------------------------------------
# transparent data path
# ----------------------------------------------------------------------
def test_passthrough_read_write(sim):
    drv, realm, sram = build_realm_system(sim)
    payload = bytes(range(8))
    drv.write(0x100, payload)
    op = drv.read(0x100)
    finish(sim, drv)
    assert op.resp == Resp.OKAY
    assert op.rdata == payload


def test_burst_roundtrip_with_fragmentation(sim):
    drv, realm, sram = build_realm_system(sim)
    realm.set_granularity(4)
    payload = bytes(i & 0xFF for i in range(16 * 8))
    drv.write(0x0, payload, beats=16)
    op = drv.read(0x0, beats=16)
    finish(sim, drv)
    assert op.rdata == payload
    # 16-beat bursts at granularity 4: each burst split into 4 fragments.
    assert realm.splitter.bursts_split == 2
    assert sram.reads_served == 4  # four fragment bursts at the memory


def test_single_b_response_after_coalescing(sim):
    """The manager sees exactly one B per original write burst."""
    drv, realm, sram = build_realm_system(sim)
    realm.set_granularity(1)
    op = drv.write(0x0, bytes(64), beats=8)
    finish(sim, drv)
    assert op.done
    assert sram.writes_served == 8  # 8 fragments downstream
    assert len(drv.completed) == 1  # 1 response upstream


def test_r_last_gating_presents_single_burst(sim):
    """Fragmented reads come back as one continuous R burst upstream."""
    drv, realm, sram = build_realm_system(sim)
    realm.set_granularity(2)
    op = drv.read(0x0, beats=8)
    finish(sim, drv)
    assert op.done
    assert len(op.rdata) == 64  # all 8 beats of data arrived
    assert sram.reads_served == 4


def test_added_latency_is_small(sim):
    """REALM adds one registered hop per direction over a direct link."""
    # Direct: driver -> SRAM.
    sim_direct = Simulator()
    port = AxiBundle(sim_direct, "direct")
    SramMemory_direct = SramMemory(port, base=0, size=0x1000)
    sim_direct.add(SramMemory_direct)
    drv_direct = sim_direct.add(ManagerDriver(port))
    op_direct = drv_direct.read(0x0)
    sim_direct.run_until(lambda: drv_direct.idle, max_cycles=1000, what="drv")

    drv, realm, sram = build_realm_system(sim)
    op = drv.read(0x0)
    finish(sim, drv)
    added = op.latency - op_direct.latency
    assert 1 <= added <= 2


# ----------------------------------------------------------------------
# budget / period regulation
# ----------------------------------------------------------------------
def test_budget_depletion_blocks_until_replenish(sim):
    drv, realm, sram = build_realm_system(sim)
    realm.configure_region(
        0, RegionConfig(base=0, size=0x10000, budget_bytes=64, period_cycles=200)
    )
    # 8 single-beat reads of 8 B each = 64 B: first period's budget.
    ops = [drv.read(i * 8) for i in range(8)]
    blocked = drv.read(0x800)  # 9th access must wait for the next period
    finish(sim, drv, max_cycles=3000)
    first_period_done = [op.done_cycle for op in ops]
    assert max(first_period_done) < 200
    assert blocked.done_cycle >= 200  # served only after replenish


def test_regulation_disabled_never_blocks(sim):
    drv, realm, sram = build_realm_system(sim)
    realm.configure_region(
        0, RegionConfig(base=0, size=0x10000, budget_bytes=8, period_cycles=10_000)
    )
    realm.set_regulation_enabled(False)
    ops = [drv.read(i * 8) for i in range(4)]
    finish(sim, drv, max_cycles=2000)
    assert all(op.done for op in ops)
    assert sim.cycle < 2000


def test_unmatched_address_not_charged(sim):
    drv, realm, sram = build_realm_system(sim)
    realm.configure_region(
        0, RegionConfig(base=0, size=0x100, budget_bytes=8, period_cycles=100_000)
    )
    # Accesses outside the region flow freely and spend no budget.
    for i in range(4):
        drv.read(0x1000 + i * 8)
    finish(sim, drv, max_cycles=5000)
    assert realm.mr.regions[0].remaining == 8
    assert not realm.budget_exhausted
    # An in-region access then depletes it and isolates the manager.
    drv.read(0x0)
    finish(sim, drv, max_cycles=5000)
    sim.run(5)
    assert realm.budget_exhausted
    assert realm.isolated


def test_two_regions_independent_budgets(sim):
    params = RealmUnitParams(n_regions=2)
    drv, realm, sram = build_realm_system(sim, params=params)
    realm.configure_region(
        0, RegionConfig(base=0x0, size=0x1000, budget_bytes=8, period_cycles=500)
    )
    realm.configure_region(
        1, RegionConfig(base=0x1000, size=0x1000, budget_bytes=UNLIMITED,
                        period_cycles=UNLIMITED)
    )
    a = drv.read(0x0)  # depletes region 0
    finish(sim, drv, max_cycles=5000)
    # Region 0 depleted isolates the whole manager (paper: "if at least one
    # of the regions has no budget left, the manager interface is isolated").
    b = drv.read(0x1000)
    sim.run(50)
    assert not b.done
    finish(sim, drv, max_cycles=5000)
    assert b.done  # replenish at period boundary unblocks


def test_budget_exhausted_engages_isolation(sim):
    drv, realm, sram = build_realm_system(sim)
    realm.configure_region(
        0, RegionConfig(base=0, size=0x10000, budget_bytes=8, period_cycles=400)
    )
    drv.read(0x0)
    sim.run(100)
    assert realm.budget_exhausted
    assert realm.isolated  # drained and cut off
    finish(sim, drv, max_cycles=2000)


# ----------------------------------------------------------------------
# user isolation
# ----------------------------------------------------------------------
def test_user_isolation_blocks_new_transactions(sim):
    drv, realm, sram = build_realm_system(sim)
    realm.set_user_isolate(True)
    op = drv.read(0x0)
    sim.run(200)
    assert not op.done
    assert realm.isolated
    assert realm.isolation.blocked_ar > 0


def test_user_isolation_lets_outstanding_complete(sim):
    drv, realm, sram = build_realm_system(sim)
    op = drv.read(0x0, beats=64)
    sim.run(10)  # transaction is in flight
    realm.set_user_isolate(True)
    finish(sim, drv, max_cycles=2000)
    assert op.done  # outstanding transaction completed
    assert realm.isolated


def test_release_isolation_resumes_traffic(sim):
    drv, realm, sram = build_realm_system(sim)
    realm.set_user_isolate(True)
    op = drv.read(0x0)
    sim.run(100)
    assert not op.done
    realm.set_user_isolate(False)
    finish(sim, drv, max_cycles=2000)
    assert op.done


# ----------------------------------------------------------------------
# intrusive reconfiguration
# ----------------------------------------------------------------------
def test_granularity_reconfig_drains_first(sim):
    drv, realm, sram = build_realm_system(sim)
    drv.read(0x0, beats=32)
    sim.run(5)
    realm.set_granularity(2)
    # The change is pending until the unit drains.
    assert realm.config.granularity != 2 or realm.isolated
    finish(sim, drv, max_cycles=5000)
    sim.run(10)
    assert realm.config.granularity == 2
    assert not realm.isolated  # released after applying
    # New transactions flow at the new granularity.
    drv.read(0x0, beats=8)
    finish(sim, drv, max_cycles=5000)
    assert realm.splitter.bursts_split >= 1


def test_granularity_validation(sim):
    drv, realm, sram = build_realm_system(sim)
    with pytest.raises(ValueError):
        realm.set_granularity(0)
    with pytest.raises(ValueError):
        realm.set_granularity(257)
    # Granularity above the write buffer depth is legal: the write path is
    # clamped to the buffer depth while reads fragment at the full value.
    realm.set_granularity(32)
    sim.run(5)
    assert realm.granularity == 32
    assert realm.granularity_aw == realm.params.write_buffer_depth


def test_region_reconfig_applies_after_drain(sim):
    drv, realm, sram = build_realm_system(sim)
    cfg = RegionConfig(base=0x0, size=0x10000, budget_bytes=512,
                       period_cycles=1000)
    realm.configure_region(0, cfg)
    sim.run(5)
    assert realm.mr.regions[0].config.budget_bytes == 512


def test_region_index_validation(sim):
    drv, realm, sram = build_realm_system(sim)
    with pytest.raises(IndexError):
        realm.configure_region(7, RegionConfig())


# ----------------------------------------------------------------------
# monitoring
# ----------------------------------------------------------------------
def test_bookkeeping_tracks_bytes_and_txns(sim):
    drv, realm, sram = build_realm_system(sim)
    realm.configure_region(
        0, RegionConfig(base=0, size=0x10000, budget_bytes=UNLIMITED,
                        period_cycles=UNLIMITED)
    )
    drv.read(0x0, beats=4)  # 32 B
    drv.write(0x100, bytes(8))  # 8 B
    finish(sim, drv)
    sim.run(5)
    snap = realm.region_snapshot(0)
    assert snap.read_bytes == 32
    assert snap.write_bytes == 8
    assert snap.total_bytes == 40
    assert snap.txn_count == 2


def test_bookkeeping_latency_visible(sim):
    drv, realm, sram = build_realm_system(sim)
    realm.configure_region(
        0, RegionConfig(base=0, size=0x10000, budget_bytes=UNLIMITED,
                        period_cycles=UNLIMITED)
    )
    op = drv.read(0x0)
    finish(sim, drv)
    sim.run(5)
    snap = realm.region_snapshot(0)
    assert snap.txn_count == 1
    # Latency at the M&R egress is smaller than the end-to-end latency.
    assert 0 < snap.latency_max <= op.latency
    assert snap.latency_min <= snap.latency_avg <= snap.latency_max


def test_throttle_enabled_limits_outstanding(sim):
    params = RealmUnitParams(max_pending=4)
    drv, realm, sram = build_realm_system(sim, params=params)
    realm.configure_region(
        0, RegionConfig(base=0, size=0x10000, budget_bytes=10_000,
                        period_cycles=100_000)
    )
    realm.set_throttle_enabled(True)
    for i in range(6):
        drv.read(i * 8)
    finish(sim, drv, max_cycles=10_000)
    assert all(op.done for op in drv.completed)


# ----------------------------------------------------------------------
# per-tick fast paths == the generic reference
# ----------------------------------------------------------------------
class _ReferenceRealm(RealmUnit):
    """Reference unit: the FSM re-asserts both isolation triggers every
    tick, the period clocks always take the generic catch-up, and
    emptiness is tested through the stage properties."""

    def _fsm(self):
        iso = self.isolation
        if self.config.user_isolate:
            iso.request_isolate("user")
        else:
            iso.release("user")
        if self.mr.budget_exhausted:
            iso.request_isolate("budget")
        else:
            iso.release("budget")
        super()._fsm()  # triggers settled: only the reconfiguration runs

    def _unit_empty(self):
        wb = self.write_buffer
        return not (
            any(w.occupancy for link in self._links for w in link.channels)
            or wb.occupancy
            or wb.buffered_bursts
        )


def _generic_clocks(mr):
    def advance(n):
        for region, book in zip(mr.regions, mr.books):
            if region.advance_cycles(n):
                book.on_period_rollover()
                book.cycles_into_period = region.cycles_into_period + 1
            else:
                book.cycles_into_period += n
    return advance


@st.composite
def realm_cases(draw):
    """Bursts around the splitter granularity, a budget that depletes
    and replenishes, and control writes at drawn cycles."""
    op = st.tuples(
        st.integers(0, 250),  # issue cycle
        st.sampled_from("rw"),
        st.integers(0, 0x1F).map(lambda line: line * 0x100),  # address
        st.sampled_from([1, 2, 4, 8, 16, 32, 64]),  # beats
        st.integers(0, 3),  # id
    )
    ops = sorted(draw(st.lists(op, min_size=2, max_size=10)))
    control = st.tuples(
        st.integers(1, 400),
        st.sampled_from(["isolate", "release", "granularity", "region",
                         "splitter"]),
        st.sampled_from([1, 4, 16, 256]),
    )
    return {
        "ops": [(c, kind, addr, beats, tid, 0)
                for c, kind, addr, beats, tid in ops],
        "write_buffer": draw(st.booleans()),
        "granularity": draw(st.sampled_from([1, 4, 16, 256])),
        # Region 0 covers half the addresses: the rest is never charged.
        "budget": draw(st.sampled_from([64, 256, 2048, UNLIMITED])),
        "period": draw(st.sampled_from([50, 200, UNLIMITED])),
        "control": sorted(draw(st.lists(control, max_size=4))),
        "seed": draw(st.integers(0, 1 << 16)),
        "mgr_stall": draw(st.sampled_from([0, 30, 60])),
        "sub_stall": draw(st.sampled_from([0, 30, 60])),
    }


def _realm_bench(case, unit_cls, active_set):
    sim = Simulator(active_set=active_set)
    up, down = AxiBundle(sim, "up"), AxiBundle(sim, "down")
    unit = sim.add(unit_cls(
        up, down, RealmUnitParams(write_buffer_present=case["write_buffer"])
    ))
    if unit_cls is _ReferenceRealm:
        unit.mr._advance_clocks = _generic_clocks(unit.mr)
    unit.set_granularity(case["granularity"])
    unit.configure_region(0, RegionConfig(
        base=0, size=0x1000, budget_bytes=case["budget"],
        period_cycles=case["period"],
    ))
    sim.add(ScriptedManager(up, case["ops"], case["seed"], 1,
                            case["mgr_stall"]))
    sim.add(ScriptedSubordinate(down, case["seed"], 7, case["sub_stall"]))
    return sim, unit, TrafficLog(sim, (up, down))


def _status(unit):
    """The unit's synced status views: what a register read returns."""
    return (unit.blocked_aw, unit.blocked_ar, unit.denied_by_budget,
            unit.denied_by_throttle, unit.region_snapshot(0))


def _control(unit, action, value):
    if action == "isolate":
        unit.set_user_isolate(True)
    elif action == "release":
        unit.set_user_isolate(False)
    elif action == "granularity":
        unit.set_granularity(value)
    elif action == "region":
        unit.configure_region(0, RegionConfig(
            base=0, size=0x1000, budget_bytes=value * 8, period_cycles=100,
        ))
    else:
        unit.set_splitter_enabled(not unit.config.splitter_enabled)


@settings(max_examples=30, deadline=None)
@given(realm_cases())
def test_realm_fast_paths_match_the_generic_reference(case):
    """Change-only FSM triggers, the one-cycle clock path and the direct
    emptiness and idleness tests leave the channel traffic and the
    unit's captured state equal to the generic reference at every
    commit boundary: split and unsplit bursts, write buffer on and off,
    budget depletion and replenishment, user-isolation toggles,
    intrusive reconfiguration mid-burst, and back-pressure on both
    sides.  Captured state is compared on the same kernel.  Traffic on
    either kernel, and the synced status views after the run, are
    compared with the reference on the naive kernel, where nothing
    sleeps, so a sleep that ``is_idle`` allows wrongly shows too."""
    benches = {
        (cls, active_set): _realm_bench(case, cls, active_set)
        for cls in (RealmUnit, _ReferenceRealm)
        for active_set in (True, False)
    }
    oracle_log = benches[_ReferenceRealm, False][2]
    control = list(case["control"])
    for cycle in range(500):
        while control and control[0][0] == cycle:
            _, action, value = control.pop(0)
            for _, unit, _ in benches.values():
                _control(unit, action, value)
        for sim, _, _ in benches.values():
            sim.run(1)
        for active_set in (True, False):
            _, unit, log = benches[RealmUnit, active_set]
            _, ref, _ = benches[_ReferenceRealm, active_set]
            assert log.events == oracle_log.events, (cycle, active_set)
            assert unit.state_capture() == ref.state_capture(), (
                cycle, active_set)
    # A unit that slept through a counted stall would report fewer
    # blocked or denied cycles through its synced status views.
    oracle = _status(benches[_ReferenceRealm, False][1])
    for active_set in (True, False):
        assert _status(benches[RealmUnit, active_set][1]) == oracle, (
            active_set)
    assert oracle_log.events, "the case moved no beat"

"""Tests for the configuration register file and the bus guard."""

import pytest

from repro.realm import (
    BusGuardError,
    NO_OWNER,
    RealmRegisterFile,
    RegisterError,
    RegionConfig,
)
from repro.realm import register_file as rf

from helpers import build_realm_system


HWROT_TID = 0x10
CVA6_TID = 0x20
EVIL_TID = 0x66


def make_regfile(sim):
    drv, realm, sram = build_realm_system(sim)
    regfile = RealmRegisterFile([realm])
    return drv, realm, regfile


# ----------------------------------------------------------------------
# bus guard
# ----------------------------------------------------------------------
def test_unclaimed_space_rejects_everything(sim):
    _, _, regfile = make_regfile(sim)
    with pytest.raises(BusGuardError, match="unclaimed"):
        regfile.read(rf.unit_base(0) + rf.CTRL, tid=CVA6_TID)
    with pytest.raises(BusGuardError):
        regfile.write(rf.unit_base(0) + rf.GRANULARITY, 4, tid=CVA6_TID)


def test_guard_register_claims_ownership(sim):
    _, _, regfile = make_regfile(sim)
    assert regfile.read(0x0, tid=CVA6_TID) == NO_OWNER
    regfile.write(0x0, CVA6_TID, tid=CVA6_TID)
    assert regfile.guard.owner == CVA6_TID
    # Now the owner can access config registers.
    value = regfile.read(rf.unit_base(0) + rf.CTRL, tid=CVA6_TID)
    assert value & rf.CTRL_REGULATION_EN


def test_non_owner_rejected_after_claim(sim):
    _, _, regfile = make_regfile(sim)
    regfile.write(0x0, HWROT_TID, tid=HWROT_TID)
    with pytest.raises(BusGuardError, match="not the owner"):
        regfile.read(rf.unit_base(0) + rf.CTRL, tid=EVIL_TID)
    assert regfile.guard.rejected_accesses >= 1


def test_handover_transfers_ownership(sim):
    _, _, regfile = make_regfile(sim)
    regfile.write(0x0, HWROT_TID, tid=HWROT_TID)  # HWRoT claims at boot
    regfile.write(0x0, CVA6_TID, tid=HWROT_TID)  # hands over to CVA6
    assert regfile.guard.owner == CVA6_TID
    assert regfile.guard.handovers == 1
    regfile.read(rf.unit_base(0) + rf.STATUS, tid=CVA6_TID)
    with pytest.raises(BusGuardError):
        regfile.read(rf.unit_base(0) + rf.STATUS, tid=HWROT_TID)


def test_non_owner_cannot_hand_over(sim):
    _, _, regfile = make_regfile(sim)
    regfile.write(0x0, HWROT_TID, tid=HWROT_TID)
    with pytest.raises(BusGuardError):
        regfile.write(0x0, EVIL_TID, tid=EVIL_TID)


# ----------------------------------------------------------------------
# register map
# ----------------------------------------------------------------------
def claimed_regfile(sim):
    drv, realm, regfile = make_regfile(sim)
    regfile.write(0x0, CVA6_TID, tid=CVA6_TID)
    return drv, realm, regfile


def test_ctrl_register_roundtrip(sim):
    _, realm, regfile = claimed_regfile(sim)
    addr = rf.unit_base(0) + rf.CTRL
    regfile.write(addr, rf.CTRL_REGULATION_EN | rf.CTRL_THROTTLE_EN, tid=CVA6_TID)
    value = regfile.read(addr, tid=CVA6_TID)
    assert value & rf.CTRL_THROTTLE_EN
    assert realm.config.throttle_enabled


def test_granularity_write_goes_through_reconfig(sim):
    _, realm, regfile = claimed_regfile(sim)
    regfile.write(rf.unit_base(0) + rf.GRANULARITY, 4, tid=CVA6_TID)
    sim.run(10)  # drain + apply
    assert regfile.read(rf.unit_base(0) + rf.GRANULARITY, tid=CVA6_TID) == 4


def test_status_register_read_only(sim):
    _, realm, regfile = claimed_regfile(sim)
    with pytest.raises(RegisterError, match="read-only"):
        regfile.write(rf.unit_base(0) + rf.STATUS, 1, tid=CVA6_TID)


def test_region_config_via_registers(sim):
    _, realm, regfile = claimed_regfile(sim)
    base = rf.unit_base(0) + rf.region_base(0)
    regfile.write(base + rf.REGION_BASE, 0x0, tid=CVA6_TID)
    regfile.write(base + rf.REGION_SIZE, 0x10000, tid=CVA6_TID)
    regfile.write(base + rf.BUDGET, 4096, tid=CVA6_TID)
    regfile.write(base + rf.PERIOD, 1000, tid=CVA6_TID)
    sim.run(10)
    assert regfile.read(base + rf.REGION_SIZE, tid=CVA6_TID) == 0x10000
    assert regfile.read(base + rf.BUDGET, tid=CVA6_TID) == 4096
    assert regfile.read(base + rf.PERIOD, tid=CVA6_TID) == 1000


def test_statistics_registers_update(sim):
    drv, realm, regfile = claimed_regfile(sim)
    base = rf.unit_base(0) + rf.region_base(0)
    regfile.write(base + rf.REGION_BASE, 0x0, tid=CVA6_TID)
    regfile.write(base + rf.REGION_SIZE, 0x10000, tid=CVA6_TID)
    sim.run(10)
    drv.read(0x0, beats=4)
    sim.run_until(lambda: drv.idle, max_cycles=1000, what="driver")
    sim.run(5)
    assert regfile.read(base + rf.STAT_TOTAL_BYTES, tid=CVA6_TID) == 32
    assert regfile.read(base + rf.STAT_TXN_COUNT, tid=CVA6_TID) == 1
    assert regfile.read(base + rf.STAT_LATENCY_MAX, tid=CVA6_TID) > 0
    assert regfile.read(base + rf.STAT_BANDWIDTH_MILLI, tid=CVA6_TID) >= 0


def test_unmapped_offsets_raise(sim):
    _, realm, regfile = claimed_regfile(sim)
    with pytest.raises(RegisterError):
        regfile.read(rf.unit_base(5) + rf.CTRL, tid=CVA6_TID)  # no unit 5
    with pytest.raises(RegisterError):
        regfile.read(rf.unit_base(0) + 0x999, tid=CVA6_TID)


def test_regfile_needs_units():
    with pytest.raises(ValueError):
        RealmRegisterFile([])


def test_outstanding_register(sim):
    drv, realm, regfile = claimed_regfile(sim)
    assert regfile.read(rf.unit_base(0) + rf.OUTSTANDING, tid=CVA6_TID) == 0


# ----------------------------------------------------------------------
# error paths: offsets, guard rejections, knob-path equivalence
# ----------------------------------------------------------------------
def test_out_of_range_unit_offsets(sim):
    _, realm, regfile = claimed_regfile(sim)
    # Offsets below the first unit block (but not the guard register).
    with pytest.raises(RegisterError, match="maps to no unit"):
        regfile.read(0x8, tid=CVA6_TID)
    with pytest.raises(RegisterError, match="maps to no unit"):
        regfile.write(0x8, 1, tid=CVA6_TID)
    # One past the last mapped unit.
    beyond = rf.unit_base(len(regfile.units))
    with pytest.raises(RegisterError, match="maps to no unit"):
        regfile.read(beyond + rf.CTRL, tid=CVA6_TID)


def test_out_of_range_region_offsets(sim):
    _, realm, regfile = claimed_regfile(sim)
    beyond = rf.unit_base(0) + rf.region_base(realm.params.n_regions)
    with pytest.raises(RegisterError, match="maps to no region"):
        regfile.read(beyond + rf.BUDGET, tid=CVA6_TID)
    with pytest.raises(RegisterError, match="maps to no region"):
        regfile.write(beyond + rf.BUDGET, 1, tid=CVA6_TID)
    # A hole between the unit registers and the first region block.
    with pytest.raises(RegisterError):
        regfile.read(rf.unit_base(0) + 0x20, tid=CVA6_TID)


def test_statistics_registers_are_read_only(sim):
    _, realm, regfile = claimed_regfile(sim)
    base = rf.unit_base(0) + rf.region_base(0)
    for stat in (rf.STAT_BYTES_PERIOD, rf.STAT_TOTAL_BYTES,
                 rf.STAT_TXN_COUNT, rf.STAT_LATENCY_MAX,
                 rf.STAT_STALL_CYCLES, rf.STAT_BANDWIDTH_MILLI):
        with pytest.raises(RegisterError, match="read-only|unmapped"):
            regfile.write(base + stat, 1, tid=CVA6_TID)
    with pytest.raises(RegisterError, match="read-only"):
        regfile.write(rf.unit_base(0) + rf.OUTSTANDING, 1, tid=CVA6_TID)


def test_guard_rejections_do_not_touch_register_state(sim):
    _, realm, regfile = claimed_regfile(sim)
    budget = rf.unit_base(0) + rf.region_base(0) + rf.BUDGET
    regfile.write(budget, 4096, tid=CVA6_TID)
    rejected = regfile.guard.rejected_accesses
    with pytest.raises(BusGuardError):
        regfile.write(budget, 1, tid=EVIL_TID)
    assert regfile.guard.rejected_accesses == rejected + 1
    assert regfile.read(budget, tid=CVA6_TID) == 4096


def test_knob_path_writes_match_raw_register_writes():
    """The control plane's knob route and a raw guarded write must land
    on the same register state, bit for bit."""
    from repro.sim import Simulator
    from repro.system import SystemBuilder

    def build():
        return (
            SystemBuilder(Simulator())
            .add_manager("mgr", protect=True)
            .add_manager("other")
            .add_sram("mem", base=0x0, size=0x10000)
            .build()
        )

    knob_side, raw_side = build(), build()
    writes = [
        (rf.region_base(0) + rf.BUDGET, "realm.mgr.region0.budget_bytes",
         2048),
        (rf.region_base(0) + rf.PERIOD, "realm.mgr.region0.period_cycles",
         750),
        (rf.region_base(0) + rf.REGION_SIZE, "realm.mgr.region0.size",
         0x8000),
        (rf.GRANULARITY, "realm.mgr.granularity", 16),
    ]
    raw_side.regfile.write(0x0, CVA6_TID, tid=CVA6_TID)
    for offset, path, value in writes:
        knob_side.control.set(path, value)
        raw_side.regfile.write(rf.unit_base(0) + offset, value, tid=CVA6_TID)
    knob_side.sim.run(20)  # intrusive writes drain + apply
    raw_side.sim.run(20)
    for offset, path, value in writes:
        raw = raw_side.regfile._read(rf.unit_base(0) + offset)
        via_knob = knob_side.regfile._read(rf.unit_base(0) + offset)
        assert via_knob == raw == value
        assert knob_side.control.get(path) == value

"""Tests for the register-bus adapter and a modelled boot flow."""

import pytest

from repro.realm import RealmRegisterFile
from repro.realm import register_file as rf
from repro.realm.regbus import RegbusAdapter, RegbusRequester
from repro.sim import Simulator

from helpers import build_realm_system

HWROT = 0x1
CVA6 = 0x2
EVIL = 0x66


def make(sim):
    drv, realm, sram = make_parts = build_realm_system(sim)
    regfile = RealmRegisterFile([realm])
    adapter = sim.add(RegbusAdapter(sim, regfile))
    return realm, regfile, adapter


def settle(sim, requester, max_cycles=1000):
    sim.run_until(lambda: requester.idle, max_cycles=max_cycles,
                  what="regbus requester")


def test_guarded_read_write_over_the_bus(sim):
    realm, regfile, adapter = make(sim)
    boot = sim.add(RegbusRequester(adapter, tid=HWROT))
    t_claim = boot.write(0x0, HWROT)
    t_read = boot.read(rf.unit_base(0) + rf.CTRL)
    settle(sim, boot)
    assert boot.response_for(t_claim).ok
    rsp = boot.response_for(t_read)
    assert rsp.ok
    assert rsp.data & rf.CTRL_REGULATION_EN


def test_unclaimed_access_gets_error_response(sim):
    realm, regfile, adapter = make(sim)
    rogue = sim.add(RegbusRequester(adapter, tid=EVIL))
    tag = rogue.read(rf.unit_base(0) + rf.CTRL)
    settle(sim, rogue)
    rsp = rogue.response_for(tag)
    assert not rsp.ok
    assert "unclaimed" in rsp.error
    assert adapter.errors == 1


def test_boot_flow_hwrot_claims_then_hands_to_cva6(sim):
    """The paper's proposed flow: the HWRoT claims the config space during
    boot and hands ownership over to the host core."""
    realm, regfile, adapter = make(sim)
    hwrot = sim.add(RegbusRequester(adapter, tid=HWROT))
    cva6 = sim.add(RegbusRequester(adapter, tid=CVA6))

    hwrot.write(0x0, HWROT)  # claim at boot
    settle(sim, hwrot)
    # CVA6 cannot configure yet.
    denied = cva6.write(rf.unit_base(0) + rf.GRANULARITY, 4)
    settle(sim, cva6)
    assert not cva6.response_for(denied).ok

    hwrot.write(0x0, CVA6)  # handover
    settle(sim, hwrot)
    allowed = cva6.write(rf.unit_base(0) + rf.GRANULARITY, 4)
    settle(sim, cva6)
    assert cva6.response_for(allowed).ok
    sim.run(10)  # drain + apply the intrusive change
    assert realm.config.granularity == 4


def test_one_access_per_latency_window(sim):
    realm, regfile, adapter = make(sim)
    boot = sim.add(RegbusRequester(adapter, tid=HWROT))
    boot.write(0x0, HWROT)
    for _ in range(4):
        boot.read(rf.unit_base(0) + rf.STATUS)
    settle(sim, boot)
    assert adapter.accesses == 5
    assert len(boot.responses) == 5


def test_adapter_validates_latency(sim):
    realm, regfile, _ = make(sim)
    with pytest.raises(ValueError):
        RegbusAdapter(sim, regfile, latency=-1)

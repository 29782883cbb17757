"""Unit tests for the scripted manager driver and AXI port bundles."""

import pytest

from repro.axi import AxiBundle, Resp
from repro.mem import SramMemory
from repro.sim import Simulator
from repro.traffic import ManagerDriver
from repro.traffic.driver import Op


def make():
    sim = Simulator()
    port = AxiBundle(sim, "p")
    sram = sim.add(SramMemory(port, base=0, size=0x1000))
    drv = sim.add(ManagerDriver(port))
    return sim, drv


def test_ops_complete_in_order():
    sim, drv = make()
    ops = [drv.read(i * 8) for i in range(4)]
    sim.run_until(lambda: drv.idle, max_cycles=1000, what="driver")
    done = [op.done_cycle for op in ops]
    assert done == sorted(done)
    assert drv.completed == ops


def test_pending_ops_counter():
    sim, drv = make()
    drv.read(0x0)
    drv.read(0x8)
    assert drv.pending_ops == 2
    sim.run_until(lambda: drv.idle, max_cycles=1000, what="driver")
    assert drv.pending_ops == 0


def test_latency_requires_completion():
    sim, drv = make()
    op = drv.read(0x0)
    with pytest.raises(RuntimeError):
        _ = op.latency
    sim.run_until(lambda: drv.idle, max_cycles=1000, what="driver")
    assert op.latency > 0


def test_write_without_data_is_timing_only():
    sim, drv = make()
    op = drv.write(0x0, None, beats=4)
    sim.run_until(lambda: drv.idle, max_cycles=1000, what="driver")
    assert op.resp == Resp.OKAY


def test_write_data_padded_to_beat():
    sim, drv = make()
    drv.write(0x0, b"ab", beats=1)  # 2 bytes into an 8-byte beat
    op = drv.read(0x0)
    sim.run_until(lambda: drv.idle, max_cycles=1000, what="driver")
    assert op.rdata == b"ab" + bytes(6)


def test_txn_tags_unique_and_monotonic():
    sim, drv = make()
    ops = [drv.read(0) for _ in range(3)]
    sim.run_until(lambda: drv.idle, max_cycles=1000, what="driver")
    tags = [op.txn for op in ops]
    assert tags == sorted(tags)
    assert len(set(tags)) == 3


def test_bundle_idle_and_channel_groups():
    sim = Simulator()
    b = AxiBundle(sim, "b")
    assert b.idle()
    assert len(b.channels) == 5
    assert b.aw in b.request_channels
    assert b.r in b.response_channels
    b.ar.send(object())
    assert not b.idle()

"""Tests for the mesh NoC and REALM-at-NoC-ingress (Figure 1b)."""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi import ARBeat, AWBeat, AxiBundle, Resp, WBeat
from repro.interconnect import AddressMap
from repro.interconnect.noc import AxiNoc, Flit, _MeshNetwork, _Router
from repro.mem import SramMemory
from repro.realm import RealmUnit, RealmUnitParams, RegionConfig
from repro.sim import SimulationError, Simulator
from repro.system import SystemBuilder
from repro.traffic import ManagerDriver

# Fixed-seed hypothesis profile: the same examples on every run.
FIXED = settings(max_examples=150, deadline=None, derandomize=True,
                 database=None)
DIRECTIONS = _Router.DIRECTIONS


def build_noc(sim, width=3, height=3, n_managers=2):
    """Managers on the left column, two SRAMs on the right column."""
    mgr_nodes = [(0, i) for i in range(n_managers)]
    sub_nodes = [(width - 1, 0), (width - 1, 1)]
    managers = {node: AxiBundle(sim, f"m{node}") for node in mgr_nodes}
    subs = {node: AxiBundle(sim, f"s{node}") for node in sub_nodes}
    amap = AddressMap()
    amap.add_range(0x0000, 0x1000, port=0, name="mem0")
    amap.add_range(0x1000, 0x1000, port=1, name="mem1")
    noc = sim.add(AxiNoc(width, height, managers, subs, amap))
    mems = [
        sim.add(SramMemory(subs[sub_nodes[0]], base=0x0, size=0x1000, name="mem0")),
        sim.add(SramMemory(subs[sub_nodes[1]], base=0x1000, size=0x1000, name="mem1")),
    ]
    drivers = [sim.add(ManagerDriver(managers[n], name=f"drv{n}"))
               for n in mgr_nodes]
    return noc, drivers, mems, managers


def finish(sim, drivers, max_cycles=50_000):
    sim.run_until(lambda: all(d.idle for d in drivers),
                  max_cycles=max_cycles, what="drivers")


def test_read_write_roundtrip_across_mesh(sim):
    noc, drivers, mems, _ = build_noc(sim)
    payload = bytes(range(8))
    drivers[0].write(0x100, payload)
    op = drivers[0].read(0x100)
    finish(sim, drivers)
    assert op.resp == Resp.OKAY
    assert op.rdata == payload


def test_burst_integrity_across_mesh(sim):
    noc, drivers, mems, _ = build_noc(sim)
    payload = bytes(i & 0xFF for i in range(16 * 8))
    drivers[0].write(0x200, payload, beats=16)
    op = drivers[0].read(0x200, beats=16)
    finish(sim, drivers)
    assert op.rdata == payload


def test_two_managers_two_subordinates(sim):
    noc, drivers, mems, _ = build_noc(sim)
    a = drivers[0].write(0x100, bytes([1] * 8))
    b = drivers[1].write(0x1100, bytes([2] * 8))
    finish(sim, drivers)
    ra = drivers[0].read(0x100)
    rb = drivers[1].read(0x1100)
    finish(sim, drivers)
    assert ra.rdata == bytes([1] * 8)
    assert rb.rdata == bytes([2] * 8)


def test_responses_routed_to_correct_manager(sim):
    noc, drivers, mems, _ = build_noc(sim)
    for i, drv in enumerate(drivers):
        drv.write(0x300 + i * 8, bytes([i + 1] * 8))
    finish(sim, drivers)
    ops = [drv.read(0x300 + i * 8) for i, drv in enumerate(drivers)]
    finish(sim, drivers)
    for i, op in enumerate(ops):
        assert op.rdata == bytes([i + 1] * 8)


def test_decode_miss_gets_decerr(sim):
    noc, drivers, mems, _ = build_noc(sim)
    op_r = drivers[0].read(0x8000)
    finish(sim, drivers)
    assert op_r.resp == Resp.DECERR
    op_w = drivers[0].write(0x8000, bytes(8))
    finish(sim, drivers)
    assert op_w.resp == Resp.DECERR


def test_latency_scales_with_hop_count(sim):
    """A farther subordinate costs more cycles (per-hop routing)."""
    noc, drivers, mems, _ = build_noc(sim, width=5)
    near = drivers[0].read(0x0)  # routes to (4,0) ... both far; compare nets
    finish(sim, drivers)
    # Build a second, smaller mesh and compare.
    sim2 = Simulator()
    noc2, drivers2, mems2, _ = build_noc(sim2, width=2)
    near2 = drivers2[0].read(0x0)
    finish(sim2, drivers2)
    assert near.latency > near2.latency


def test_interleaved_w_data_reordered_at_subordinate(sim):
    """Two managers writing the same subordinate concurrently must both
    complete with intact data (the NI serialises in AW order)."""
    noc, drivers, mems, _ = build_noc(sim)
    a = drivers[0].write(0x400, bytes([0xAA] * 32), beats=4)
    b = drivers[1].write(0x500, bytes([0xBB] * 32), beats=4)
    finish(sim, drivers)
    ra = drivers[0].read(0x400, beats=4)
    rb = drivers[1].read(0x500, beats=4)
    finish(sim, drivers)
    assert ra.rdata == bytes([0xAA] * 32)
    assert rb.rdata == bytes([0xBB] * 32)


def test_noc_validates_nodes():
    sim = Simulator()
    m = {(0, 0): AxiBundle(sim, "m")}
    s = {(9, 9): AxiBundle(sim, "s")}
    with pytest.raises(ValueError):
        AxiNoc(2, 2, m, s, AddressMap())
    with pytest.raises(ValueError):
        AxiNoc(2, 2, {}, {(0, 0): AxiBundle(sim, "x")}, AddressMap())
    with pytest.raises(ValueError):
        AxiNoc(2, 2, {(0, 0): AxiBundle(sim, "a")},
               {(0, 0): AxiBundle(sim, "b")}, AddressMap())


def test_realm_unit_at_noc_ingress(sim):
    """Figure 1b: a REALM unit regulates a manager entering the NoC."""
    width, height = 3, 2
    mgr_up = AxiBundle(sim, "mgr")
    mgr_down = AxiBundle(sim, "mgr.noc")
    realm = sim.add(RealmUnit(mgr_up, mgr_down, RealmUnitParams()))
    sub = AxiBundle(sim, "sub")
    amap = AddressMap()
    amap.add_range(0x0, 0x1000, port=0)
    noc = sim.add(
        AxiNoc(width, height, {(0, 0): mgr_down}, {(2, 0): sub}, amap)
    )
    sim.add(SramMemory(sub, base=0, size=0x1000))
    drv = sim.add(ManagerDriver(mgr_up))

    realm.set_granularity(2)
    realm.configure_region(
        0, RegionConfig(base=0, size=0x1000, budget_bytes=64,
                        period_cycles=600)
    )
    payload = bytes(range(64))
    drv.write(0x0, payload, beats=8)  # 64 B: exactly one period's budget
    blocked = drv.read(0x0, beats=8)  # next 64 B must wait for replenish
    sim.run_until(lambda: drv.idle, max_cycles=20_000, what="driver")
    assert blocked.rdata == payload
    assert blocked.done_cycle >= 600
    assert realm.splitter.bursts_split == 2


def test_noc_flit_counter(sim):
    noc, drivers, mems, _ = build_noc(sim)
    drivers[0].read(0x0)
    finish(sim, drivers)
    assert noc.flits_injected >= 1


# ----------------------------------------------------------------------
# decode misses at the manager NI (2x1 mesh, driven beat by beat)
# ----------------------------------------------------------------------
def build_raw_noc(sim):
    """Manager port at (0,0), an SRAM mapped at 0x0 behind (1,0)."""
    port = AxiBundle(sim, "m")
    sub = AxiBundle(sim, "s")
    amap = AddressMap()
    amap.add_range(0x0, 0x1000, port=0, name="mem")
    sim.add(AxiNoc(2, 1, {(0, 0): port}, {(1, 0): sub}, amap))
    sim.add(SramMemory(sub, base=0x0, size=0x1000))
    return port


def step_until(sim, predicate, limit=500):
    for _ in range(limit):
        if predicate():
            return
        sim.step()
    raise AssertionError("condition not reached")


def drain(sim, channel, count, limit=500):
    """Receive *count* beats from *channel*, stepping as needed."""
    beats = []
    for _ in range(limit):
        while channel.can_recv() and len(beats) < count:
            beats.append(channel.recv())
        if len(beats) == count:
            sim.step()
            assert not channel.can_recv(), "more beats than expected"
            return beats
        sim.step()
    raise AssertionError(f"got {len(beats)} of {count} beats")


def test_decode_miss_read_gets_one_decerr_beat_per_beat(sim):
    port = build_raw_noc(sim)
    port.ar.send(ARBeat(id=3, addr=0x8000, beats=4, size=3, txn=11))
    beats = drain(sim, port.r, 4)
    assert [b.resp for b in beats] == [Resp.DECERR] * 4
    assert [b.last for b in beats] == [False, False, False, True]
    assert {(b.id, b.txn) for b in beats} == {(3, 11)}


def test_decode_miss_write_b_carries_the_aw_id(sim):
    port = build_raw_noc(sim)
    port.aw.send(AWBeat(id=7, addr=0x8000, beats=2, size=3, txn=5))
    port.w.send(WBeat(data=bytes(8)))
    sim.step()
    port.w.send(WBeat(data=bytes(8), last=True))
    (b,) = drain(sim, port.b, 1)
    assert (b.id, b.resp, b.txn) == (7, Resp.DECERR, 5)


def test_decode_miss_read_waits_for_a_full_r_channel(sim):
    port = build_raw_noc(sim)
    port.ar.send(ARBeat(id=1, addr=0x0, beats=4, size=3))
    step_until(sim, lambda: len(port.r._queue) == port.r.capacity)
    port.ar.send(ARBeat(id=2, addr=0x8000, beats=1, size=3))
    sim.run(20)  # the manager does not drain r meanwhile
    beats = drain(sim, port.r, 5)
    mapped = [b for b in beats if b.id == 1]
    unmapped = [b for b in beats if b.id == 2]
    assert [b.resp for b in mapped] == [Resp.OKAY] * 4
    assert [b.last for b in mapped] == [False, False, False, True]
    assert [(b.resp, b.last) for b in unmapped] == [(Resp.DECERR, True)]


def test_decode_miss_write_waits_for_a_full_b_channel(sim):
    port = build_raw_noc(sim)
    for i in range(port.b.capacity):
        step_until(sim, lambda: port.aw.can_send() and port.w.can_send())
        port.aw.send(AWBeat(id=i, addr=0x100 * i, beats=1, size=3))
        port.w.send(WBeat(data=bytes(8), last=True))
    step_until(sim, lambda: len(port.b._queue) == port.b.capacity)
    port.aw.send(AWBeat(id=7, addr=0x8000, beats=1, size=3))
    port.w.send(WBeat(data=bytes(8), last=True))
    sim.run(20)  # the manager does not drain b meanwhile
    beats = drain(sim, port.b, port.b.capacity + 1)
    assert [(b.id, b.resp) for b in beats] == [
        (0, Resp.OKAY), (1, Resp.OKAY), (7, Resp.DECERR)
    ]


# ----------------------------------------------------------------------
# batched routing == reference routing
# ----------------------------------------------------------------------
def scanned_occupancy(router):
    queued = sum(len(queue) for queue in router.inputs.values())
    return queued + sum(flit is not None for flit in router.staged.values())


@st.composite
def router_states(draw):
    """A router somewhere in a random mesh, in a random state."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 4))
    node = (draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
    dests = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    serial = itertools.count()

    def flit():
        return Flit(draw(dests), "w", next(serial), node)

    state = {
        "inputs": {
            d: [flit() for _ in range(draw(st.integers(0, depth)))]
            for d in DIRECTIONS
        },
        "arbiters": {d: draw(st.integers(0, 4)) for d in DIRECTIONS},
        "staged": {
            d: flit() if draw(st.booleans()) else None for d in DIRECTIONS
        },
        "flits_routed": draw(st.integers(0, 50)),
    }
    return width, height, depth, node, state


@FIXED
@given(router_states())
def test_route_batched_matches_reference_route(case):
    width, height, depth, node, state = case
    ref, fast = (
        _MeshNetwork(width, height, depth).router(node) for _ in range(2)
    )
    ref.state_restore(copy.deepcopy(state))
    fast.state_restore(copy.deepcopy(state))
    ref.route()
    fast.route_batched()
    assert fast.state_capture() == ref.state_capture()
    assert fast.held == ref.held == scanned_occupancy(fast)


@st.composite
def mesh_runs(draw):
    """Random per-cycle inject and eject sequences on a random mesh."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 4))
    depth = draw(st.integers(1, 3))
    nodes = st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))
    cycle = st.tuples(
        st.lists(st.tuples(nodes, nodes), max_size=6),  # (src, dest)
        st.lists(nodes, max_size=6),  # eject attempts
    )
    return width, height, depth, draw(st.lists(cycle, min_size=1, max_size=40))


@FIXED
@given(mesh_runs())
def test_batched_mesh_step_matches_reference(run):
    width, height, depth, cycles = run
    ref = _MeshNetwork(width, height, depth)
    fast = _MeshNetwork(width, height, depth)
    for n, (injects, ejects) in enumerate(cycles):
        for i, (src, dest) in enumerate(injects):
            flit = Flit(dest, "w", (n, i), src)
            assert ref.inject(src, flit) == fast.inject(src, copy.copy(flit))
        for node in ejects:
            assert ref.eject(node) == fast.eject(node)
        ref.step(batched=False)
        fast.step(batched=True)
        ref_state, fast_state = ref.state_capture(), fast.state_capture()
        # The active set is batched bookkeeping: the reference never prunes.
        del ref_state["active"], fast_state["active"]
        assert fast_state == ref_state
        for net in (ref, fast):
            for router in net.routers.values():
                assert router.held == scanned_occupancy(router)
            assert net.flits == sum(r.held for r in net.routers.values())
        assert fast._active == {
            node for node, router in fast.routers.items() if router.held
        }


def test_route_table_rejects_routes_off_the_mesh(monkeypatch):
    monkeypatch.setattr(_Router, "_output_for", lambda self, flit: "west")
    with pytest.raises(SimulationError, match="off the mesh edge"):
        _MeshNetwork(2, 2)


@pytest.mark.parametrize("batched", [True, False])
def test_occupancy_probe_reads_the_held_count(batched):
    system = (
        SystemBuilder(batched=batched)
        .with_noc(3, 2, router_depth=2)
        .add_manager("a", driver=True)
        .add_manager("b", driver=True)
        .add_sram("mem0", base=0x0, size=0x1000)
        .add_sram("mem1", base=0x1000, size=0x1000)
        .build()
    )
    for i, name in enumerate(("a", "b")):
        drv = system.driver(name)
        for k in range(4):
            drv.write(0x1000 * (k % 2) + 0x100 * i, bytes(64), beats=8)
            drv.read(0x1000 * ((k + i) % 2), beats=8)
    noc = system.interconnect
    seen = 0
    for _ in range(3000):
        system.sim.step()
        for (x, y), req in noc.request_net.routers.items():
            rsp = noc.response_net.routers[(x, y)]
            expected = scanned_occupancy(req) + scanned_occupancy(rsp)
            assert system.control.read(f"noc.r{x}c{y}.occupancy") == expected
            seen += expected
        if all(drv.idle for drv in system.drivers.values()):
            break
    else:
        raise AssertionError("drivers did not finish")
    assert seen > 0

"""Integration tests for the crossbar (managers x subordinates, DECERR,
round-robin fairness, W-channel reservation DoS), and a differential
test against a scanning reference model on every kernel and datapath."""

import dataclasses
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi import ARBeat, AxiBundle, AWBeat, BBeat, RBeat, Resp, WBeat
from repro.axi.idspace import IdMap
from repro.baselines.qos400 import QosArbiter
from repro.interconnect import AddressMap, AxiCrossbar
from repro.interconnect.arbiter import RoundRobinArbiter
from repro.mem import SramMemory
from repro.sim import Component, Simulator
from repro.traffic.driver import ManagerDriver

from helpers import (
    ScriptedManager,
    ScriptedSubordinate,
    TrafficLog,
    build_simple_system,
    run_all,
)


def build_two_sub_system(sim, n_managers=2):
    mgr_ports = [AxiBundle(sim, f"m{i}") for i in range(n_managers)]
    sub_ports = [AxiBundle(sim, f"s{i}") for i in range(2)]
    amap = AddressMap()
    amap.add_range(0x0000, 0x1000, port=0, name="mem0")
    amap.add_range(0x1000, 0x1000, port=1, name="mem1")
    xbar = sim.add(AxiCrossbar(mgr_ports, sub_ports, amap))
    mems = [
        sim.add(SramMemory(sub_ports[0], base=0x0000, size=0x1000, name="mem0")),
        sim.add(SramMemory(sub_ports[1], base=0x1000, size=0x1000, name="mem1")),
    ]
    drivers = [sim.add(ManagerDriver(p, name=f"drv{i}"))
               for i, p in enumerate(mgr_ports)]
    return drivers, xbar, mems


def test_single_manager_read_write_through_xbar(sim):
    drivers, xbar, sram = build_simple_system(sim, n_managers=1)
    drv = drivers[0]
    drv.write(0x10, bytes(range(8)))
    op = drv.read(0x10)
    run_all(sim, drivers)
    assert op.resp == Resp.OKAY
    assert op.rdata == bytes(range(8))


def test_two_managers_to_two_subordinates_parallel(sim):
    drivers, xbar, mems = build_two_sub_system(sim)
    a = drivers[0].read(0x0, beats=16)
    b = drivers[1].read(0x1000, beats=16)
    run_all(sim, drivers)
    # Different subordinates: latencies should be equal (no interference).
    assert abs(a.latency - b.latency) <= 1


def test_two_managers_same_subordinate_serialized(sim):
    drivers, xbar, mems = build_two_sub_system(sim)
    a = drivers[0].read(0x0, beats=64)
    b = drivers[1].read(0x0, beats=64)
    run_all(sim, drivers)
    # Same subordinate: one of them waits for the other's burst.
    slower = max(a.latency, b.latency)
    faster = min(a.latency, b.latency)
    assert slower >= faster + 60


def test_decode_miss_read_returns_decerr(sim):
    drivers, xbar, sram = build_simple_system(sim, n_managers=1)
    op = drivers[0].read(0x8000, beats=4)
    run_all(sim, drivers)
    assert op.resp == Resp.DECERR
    assert xbar.decode_errors == 1


def test_decode_miss_write_returns_decerr(sim):
    drivers, xbar, sram = build_simple_system(sim, n_managers=1)
    op = drivers[0].write(0x8000, bytes(8))
    run_all(sim, drivers)
    assert op.resp == Resp.DECERR


def test_decerr_read_has_correct_beat_count(sim):
    drivers, xbar, sram = build_simple_system(sim, n_managers=1)
    op = drivers[0].read(0x8000, beats=7)
    run_all(sim, drivers)
    # The driver only completes when it sees r.last on beat 7.
    assert op.done


def test_responses_routed_to_correct_manager(sim):
    drivers, xbar, sram = build_simple_system(sim, n_managers=3)
    pattern = {}
    for i, drv in enumerate(drivers):
        payload = bytes([i + 1] * 8)
        drv.write(0x100 + i * 8, payload)
        pattern[i] = payload
    run_all(sim, drivers)
    ops = []
    for i, drv in enumerate(drivers):
        op = drv.read(0x100 + i * 8)
        ops.append(op)
    run_all(sim, drivers)
    for i, op in enumerate(ops):
        assert op.rdata == pattern[i], f"manager {i} got wrong data"


def test_id_prefix_roundtrip_preserves_manager_id(sim):
    drivers, xbar, sram = build_simple_system(sim, n_managers=2)
    op = drivers[1].read(0x0, id=5)
    run_all(sim, drivers)
    assert op.done  # response matched by driver on its own port


def test_round_robin_fairness_many_bursts(sim):
    """Two managers issuing equal bursts to one subordinate get ~equal
    completion counts over time (burst-granular round-robin)."""
    drivers, xbar, sram = build_simple_system(sim, n_managers=2)
    for _ in range(10):
        drivers[0].read(0x0, beats=8)
        drivers[1].read(0x0, beats=8)
    run_all(sim, drivers)
    done0 = [op.done_cycle for op in drivers[0].completed]
    done1 = [op.done_cycle for op in drivers[1].completed]
    # Interleaved completion: neither manager finishes all before the other.
    assert done0[-1] > done1[0] and done1[-1] > done0[0]


def test_long_burst_delays_short_access(sim):
    """Burst-granular arbitration: a 256-beat burst ahead of a single-beat
    access delays it by roughly the burst length (the paper's worst case)."""
    drivers, xbar, sram = build_simple_system(sim, n_managers=2, sram_size=0x4000)
    solo = drivers[0].read(0x0)
    run_all(sim, drivers)
    base = solo.latency

    burst = drivers[1].read(0x0, beats=256)
    victim = drivers[0].read(0x8)
    run_all(sim, drivers)
    # The victim access waits for most of the 256-beat burst.
    assert victim.latency > base + 200


class _StallingWriter(Component):
    """Sends AW, then *never* sends W data: the W-channel DoS attacker."""

    def __init__(self, port):
        super().__init__("staller")
        self.port = port
        self._sent = False

    def tick(self, cycle):
        if not self._sent and self.port.aw.can_send():
            self.port.aw.send(AWBeat(id=0, addr=0x0, beats=16, size=3))
            self._sent = True


def test_w_channel_reservation_dos(sim):
    """Without REALM, a manager that wins AW arbitration and withholds its
    write data blocks every other manager's writes to that subordinate."""
    mgr_ports = [AxiBundle(sim, "attacker"), AxiBundle(sim, "victim")]
    sub_port = AxiBundle(sim, "s0")
    amap = AddressMap()
    amap.add_range(0x0, 0x1000, port=0)
    sim.add(AxiCrossbar(mgr_ports, [sub_port], amap))
    sim.add(SramMemory(sub_port, base=0, size=0x1000))
    sim.add(_StallingWriter(mgr_ports[0]))
    victim = sim.add(ManagerDriver(mgr_ports[1], name="victim"))
    op = victim.write(0x100, bytes(8))
    sim.run(2000)
    assert not op.done, "victim write completed despite W-channel DoS"


def test_crossbar_validates_ports():
    sim = Simulator()
    with pytest.raises(ValueError):
        AxiCrossbar([], [AxiBundle(sim, "s")], AddressMap())


def test_crossbar_counters(sim):
    drivers, xbar, sram = build_simple_system(sim, n_managers=1)
    drivers[0].read(0x0)
    drivers[0].write(0x0, bytes(8))
    run_all(sim, drivers)
    assert xbar.ar_forwarded == 1
    assert xbar.aw_forwarded == 1


# ----------------------------------------------------------------------
# blocked-state sleep
# ----------------------------------------------------------------------
def test_crossbar_sleeps_behind_a_full_channel_and_wakes_on_its_commit():
    """The only waiting AR sits behind a full subordinate AR channel: the
    crossbar leaves the active set, and the commit that frees the channel
    brings it back, which forwards the AR the cycle after."""
    sim = Simulator()
    mgr, sub = AxiBundle(sim, "m"), AxiBundle(sim, "s")
    amap = AddressMap()
    amap.add_range(0x0, 0x1000, port=0)
    xbar = sim.add(AxiCrossbar([mgr], [sub], amap))
    for tid in range(3):  # the subordinate never pops: two fill s.ar
        while not mgr.ar.can_send():
            sim.step()
        mgr.ar.send(ARBeat(id=tid, addr=0x0, beats=1, size=3))
    while len(sub.ar._queue) < 2 or not mgr.ar._queue:
        sim.step()
    sim.step()
    assert xbar not in sim.active_components
    assert [beat.id for beat in sub.ar._queue] == [0 << 8 | 0, 0 << 8 | 1]
    sub.ar.recv()  # frees space: owed a commit at the next step
    sim.step()
    assert xbar in sim.active_components
    assert xbar.ar_forwarded == 2
    sim.step()
    assert xbar.ar_forwarded == 3
    assert not mgr.ar._queue


# ----------------------------------------------------------------------
# differential test against a scanning reference model
# ----------------------------------------------------------------------
class _ScanningCrossbar(Component):
    """The crossbar's per-beat semantics as a plain scan: every pass
    builds full request vectors from the live head beats and calls
    ``grant``.  Never sleeps and installs no express orders."""

    def __init__(self, managers, subs, amap, qos_arbitration):
        super().__init__("scan")
        self.managers, self.subs, self.amap = managers, subs, amap
        self.idmap = IdMap(8)
        n_mgr, n_sub = len(managers), len(subs)
        if qos_arbitration:
            self.arb = {
                name: [QosArbiter(n_mgr, self._priority(name))
                       for _ in subs]
                for name in ("aw", "ar")
            }
        else:
            self.arb = {
                name: [RoundRobinArbiter(n_mgr) for _ in subs]
                for name in ("aw", "ar")
            }
        for name in ("b", "r"):
            self.arb[name] = [RoundRobinArbiter(n_sub + 1) for _ in managers]
        self.err = {"b": [deque() for _ in managers],
                    "r": [deque() for _ in managers]}
        self.err_w_ids = [deque() for _ in managers]
        self.w_order = [deque() for _ in subs]
        self.w_route = [deque() for _ in managers]
        self.r_lock = [None] * n_mgr

    def _priority(self, name):
        def priority(mi):
            channel = getattr(self.managers[mi], name)
            return channel.peek().qos if channel.can_recv() else 0
        return priority

    def tick(self, cycle):
        self._route_addr("aw")
        self._route_w()
        self._route_addr("ar")
        self._route_response("b")
        self._route_response("r")

    def _route_addr(self, name):
        heads = []
        for mi, mgr in enumerate(self.managers):
            channel = getattr(mgr, name)
            dest = None
            if channel.can_recv():
                dest = self.amap.decode(channel.peek().addr)
                if dest is None:  # decode miss: absorbed, DECERR later
                    beat = channel.recv()
                    if name == "aw":
                        self.w_route[mi].append(None)
                        self.err_w_ids[mi].append(beat.id)
                    else:
                        self.err["r"][mi].extend(
                            RBeat(id=beat.id, resp=Resp.DECERR,
                                  last=i == beat.beats - 1, txn=beat.txn)
                            for i in range(beat.beats)
                        )
            heads.append(dest)
        for si, sub in enumerate(self.subs):
            out = getattr(sub, name)
            if not out.can_send():
                continue
            granted = self.arb[name][si].grant([d == si for d in heads])
            if granted is None:
                continue
            beat = getattr(self.managers[granted], name).recv().copy()
            beat.id = self.idmap.compose(granted, beat.id)
            out.send(beat)
            if name == "aw":
                self.w_order[si].append(granted)
                self.w_route[granted].append(si)
            heads[granted] = None

    def _route_w(self):
        for mi, mgr in enumerate(self.managers):
            if not mgr.w.can_recv() or not self.w_route[mi]:
                continue
            dest = self.w_route[mi][0]
            if dest is None:
                if mgr.w.recv().last:
                    self.w_route[mi].popleft()
                    self.err["b"][mi].append(BBeat(
                        id=self.err_w_ids[mi].popleft(), resp=Resp.DECERR
                    ))
                continue
            if self.w_order[dest][0] != mi or not self.subs[dest].w.can_send():
                continue
            beat = mgr.w.recv()
            self.subs[dest].w.send(beat)
            if beat.last:
                self.w_route[mi].popleft()
                self.w_order[dest].popleft()

    def _route_response(self, name):
        n_sub = len(self.subs)
        errors = self.err[name]
        for mi, mgr in enumerate(self.managers):
            out = getattr(mgr, name)
            if not out.can_send():
                continue

            def ready(src):
                if src == n_sub:
                    return bool(errors[mi])
                channel = getattr(self.subs[src], name)
                return (channel.can_recv()
                        and self.idmap.manager_of(channel.peek().id) == mi)

            src = self.r_lock[mi] if name == "r" else None
            if src is None:
                src = self.arb[name][mi].grant(
                    [ready(s) for s in range(n_sub + 1)]
                )
                if src is None:
                    continue
                if name == "r":
                    self.r_lock[mi] = src
            elif not ready(src):
                continue
            if src == n_sub:
                beat = errors[mi].popleft()
            else:
                raw = getattr(self.subs[src], name).recv()
                beat = dataclasses.replace(
                    raw, id=self.idmap.inner_of(raw.id)
                )
            out.send(beat)
            if name == "r" and beat.last:
                self.r_lock[mi] = None


@st.composite
def crossbar_cases(draw):
    """2-4 managers and 1-3 subordinates of 0x1000 bytes each; target
    ``n_sub`` is the address hole above them (decode miss).  Deeper
    channels leave room after a send, so a head the pass left behind
    can still move next cycle."""
    n_mgr = draw(st.integers(2, 4))
    n_sub = draw(st.integers(1, 3))
    op = st.tuples(
        st.integers(0, 40),  # issue cycle: overlapping bursts
        st.sampled_from(draw(st.sampled_from(["rw", "rww", "rrw"]))),
        st.integers(0, n_sub),  # target subordinate, n_sub = hole
        st.sampled_from([1, 1, 2, 3, 8]),  # beats: dense B traffic
        st.integers(0, 3),  # id
        st.integers(0, 3),  # qos
    )
    scripts, stalls = [], []
    for _ in range(n_mgr):
        stalls.append((draw(st.sampled_from([0, 30, 60])),  # W
                       draw(st.sampled_from([0, 30, 60, 90]))))  # B, R
        raw = sorted(draw(st.lists(op, min_size=1, max_size=8)))
        scripts.append([
            (cycle, kind, target * 0x1000 + 8 * i, beats, tid, qos)
            for i, (cycle, kind, target, beats, tid, qos) in enumerate(raw)
        ])
    return {
        "n_sub": n_sub,
        "scripts": scripts,
        "qos": draw(st.booleans()),
        "seed": draw(st.integers(0, 1 << 16)),
        "stalls": stalls,
        "sub_stall": draw(st.sampled_from([0, 30, 60])),
        "capacity": draw(st.sampled_from([1, 2, 4])),
    }


def _crossbar_traffic(case, *, reference=False, active_set=True,
                      batched=True, cycles=400):
    sim = Simulator(active_set=active_set, batched=batched)
    cap = case["capacity"]
    managers = [AxiBundle(sim, f"m{i}", capacity=cap)
                for i in range(len(case["scripts"]))]
    subs = [AxiBundle(sim, f"s{i}", capacity=cap)
            for i in range(case["n_sub"])]
    amap = AddressMap()
    for si in range(case["n_sub"]):
        amap.add_range(si * 0x1000, 0x1000, port=si)
    if reference:
        sim.add(_ScanningCrossbar(managers, subs, amap, case["qos"]))
    else:
        sim.add(AxiCrossbar(managers, subs, amap,
                            qos_arbitration=case["qos"]))
    seed = case["seed"]
    for i, (port, ops, (w_stall, rsp_stall)) in enumerate(
        zip(managers, case["scripts"], case["stalls"])
    ):
        sim.add(ScriptedManager(port, ops, seed, 10 * i, w_stall, rsp_stall,
                                name=f"drv{i}"))
    for i, port in enumerate(subs):
        sim.add(ScriptedSubordinate(port, seed, 100 + 10 * i,
                                    case["sub_stall"], name=f"mem{i}"))
    log = TrafficLog(sim, managers + subs)
    for si, name, beat in case.get("inject", ()):
        getattr(subs[si], name).send(beat)
    sim.run(cycles)
    return sorted(log.events)


@settings(max_examples=120, deadline=None)
@given(crossbar_cases())
def test_crossbar_matches_scanning_reference_on_every_datapath(case):
    """Decode-once routing, sole-requester grants and blocked-state
    sleep move the same beats on the same cycles as a full scan, with
    W-reservation contention, R bursts interleaved from several
    subordinates, DECERR bursts, and back-pressure on both sides."""
    expected = _crossbar_traffic(case, reference=True, active_set=False,
                                 batched=False)
    assert expected, "the case moved no beat"
    for active_set in (False, True):
        for batched in (False, True):
            assert _crossbar_traffic(
                case, active_set=active_set, batched=batched
            ) == expected, f"active_set={active_set} batched={batched}"


@pytest.mark.parametrize("heads", [
    [("b", 0, True), ("b", 1, True)],  # a later manager takes the next
    [("b", 1, True), ("b", 0, True)],  # an earlier one keeps it awake
    [("r", 0, True), ("r", 1, True)],
    [("r", 0, False), ("r", 0, True)],  # a locked burst keeps it awake
])
def test_response_heads_behind_a_pop_match_the_reference(heads):
    """Response beats queued on one subordinate for two managers, with
    room downstream: the head a pop exposes moves in the same pass when
    a later manager owns it, and keeps the crossbar awake otherwise."""
    inject = [
        (0, name, (BBeat if name == "b" else RBeat)(
            id=owner << 8 | 5, **({} if name == "b" else {"last": last})
        ))
        for name, owner, last in heads
    ]
    case = {"n_sub": 1, "scripts": [[], []], "qos": False, "seed": 0,
            "stalls": [(0, 0), (0, 0)], "sub_stall": 100, "capacity": 4,
            "inject": inject}
    expected = _crossbar_traffic(case, reference=True, active_set=False,
                                 batched=False, cycles=8)
    for active_set in (False, True):
        for batched in (False, True):
            assert _crossbar_traffic(
                case, active_set=active_set, batched=batched, cycles=8
            ) == expected, f"active_set={active_set} batched={batched}"

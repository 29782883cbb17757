"""Exact-cycle memory latency on every kernel combination.

Each memory keeps one latency clock, the cycle its burst becomes ready.
These tests pin the cycle at which the SRAM, the DRAM and the LLC answer
a burst as constants over latencies 0-7, on all four ``{naive, active}
x {per-beat, batched}`` combinations: an oracle that is not a diff
between two code paths.  Cycles are read off the memory port's channels,
whose tracer stamps each handshake with the cycle of its tick.
"""

from __future__ import annotations

import pytest

from repro.axi import AxiBundle
from repro.mem import CacheLLC, DramModel, DramTiming, SramMemory
from repro.sim import Simulator
from repro.traffic.driver import ManagerDriver

from helpers import ScriptedManager

KERNEL_GRID = [(False, False), (False, True), (True, False), (True, True)]
LATENCIES = range(8)


class _Handshakes:
    """Tracer sink: the cycles of each channel's sends and receives."""

    def __init__(self, sim: Simulator, port: AxiBundle) -> None:
        self.sim = sim
        self.events: list[tuple[int, str, str, object]] = []
        for channel in port.channels:
            channel.attach_tracer(self)

    def on_send(self, channel, item) -> None:
        self.events.append((self.sim.cycle, channel.name, "send", item))

    def on_recv(self, channel, item) -> None:
        self.events.append((self.sim.cycle, channel.name, "recv", item))

    def at(self, channel: str, kind: str, last_only: bool = False):
        return [cycle for cycle, name, event, beat in self.events
                if name == f"mem.{channel}" and event == kind
                and (not last_only or beat.last)]


def _run(active_set: bool, batched: bool, make_memory, script):
    """Drive one memory with a script of driver ops (the driver runs
    them one at a time) and return the handshakes on its port."""
    sim = Simulator(active_set=active_set, batched=batched)
    port = AxiBundle(sim, "mem")
    sim.add(make_memory(sim, port))
    drv = sim.add(ManagerDriver(port))
    log = _Handshakes(sim, port)
    script(drv)
    sim.run_until(lambda: drv.idle, max_cycles=10_000, what="driver")
    return log


def _warm_llc(hit_latency: int):
    def make(sim, port):
        llc = CacheLLC(port, AxiBundle(sim, "back"), hit_latency=hit_latency)
        for line in range(0x100, 0x200, llc.line_bytes):
            llc.install_line(line, bytes(llc.line_bytes))
        return llc

    return make


@pytest.mark.parametrize("active_set,batched", KERNEL_GRID)
def test_sram_answers_latency_plus_one_cycles_after_the_request(
    active_set, batched
):
    """R leaves ``read_latency + 1`` cycles after the AR is accepted and
    then streams one beat per cycle; B leaves ``write_latency + 1``
    cycles after the last W."""
    for latency in LATENCIES:
        write_latency = 7 - latency  # tell the two clocks apart

        def script(drv):
            drv.write(0x100, bytes(range(32)), beats=4)
            drv.read(0x100, beats=4)

        log = _run(active_set, batched, lambda sim, port: SramMemory(
            port, base=0, size=0x1000, read_latency=latency,
            write_latency=write_latency,
        ), script)
        (ar,) = log.at("ar", "recv")
        assert log.at("r", "send") == [ar + latency + 1 + i
                                       for i in range(4)], latency
        (last_w,) = log.at("w", "recv", last_only=True)
        assert log.at("b", "send") == [last_w + write_latency + 1], latency


@pytest.mark.parametrize("active_set,batched", KERNEL_GRID)
def test_dram_answers_access_latency_plus_one_cycles_after_the_request(
    active_set, batched
):
    """The access latency is t_rcd + t_cas on an idle bank and t_cas on
    a row hit; R leaves it + 1 cycles after the AR is accepted, and B it
    + 1 cycles after the last W."""
    for t_cas in LATENCIES:
        t_rcd = 7 - t_cas

        def script(drv):
            drv.read(0x100, beats=2)  # idle bank: activate, then access
            drv.read(0x140, beats=2)  # row hit
            drv.write(0x180, bytes(16), beats=2)  # row hit

        log = _run(active_set, batched, lambda sim, port: DramModel(
            port, base=0, size=0x10000,
            timing=DramTiming(t_cas=t_cas, t_rcd=t_rcd, t_rp=3),
        ), script)
        first, second = log.at("ar", "recv")
        r_sent = log.at("r", "send")
        assert r_sent[0] == first + t_rcd + t_cas + 1, t_cas
        assert r_sent[2] == second + t_cas + 1, t_cas
        (last_w,) = log.at("w", "recv", last_only=True)
        assert log.at("b", "send") == [last_w + t_cas + 1], t_cas


@pytest.mark.parametrize("active_set,batched", KERNEL_GRID)
def test_llc_hit_answers_after_the_hit_latency(active_set, batched):
    """A read hit answers ``max(hit_latency, 1)`` cycles after the AR is
    accepted and streams one beat per cycle; a write hit sends B one
    cycle after the last W."""
    for hit_latency in LATENCIES:

        def script(drv):
            drv.read(0x100, beats=4)
            drv.write(0x140, bytes(32), beats=4)

        log = _run(active_set, batched, _warm_llc(hit_latency), script)
        (ar,) = log.at("ar", "recv")
        answer = ar + max(hit_latency, 1)
        assert log.at("r", "send") == [answer + i for i in range(4)], \
            hit_latency
        (last_w,) = log.at("w", "recv", last_only=True)
        assert log.at("b", "send") == [last_w + 1], hit_latency


@pytest.mark.parametrize("active_set,batched", KERNEL_GRID)
def test_llc_stages_the_next_lookup_during_the_current_burst(
    active_set, batched
):
    """An AR accepted while a read streams starts its lookup at once: its
    first beat follows the current burst's last one, or the end of its
    own hit latency if that is later.  An AR accepted once the LLC is
    idle again answers ``max(hit_latency, 1)`` cycles later."""
    for hit_latency in LATENCIES:
        for gap in range(12):
            sim = Simulator(active_set=active_set, batched=batched)
            port = AxiBundle(sim, "mem")
            sim.add(_warm_llc(hit_latency)(sim, port))
            log = _Handshakes(sim, port)
            sim.add(ScriptedManager(port, [
                (0, "r", 0x100, 4, 1, 0), (gap, "r", 0x140, 4, 2, 0),
            ], seed=0, salt=0, stall=0))
            sim.run(64)
            first, second = log.at("ar", "recv")
            r_sent = log.at("r", "send")
            assert r_sent[:4] == [first + max(hit_latency, 1) + i
                                  for i in range(4)]
            last = r_sent[3]
            if second <= last:
                answer = max(last + 1, second + hit_latency)
            else:
                answer = second + max(hit_latency, 1)
            assert r_sent[4:] == [answer + i for i in range(4)], (
                hit_latency, gap
            )

"""Importable test helpers (shared system recipes).

Lives outside ``conftest.py`` on purpose: pytest imports every
``conftest.py`` under a single ``conftest`` module name, so helpers that
tests import *by name* must not live there (``benchmarks/conftest.py``
used to shadow ``tests/conftest.py`` and break collection).

All recipes build through :class:`repro.system.SystemBuilder`.
"""

from __future__ import annotations

from collections import deque

from repro.axi import ARBeat, AWBeat, BBeat, RBeat, WBeat
from repro.sim import Component, Simulator
from repro.system import SystemBuilder


def build_simple_system(
    sim: Simulator,
    n_managers: int = 2,
    sram_size: int = 0x1000,
    read_latency: int = 1,
    write_latency: int = 1,
):
    """One SRAM behind a crossbar, driven by *n_managers* scripted drivers.

    Returns ``(drivers, crossbar, sram)``.  The SRAM occupies
    ``[0x0, sram_size)``; everything above decodes to DECERR.
    """
    builder = SystemBuilder(sim).with_crossbar()
    for i in range(n_managers):
        builder.add_manager(f"m{i}", driver=f"drv{i}")
    builder.add_sram(
        "sram",
        base=0x0,
        size=sram_size,
        read_latency=read_latency,
        write_latency=write_latency,
    )
    system = builder.build()
    return list(system.drivers.values()), system.interconnect, system.memory("sram")


def build_realm_system(
    sim: Simulator,
    params=None,
    sram_size: int = 0x10000,
    read_latency: int = 1,
    write_latency: int = 1,
):
    """driver -> REALM unit -> SRAM (no crossbar): the unit under test.

    Returns ``(driver, realm, sram)``.
    """
    from repro.realm import RealmUnitParams

    system = (
        SystemBuilder(sim)
        .with_direct()
        .add_manager("mgr", protect=True,
                     realm_params=params or RealmUnitParams(), driver="drv")
        .add_sram(
            "mem",
            base=0x0,
            size=sram_size,
            read_latency=read_latency,
            write_latency=write_latency,
        )
        .build()
    )
    return system.driver("mgr"), system.realm("mgr"), system.memory("mem")


def run_all(sim: Simulator, drivers, max_cycles: int = 100_000):
    """Run until every driver's script has completed."""
    sim.run_until(
        lambda: all(d.idle for d in drivers),
        max_cycles=max_cycles,
        what="drivers to finish",
    )


def every_boundary(sim: Simulator, fn) -> None:
    """Run *fn(cycle)* at every commit boundary from the current cycle
    on: a hook chain that re-arms itself for the next cycle."""

    def fire(cycle: int) -> None:
        sim.call_at(cycle + 1, fire)
        fn(cycle)

    sim.call_at(sim.cycle, fire)


# ----------------------------------------------------------------------
# scripted stimulus for differential tests
# ----------------------------------------------------------------------
def pulse(seed: int, cycle: int, salt: int, percent: int) -> bool:
    """True on about *percent* % of cycles: a pure function of its
    arguments, so every kernel sees the same back-pressure pattern."""
    x = (seed * 0x9E3779B1 + cycle * 0x85EBCA77 + salt * 0xC2B2AE3D)
    x &= 0xFFFFFFFF
    x ^= x >> 15
    x = (x * 0x2C1B3C6D) & 0xFFFFFFFF
    x ^= x >> 12
    return x % 100 < percent


class ScriptedManager(Component):
    """Issues a fixed list of bursts and stalls its handshakes at random.

    *ops* holds ``(cycle, kind, addr, beats, id, qos)`` tuples, ``kind``
    ``"r"`` or ``"w"``, in issue order.  From its cycle on, an op's
    address beat goes out as soon as the channel accepts it; write data
    follows the AWs in order.  W beats stall on about *stall* % of
    cycles, and the B and R receives on about *rsp_stall* % (default:
    *stall*), as :func:`pulse` picks.  Never sleeps, so what it does is
    a function of the cycle and the channels only.
    """

    def __init__(self, port, ops, seed: int, salt: int, stall: int = 30,
                 rsp_stall=None, name: str = "scripted_mgr") -> None:
        super().__init__(name)
        self.port = port
        self.ops = deque(ops)
        self.seed, self.salt = seed, salt
        self.stall = stall
        self.rsp_stall = stall if rsp_stall is None else rsp_stall
        self._w_owed: deque[int] = deque()  # beats owed per issued AW

    def _go(self, cycle: int, k: int, stall: int) -> bool:
        return not pulse(self.seed, cycle, self.salt + k, stall)

    def tick(self, cycle: int) -> None:
        port, ops = self.port, self.ops
        if ops and ops[0][0] <= cycle:
            _, kind, addr, beats, tid, qos = ops[0]
            channel = port.aw if kind == "w" else port.ar
            if channel.can_send():
                beat = (AWBeat if kind == "w" else ARBeat)(
                    id=tid, addr=addr, beats=beats, size=3, qos=qos
                )
                channel.send(beat)
                if kind == "w":
                    self._w_owed.append(beats)
                ops.popleft()
        owed = self._w_owed
        if owed and port.w.can_send() and self._go(cycle, 0, self.stall):
            left = owed[0] - 1
            port.w.send(WBeat(data=bytes([left & 0xFF]) * 8, last=not left))
            if left:
                owed[0] = left
            else:
                owed.popleft()
        if port.b.can_recv() and self._go(cycle, 1, self.rsp_stall):
            port.b.recv()
        if port.r.can_recv() and self._go(cycle, 2, self.rsp_stall):
            port.r.recv()


class ScriptedSubordinate(Component):
    """Answers every burst, stalling its handshakes at random.

    Write responses follow AW order; read bursts are returned in AR
    order, each burst's beats back to back.  Never sleeps.
    """

    def __init__(self, port, seed: int, salt: int, stall: int = 30,
                 name: str = "scripted_sub") -> None:
        super().__init__(name)
        self.port = port
        self.seed, self.salt, self.stall = seed, salt, stall
        self._aw_ids: deque[int] = deque()
        self._w_done = 0
        self._b: deque[int] = deque()
        self._r: deque[list[int]] = deque()  # [id, beats left, addr]

    def _go(self, cycle: int, k: int) -> bool:
        return not pulse(self.seed, cycle, self.salt + k, self.stall)

    def tick(self, cycle: int) -> None:
        port = self.port
        if port.aw.can_recv() and self._go(cycle, 0):
            self._aw_ids.append(port.aw.recv().id)
        if port.w.can_recv() and self._go(cycle, 1):
            if port.w.recv().last:
                self._w_done += 1
        if self._w_done and self._aw_ids:
            self._w_done -= 1
            self._b.append(self._aw_ids.popleft())
        if self._b and port.b.can_send() and self._go(cycle, 2):
            port.b.send(BBeat(id=self._b.popleft()))
        if port.ar.can_recv() and self._go(cycle, 3):
            ar = port.ar.recv()
            self._r.append([ar.id, ar.beats, ar.addr])
        if self._r and port.r.can_send() and self._go(cycle, 4):
            burst = self._r[0]
            burst[1] -= 1
            port.r.send(RBeat(id=burst[0], data=burst[2].to_bytes(8, "little"),
                              last=not burst[1]))
            burst[2] += 8
            if not burst[1]:
                self._r.popleft()


class TrafficLog:
    """Tracer sink: every handshake as ``(cycle, channel, event, beat)``.

    ``sorted(log.events)`` is the per-cycle traffic, independent of the
    order in which beats move within a cycle (tick or express phase).
    """

    def __init__(self, sim: Simulator, bundles) -> None:
        self.sim = sim
        self.events: list[tuple] = []
        for bundle in bundles:
            for channel in bundle.channels:
                channel.attach_tracer(self)

    def on_send(self, channel, item) -> None:
        self.events.append((self.sim.cycle, channel.name, "send", repr(item)))

    def on_recv(self, channel, item) -> None:
        self.events.append((self.sim.cycle, channel.name, "recv", repr(item)))

"""System-level interference monitoring.

The paper extends SafeSU-style inter-core interference tracking to
heterogeneous managers: "reading the evolution of the latency from all
managers' M&R units and analyzing their statistics provides a full view of
the memory system's congestion."  This module implements that analysis: a
chain of commit-boundary hooks samples every REALM unit's per-cycle M&R
activity flags and accumulates a matrix of *victim stalled while aggressor
transferring* cycles.
"""

from __future__ import annotations

from repro.realm.unit import RealmUnit
from repro.sim.kernel import Simulator


class InterferenceMatrix:
    """NxN matrix of observed interference cycles between managers."""

    def __init__(self, names: list[str]) -> None:
        self.names = names
        n = len(names)
        self._cycles = [[0] * n for _ in range(n)]
        self.sampled_cycles = 0

    def record(self, stalled: list[bool], transferring: list[bool]) -> None:
        self.sampled_cycles += 1
        for i, is_stalled in enumerate(stalled):
            if not is_stalled:
                continue
            for j, is_moving in enumerate(transferring):
                if i != j and is_moving:
                    self._cycles[i][j] += 1

    def cycles(self, victim: str, aggressor: str) -> int:
        return self._cycles[self.names.index(victim)][self.names.index(aggressor)]

    def total_for_victim(self, victim: str) -> int:
        return sum(self._cycles[self.names.index(victim)])

    def format(self) -> str:
        width = max(len(n) for n in self.names) + 2
        header = " " * width + "".join(f"{n:>{width}}" for n in self.names)
        lines = [header]
        for i, name in enumerate(self.names):
            cells = "".join(f"{c:>{width}}" for c in self._cycles[i])
            lines.append(f"{name:<{width}}{cells}")
        return "\n".join(lines)


class SystemInterferenceMonitor:
    """Samples all REALM units at every commit boundary.

    Register on a simulator *after* building the SoC::

        monitor = SystemInterferenceMonitor(sim, soc.realm_units)

    Each sample re-arms a transient hook
    (:meth:`~repro.sim.Simulator.call_at_transient`) for the next cycle,
    as the telemetry tap does, so the monitor observes execution without
    becoming simulated state.  A snapshot restore drops the chain: a
    restored simulator is sampled only by a monitor attached afterwards.
    """

    def __init__(self, sim: Simulator, units: dict[str, RealmUnit]) -> None:
        self.units = units
        self.matrix = InterferenceMatrix(list(units.keys()))
        self._sim = sim
        sim.call_at_transient(sim.cycle, self._sample)

    def _sample(self, cycle: int) -> None:
        self._sim.call_at_transient(cycle + 1, self._sample)
        # A manager is interfered with when it is denied by regulation OR
        # is waiting on outstanding transactions without any beat moving.
        stalled = [
            u.mr.stalled_this_cycle
            or (u.mr.outstanding > 0 and not u.mr.transferring_this_cycle)
            for u in self.units.values()
        ]
        moving = [u.mr.transferring_this_cycle for u in self.units.values()]
        if any(stalled) and any(moving):
            self.matrix.record(stalled, moving)
        else:
            self.matrix.sampled_cycles += 1

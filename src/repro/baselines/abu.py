"""AXI Budgeting Unit (ABU) baseline, after Pagani/Restuccia et al. [1].

The ABU assigns each manager a byte budget and a reservation period over
its whole address space and blocks new transactions once the budget is
spent.  Unlike AXI-REALM it has **no burst splitter** (long bursts still
monopolise the interconnect within the budget), **no write buffer** (the
stall DoS still works), and no monitoring.
"""

from __future__ import annotations

from repro.axi.ports import AxiBundle
from repro.realm.regions import RegionConfig, RegionState
from repro.sim.kernel import Component


class AbuRegulator(Component):
    """Budget/period gate in front of one manager."""

    _STATE_FIELDS = ("denied",)

    def __init__(
        self,
        up: AxiBundle,
        down: AxiBundle,
        budget_bytes: int,
        period_cycles: int,
        name: str = "abu",
    ) -> None:
        super().__init__(name)
        self.up = up
        self.down = down
        self.region = RegionState(
            RegionConfig(0, 1 << 62, budget_bytes, period_cycles)
        )
        self.denied = 0

    def tick(self, cycle: int) -> None:
        self.region.advance_cycle()
        # Request path: gate address beats on remaining budget.
        if self.up.aw.can_recv() and self.down.aw.can_send():
            beat = self.up.aw.peek()
            if not self.region.depleted:
                self.up.aw.recv()
                self.down.aw.send(beat)
                self.region.charge(beat.total_bytes)
            else:
                self.denied += 1
        if self.up.w.can_recv() and self.down.w.can_send():
            self.down.w.send(self.up.w.recv())
        if self.up.ar.can_recv() and self.down.ar.can_send():
            beat = self.up.ar.peek()
            if not self.region.depleted:
                self.up.ar.recv()
                self.down.ar.send(beat)
                self.region.charge(beat.total_bytes)
            else:
                self.denied += 1
        # Response path: transparent.
        if self.down.b.can_recv() and self.up.b.can_send():
            self.up.b.send(self.down.b.recv())
        if self.down.r.can_recv() and self.up.r.can_send():
            self.up.r.send(self.down.r.recv())

    def state_capture(self) -> dict:
        return {
            **super().state_capture(),
            "region": self.region.state_capture(),
        }

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self.region.state_restore(state["region"])

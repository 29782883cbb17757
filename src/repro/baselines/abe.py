"""AXI Burst Equalizer (ABE) baseline, after Restuccia et al. [12].

The ABE restores arbitration fairness by enforcing a *nominal burst size*
(splitting longer bursts) and a maximum number of outstanding transactions
per manager.  Unlike AXI-REALM it has **no budget/period reservation** (it
equalises but cannot give one manager a larger share) and **no write
buffer**.
"""

from __future__ import annotations

from repro.axi.ports import AxiBundle
from repro.realm.burst_splitter import BurstSplitterStage
from repro.realm.wires import WireBundle
from repro.sim.kernel import Component


class AbeEqualizer(Component):
    """Burst splitter + outstanding-transaction cap."""

    _STATE_FIELDS = ("outstanding", "denied")

    def __init__(
        self,
        up: AxiBundle,
        down: AxiBundle,
        nominal_burst: int = 1,
        max_outstanding: int = 4,
        name: str = "abe",
    ) -> None:
        super().__init__(name)
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        self.up = up
        self.down = down
        self.granularity = nominal_burst  # read by the splitter stage
        # repro: lint-ok[snapshot-coverage] build-time config read by the splitter stage, never mutated
        self.splitter_enabled = True
        self.max_outstanding = max_outstanding
        self._link = WireBundle(f"{name}.link")
        self.splitter = BurstSplitterStage(up, self._link, config=self)
        self.outstanding = 0
        self.denied = 0

    def tick(self, cycle: int) -> None:
        self.splitter.tick_request(cycle)
        # Egress gate: cap outstanding fragments.
        if self._link.aw.can_recv() and self.down.aw.can_send():
            if self.outstanding < self.max_outstanding:
                self.down.aw.send(self._link.aw.recv())
                self.outstanding += 1
            else:
                self.denied += 1
        if self._link.w.can_recv() and self.down.w.can_send():
            self.down.w.send(self._link.w.recv())
        if self._link.ar.can_recv() and self.down.ar.can_send():
            if self.outstanding < self.max_outstanding:
                self.down.ar.send(self._link.ar.recv())
                self.outstanding += 1
            else:
                self.denied += 1
        # Response path (through the splitter's coalescers).
        if self.down.b.can_recv() and self._link.b.can_send():
            self._link.b.send(self.down.b.recv())
            self.outstanding -= 1
        if self.down.r.can_recv() and self._link.r.can_send():
            beat = self.down.r.peek()
            self._link.r.send(self.down.r.recv())
            if beat.last:
                self.outstanding -= 1
        self.splitter.tick_response(cycle)

    def state_capture(self) -> dict:
        return {
            **super().state_capture(),
            "splitter": self.splitter.state_capture(),
            "link": self._link.state_capture(),
        }

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self.splitter.state_restore(state["splitter"])
        self._link.state_restore(state["link"])

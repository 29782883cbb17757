"""Cut and Forward (C&F) baseline, after Restuccia and Kastner [14].

C&F moves the burden of completing a write transaction from an untrusted
manager to the interconnect: write bursts are buffered and forwarded only
when complete, which defeats the W-channel stall DoS.  Unlike AXI-REALM it
has **no budget reservation, no burst splitting, and no monitoring** — a
well-behaved bandwidth hog is not regulated at all.
"""

from __future__ import annotations

from repro.axi.ports import AxiBundle
from repro.realm.wires import WireBundle
from repro.realm.write_buffer import WriteBufferStage
from repro.sim.kernel import Component


class CutForwardUnit(Component):
    """Write-forwarding buffer in front of one manager."""

    def __init__(
        self,
        up: AxiBundle,
        down: AxiBundle,
        depth_beats: int = 256,
        max_pending_aw: int = 2,
        name: str = "cnf",
    ) -> None:
        super().__init__(name)
        self.up = up
        self.down = down
        self._link = WireBundle(f"{name}.link")
        self.buffer = WriteBufferStage(
            up, self._link, depth_beats=depth_beats,
            max_pending_aw=max_pending_aw, name=f"{name}.buffer",
        )

    def tick(self, cycle: int) -> None:
        self.buffer.tick_request(cycle)
        # Egress: wires to the downstream bundle.
        if self._link.aw.can_recv() and self.down.aw.can_send():
            self.down.aw.send(self._link.aw.recv())
        if self._link.w.can_recv() and self.down.w.can_send():
            self.down.w.send(self._link.w.recv())
        if self._link.ar.can_recv() and self.down.ar.can_send():
            self.down.ar.send(self._link.ar.recv())
        # Responses into the buffer stage's pass-through.
        if self.down.b.can_recv() and self._link.b.can_send():
            self._link.b.send(self.down.b.recv())
        if self.down.r.can_recv() and self._link.r.can_send():
            self._link.r.send(self.down.r.recv())
        self.buffer.tick_response(cycle)

    def state_capture(self) -> dict:
        return {
            "buffer": self.buffer.state_capture(),
            "link": self._link.state_capture(),
        }

    def state_restore(self, state: dict) -> None:
        self.buffer.state_restore(state["buffer"])
        self._link.state_restore(state["link"])

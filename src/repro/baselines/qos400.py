"""CoreLink QoS-400-style priority regulation (Section II, industry).

Arm's QoS-400 controls contention with the AXI QoS signal: each manager's
transactions carry a priority, and priority-aware arbitration points serve
higher values first.  The paper's critique — which this model lets you
demonstrate — is twofold:

* priority "may lead to request starvation on low-priority managers"
  (strict priority is not work-conserving for the losers);
* on a Zynq UltraScale+, "more than 30 QoS points must work coordinately
  to control the traffic", whereas REALM regulates once at the ingress.

:class:`QosTagger` stamps a manager's outgoing transactions with a QoS
value; :class:`QosArbiter` is a drop-in replacement for the crossbar's
round-robin arbiter that picks the highest-priority requester (round-robin
among equals).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.axi.ports import AxiBundle
from repro.interconnect.arbiter import RoundRobinArbiter
from repro.sim.kernel import Component


class QosArbiter:
    """Highest QoS value wins; round-robin among equal priorities.

    *priority_of(index)* returns the current QoS value of requester
    *index* (read each arbitration, so per-beat QoS works).
    """

    def __init__(self, n: int, priority_of: Callable[[int], int]) -> None:
        if n < 1:
            raise ValueError("arbiter needs at least one requester")
        self.n = n
        self.priority_of = priority_of
        self._rr = RoundRobinArbiter(n)

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        if len(requests) != self.n:
            raise ValueError(f"expected {self.n} request lines")
        if not any(requests):
            return None
        top = max(self.priority_of(i) for i, r in enumerate(requests) if r)
        masked = [
            r and self.priority_of(i) == top for i, r in enumerate(requests)
        ]
        return self._rr.grant(masked)

    def grant_one(self, idx: int) -> int:
        """:meth:`grant` for a request vector in which only *idx* is set:
        a sole requester holds the top priority by definition."""
        return self._rr.grant_one(idx)

    def peek(self, requests: Sequence[bool]) -> Optional[int]:
        if not any(requests):
            return None
        top = max(self.priority_of(i) for i, r in enumerate(requests) if r)
        masked = [
            r and self.priority_of(i) == top for i, r in enumerate(requests)
        ]
        return self._rr.peek(masked)

    def state_capture(self) -> int:
        return self._rr.state_capture()

    def state_restore(self, state: int) -> None:
        self._rr.state_restore(state)


class QosTagger(Component):
    """Stamps every outgoing address beat with a QoS value.

    The QoS-400 analogue of a regulator: it does not shape traffic at all,
    it only re-labels it; all behaviour comes from the priority-aware
    arbitration downstream.
    """

    def __init__(
        self,
        up: AxiBundle,
        down: AxiBundle,
        qos: int,
        name: str = "qos",
    ) -> None:
        super().__init__(name)
        if not 0 <= qos <= 15:
            raise ValueError("AXI QoS values are 0..15")
        self.up = up
        self.down = down
        self.watch(up, role="device")
        self.watch(down, role="manager")
        self.qos = qos

    def is_idle(self) -> bool:
        up, down = self.up, self.down
        return not (
            up.aw.can_recv()
            or up.w.can_recv()
            or up.ar.can_recv()
            or down.b.can_recv()
            or down.r.can_recv()
        )

    def tick(self, cycle: int) -> None:
        if self.up.aw.can_recv() and self.down.aw.can_send():
            beat = self.up.aw.recv().copy()
            beat.qos = self.qos
            self.down.aw.send(beat)
        if self.up.w.can_recv() and self.down.w.can_send():
            self.down.w.send(self.up.w.recv())
        if self.up.ar.can_recv() and self.down.ar.can_send():
            beat = self.up.ar.recv().copy()
            beat.qos = self.qos
            self.down.ar.send(beat)
        if self.down.b.can_recv() and self.up.b.can_send():
            self.up.b.send(self.down.b.recv())
        if self.down.r.can_recv() and self.up.r.can_send():
            self.up.r.send(self.down.r.recv())

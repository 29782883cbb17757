"""Same-cycle wires connecting the sub-blocks inside a REALM unit.

The four sub-blocks of a REALM unit (isolation, burst splitter, write
buffer, M&R) are evaluated ingress-to-egress within a single simulator
tick; beats move between them over :class:`Wire` objects that pass a beat
to the next stage *in the same cycle*.  The whole unit therefore adds one
registered hop at its boundary rather than one per sub-block, which is how
the RTL achieves its single cycle of added latency.

Wires expose the same ``can_send``/``send``/``can_recv``/``peek``/``recv``
protocol as :class:`repro.sim.channel.Channel`, so stage code is agnostic
about whether it talks to a neighbouring stage or to the unit boundary.
"""

from __future__ import annotations

from typing import Generic, Optional, TypeVar

from repro.sim.kernel import SimulationError, Stateful

T = TypeVar("T")


class Wire(Stateful, Generic[T]):
    """One-slot, same-cycle handoff between pipeline stages."""

    __slots__ = ("name", "_item")
    _STATE_FIELDS = ("_item",)

    def __init__(self, name: str = "wire") -> None:
        self.name = name
        self._item: Optional[T] = None

    def can_send(self) -> bool:
        return self._item is None

    def send(self, item: T) -> None:
        if self._item is not None:
            raise SimulationError(f"send on full wire {self.name!r}")
        self._item = item

    def can_recv(self) -> bool:
        return self._item is not None

    def peek(self) -> T:
        if self._item is None:
            raise SimulationError(f"peek on empty wire {self.name!r}")
        return self._item

    def recv(self) -> T:
        if self._item is None:
            raise SimulationError(f"recv on empty wire {self.name!r}")
        item = self._item
        self._item = None
        return item

    def move_to(self, dst) -> bool:
        """Relay the held beat into *dst* (a Wire or Channel) in one call.

        The wire half of the batch pass-through API: stage code relays a
        beat to the next hop with one guarded hand-off instead of four
        protocol calls.  Returns True when a beat moved.
        """
        item = self._item
        if item is None or not dst.can_send():
            return False
        self._item = None
        dst.send(item)
        return True

    @property
    def occupancy(self) -> int:
        return 0 if self._item is None else 1


class WireBundle:
    """Five wires mirroring an AXI bundle, for intra-unit stage links."""

    __slots__ = ("name", "aw", "w", "b", "ar", "r")

    def __init__(self, name: str = "link") -> None:
        self.name = name
        self.aw: Wire = Wire(f"{name}.aw")
        self.w: Wire = Wire(f"{name}.w")
        self.b: Wire = Wire(f"{name}.b")
        self.ar: Wire = Wire(f"{name}.ar")
        self.r: Wire = Wire(f"{name}.r")

    @property
    def channels(self) -> tuple[Wire, ...]:
        return (self.aw, self.w, self.b, self.ar, self.r)

    def state_capture(self) -> dict:
        return {wire.name: wire.state_capture() for wire in self.channels}

    def state_restore(self, state: dict) -> None:
        for wire in self.channels:
            wire.state_restore(state[wire.name])

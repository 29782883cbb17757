"""Malicious / misbehaving manager models for attack experiments.

These implement the threat models from the paper and its related work:

* :class:`StallingWriter` — the C&F-style denial of service ([14]): win AW
  arbitration, never deliver the write data, and the subordinate's W
  channel is reserved forever.
* :class:`BandwidthHog` — saturates a subordinate with back-to-back
  maximum-length read bursts (unfair-arbitration attack of ABE [12]).
* :class:`TricklingWriter` — delivers write data extremely slowly,
  occupying the reserved W channel for far longer than the burst needs.
"""

from __future__ import annotations

from repro.axi.beats import ARBeat, AWBeat, WBeat
from repro.axi.ports import AxiBundle
from repro.axi.types import bytes_per_beat
from repro.sim.kernel import Component


class StallingWriter(Component):
    """Reserves the W channel with an AW and never sends the data."""

    _STATE_FIELDS = ("repeat", "aws_sent")

    def __init__(
        self,
        port: AxiBundle,
        target: int = 0x0,
        beats: int = 256,
        size: int = 3,
        repeat: bool = False,
        name: str = "staller",
    ) -> None:
        super().__init__(name)
        self.port = port
        self.watch(port, role="manager")
        self.target = target
        self.beats = beats
        self.size = size
        self.repeat = repeat
        self.aws_sent = 0

    def tick(self, cycle: int) -> None:
        if (self.aws_sent == 0 or self.repeat) and self.port.aw.can_send():
            self.port.aw.send(
                AWBeat(id=0, addr=self.target, beats=self.beats, size=self.size)
            )
            self.aws_sent += 1
        # Never send W data; drain any responses defensively.
        self.port.b.recv_up_to()

    def is_idle(self) -> bool:
        wants_aw = (self.aws_sent == 0 or self.repeat) and self.port.aw.can_send()
        return not wants_aw and not self.port.b.can_recv()


class BandwidthHog(Component):
    """Back-to-back maximum-length read bursts against one subordinate."""

    _STATE_FIELDS = (
        "enabled", "max_outstanding", "_offset", "_outstanding",
        "bytes_stolen",
    )

    def __init__(
        self,
        port: AxiBundle,
        target_base: int = 0x0,
        window: int = 0x10000,
        beats: int = 256,
        size: int = 3,
        max_outstanding: int = 2,
        name: str = "hog",
    ) -> None:
        super().__init__(name)
        self.port = port
        self.watch(port, role="manager")
        self.target_base = target_base
        self.window = window
        self.beats = beats
        self.size = size
        self.max_outstanding = max_outstanding
        self.enabled = True
        self._offset = 0
        self._outstanding = 0
        self.bytes_stolen = 0

    def stop(self) -> None:
        self.enabled = False

    def start(self) -> None:
        self.enabled = True
        self.wake()

    def tick(self, cycle: int) -> None:
        if (
            self.enabled
            and self._outstanding < self.max_outstanding
            and self.port.ar.can_send()
        ):
            burst_bytes = self.beats * bytes_per_beat(self.size)
            addr = self.target_base + self._offset
            self.port.ar.send(
                ARBeat(id=0, addr=addr, beats=self.beats, size=self.size)
            )
            self._offset = (self._offset + burst_bytes) % max(
                self.window - burst_bytes, burst_bytes
            )
            self._outstanding += 1
        beats = self.port.r.recv_up_to()
        if beats:
            self.bytes_stolen += len(beats) * bytes_per_beat(self.size)
            for beat in beats:
                if beat.last:
                    self._outstanding -= 1

    def is_idle(self) -> bool:
        wants_ar = (
            self.enabled
            and self._outstanding < self.max_outstanding
            and self.port.ar.can_send()
        )
        return not wants_ar and not self.port.r.can_recv()


class TricklingWriter(Component):
    """Write bursts whose data arrives one beat every *gap* cycles."""

    _STATE_FIELDS = (
        "gap", "_aw_sent", "_w_sent", "_next_w", "bursts_completed",
    )

    def __init__(
        self,
        port: AxiBundle,
        target: int = 0x0,
        beats: int = 16,
        size: int = 3,
        gap: int = 64,
        name: str = "trickler",
    ) -> None:
        super().__init__(name)
        self.port = port
        self.watch(port, role="manager")
        self.target = target
        self.beats = beats
        self.size = size
        self.gap = gap
        self._aw_sent = False
        self._w_sent = 0
        self._next_w = 0
        self.bursts_completed = 0

    def tick(self, cycle: int) -> None:
        if not self._aw_sent and self.port.aw.can_send():
            self.port.aw.send(
                AWBeat(id=0, addr=self.target, beats=self.beats, size=self.size)
            )
            self._aw_sent = True
            self._next_w = cycle + self.gap
            return
        if (
            self._aw_sent
            and self._w_sent < self.beats
            and cycle >= self._next_w
            and self.port.w.can_send()
        ):
            self._w_sent += 1
            self.port.w.send(
                WBeat(
                    data=bytes(bytes_per_beat(self.size)),
                    last=(self._w_sent == self.beats),
                )
            )
            self._next_w = cycle + self.gap
        if self.port.b.can_recv():
            self.port.b.recv()
            self.bursts_completed += 1
            self._aw_sent = False
            self._w_sent = 0

    def is_idle(self) -> bool:
        sim = self._sim
        if sim is None or not sim._batched:
            return False
        port = self.port
        if port.b.can_recv():
            return False
        if not self._aw_sent:
            return not port.aw.can_send()
        if self._w_sent < self.beats:
            # Sleeping through the trickle gap preserves the exact cycle
            # the next W beat would go out.
            if self._next_w > sim.cycle + 1:
                self.wake_at(self._next_w)
                return True
            return not port.w.can_send()
        return True  # all data sent; the B response wakes us

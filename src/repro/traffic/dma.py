"""Double-buffering DMA engine model (the DSA's data mover).

Reproduces the paper's worst-case access pattern: "double-buffering
full-length data bursts of 256 beats between the system's LLC and the
DSA's local SPM".  The engine keeps a read pipe (LLC -> buffer) and a write
pipe (buffer -> SPM) running concurrently: while buffer A is being written
out, buffer B is being filled, so the crossbar sees back-to-back maximum-
length bursts for as long as the engine runs.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.axi.beats import ARBeat, AWBeat, WBeat
from repro.axi.ports import AxiBundle
from repro.axi.types import bytes_per_beat
from repro.sim.kernel import Component
from repro.sim.span import UNBOUNDED, SpanOffer, consume, produce


class DmaEngine(Component):
    """Continuous double-buffered mover between two address windows."""

    # The snapshot includes the runtime-knob-writable settings.
    _STATE_FIELDS = (
        "enabled", "inter_burst_gap", "_rd_offset", "_rd_inflight",
        "_rd_gap", "_full_buffers", "_wr_offset", "_wr_active",
        "_wr_aw_sent", "_wr_beats_sent", "_wr_gap", "bytes_read",
        "bytes_written", "read_bursts", "write_bursts",
    )

    def __init__(
        self,
        port: AxiBundle,
        src_base: int,
        src_size: int,
        dst_base: int,
        dst_size: int,
        burst_beats: int = 256,
        size: int = 3,
        n_buffers: int = 2,
        inter_burst_gap: int = 0,
        name: str = "dma",
    ) -> None:
        super().__init__(name)
        if burst_beats < 1 or burst_beats > 256:
            raise ValueError("burst length must be in [1, 256] beats")
        if n_buffers < 1:
            raise ValueError("need at least one buffer")
        self.port = port
        self.watch(port, role="manager")
        self.src_base = src_base
        self.src_size = src_size
        self.dst_base = dst_base
        self.dst_size = dst_size
        self.burst_beats = burst_beats
        self.size = size
        self.n_buffers = n_buffers
        self.inter_burst_gap = inter_burst_gap
        self.enabled = True

        nbytes = burst_beats * bytes_per_beat(size)
        if src_size < nbytes or dst_size < nbytes:
            raise ValueError("address windows smaller than one burst")

        # Read pipe: up to n_buffers read bursts in flight so the shared
        # subordinate never idles between bursts (the paper's worst case:
        # "every core access is delayed by 256 cycles").
        self._rd_offset = 0
        self._rd_inflight = 0
        self._rd_gap = 0
        # Buffers filled by the read pipe, consumed by the write pipe.
        self._full_buffers: deque[int] = deque()  # src offsets, data implied
        # Write pipe.
        self._wr_offset = 0
        self._wr_active: Optional[int] = None
        self._wr_aw_sent = False
        self._wr_beats_sent = 0
        self._wr_gap = 0

        # Metrics.
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_bursts = 0
        self.write_bursts = 0

    # ------------------------------------------------------------------
    @property
    def _burst_bytes(self) -> int:
        return self.burst_beats * bytes_per_beat(self.size)

    def stop(self) -> None:
        self.enabled = False

    def start(self) -> None:
        self.enabled = True
        self.wake()

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._tick_read()
        self._tick_write()
        self._drain_b()

    def is_idle(self) -> bool:
        if self._rd_gap or self._wr_gap:
            return False  # counting down an inter-burst gap
        if (
            self.enabled
            and self._rd_inflight + len(self._full_buffers) < self.n_buffers
            and self.port.ar.can_send()
        ):
            return False  # a read burst would be issued this cycle
        if self.port.r.can_recv() or self.port.b.can_recv():
            return False
        if self._wr_active is None:
            if self._full_buffers:
                return False  # a write burst would start this cycle
        else:
            if not self._wr_aw_sent:
                if self.port.aw.can_send():
                    return False
            elif (
                self._wr_beats_sent < self.burst_beats
                and self.port.w.can_send()
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # span-replay (DESIGN.md section 11)
    # ------------------------------------------------------------------
    def span_offer(self, cycle: int, bound: int) -> Optional[SpanOffer]:
        """Linear mid-burst streaming: consume one R beat and/or produce
        one W beat per cycle, with every burst boundary (AR/AW issue,
        burst start, last beat, B response, inter-burst gap) outside the
        span."""
        if self._rd_gap or self._wr_gap:
            return None
        if self.port.b._queue:
            return None
        if (
            self.enabled
            and self._rd_inflight + len(self._full_buffers) < self.n_buffers
            and self.port.ar.can_send()
        ):
            return None  # an AR would be issued this cycle
        nbytes = bytes_per_beat(self.size)
        flows = []
        horizon = UNBOUNDED
        r_queue = self.port.r._queue
        has_r = bool(r_queue)
        if has_r:
            # recv_up_to() drains the whole queue in one tick, so the
            # one-beat-per-cycle contract only holds at occupancy one.
            if len(r_queue) != 1 or r_queue[0].last:
                return None
            flows.append(consume(self.port.r, r_queue[0]))
        has_w = False
        if self._wr_active is None:
            if self._full_buffers:
                return None  # a write burst would start this cycle
        else:
            if not self._wr_aw_sent:
                return None  # the burst's AW is still pending
            beats_before_last = self.burst_beats - self._wr_beats_sent - 1
            if beats_before_last < 1:
                return None  # next W beat closes the burst
            horizon = min(horizon, beats_before_last)
            flows.append(
                produce(self.port.w, WBeat(data=bytes(nbytes), last=False))
            )
            has_w = True
        if not flows:
            return None

        def apply(n: int) -> None:
            if has_r:
                self.bytes_read += n * nbytes
            if has_w:
                self._wr_beats_sent += n
                self.bytes_written += n * nbytes

        return SpanOffer(flows=tuple(flows), horizon=horizon, apply=apply)

    # -- read pipe: fill buffers from the source window ----------------
    def _tick_read(self) -> None:
        if self._rd_gap > 0:
            self._rd_gap -= 1
        elif (
            self.enabled
            and self._rd_inflight + len(self._full_buffers) < self.n_buffers
            and self.port.ar.can_send()
        ):
            addr = self.src_base + self._rd_offset
            self.port.ar.send(
                ARBeat(id=1, addr=addr, beats=self.burst_beats, size=self.size)
            )
            self._rd_inflight += 1
            self._rd_offset = (self._rd_offset + self._burst_bytes) % (
                self.src_size - self._burst_bytes + 1
            )
            self._rd_gap = self.inter_burst_gap
        beats = self.port.r.recv_up_to()
        if beats:
            self.bytes_read += len(beats) * bytes_per_beat(self.size)
            for beat in beats:
                if beat.last:
                    self._rd_inflight -= 1
                    self.read_bursts += 1
                    self._full_buffers.append(self.read_bursts)

    # -- write pipe: drain buffers into the destination window ---------
    def _tick_write(self) -> None:
        if self._wr_gap > 0:
            self._wr_gap -= 1
            return
        if self._wr_active is None:
            if not self._full_buffers:
                return
            self._wr_active = self._full_buffers.popleft()
            self._wr_aw_sent = False
            self._wr_beats_sent = 0
        if not self._wr_aw_sent:
            if not self.port.aw.can_send():
                return
            addr = self.dst_base + self._wr_offset
            self.port.aw.send(
                AWBeat(id=1, addr=addr, beats=self.burst_beats, size=self.size)
            )
            self._wr_aw_sent = True
        if self._wr_beats_sent < self.burst_beats and self.port.w.can_send():
            self._wr_beats_sent += 1
            self.bytes_written += bytes_per_beat(self.size)
            self.port.w.send(
                WBeat(
                    data=bytes(bytes_per_beat(self.size)),
                    last=(self._wr_beats_sent == self.burst_beats),
                )
            )
            if self._wr_beats_sent == self.burst_beats:
                self._wr_active = None
                self.write_bursts += 1
                self._wr_offset = (self._wr_offset + self._burst_bytes) % (
                    self.dst_size - self._burst_bytes + 1
                )
                self._wr_gap = self.inter_burst_gap

    def _drain_b(self) -> None:
        self.port.b.recv_up_to()

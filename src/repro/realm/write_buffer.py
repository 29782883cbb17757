"""Write transaction buffer (Figure 3b).

Most interconnects reserve the subordinate's W channel for an entire write
burst as soon as the AW wins arbitration; a manager that then withholds its
write data stalls the subordinate for everyone (the C&F-style DoS, [14]).
The write buffer removes that vector: it stores the (fragmented) write
burst and forwards the AW — and then the W beats — only once the data is
fully contained in the buffer, so downstream never waits on a dawdling
manager.

Reads pass straight through (subordinate devices are assumed to return
read data in an orderly fashion, Section III-A).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.axi.beats import AWBeat, WBeat
from repro.sim.kernel import Stateful


class WriteBufferStage(Stateful):
    """Third stage of the REALM unit pipeline."""

    _STATE_FIELDS = (
        "enabled", "_aw_q", "_w_q", "_complete_bursts", "_forwarding",
        "_aw_forwarded", "bursts_forwarded", "peak_occupancy",
    )

    def __init__(
        self,
        up,
        down,
        depth_beats: int = 16,
        max_pending_aw: int = 2,
        enabled: bool = True,
        name: str = "write_buffer",
    ) -> None:
        if depth_beats < 1 or max_pending_aw < 1:
            raise ValueError("write buffer depth and AW capacity must be >= 1")
        self.name = name
        self.up = up
        self.down = down
        self.depth_beats = depth_beats
        self.max_pending_aw = max_pending_aw
        self.enabled = enabled
        self._aw_q: deque[AWBeat] = deque()
        self._w_q: deque[WBeat] = deque()
        self._complete_bursts = 0  # number of w.last beats in _w_q
        self._forwarding: Optional[AWBeat] = None
        self._aw_forwarded = False
        # Statistics.
        self.bursts_forwarded = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._w_q)

    @property
    def buffered_bursts(self) -> int:
        return self._complete_bursts

    # ------------------------------------------------------------------
    def tick_request(self, cycle: int) -> None:
        if not self.enabled:
            self._tick_bypass()
        else:
            self._ingest()
            self._forward()
        # Read path is a wire-to-wire passthrough either way (one guarded
        # hand-off through the batch API).
        self.up.ar.move_to(self.down.ar)

    def tick_response(self, cycle: int) -> None:
        self.down.b.move_to(self.up.b)
        self.down.r.move_to(self.up.r)

    # ------------------------------------------------------------------
    def _tick_bypass(self) -> None:
        self.up.aw.move_to(self.down.aw)
        self.up.w.move_to(self.down.w)

    def _ingest(self) -> None:
        if self.up.aw.can_recv() and len(self._aw_q) < self.max_pending_aw:
            self._aw_q.append(self.up.aw.recv())
        if self.up.w.can_recv() and len(self._w_q) < self.depth_beats:
            beat = self.up.w.recv()
            self._w_q.append(beat)
            if beat.last:
                self._complete_bursts += 1
            if len(self._w_q) > self.peak_occupancy:
                self.peak_occupancy = len(self._w_q)

    def _forward(self) -> None:
        if self._forwarding is None:
            if not self._aw_q:
                return
            head = self._aw_q[0]
            # Bursts longer than the buffer can never be fully contained;
            # forward them cut-through to avoid deadlock.  (The splitter
            # upstream clamps write fragments to the buffer depth, so this
            # path is only reached when the splitter is bypassed.)
            cut_through = head.beats > self.depth_beats
            if not cut_through and self._complete_bursts == 0:
                return  # no fully-buffered burst: forward nothing (anti-DoS)
            self._forwarding = self._aw_q.popleft()
            self._aw_forwarded = False
        if not self._aw_forwarded:
            if not self.down.aw.can_send():
                return
            self.down.aw.send(self._forwarding)
            self._aw_forwarded = True
        # Stream the buffered write data, one beat per cycle.
        if self._w_q and self.down.w.can_send():
            beat = self._w_q.popleft()
            self.down.w.send(beat)
            if beat.last:
                self._complete_bursts -= 1
                self._forwarding = None
                self.bursts_forwarded += 1

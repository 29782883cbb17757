"""Banked DRAM timing model.

Approximates a DDR3 controller + device as seen from the SoC: per-bank open
rows, row-hit vs. row-miss vs. bank-idle latencies at burst start, then
one beat per cycle streaming.  The absolute numbers are configurable; the
defaults give a main memory that is an order of magnitude slower than the
LLC, as on the paper's FPGA platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.axi.beats import ARBeat, AWBeat, BBeat, RBeat
from repro.axi.ports import AxiBundle
from repro.axi.transaction import beat_addresses
from repro.axi.types import Resp, bytes_per_beat
from repro.mem.backing import BackingStore
from repro.sim.kernel import Component


@dataclass(frozen=True)
class DramTiming:
    """Latency parameters in controller clock cycles."""

    t_cas: int = 6  # column access on an open row
    t_rcd: int = 6  # row activate
    t_rp: int = 6  # precharge (row conflict adds t_rp + t_rcd)
    row_bytes: int = 2048
    n_banks: int = 8

    def __post_init__(self) -> None:
        if min(self.t_cas, self.t_rcd, self.t_rp) < 0:
            raise ValueError("DRAM timings must be non-negative")
        if self.n_banks < 1 or self.row_bytes < 1:
            raise ValueError("banks and row size must be positive")


class DramModel(Component):
    """AXI subordinate with row-buffer-aware access latency.

    Read and write transactions share the device (a single transaction is
    in flight at a time), matching a single-channel memory controller.
    """

    _STATE_FIELDS = (
        "_open_rows", "_kind", "_beat", "_addrs", "_index", "_wait", "_ready",
        "_w_done", "_w_error", "_rr_read_first", "row_hits", "row_misses",
        "reads_served", "writes_served",
    )

    def __init__(
        self,
        port: AxiBundle,
        base: int,
        size: int,
        name: str = "dram",
        timing: DramTiming = DramTiming(),
    ) -> None:
        super().__init__(name)
        self.port = port
        self.store = BackingStore(base, size)
        self.timing = timing
        self.watch(port, role="device")
        self._open_rows: dict[int, Optional[int]] = {
            b: None for b in range(timing.n_banks)
        }
        # Current transaction state.
        self._kind: Optional[str] = None  # "r" | "w"
        self._beat: Optional[ARBeat | AWBeat] = None
        self._addrs: list[int] = []
        self._index = 0
        self._wait = 0
        self._ready = 0  # batched: event-driven completion cycle
        self._w_done = False
        self._w_error = False
        self._rr_read_first = True  # alternate read/write service
        self._batch_mode = False  # repro: lint-ok[snapshot-coverage] recomputed from the kernel's datapath mode every tick

        # Statistics.
        self.row_hits = 0
        self.row_misses = 0
        self.reads_served = 0
        self.writes_served = 0

    # ------------------------------------------------------------------
    def _bank_row(self, addr: int) -> tuple[int, int]:
        row_index = addr // self.timing.row_bytes
        return row_index % self.timing.n_banks, row_index // self.timing.n_banks

    def access_latency(self, addr: int) -> int:
        """Latency of a burst starting at *addr*; updates the row state."""
        bank, row = self._bank_row(addr)
        open_row = self._open_rows[bank]
        self._open_rows[bank] = row
        if open_row == row:
            self.row_hits += 1
            return self.timing.t_cas
        self.row_misses += 1
        if open_row is None:
            return self.timing.t_rcd + self.timing.t_cas
        return self.timing.t_rp + self.timing.t_rcd + self.timing.t_cas

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._batch_mode = self._sim._batched
        if self._kind is None:
            self._accept(cycle)
            return
        if self._kind == "r":
            self._serve_read(cycle)
        else:
            self._serve_write(cycle)

    def is_idle(self) -> bool:
        if not self._batch_mode:
            return (
                self._kind is None
                and not self.port.ar.can_recv()
                and not self.port.aw.can_recv()
            )
        # Batched: the access-latency countdown is event-driven, so the
        # controller sleeps through it (and through blocked channels).
        port = self.port
        if self._kind is None:
            return not port.ar.can_recv() and not port.aw.can_recv()
        now = self._sim.cycle
        if self._kind == "r":
            if now < self._ready:
                self.wake_at(self._ready)
                return True
            return not port.r.can_send()
        if not self._w_done:
            return not port.w.can_recv()
        if now < self._ready:
            self.wake_at(self._ready)
            return True
        return not port.b.can_send()

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        return {**super().state_capture(), "store": self.store.state_capture()}

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self.store.state_restore(state["store"])

    # ------------------------------------------------------------------
    def _accept(self, cycle: int) -> None:
        want_read = self.port.ar.can_recv()
        want_write = self.port.aw.can_recv()
        if not want_read and not want_write:
            return
        take_read = want_read and (self._rr_read_first or not want_write)
        if take_read:
            beat = self.port.ar.recv()
            self._kind = "r"
        else:
            beat = self.port.aw.recv()
            self._kind = "w"
        self._rr_read_first = not take_read
        self._beat = beat
        self._index = 0
        self._w_done = False
        self._w_error = False
        self._addrs = beat_addresses(beat)
        self._wait = self.access_latency(beat.addr)
        self._ready = cycle + self._wait + 1

    def _serve_read(self, cycle: int) -> None:
        if self._batch_mode:
            if cycle < self._ready:
                return
        elif self._wait > 0:
            self._wait -= 1
            return
        if not self.port.r.can_send():
            return
        beat = self._beat
        nbytes = bytes_per_beat(beat.size)
        addr = self._addrs[self._index]
        try:
            data = self.store.read(addr, nbytes)
            resp = Resp.OKAY
        except IndexError:
            data = bytes(nbytes)
            resp = Resp.SLVERR
        last = self._index == beat.beats - 1
        self.port.r.send(
            RBeat(id=beat.id, data=data, resp=resp, last=last, txn=beat.txn)
        )
        self._index += 1
        if last:
            self._kind = None
            self.reads_served += 1

    def _serve_write(self, cycle: int) -> None:
        if not self._w_done:
            if not self.port.w.can_recv():
                return
            wbeat = self.port.w.recv()
            addr = self._addrs[min(self._index, len(self._addrs) - 1)]
            if wbeat.data is not None:
                try:
                    self.store.write(addr, wbeat.data, wbeat.strb)
                except IndexError:
                    self._w_error = True
            self._index += 1
            if wbeat.last:
                self._w_done = True
                self._ready = cycle + self._wait + 1
            return
        if self._batch_mode:
            if cycle < self._ready:
                return
        elif self._wait > 0:
            self._wait -= 1
            return
        if not self.port.b.can_send():
            return
        resp = Resp.SLVERR if self._w_error else Resp.OKAY
        self.port.b.send(BBeat(id=self._beat.id, resp=resp, txn=self._beat.txn))
        self._kind = None
        self.writes_served += 1

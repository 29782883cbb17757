"""Per-region traffic bookkeeping: the observability half of the M&R unit.

Tracks, per region and relative to the running reservation period:

* transferred data volume (bytes, split by read/write),
* transaction counts,
* transaction latency (sum, min, max) measured from address acceptance at
  the unit's egress to the matching response,
* stall cycles (address beats blocked while regulation denies egress).

``snapshot()`` returns a plain record that the config register file exposes
read-only, exactly like the hardware bookkeeping counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.kernel import Stateful


@dataclass(frozen=True)
class BookkeepingSnapshot:
    """Read-only view of one region's counters."""

    bytes_this_period: int
    cycles_into_period: int
    total_bytes: int
    read_bytes: int
    write_bytes: int
    txn_count: int
    latency_sum: int
    latency_max: int
    latency_min: int
    stall_cycles: int

    @property
    def bandwidth(self) -> float:
        """Bytes per cycle within the current period (the paper's trivially
        retrievable region transfer bandwidth)."""
        if self.cycles_into_period == 0:
            return 0.0
        return self.bytes_this_period / self.cycles_into_period

    @property
    def latency_avg(self) -> float:
        if self.txn_count == 0:
            return 0.0
        return self.latency_sum / self.txn_count


class BookkeepingUnit(Stateful):
    """Mutable counters behind one region's snapshot."""

    _STATE_FIELDS = (
        "bytes_this_period", "cycles_into_period", "total_bytes",
        "read_bytes", "write_bytes", "txn_count", "latency_sum",
        "latency_max", "latency_min", "stall_cycles",
    )

    def __init__(self) -> None:
        self.bytes_this_period = 0
        self.cycles_into_period = 0
        self.total_bytes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.txn_count = 0
        self.latency_sum = 0
        self.latency_max = 0
        self.latency_min = 0
        self.stall_cycles = 0

    # ------------------------------------------------------------------
    def on_cycle(self, stalled: bool) -> None:
        self.cycles_into_period += 1
        if stalled:
            self.stall_cycles += 1

    def on_period_rollover(self) -> None:
        self.bytes_this_period = 0
        self.cycles_into_period = 0

    def on_transfer(self, nbytes: int, is_read: bool) -> None:
        self.bytes_this_period += nbytes
        self.total_bytes += nbytes
        if is_read:
            self.read_bytes += nbytes
        else:
            self.write_bytes += nbytes

    def on_latency(self, latency: int) -> None:
        self.txn_count += 1
        self.latency_sum += latency
        if latency > self.latency_max:
            self.latency_max = latency
        if self.latency_min == 0 or latency < self.latency_min:
            self.latency_min = latency

    # ------------------------------------------------------------------
    def snapshot(self) -> BookkeepingSnapshot:
        return BookkeepingSnapshot(
            bytes_this_period=self.bytes_this_period,
            cycles_into_period=self.cycles_into_period,
            total_bytes=self.total_bytes,
            read_bytes=self.read_bytes,
            write_bytes=self.write_bytes,
            txn_count=self.txn_count,
            latency_sum=self.latency_sum,
            latency_max=self.latency_max,
            latency_min=self.latency_min,
            stall_cycles=self.stall_cycles,
        )

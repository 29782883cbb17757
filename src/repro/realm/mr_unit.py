"""Monitoring and regulation (M&R) unit (Figure 4).

The egress stage of the REALM unit.  For every address beat it decodes the
target subordinate region, charges the region's byte budget, and refuses to
forward further transactions of a depleted region until the reservation
period replenishes it.  An optional throttling unit additionally caps the
number of outstanding downstream transactions as the budget runs low.  Per
region, a bookkeeping unit records bytes, transactions, latency, and stall
cycles for the software-visible statistics registers.

Modelling note: the RTL decrements the budget beat-by-beat as data moves;
this model charges the full fragment size when the address beat is
forwarded.  Because the granular burst splitter upstream bounds fragments
to the configured granularity, the worst-case overshoot is identical (one
fragment), and per-period accounting is the same.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Optional

from repro.realm.bookkeeping import BookkeepingSnapshot, BookkeepingUnit
from repro.realm.regions import UNLIMITED, RegionState
from repro.realm.throttle import ThrottleUnit
from repro.sim.kernel import Stateful


class MonitorRegulationStage(Stateful):
    """Final stage of the REALM unit pipeline."""

    _STATE_FIELDS = (
        "regulation_enabled", "outstanding", "_last_cycle",
        "stalled_this_cycle", "transferring_this_cycle", "denied_by_budget",
        "denied_by_throttle",
    )

    def __init__(
        self,
        up,
        down,
        regions: list[RegionState],
        throttle: Optional[ThrottleUnit] = None,
        regulation_enabled: bool = True,
        name: str = "mr_unit",
    ) -> None:
        self.name = name
        self.up = up
        self.down = down
        self.regions = regions
        self.throttle = throttle or ThrottleUnit(enabled=False)
        self.regulation_enabled = regulation_enabled
        self.books = [BookkeepingUnit() for _ in regions]
        self.outstanding = 0
        # Last cycle the period clocks were advanced through.  The clocks
        # are lazy: when the owning unit sleeps, on_cycle/advance_to catch
        # them up in O(1) instead of one call per elapsed cycle.
        self._last_cycle = -1
        # Latency tracking: per-ID FIFOs of (issue_cycle, region_index).
        self._write_inflight: dict[int, deque[tuple[int, Optional[int]]]] = (
            defaultdict(deque)
        )
        self._read_inflight: dict[int, deque[tuple[int, Optional[int]]]] = (
            defaultdict(deque)
        )
        # Per-cycle activity flags for system-level interference probes.
        self.stalled_this_cycle = False
        self.transferring_this_cycle = False
        # Statistics.
        self.denied_by_budget = 0
        self.denied_by_throttle = 0

    # ------------------------------------------------------------------
    # region helpers
    # ------------------------------------------------------------------
    def region_index(self, addr: int) -> Optional[int]:
        for idx, region in enumerate(self.regions):
            if region.config.matches(addr):
                return idx
        return None

    @property
    def budget_exhausted(self) -> bool:
        if self.regulation_enabled:
            for region in self.regions:
                if region.depleted:
                    return True
        return False

    def region_snapshot(self, idx: int) -> BookkeepingSnapshot:
        return self.books[idx].snapshot()

    # ------------------------------------------------------------------
    # clocks
    # ------------------------------------------------------------------
    def on_cycle(self, cycle: int) -> None:
        """Advance period clocks through *cycle*; called at tick start.

        Handles multi-cycle jumps after the owning unit slept: replenish
        edges, period bookkeeping, and cycle counters are caught up exactly
        as if the clock had been advanced every cycle (sleeping is only
        permitted while no transfers or stalls are happening, so the
        evolution over the skipped cycles is pure clock arithmetic).
        """
        n = cycle - self._last_cycle
        self._last_cycle = cycle
        if n > 0:
            self._advance_clocks(n)
        self.stalled_this_cycle = False
        self.transferring_this_cycle = False

    def advance_to(self, cycle: int) -> None:
        """Catch the lazy clocks up for an external observer (snapshot or
        status read while the unit sleeps).  Idempotent; does not touch the
        per-tick activity flags."""
        n = cycle - self._last_cycle
        if n > 0:
            self._last_cycle = cycle
            self._advance_clocks(n)

    def _advance_clocks(self, n: int) -> None:
        for region, book in zip(self.regions, self.books):
            if n == 1 and (
                region.cycles_into_period + 1 < region.config.period_cycles
            ):
                # One cycle inside the period (an awake unit's tick):
                # no edge, so no generic catch-up.
                region.cycles_into_period += 1
                book.cycles_into_period += 1
                continue
            edges = region.advance_cycles(n)
            if edges:
                book.on_period_rollover()
                # The rollover resets the in-period cycle counter; the
                # cycles after the final edge (plus the edge cycle itself)
                # are what the per-cycle bookkeeping would have counted.
                book.cycles_into_period = region.cycles_into_period + 1
            else:
                book.cycles_into_period += n

    def next_replenish_edge(self, depleted_only: bool = True) -> Optional[int]:
        """Absolute cycle of the next replenish edge, or ``None`` if no
        qualifying region has a finite period.  Used to schedule a timed
        wake-up while the unit sleeps.

        With ``depleted_only`` (a fully-quiescent sleep) only depleted
        regions matter: their replenish releases budget isolation.  A
        frozen-stall sleep must pass ``depleted_only=False``: admission
        also depends on the throttle cap, which is a function of the
        remaining-budget fraction and jumps back to 1.0 when *any*
        enabled region replenishes."""
        if not self.regulation_enabled:
            return None
        best: Optional[int] = None
        for region in self.regions:
            if depleted_only:
                if not region.depleted:
                    continue
            elif region.config.size <= 0 and not region.depleted:
                continue  # disabled region: cannot influence admission
            if region.config.period_cycles >= UNLIMITED:
                continue
            edge = self._last_cycle + region.cycles_to_next_edge()
            if best is None or edge < best:
                best = edge
        return best

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, region_idx: Optional[int]) -> bool:
        if not self.regulation_enabled or region_idx is None:
            return True
        region = self.regions[region_idx]
        if region.depleted:
            self.denied_by_budget += 1
            self.books[region_idx].stall_cycles += 1
            self.stalled_this_cycle = True
            return False
        if not self.throttle.admits(self.outstanding, region.budget_fraction):
            self.denied_by_throttle += 1
            self.books[region_idx].stall_cycles += 1
            self.stalled_this_cycle = True
            return False
        return True

    def _charge(self, region_idx: Optional[int], nbytes: int, is_read: bool) -> None:
        if region_idx is None:
            return
        if self.regulation_enabled:
            self.regions[region_idx].charge(nbytes)
        self.books[region_idx].on_transfer(nbytes, is_read)
        self.transferring_this_cycle = True

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def tick_request(self, cycle: int) -> None:
        # Write address.
        if self.up.aw.can_recv() and self.down.aw.can_send():
            beat = self.up.aw.peek()
            region_idx = self.region_index(beat.addr)
            if self._admit(region_idx):
                self.up.aw.recv()
                self.down.aw.send(beat)
                self._charge(region_idx, beat.total_bytes, is_read=False)
                self._write_inflight[beat.id].append((cycle, region_idx))
                self.outstanding += 1
        # Write data passes through; the budget was charged at the AW
        # (one guarded hand-off through the batch API).
        self.up.w.move_to(self.down.w)
        # Read address.
        if self.up.ar.can_recv() and self.down.ar.can_send():
            beat = self.up.ar.peek()
            region_idx = self.region_index(beat.addr)
            if self._admit(region_idx):
                self.up.ar.recv()
                self.down.ar.send(beat)
                self._charge(region_idx, beat.total_bytes, is_read=True)
                self._read_inflight[beat.id].append((cycle, region_idx))
                self.outstanding += 1

    def tick_response(self, cycle: int) -> None:
        if self.down.b.can_recv() and self.up.b.can_send():
            beat = self.down.b.recv()
            self._record_latency(self._write_inflight, beat.id, cycle)
            self.up.b.send(beat)
            self.transferring_this_cycle = True
        if self.down.r.can_recv() and self.up.r.can_send():
            beat = self.down.r.recv()
            if beat.last:
                self._record_latency(self._read_inflight, beat.id, cycle)
            self.up.r.send(beat)
            self.transferring_this_cycle = True

    def _record_latency(self, table, beat_id: int, cycle: int) -> None:
        fifo = table.get(beat_id)
        if not fifo:
            return  # response without a tracked request
        issue_cycle, region_idx = fifo.popleft()
        self.outstanding -= 1
        if region_idx is not None:
            self.books[region_idx].on_latency(cycle - issue_cycle)

    # ------------------------------------------------------------------
    # snapshot contract: the per-ID defaultdicts travel as plain dicts of
    # their non-empty FIFOs
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        return {
            **super().state_capture(),
            "regions": [region.state_capture() for region in self.regions],
            "books": [book.state_capture() for book in self.books],
            "write_inflight": {
                k: v for k, v in self._write_inflight.items() if v
            },
            "read_inflight": {
                k: v for k, v in self._read_inflight.items() if v
            },
        }

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        for region, region_state in zip(self.regions, state["regions"]):
            region.state_restore(region_state)
        for book, book_state in zip(self.books, state["books"]):
            book.state_restore(book_state)
        self._write_inflight = defaultdict(deque, state["write_inflight"])
        self._read_inflight = defaultdict(deque, state["read_inflight"])

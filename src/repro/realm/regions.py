"""Subordinate regions: address ranges with budget and period.

Each manager's REALM unit is configured (at design time) with a number of
*subordinate regions*; at runtime an OS or hypervisor assigns each region an
address range, a transfer budget in bytes, and a reservation period in
cycles.  Budgets replenish at every period boundary; a depleted region
isolates its manager until the next replenish (paper Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.kernel import Stateful


# A budget large enough to never deplete: used by "monitoring only" setups
# and as the reset value.
UNLIMITED = 1 << 62


@dataclass
class RegionConfig:
    """Runtime configuration of one subordinate region."""

    base: int = 0
    size: int = 0  # size 0 disables the region
    budget_bytes: int = UNLIMITED
    period_cycles: int = UNLIMITED

    def matches(self, addr: int) -> bool:
        return self.size > 0 and self.base <= addr < self.base + self.size


class RegionState(Stateful):
    """Live regulation state of one region: credits and the period clock."""

    _STATE_FIELDS = ("remaining", "cycles_into_period", "periods_elapsed")

    def __init__(self, config: RegionConfig) -> None:
        self.config = config
        self.remaining = config.budget_bytes
        self.cycles_into_period = 0
        self.periods_elapsed = 0

    # ------------------------------------------------------------------
    def advance_cycle(self) -> bool:
        """Advance the period clock; returns True on a replenish edge."""
        return self.advance_cycles(1) > 0

    def advance_cycles(self, n: int) -> int:
        """Advance the period clock by *n* cycles; returns replenish edges.

        Equivalent to *n* calls of :meth:`advance_cycle` provided nothing
        was charged in between — which is exactly the situation when the
        active-set kernel lets an idle REALM unit sleep and catches its
        clock up lazily on wake-up.
        """
        period = self.config.period_cycles
        edges = 0
        if self.cycles_into_period >= period and n > 0:
            # Period was shrunk mid-period: per-cycle semantics yield one
            # edge at the first step, not one per elapsed period.
            self.replenish()
            edges = 1
            n -= 1
        total = self.cycles_into_period + n
        if total < period:
            self.cycles_into_period = total
            return edges
        edges += total // period
        self.cycles_into_period = total % period
        self.remaining = self.config.budget_bytes
        self.periods_elapsed += total // period
        return edges

    def cycles_to_next_edge(self) -> int:
        """Cycles from now until the next replenish edge."""
        return self.config.period_cycles - self.cycles_into_period

    def replenish(self) -> None:
        self.remaining = self.config.budget_bytes
        self.cycles_into_period = 0
        self.periods_elapsed += 1

    def charge(self, nbytes: int) -> None:
        """Spend *nbytes* of budget (may overshoot by one fragment)."""
        self.remaining -= nbytes

    @property
    def depleted(self) -> bool:
        return self.remaining <= 0

    @property
    def budget_fraction(self) -> float:
        """Remaining budget as a fraction of the configured budget."""
        if self.config.budget_bytes <= 0:
            return 0.0
        return max(0.0, min(1.0, self.remaining / self.config.budget_bytes))

    def reconfigure(self, config: RegionConfig) -> None:
        self.config = config
        self.replenish()
        self.periods_elapsed = 0

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        config = self.config
        return {
            **super().state_capture(),
            "base": config.base,
            "size": config.size,
            "budget_bytes": config.budget_bytes,
            "period_cycles": config.period_cycles,
        }

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        # The config object is shared with the owning unit's runtime
        # config view, so it is mutated in place rather than replaced.
        config = self.config
        config.base = state["base"]
        config.size = state["size"]
        config.budget_bytes = state["budget_bytes"]
        config.period_cycles = state["period_cycles"]

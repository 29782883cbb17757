"""Budget/period selection from monitoring data.

The paper motivates the M&R unit's statistics with "optimal budget and
period selection": an operator (or hypervisor) observes each manager's
demand and interference and derives reservation parameters.  This module
implements that step as a small, testable policy:

1. observe per-manager demand (bytes/cycle) and latency from the
   bookkeeping snapshots;
2. translate criticality weights into guaranteed link shares;
3. emit per-manager ``RegionConfig`` budgets for a chosen period, leaving
   headroom so transient bursts do not immediately isolate a manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.realm.bookkeeping import BookkeepingSnapshot
from repro.realm.regions import RegionConfig
from repro.sim.kernel import Stateful


@dataclass(frozen=True)
class ManagerObservation:
    """What the advisor knows about one manager.

    Built either from a bookkeeping *snapshot* (direct register reads) or
    from a pre-computed *demand* in bytes/cycle (e.g. the control plane's
    ``bandwidth_milli`` probe divided by 1000).
    """

    name: str
    snapshot: Optional[BookkeepingSnapshot] = None
    weight: float = 1.0  # criticality weight (relative share)
    demand_bytes_per_cycle: Optional[float] = None

    @property
    def demand(self) -> float:
        """Observed bandwidth demand in bytes/cycle."""
        if self.demand_bytes_per_cycle is not None:
            return self.demand_bytes_per_cycle
        if self.snapshot is None:
            raise ValueError(f"observation {self.name!r} has no demand source")
        return self.snapshot.bandwidth


@dataclass(frozen=True)
class BudgetPlan:
    """Advisor output for one manager."""

    name: str
    budget_bytes: int
    share: float  # guaranteed fraction of the link
    saturated: bool  # True if observed demand exceeds the granted share

    def region(self, base: int, size: int, period: int) -> RegionConfig:
        return RegionConfig(base=base, size=size,
                            budget_bytes=self.budget_bytes,
                            period_cycles=period)


class BudgetAdvisor:
    """Derives per-manager budgets from observations.

    *link_bytes_per_cycle* is the capacity of the regulated subordinate
    (e.g. 8 for a 64-bit port moving one beat per cycle); *headroom*
    inflates each grant so that ordinary jitter does not trip isolation.
    """

    def __init__(self, link_bytes_per_cycle: float = 8.0,
                 headroom: float = 1.25) -> None:
        if link_bytes_per_cycle <= 0:
            raise ValueError("link capacity must be positive")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1.0")
        self.link_bytes_per_cycle = link_bytes_per_cycle
        self.headroom = headroom

    # ------------------------------------------------------------------
    def plan(
        self,
        observations: list[ManagerObservation],
        period_cycles: int,
    ) -> list[BudgetPlan]:
        """Guaranteed-share plan: weights decide the split of the link."""
        if period_cycles <= 0:
            raise ValueError("period must be positive")
        if not observations:
            return []
        total_weight = sum(max(0.0, o.weight) for o in observations)
        if total_weight <= 0:
            raise ValueError("at least one observation needs positive weight")
        capacity = self.link_bytes_per_cycle * period_cycles
        plans = []
        for obs in observations:
            share = max(0.0, obs.weight) / total_weight
            granted = share * capacity
            demand_bytes = obs.demand * period_cycles * self.headroom
            # Grant the smaller of fair share and (inflated) demand; the
            # remainder is implicitly available to others via arbitration.
            budget = int(min(granted, max(demand_bytes, 1.0)))
            plans.append(
                BudgetPlan(
                    name=obs.name,
                    budget_bytes=max(budget, 1),
                    share=share,
                    saturated=obs.demand * period_cycles > granted,
                )
            )
        return plans

    # ------------------------------------------------------------------
    def suggest_period(
        self,
        worst_case_latency_target: int,
        fragment_beats: int,
        beat_bytes: int = 8,
    ) -> int:
        """Shortest reasonable period for a latency target.

        A manager that exhausts its budget waits at most one period for
        replenishment, so the period bounds the regulation-induced
        worst-case latency.  The period must still be long enough that a
        useful number of fragments fit; we require at least 8 fragments
        of budget per period.
        """
        if worst_case_latency_target <= 0:
            raise ValueError("latency target must be positive")
        min_period = 8 * fragment_beats
        return max(min_period, worst_case_latency_target)

    def utilization(self, observations: list[ManagerObservation]) -> float:
        """Total observed demand as a fraction of link capacity."""
        demand = sum(o.demand for o in observations)
        return demand / self.link_bytes_per_cycle


class AdvisorLoop(Stateful):
    """The ROADMAP advisor loop as a closed control-plane client.

    Each :meth:`step` runs one iteration of the paper's operator loop
    entirely over the control plane: *sample* every managed REALM's
    demand through its ``bandwidth_milli`` probe, *plan* budgets with a
    :class:`BudgetAdvisor`, and *write* the resulting ``budget_bytes``
    (and optionally ``period_cycles``) knobs — which route through the
    memory-mapped register file, exactly as a hypervisor would program
    the hardware.  Scenario files instantiate it with an ``advise``
    schedule action; Python callers can drive it directly::

        loop = AdvisorLoop(system.control, managers=["core", "dma"],
                           weights=[2.0, 1.0], period_cycles=1000)
        system.control.every(2000, loop.step, label="advisor")

    Every input and output is an integer probe/knob value, so advised
    runs stay bit-identical across kernels and process-pool fan-out.
    The loop's state is captured through the schedule rule that owns it.
    """

    _STATE_FIELDS = ("history", "_last_cycle", "_last_bytes")

    def __init__(
        self,
        control,
        managers: Sequence[str],
        *,
        period_cycles: int,
        weights: Optional[Sequence[float]] = None,
        region: int = 0,
        link_bytes_per_cycle: float = 8.0,
        headroom: float = 1.25,
        set_period: bool = True,
    ) -> None:
        if not managers:
            raise ValueError("advisor loop needs at least one manager")
        if weights is not None and len(weights) != len(managers):
            raise ValueError(
                f"{len(weights)} weights for {len(managers)} managers"
            )
        self.control = control
        self.managers = list(managers)
        self.weights = list(weights) if weights is not None \
            else [1.0] * len(managers)
        self.region = region
        self.period_cycles = period_cycles
        self.set_period = set_period
        self.advisor = BudgetAdvisor(
            link_bytes_per_cycle=link_bytes_per_cycle, headroom=headroom
        )
        for name in self.managers:
            # Fail at install time, not mid-run, when a manager has no
            # REALM unit (its probes/knobs would be missing).
            control.probes.probe(self._probe_path(name))
            control.knobs.knob(self._knob_path(name, "budget_bytes"))
        #: [{"cycle": c, "budgets": {manager: bytes}}, ...]
        self.history: list[dict[str, Any]] = []
        # Windowed-demand state: total_bytes at the previous firing.
        self._last_cycle: Optional[int] = None
        self._last_bytes: dict[str, int] = {}

    def _probe_path(self, name: str) -> str:
        return f"realm.{name}.region{self.region}.total_bytes"

    def _knob_path(self, name: str, field: str) -> str:
        return f"realm.{name}.region{self.region}.{field}"

    # ------------------------------------------------------------------
    def observe(self, cycle: int = -1) -> list[ManagerObservation]:
        """Sample each manager's demand over the window since the last
        firing (``total_bytes`` delta / elapsed cycles).

        Windowed demand is what a real operator loop measures: it is
        independent of where the firing lands relative to a region's
        replenish edge, unlike the instantaneous in-period bandwidth,
        which reads near zero right after a rollover.  Without a cycle
        (manual call before any run), demand falls back to the
        instantaneous ``bandwidth_milli`` probe.
        """
        observations = []
        for name, weight in zip(self.managers, self.weights):
            total = self.control.probes.read(self._probe_path(name))
            since = self._last_cycle if self._last_cycle is not None else 0
            baseline = self._last_bytes.get(name, 0)
            if cycle > since:
                demand = (total - baseline) / (cycle - since)
            else:
                milli = self.control.probes.read(
                    f"realm.{name}.region{self.region}.bandwidth_milli"
                )
                demand = milli / 1000.0
            observations.append(
                ManagerObservation(name=name, weight=weight,
                                   demand_bytes_per_cycle=demand)
            )
            self._last_bytes[name] = total
        if cycle >= 0:
            self._last_cycle = cycle
        return observations

    def step(self, cycle: int = -1) -> list[BudgetPlan]:
        """One sample -> plan -> reconfigure iteration."""
        plans = self.advisor.plan(self.observe(cycle), self.period_cycles)
        for plan in plans:
            self.control.knobs.set(
                self._knob_path(plan.name, "budget_bytes"), plan.budget_bytes
            )
            if self.set_period:
                self.control.knobs.set(
                    self._knob_path(plan.name, "period_cycles"),
                    self.period_cycles,
                )
        self.history.append({
            "cycle": cycle,
            "budgets": {plan.name: plan.budget_bytes for plan in plans},
        })
        return plans

"""Experiment runners for the paper's functional evaluation (Figure 6).

:class:`ContentionExperiment` is now a thin, typed front end over the
declarative scenario subsystem (:mod:`repro.scenario`): every run is
expressed as one scenario point — the Cheshire-like topology, a
Susan-like trace on the core, the worst-case double-buffering burst
pattern on the DSA DMA, and the REALM configuration under test — and
executed by the same runner that powers ``python -m repro run
scenarios/fig6a.toml``.  Both Figure 6a (fragmentation sweep) and
Figure 6b (budget-imbalance sweep) are parameter sweeps over
:meth:`ContentionExperiment.run`; the shipped ``scenarios/fig6a.toml``
and ``scenarios/fig6b.toml`` files declare the same campaigns and
produce cycle-identical numbers.

``active_set=False`` runs every simulation on the naive tick-everything
kernel; the default uses the active-set kernel, which produces
cycle-identical results and is what the kernel-speed benchmark compares
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.stats import LatencyStats, performance_percent
from repro.realm.regions import UNLIMITED
from repro.soc.cheshire import DRAM_BASE, PERIPH_BASE, SPM_BASE, CheshireConfig


@dataclass(frozen=True)
class ContentionResult:
    """Outcome of one contention run."""

    label: str
    execution_cycles: int
    perf_percent: float  # relative to the single-source baseline
    latency: LatencyStats
    dma_bytes: int
    sim_cycles: int

    @property
    def worst_case_latency(self) -> int:
        return self.latency.maximum


@dataclass
class ContentionExperiment:
    """Reusable Figure-6 test bench (a preset over ``repro.scenario``)."""

    n_accesses: int = 150
    gap_mean: int = 1
    # CVA6's L1 refills are two 64-bit beats (128-bit cache lines).
    core_beats: int = 2
    core_footprint: int = 16 * 1024
    dma_window: int = 16 * 1024
    dma_burst_beats: int = 256
    seed: int = 42
    max_cycles: int = 2_000_000
    soc_config: Optional[CheshireConfig] = None
    active_set: bool = True
    _baseline_cycles: Optional[int] = field(default=None, repr=False)

    # Core working set and DMA source window live in LLC-cached DRAM at
    # disjoint offsets; the DMA destination is the SPM (Figure 5).
    @property
    def core_base(self) -> int:
        return DRAM_BASE

    @property
    def dma_src_base(self) -> int:
        return DRAM_BASE + self.core_footprint

    # ------------------------------------------------------------------
    def _scenario_dict(
        self,
        with_dma: bool,
        fragmentation: int = 256,
        core_budget: int = UNLIMITED,
        dma_budget: int = UNLIMITED,
        period: int = UNLIMITED,
        regulation: bool = True,
        throttle: bool = False,
    ) -> dict:
        """One Figure-6 run in canonical scenario-dict form."""
        from repro.scenario.spec import realm_params_to_dict

        cfg = self.soc_config or CheshireConfig()
        budgets = {"core": core_budget, "dma": dma_budget}
        managers = []
        for name, protected in cfg.managers.items():
            manager: dict = {"name": name, "protect": protected}
            if protected:
                manager["realm"] = realm_params_to_dict(cfg.realm_params)
            if protected and name in budgets:
                manager.update(
                    granularity=fragmentation,
                    regulation=regulation,
                    throttle=throttle,
                    regions=[{
                        "base": DRAM_BASE,
                        "size": cfg.dram_size,
                        "budget_bytes": budgets[name],
                        "period_cycles": period,
                    }],
                )
            managers.append(manager)
        return {
            "scenario": {"name": "fig6", "seed": self.seed,
                         "active_set": self.active_set},
            "run": {"until": ["core"], "max_cycles": self.max_cycles},
            "topology": {
                "interconnect": "crossbar",
                "managers": managers,
                "memories": [
                    {
                        "name": "dram", "kind": "cached_dram",
                        "base": DRAM_BASE, "size": cfg.dram_size,
                        "timing": {
                            "t_cas": cfg.dram_timing.t_cas,
                            "t_rcd": cfg.dram_timing.t_rcd,
                            "t_rp": cfg.dram_timing.t_rp,
                            "row_bytes": cfg.dram_timing.row_bytes,
                            "n_banks": cfg.dram_timing.n_banks,
                        },
                        "cache_name": "llc",
                        "llc_capacity": cfg.llc_capacity,
                        "llc_ways": cfg.llc_ways,
                        "line_bytes": cfg.llc_line_bytes,
                        "hit_latency": cfg.llc_hit_latency,
                        "front_capacity": 4,
                    },
                    {
                        "name": "spm", "kind": "sram",
                        "base": SPM_BASE, "size": cfg.spm_size,
                        "read_latency": cfg.spm_latency,
                        "write_latency": cfg.spm_latency,
                    },
                    {
                        "name": "periph", "kind": "sram",
                        "base": PERIPH_BASE, "size": cfg.periph_size,
                    },
                ],
            },
            "traffic": {
                "core": {
                    "kind": "core", "pattern": "susan",
                    "n_accesses": self.n_accesses, "base": self.core_base,
                    "footprint": self.core_footprint,
                    "gap_mean": self.gap_mean, "beats": self.core_beats,
                    "size": 3, "seed": self.seed,
                },
                "dma": {
                    "kind": "dma", "enabled": with_dma,
                    "src_base": self.dma_src_base,
                    "src_size": self.dma_window,
                    "dst_base": SPM_BASE, "dst_size": self.dma_window,
                    "burst_beats": self.dma_burst_beats,
                },
            },
            # Hot LLC, as in the paper's measurement phase.
            "warm": [
                {"cache": "llc", "base": self.core_base,
                 "size": self.core_footprint},
                {"cache": "llc", "base": self.dma_src_base,
                 "size": self.dma_window},
            ],
        }

    def _point(self, label: str, with_dma: bool, **config):
        """One Figure-6 run as a validated campaign point."""
        # Imported lazily: repro.scenario.report pulls in
        # repro.analysis.stats, so a module-level import here would cycle.
        from repro.scenario.spec import validate
        from repro.scenario.sweep import ExpandedPoint

        spec = validate(self._scenario_dict(with_dma, **config))
        return ExpandedPoint(index=0, label=label, seed=self.seed, spec=spec)

    def build(
        self,
        with_dma: bool = True,
        fragmentation: int = 256,
        core_budget: int = UNLIMITED,
        dma_budget: int = UNLIMITED,
        period: int = UNLIMITED,
        regulation: bool = True,
        throttle: bool = False,
    ):
        """Elaborate one configured platform without running it.

        Returns ``(system, generators)`` — the assembled
        :class:`repro.system.System` and the traffic components keyed by
        manager — for callers that drive the simulation themselves
        (mid-run monitoring, advisor loops).
        """
        from repro.scenario.runner import _elaborate_point

        return _elaborate_point(self._point(
            "build", with_dma, fragmentation=fragmentation,
            core_budget=core_budget, dma_budget=dma_budget, period=period,
            regulation=regulation, throttle=throttle,
        ))

    def _run_point(self, label: str, with_dma: bool, **config):
        from repro.scenario.runner import run_point

        return run_point(self._point(label, with_dma, **config))

    # ------------------------------------------------------------------
    def run_single_source(self) -> ContentionResult:
        """Core alone (grey dashed baseline of Figure 6)."""
        point = self._run_point(
            "single-source", with_dma=False, regulation=False
        )
        self._baseline_cycles = point.execution_cycles
        return ContentionResult(
            label="single-source",
            execution_cycles=point.execution_cycles,
            perf_percent=100.0,
            latency=point.latency,
            dma_bytes=0,
            sim_cycles=point.sim_cycles,
        )

    def run(
        self,
        fragmentation: int = 256,
        core_budget: int = UNLIMITED,
        dma_budget: int = UNLIMITED,
        period: int = UNLIMITED,
        regulation: bool = True,
        throttle: bool = False,
        label: str = "",
    ) -> ContentionResult:
        """One contended run under the given REALM configuration."""
        if self._baseline_cycles is None:
            self.run_single_source()
        point = self._run_point(
            label or f"frag={fragmentation}", with_dma=True,
            fragmentation=fragmentation, core_budget=core_budget,
            dma_budget=dma_budget, period=period, regulation=regulation,
            throttle=throttle,
        )
        return ContentionResult(
            label=point.label,
            execution_cycles=point.execution_cycles,
            perf_percent=performance_percent(
                self._baseline_cycles, point.execution_cycles
            ),
            latency=point.latency,
            dma_bytes=point.dma_bytes(),
            sim_cycles=point.sim_cycles,
        )

    def run_without_reservation(self) -> ContentionResult:
        """Uncontrolled contention (no regulation, bursts pass whole)."""
        return self.run(
            fragmentation=256, regulation=False, label="without-reservation"
        )

    # ------------------------------------------------------------------
    def sweep_fragmentation(
        self, fragmentations: tuple[int, ...] = (256, 128, 64, 32, 16, 8, 4, 2, 1)
    ) -> list[ContentionResult]:
        """Figure 6a: equal budgets, very long period, varying granularity."""
        out = []
        for frag in fragmentations:
            out.append(
                self.run(
                    fragmentation=frag,
                    core_budget=UNLIMITED,
                    dma_budget=UNLIMITED,
                    period=UNLIMITED,
                    regulation=True,
                    label=f"frag={frag}",
                )
            )
        return out

    def sweep_budget(
        self,
        ratios: tuple[int, ...] = (1, 2, 3, 4, 5),
        period: int = 1000,
        full_budget: int = 8192,
    ) -> list[ContentionResult]:
        """Figure 6b: fragmentation 1, shrinking the DMA budget 1/1 -> 1/5."""
        out = []
        for ratio in ratios:
            out.append(
                self.run(
                    fragmentation=1,
                    core_budget=full_budget,
                    dma_budget=full_budget // ratio,
                    period=period,
                    regulation=True,
                    label=f"dma=1/{ratio}",
                )
            )
        return out

"""Campaign results: aggregation, relative metrics, JSON/CSV reports.

A :class:`PointResult` is plain data (picklable across the process-pool
fan-out, JSON-serializable for reports).  :class:`CampaignResult` adds
the cross-point metrics — performance relative to the campaign's
baseline point, the quantity Figure 6 plots — and writes the report
artefacts.  ``digest()`` is the stable observable summary the
golden-trace regression harness locks down.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Optional, Union

from repro.analysis.stats import LatencyStats, performance_percent
from repro.scenario.spec import ScenarioSpec


@dataclass
class PointResult:
    """Outcome of one campaign point (plain data)."""

    label: str
    index: int
    seed: int
    sim_cycles: int
    primary_manager: Optional[str]
    execution_cycles: Optional[int]
    observables: dict[str, Any]
    latencies: dict[str, list[int]] = field(default_factory=dict)
    perf_percent: Optional[float] = None  # filled by CampaignResult
    # Flight-recorder registry snapshot ({"counters", "gauges",
    # "histograms"} — repro.obs) when the point ran with profiling or
    # trace recording enabled; None otherwise.  Execution-side only:
    # deliberately excluded from to_dict()/digest() so reports and
    # goldens are byte-identical with and without the recorder
    # (DESIGN.md section 15).
    metrics: Optional[dict] = None
    # Journal dump for the Chrome-trace exporter (``--trace-out``);
    # None when the journal was disabled.  Excluded from reports like
    # ``metrics``.
    trace: Optional[dict] = None

    @property
    def profile(self) -> Optional[list]:
        """Per-component ``(name, seconds, ticks)`` rows, slowest first.

        Stride-sampled estimates read from the metrics registry; None
        unless the point ran with the flight recorder (``--profile`` or
        trace recording).
        """
        metrics = self.metrics
        if metrics is None:
            return None
        from repro.obs import profile_rows

        return profile_rows(metrics)

    @property
    def span_stats(self) -> Optional[dict]:
        """Span-replay execution statistics, read from the registry.

        None when the point ran without the flight recorder (the
        numbers describe the execution strategy, not the modelled SoC).
        """
        metrics = self.metrics
        if metrics is None:
            return None
        from repro.obs import span_stats_view

        return span_stats_view(metrics)

    @cached_property
    def latency(self) -> LatencyStats:
        """Latency statistics of the primary core (empty stats if none).

        Cached: the sample list never changes after construction, and the
        table/JSON/CSV emitters all read these stats repeatedly.
        """
        samples = self.latencies.get(self.primary_manager or "", [])
        return LatencyStats.from_samples(samples)

    @property
    def worst_case_latency(self) -> int:
        return self.latency.maximum

    def dma_bytes(self) -> int:
        """Total bytes moved by DMA-style generators in this point."""
        total = 0
        for counters in self.observables.get("managers", {}).values():
            total += counters.get("bytes_read", 0)
            total += counters.get("bytes_written", 0)
        return total

    @property
    def timeseries(self) -> dict[str, list[dict[str, Any]]]:
        """Sampled probe timeseries by rule label (empty when the point
        declared no ``[probes]``/``[[schedule]]`` sampling)."""
        return self.observables.get("control", {}).get("series", {})

    @property
    def rules_fired(self) -> dict[str, int]:
        """Schedule-rule firing counts by label."""
        return self.observables.get("control", {}).get("fired", {})

    def to_dict(self) -> dict[str, Any]:
        stats = self.latency
        return {
            "label": self.label,
            "index": self.index,
            "seed": self.seed,
            "sim_cycles": self.sim_cycles,
            "primary_manager": self.primary_manager,
            "execution_cycles": self.execution_cycles,
            "perf_percent": self.perf_percent,
            "latency": {
                "count": stats.count,
                "min": stats.minimum,
                "max": stats.maximum,
                "mean": stats.mean,
                "p95": stats.p95,
                "p99": stats.p99,
            },
            "observables": self.observables,
        }


@dataclass
class CampaignResult:
    """All points of one campaign, with relative metrics filled in."""

    name: str
    description: str
    seed: int
    active_set: Optional[bool]
    baseline_label: str
    points: list[PointResult]
    batched: Optional[bool] = None
    # Cycle the shared root prefix was snapshotted at when the campaign
    # ran fork-tree execution and the whole sweep shares one prefix;
    # None for scratch runs and grouped trees.  Informational only:
    # deliberately kept out of to_json_dict()/digest() so reports and
    # goldens are byte-identical between fork and scratch execution.
    fork_cycle: Optional[int] = None
    # Fork-tree amortization statistics ({"planned": plan summary,
    # "executed": actual prefix/saved cycles}) when the campaign ran
    # fork-tree execution; None otherwise.  Informational like
    # fork_cycle: excluded from to_json_dict()/digest() so fork-tree
    # reports stay byte-identical to scratch reports.
    fork_stats: Optional[dict] = None
    # Fork-tree edge records for the trace exporter (node ids, spans of
    # simulated cycles, host seconds per edge) when the campaign ran
    # fork-tree execution with recording enabled; None otherwise.
    # Execution-side like fork_stats: excluded from reports/digests,
    # and deliberately not part of fork_stats (whose executed summary
    # is asserted identical across pooled and sequential runs — wall
    # seconds are not).
    fork_trace: Optional[list] = None

    @classmethod
    def from_points(
        cls,
        spec: ScenarioSpec,
        points: list[PointResult],
        *,
        active_set: Optional[bool] = None,
        batched: Optional[bool] = None,
    ) -> "CampaignResult":
        result = cls(
            name=spec.name,
            description=spec.description,
            seed=spec.seed,
            active_set=spec.active_set if active_set is None else active_set,
            batched=spec.batched if batched is None else batched,
            baseline_label=spec.campaign.baseline,
            points=list(points),
        )
        result._fill_relative()
        return result

    def _fill_relative(self) -> None:
        baseline = self.point(self.baseline_label) if self.baseline_label \
            else None
        if baseline is None or baseline.execution_cycles is None:
            return
        for point in self.points:
            if point.execution_cycles is not None:
                point.perf_percent = performance_percent(
                    baseline.execution_cycles, point.execution_cycles
                )

    # ------------------------------------------------------------------
    def point(self, label: str) -> Optional[PointResult]:
        for candidate in self.points:
            if candidate.label == label:
                return candidate
        return None

    def digest(self) -> dict[str, Any]:
        """Stable per-point observables, keyed by label (golden traces)."""
        return {p.label: p.observables for p in self.points}

    # ------------------------------------------------------------------
    def format_table(self) -> str:
        lines = [
            f"{'point':<24} {'perf [%]':>9} {'exec':>8} {'worst lat':>10} "
            f"{'mean lat':>9} {'sim cycles':>11}"
        ]
        for p in self.points:
            perf = f"{p.perf_percent:>9.1f}" if p.perf_percent is not None \
                else f"{'-':>9}"
            execu = f"{p.execution_cycles:>8d}" \
                if p.execution_cycles is not None else f"{'-':>8}"
            stats = p.latency
            lines.append(
                f"{p.label:<24} {perf} {execu} {stats.maximum:>10d} "
                f"{stats.mean:>9.1f} {p.sim_cycles:>11d}"
            )
        return "\n".join(lines)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.name,
            "description": self.description,
            "seed": self.seed,
            "active_set": self.active_set,
            "batched": self.batched,
            "baseline": self.baseline_label or None,
            "points": [p.to_dict() for p in self.points],
        }

    def write_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), indent=2) + "\n",
            encoding="utf-8",
        )

    def write_timeseries_csv(self, path: Union[str, Path]) -> None:
        """Long-form CSV of every sampled probe value of every point:
        one ``label,rule,cycle,probe,value`` row per sample entry."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["label", "rule", "cycle", "probe", "value"])
            for p in self.points:
                for rule, samples in p.timeseries.items():
                    for entry in samples:
                        for probe, value in entry["values"].items():
                            writer.writerow(
                                [p.label, rule, entry["cycle"], probe, value]
                            )

    def write_csv(self, path: Union[str, Path]) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["label", "seed", "sim_cycles", "execution_cycles",
                 "perf_percent", "latency_count", "latency_mean",
                 "latency_p95", "latency_max", "dma_bytes"]
            )
            for p in self.points:
                stats = p.latency
                writer.writerow(
                    [p.label, p.seed, p.sim_cycles, p.execution_cycles,
                     p.perf_percent, stats.count, stats.mean, stats.p95,
                     stats.maximum, p.dma_bytes()]
                )

"""Importable helpers for the benchmark harness.

Kept outside ``conftest.py`` so that ``from _bench_utils import emit``
cannot collide with the test suite's ``conftest`` module (pytest imports
every conftest under the same module name).

The datapoint scripts (``kernel_speed.py``,
``bench_streaming_throughput.py``, ``bench_fork_sweep.py``,
``bench_control_overhead.py``) share one timing loop,
:func:`time_variants`, and one history writer, :func:`append_history`;
``check_regression.py`` judges the histories they append to.
"""

from __future__ import annotations

import gc
import json
import platform
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

# Imported here, before any clock starts, so no timed run pays for them
# (the runner imports repro.snapshot lazily, on a campaign's first run).
import repro.snapshot  # noqa: F401
from repro.scenario import load_file, run_campaign, validate

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# The idle-heavy period-sweep workload: a duty-cycled core (compute gaps
# between accesses) against a budget-throttled DMA at a constant share.
# Shared by bench_period_sweep.py (the figure) and kernel_speed.py (the
# BENCH_kernel.json datapoint) so the two always measure the same thing.
SWEEP_PERIODS = (250, 500, 1000, 2000, 4000)
SWEEP_DMA_SHARE = 0.125
SWEEP_GAP_MEAN = 30
SWEEP_N_ACCESSES = 100


class Sample(NamedTuple):
    key: Any
    seconds: float
    value: Any


def time_variants(variants: Sequence[tuple[Any, Callable[[], Any]]],
                  rounds: int = 1, own_clock: bool = False) -> list[Sample]:
    """Time each ``(key, run)`` variant once per round, in order.

    Rounds interleave the variants, so every variant sees the same
    machine state; a key may appear more than once in *variants* (the
    control bench's ABBA quads).  Each run starts after a full
    collection.  With *own_clock*, ``run()`` returns ``(seconds,
    value)`` from a clock of its own instead of being timed around.
    Returns the samples in run order.
    """
    samples = []
    for _ in range(rounds):
        for key, run in variants:
            gc.collect()
            t0 = time.perf_counter()
            value = run()
            seconds = time.perf_counter() - t0
            if own_clock:
                seconds, value = value
            samples.append(Sample(key, seconds, value))
    return samples


def best_of(samples: list[Sample]) -> dict:
    """The fastest time of each key."""
    best: dict = {}
    for sample in samples:
        best[sample.key] = min(best.get(sample.key, sample.seconds),
                               sample.seconds)
    return best


def host_info() -> dict:
    """The interpreter and platform a datapoint was measured on."""
    return {"python": platform.python_version(),
            "platform": platform.platform()}


def append_history(path, payload: dict) -> None:
    """Append *payload* to the JSON datapoint history at *path*."""
    file = Path(path)
    history: list = []
    if file.exists():
        history = json.loads(file.read_text(encoding="utf-8"))
    history.append(payload)
    file.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def run_period_sweep(active_set: bool):
    """Run the idle-heavy period sweep on the chosen kernel.

    The campaign is ``scenarios/fig6a.toml`` with a duty-cycled core:
    its core-alone baseline point, then one fragmentation-1 point per
    period in place of the fragmentation sweep.

    Returns ``(rows, simulated_cycles)``; rows are
    ``(period, dma_budget, perf_percent, worst_latency, mean_latency)``.
    """
    tree = load_file(SCENARIO_DIR / "fig6a.toml").to_dict()
    tree["traffic"]["core"].update(
        n_accesses=SWEEP_N_ACCESSES, gap_mean=SWEEP_GAP_MEAN
    )
    campaign = tree["campaign"]
    campaign["points"] = [
        point for point in campaign["points"]
        if point["label"] == campaign["baseline"]
    ]
    campaign["sweep"] = []
    budgets = [int(8 * period * SWEEP_DMA_SHARE)  # bytes per period
               for period in SWEEP_PERIODS]
    for period, budget in zip(SWEEP_PERIODS, budgets):
        campaign["points"].append({"label": f"period={period}", "set": {
            "topology.managers.core.granularity": 1,
            "topology.managers.dma.granularity": 1,
            "topology.managers.core.regions.0.budget_bytes": 1 << 40,
            "topology.managers.core.regions.0.period_cycles": period,
            "topology.managers.dma.regions.0.budget_bytes": budget,
            "topology.managers.dma.regions.0.period_cycles": period,
        }})
    result = run_campaign(validate(tree), active_set=active_set)
    rows = []
    for period, budget in zip(SWEEP_PERIODS, budgets):
        point = result.point(f"period={period}")
        rows.append((period, budget, point.perf_percent,
                     point.worst_case_latency, point.latency.mean))
    cycles = sum(point.sim_cycles for point in result.points)
    return rows, cycles


def emit(title: str, lines: list[str]) -> None:
    """Print a reproduction block (visible with -s and in tee'd output)."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}")
    for line in lines:
        print(line)
    print(bar)

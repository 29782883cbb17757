#!/usr/bin/env python3
"""Fork-vs-scratch campaign datapoints: how much prefix sharing saves.

Two sweeps, both derived from the shipped ``fig6a.toml`` platform (its
topology, traffic, and warm-up), each appending one tagged payload to
``BENCH_snapshot.json``:

* ``"sweep": "flat"`` — a single-snapshot tree: one ``[[schedule]]`` rule
  programs the DMA's REALM budget/period at a fixed cycle, swept over
  the budget value.  Every point is identical up to that firing, so
  the whole campaign shares a single snapshot.

* ``"sweep": "grouped"`` — the fork-*tree* shape: the same settable
  budget axis crossed with a non-settable traffic axis
  (``traffic.dma.burst_beats``).  The burst groups diverge from cycle
  0 and share nothing with each other, but each group still amortizes
  its own prefix behind one snapshot — the grouped execution this
  repo's planner exists for.  The payload carries the planner's tree
  stats next to the measured speedup.

Both variants run scratch and ``fork=True`` interleaved (best of
*ROUNDS*) and verify the digests are byte-identical — fork execution
must never change a result.  ``check_snapshot_regression.py`` gates CI
on the flat ratio and on the grouped sweep's absolute floor.

Run:  python benchmarks/bench_fork_sweep.py [output.json]
"""

from __future__ import annotations

import gc
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_utils import emit  # noqa: E402
from repro.scenario import (  # noqa: E402
    load_file,
    plan_fork_tree,
    run_campaign,
)
from repro.scenario.spec import validate  # noqa: E402
from repro.scenario.sweep import expand  # noqa: E402

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
ROUNDS = 3
FORK_CYCLE = 3000
BUDGETS = (512, 2048, 8192, 1 << 40)
# The bench-smoke assertion: forking must beat scratch execution by at
# least this factor.  With a ~3000-cycle prefix shared by 4 points the
# recorded speedups sit well above it; the regression gate guards drift.
MIN_SPEEDUP = 1.15

# Grouped fork-tree variant: two burst groups x four budgets over a
# fixed horizon, with the budget cut at 80% of it.  Scratch simulates
# 8 horizons; the tree simulates 2 prefixes + 8 tails = 3.2 horizons,
# a 2.5x ideal — the absolute floor below keeps a healthy margin for
# snapshot/restore overhead and is CI-gated (an ISSUE acceptance bar,
# not a relative drift check).
GROUPED_HORIZON = 4000
GROUPED_CUT = 3200
GROUPED_BURSTS = (64, 256)
MIN_GROUPED_SPEEDUP = 2.0


def _fork_sweep_spec():
    """fig6a's platform under a schedule-value sweep of the DMA budget."""
    tree = load_file(SCENARIO_DIR / "fig6a.toml").to_dict()
    tree.pop("campaign", None)
    tree.pop("smoke", None)
    tree["schedule"] = [{
        "label": "reserve",
        "at": FORK_CYCLE,
        "set": {
            "realm.dma.region0.budget_bytes": BUDGETS[0],
            "realm.dma.region0.period_cycles": 1000,
        },
    }]
    tree["campaign"] = {
        "sweep": [{
            "field": "schedule.reserve.set.realm.dma.region0.budget_bytes",
            "values": list(BUDGETS),
            "labels": [f"budget={b}" for b in BUDGETS],
        }],
    }
    return validate(tree)


def _grouped_sweep_spec():
    """The flat sweep crossed with a non-settable burst-length axis,
    over a fixed horizon so the amortization is structural."""
    tree = _fork_sweep_spec().to_dict()
    tree["run"] = {"horizon": GROUPED_HORIZON}
    tree["schedule"][0]["at"] = GROUPED_CUT
    tree["campaign"]["sweep"].append({
        "field": "traffic.dma.burst_beats",
        "values": list(GROUPED_BURSTS),
        "labels": [f"burst={b}" for b in GROUPED_BURSTS],
    })
    return validate(tree)


def _time_campaign(spec, fork: bool):
    gc.collect()
    t0 = time.perf_counter()
    result = run_campaign(spec, fork=fork)
    return time.perf_counter() - t0, result


def measure() -> dict:
    spec = _fork_sweep_spec()
    tree = plan_fork_tree(expand(spec))
    assert tree.shares_prefix and tree.root.cycle == FORK_CYCLE, (
        "the derived sweep must expose a provable shared prefix"
    )
    best = {False: float("inf"), True: float("inf")}
    digests = {}
    fork_cycle = None
    for _ in range(ROUNDS):
        # Interleave so both modes see the same machine state.
        for fork in (False, True):
            elapsed, result = _time_campaign(spec, fork)
            best[fork] = min(best[fork], elapsed)
            digests[fork] = result.digest()
            if fork:
                fork_cycle = result.fork_cycle
    assert digests[True] == digests[False], (
        "fork-point execution diverged from the scratch sweep — the "
        "speedup would compare different results"
    )
    total_cycles = sum(
        point["sim_cycles"] for point in digests[False].values()
    )
    return {
        "sweep": "flat",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rounds": ROUNDS,
        "points": len(digests[False]),
        "fork_cycle": fork_cycle,
        "simulated_cycles_total": total_cycles,
        "prefix_fraction": round(
            len(digests[False]) * fork_cycle / total_cycles, 3
        ),
        "scratch_seconds": round(best[False], 5),
        "fork_seconds": round(best[True], 5),
        "speedup": round(best[False] / best[True], 3),
    }


def measure_grouped() -> dict:
    spec = _grouped_sweep_spec()
    tree = plan_fork_tree(expand(spec))
    plan = tree.describe()
    assert plan["snapshot_nodes"] == len(GROUPED_BURSTS) and plan[
        "fallbacks"
    ], "the grouped sweep must split into burst groups that each snapshot"
    best = {False: float("inf"), True: float("inf")}
    digests = {}
    fork_stats = None
    for _ in range(ROUNDS):
        for fork in (False, True):
            elapsed, result = _time_campaign(spec, fork)
            best[fork] = min(best[fork], elapsed)
            digests[fork] = result.digest()
            if fork:
                fork_stats = result.fork_stats
    assert digests[True] == digests[False], (
        "fork-tree execution diverged from the scratch sweep — the "
        "speedup would compare different results"
    )
    total_cycles = sum(
        point["sim_cycles"] for point in digests[False].values()
    )
    return {
        "sweep": "grouped",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "rounds": ROUNDS,
        "points": len(digests[False]),
        "snapshot_nodes": plan["snapshot_nodes"],
        "tree_nodes": plan["nodes"],
        "simulated_cycles_total": total_cycles,
        "prefix_cycles": fork_stats["executed"]["prefix_cycles"],
        "saved_cycles": fork_stats["executed"]["saved_cycles"],
        "saved_fraction": round(
            fork_stats["executed"]["saved_cycles"] / total_cycles, 3
        ),
        "scratch_seconds": round(best[False], 5),
        "fork_seconds": round(best[True], 5),
        "speedup": round(best[False] / best[True], 3),
    }


def _append(path, payload: dict) -> None:
    file = Path(path)
    history: list = []
    if file.exists():
        history = json.loads(file.read_text(encoding="utf-8"))
    history.append(payload)
    file.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def _emit(payload: dict) -> None:
    emit("Fork-point campaign execution (fig6a budget sweep)", [
        f"{payload['points']} points, shared prefix "
        f"{payload['fork_cycle']} cycles "
        f"({100 * payload['prefix_fraction']:.0f}% of simulated work)",
        f"scratch {payload['scratch_seconds']:.3f}s   "
        f"fork {payload['fork_seconds']:.3f}s   "
        f"speedup {payload['speedup']:.2f}x",
    ])


def _emit_grouped(payload: dict) -> None:
    emit("Fork-tree campaign execution (budget x burst grouped sweep)", [
        f"{payload['points']} points, {payload['snapshot_nodes']} "
        f"snapshot nodes, {payload['saved_cycles']} point-cycles saved "
        f"({100 * payload['saved_fraction']:.0f}% of simulated work)",
        f"scratch {payload['scratch_seconds']:.3f}s   "
        f"fork {payload['fork_seconds']:.3f}s   "
        f"speedup {payload['speedup']:.2f}x (floor "
        f"{MIN_GROUPED_SPEEDUP:.1f}x)",
    ])


def test_fork_sweep_datapoint(tmp_path):
    payload = measure()
    _emit(payload)
    _append(tmp_path / "BENCH_snapshot.json", payload)
    assert payload["speedup"] >= MIN_SPEEDUP, (
        "fork-point execution no longer pays for itself: "
        f"{payload['speedup']:.2f}x < {MIN_SPEEDUP}x"
    )


def test_grouped_fork_tree_datapoint(tmp_path):
    payload = measure_grouped()
    _emit_grouped(payload)
    _append(tmp_path / "BENCH_snapshot.json", payload)
    assert payload["speedup"] >= MIN_GROUPED_SPEEDUP, (
        "grouped fork-tree execution fell below its acceptance floor: "
        f"{payload['speedup']:.2f}x < {MIN_GROUPED_SPEEDUP}x"
    )


def main(argv: list[str]) -> int:
    out_path = argv[1] if len(argv) > 1 else "BENCH_snapshot.json"
    failed = False
    for payload, floor, name in (
        (measure(), MIN_SPEEDUP, "flat fork"),
        (measure_grouped(), MIN_GROUPED_SPEEDUP, "grouped fork-tree"),
    ):
        _append(out_path, payload)
        print(json.dumps(payload, indent=2))
        if payload["speedup"] < floor:
            print(f"FATAL: {name} speedup below {floor}x")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

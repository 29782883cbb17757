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
must never change a result.  ``check_regression.py`` gates CI on each
sweep's drift and floor.

Run:  python benchmarks/bench_fork_sweep.py [output.json]
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_utils import (  # noqa: E402
    SCENARIO_DIR,
    append_history,
    best_of,
    host_info,
    time_variants,
)
from repro.scenario import (  # noqa: E402
    load_file,
    plan_fork_tree,
    run_campaign,
)
from repro.scenario.spec import validate  # noqa: E402
from repro.scenario.sweep import expand  # noqa: E402

ROUNDS = 3
FORK_CYCLE = 3000
BUDGETS = (512, 2048, 8192, 1 << 40)

# Grouped fork-tree variant: two burst groups x four budgets over a
# fixed horizon, with the budget cut at 80% of it.  Scratch simulates
# 8 horizons; the tree simulates 2 prefixes + 8 tails = 3.2 horizons,
# a 2.5x ideal (``check_regression.py`` holds it to a 2.0x floor).
GROUPED_HORIZON = 4000
GROUPED_CUT = 3200
GROUPED_BURSTS = (64, 256)


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


def _scratch_vs_fork(spec):
    """Time *spec* from scratch and forked, interleaved, best of ROUNDS.

    Returns ``(digest, simulated_cycles_total, fork_result, timing)``,
    with the ``scratch_seconds``/``fork_seconds``/``speedup`` payload
    fields in *timing*.
    """
    samples = time_variants([
        (fork, partial(run_campaign, spec, fork=fork))
        for fork in (False, True)
    ], ROUNDS)
    best = best_of(samples)
    last = {sample.key: sample.value for sample in samples}
    digest = last[False].digest()
    assert last[True].digest() == digest, (
        "fork execution diverged from the scratch sweep — the speedup "
        "would compare different results"
    )
    total_cycles = sum(point["sim_cycles"] for point in digest.values())
    return digest, total_cycles, last[True], {
        "scratch_seconds": round(best[False], 5),
        "fork_seconds": round(best[True], 5),
        "speedup": round(best[False] / best[True], 3),
    }


def measure() -> dict:
    spec = _fork_sweep_spec()
    tree = plan_fork_tree(expand(spec))
    assert tree.shares_prefix and tree.root.cycle == FORK_CYCLE, (
        "the derived sweep must expose a provable shared prefix"
    )
    digest, total_cycles, forked, timing = _scratch_vs_fork(spec)
    return {
        "sweep": "flat",
        **host_info(),
        "rounds": ROUNDS,
        "points": len(digest),
        "fork_cycle": forked.fork_cycle,
        "simulated_cycles_total": total_cycles,
        "prefix_fraction": round(
            len(digest) * forked.fork_cycle / total_cycles, 3
        ),
        **timing,
    }


def measure_grouped() -> dict:
    spec = _grouped_sweep_spec()
    plan = plan_fork_tree(expand(spec)).describe()
    assert plan["snapshot_nodes"] == len(GROUPED_BURSTS) and plan[
        "fallbacks"
    ], "the grouped sweep must split into burst groups that each snapshot"
    digest, total_cycles, forked, timing = _scratch_vs_fork(spec)
    executed = forked.fork_stats["executed"]
    return {
        "sweep": "grouped",
        **host_info(),
        "rounds": ROUNDS,
        "points": len(digest),
        "snapshot_nodes": plan["snapshot_nodes"],
        "tree_nodes": plan["nodes"],
        "simulated_cycles_total": total_cycles,
        "prefix_cycles": executed["prefix_cycles"],
        "saved_cycles": executed["saved_cycles"],
        "saved_fraction": round(executed["saved_cycles"] / total_cycles, 3),
        **timing,
    }


def main(argv: list[str]) -> int:
    out_path = argv[1] if len(argv) > 1 else "BENCH_snapshot.json"
    for payload in (measure(), measure_grouped()):
        append_history(out_path, payload)
        print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

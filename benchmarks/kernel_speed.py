#!/usr/bin/env python3
"""Kernel-speed datapoint: emits ``BENCH_kernel.json``.

Runs the idle-heavy period-sweep workload (the exact sweep of
``bench_period_sweep.py``, shared via ``_bench_utils.run_period_sweep``)
once on the naive tick-everything kernel and once on the active-set
kernel, checks the results are cycle-identical, and records simulated
cycles/second for both plus the speedup.  It fails (exit 1) when the
rows differ or the speedup is not above ``MIN_SPEEDUP``.  CI runs this
in the bench-smoke job so the performance trajectory of the simulator
is tracked PR over PR.

Run:  python benchmarks/kernel_speed.py [output.json]
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_utils import (  # noqa: E402
    SWEEP_DMA_SHARE,
    SWEEP_GAP_MEAN,
    SWEEP_N_ACCESSES,
    SWEEP_PERIODS,
    host_info,
    run_period_sweep,
    time_variants,
)

# About 2x on a shared 2-CPU host.  The floor only guards against the
# active-set kernel becoming a pessimisation: one run per kernel on a
# loaded runner is too noisy to gate the datapoint itself.
MIN_SPEEDUP = 1.2


def main(argv: list[str]) -> int:
    out_path = argv[1] if len(argv) > 1 else "BENCH_kernel.json"
    naive, active = time_variants([
        (active_set, partial(run_period_sweep, active_set))
        for active_set in (False, True)
    ])
    (naive_rows, naive_cycles), (active_rows, active_cycles) = (
        naive.value, active.value)
    if naive_rows != active_rows:
        print("FATAL: active-set kernel diverged from the naive kernel")
        print("naive :", naive_rows)
        print("active:", active_rows)
        return 1
    speedup = naive.seconds / active.seconds
    payload = {
        "benchmark": "kernel_speed/period_sweep_idle_heavy",
        "python": host_info()["python"],
        "workload": {
            "n_accesses": SWEEP_N_ACCESSES,
            "gap_mean": SWEEP_GAP_MEAN,
            "dma_share": SWEEP_DMA_SHARE,
            "periods": list(SWEEP_PERIODS),
            "simulated_cycles": active_cycles,
        },
        "naive_kernel": {
            "wall_seconds": round(naive.seconds, 4),
            "cycles_per_second": round(naive_cycles / naive.seconds),
        },
        "active_set_kernel": {
            "wall_seconds": round(active.seconds, 4),
            "cycles_per_second": round(active_cycles / active.seconds),
        },
        "speedup": round(speedup, 3),
        "cycle_identical": True,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(json.dumps(payload, indent=2))
    if not speedup > MIN_SPEEDUP:
        print(f"FATAL: active-set speedup {speedup:.2f}x is not above "
              f"{MIN_SPEEDUP}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

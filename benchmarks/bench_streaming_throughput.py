#!/usr/bin/env python3
"""Streaming-throughput datapoint: batched datapath vs. per-beat reference.

The active-set kernel (PR 1) wins on idle-heavy workloads but is near-1x
on streaming-heavy ones — no component is ever idle, so every beat still
crosses every hop one tick at a time.  The batched datapath (express
burst forwarding in the crossbar, activity-scoped NoC routing,
event-driven memory latency, batch channel drains) attacks exactly that
regime.  This bench runs the streaming-heavy shipped scenarios at
smoke scale on both datapaths — interleaved, best of *ROUNDS* — and
reports wall-clock throughput in simulated cycles (ticks) per second.

The appended ``BENCH_datapath.json`` entry records per-scenario speedups;
``check_regression.py`` gates CI on them (drift and floors).  The gate
compares speedup *ratios*, not absolute ticks/sec, so datapoints from
different machines stay comparable.

Run:  python benchmarks/bench_streaming_throughput.py [output.json]
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
from repro.scenario import load_file, run_campaign  # noqa: E402

SCENARIOS = ("fig6a", "noc_hog", "stream_steady")
ROUNDS = 3


def measure() -> dict:
    payload: dict = {**host_info(), "rounds": ROUNDS, "scenarios": {}}
    for name in SCENARIOS:
        spec = load_file(SCENARIO_DIR / f"{name}.toml")
        samples = time_variants([
            (batched, partial(run_campaign, spec, smoke=True,
                              batched=batched))
            for batched in (False, True)
        ], ROUNDS)
        best = best_of(samples)
        counted = {
            sample.key: sum(point.sim_cycles for point in sample.value.points)
            for sample in samples
        }
        assert counted[False] == counted[True], (
            f"{name}: batched datapath diverged from the per-beat "
            f"reference ({counted[True]} vs {counted[False]} cycles) — "
            "throughput numbers would compare different workloads"
        )
        cycles = counted[True]
        payload["scenarios"][name] = {
            "simulated_cycles": cycles,
            "per_beat_seconds": round(best[False], 5),
            "batched_seconds": round(best[True], 5),
            "per_beat_ticks_per_second": round(cycles / best[False], 1),
            "batched_ticks_per_second": round(cycles / best[True], 1),
            "speedup": round(best[False] / best[True], 3),
        }
    payload["best_speedup"] = max(
        entry["speedup"] for entry in payload["scenarios"].values()
    )
    return payload


def main(argv: list[str]) -> int:
    out_path = argv[1] if len(argv) > 1 else "BENCH_datapath.json"
    payload = measure()
    append_history(out_path, payload)
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

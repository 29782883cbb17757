#!/usr/bin/env python3
"""Campaign ledger: end-to-end and per-layer benchmark of the simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6a --seed 0 --seconds 20 --trace 0

One run executes one shipped campaign at full length through the public
``repro.scenario`` API, sequentially, and checks every point's digest.

``--trace 0`` (tracing off) measures the end-to-end metrics:

* ``wall_s``: host time of ``run_campaign`` plus ``digest()``, the
  fastest of the identical campaigns repeated for ``--seconds`` (the
  first one pays lazy imports and cold caches).  Co-tenants on a shared
  host only ever add time, in bursts longer than a campaign: on a
  shared 2-core VM, the median of six fig6a campaigns spread by 10 %
  (quartile distance over median) across groups, the fastest by 4.6 %.
  The median and slowest campaign are printed beside it;
* ``sim_cycles_per_s``: the campaign's summed ``PointResult.sim_cycles``
  over ``wall_s`` (cycles a fork tree saved count as delivered);
* ``setup_s``: ``import repro.scenario``, ``load_file``, the seed's
  overrides and ``expand`` (plus ``plan_fork_tree`` on the fork
  workload), timed in a fresh child interpreter before each measured
  campaign; the fastest, for the same reason as ``wall_s`` (set-up
  samples jump between about 0.16 s and 0.25 s in bursts of seconds);
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

Failed points (a campaign that raised, or a point whose digest entry
differs from the expected one) are reported as ``failed`` out of
``attempted`` point runs in the result line.

``--trace 1`` alternates untraced and traced campaigns for ``--seconds``
and reports the per-layer metrics of :mod:`layers`, the tracing
overhead, and ``host.calib_s``; it also checks that the traced digest
equals the untraced one.  Spans and the full result are written under
``.bench_build/perfbench/``.

The last line of standard output is the JSON result object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from layers import LayerTrace
from workloads import (
    WORKLOADS,
    canonical,
    fingerprint,
    load_spec,
    stored_reference,
)

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
MIN_REPS = 3  # measured campaigns per run, even past --seconds
CHILD_TIMEOUT_S = 150
CALIB_ITERATIONS = 1_000_000

E2E_UNITS = {
    "wall_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def calibrate() -> float:
    """Host speed: seconds for a fixed pure-Python loop (median of 3)."""
    samples = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(CALIB_ITERATIONS):
            acc = (acc + i * i) % 1_000_003
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# child interpreters: set-up timing and the oracle
# ----------------------------------------------------------------------
def child_main(mode: str, workload, seed: int) -> int:
    if mode == "setup":
        t0 = perf_counter()
        import repro.scenario as api

        spec = load_spec(api, ROOT, workload, seed)
        points = api.expand(spec)
        if workload.fork:
            api.plan_fork_tree(points)
        print(json.dumps({"setup_s": perf_counter() - t0}))
        return 0
    import repro.scenario as api

    spec = load_spec(api, ROOT, workload, seed)
    result = api.run_campaign(spec, active_set=False, batched=False)
    print(json.dumps({"digest": canonical(result.digest())}))
    return 0


def run_child(mode: str, workload, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child", mode,
         "--workload", workload.name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{mode} child exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# campaigns
# ----------------------------------------------------------------------
class Ledger:
    """Point-level correctness bookkeeping for one run."""

    def __init__(self, expected) -> None:
        self.expected = expected  # label -> canonical JSON, or None
        self.pending: list[dict] = []  # digests awaiting the oracle
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, digest: dict, what: str) -> None:
        if self.expected is None:
            self.pending.append(digest)
            return
        self.attempted += len(self.expected)
        bad = sorted(
            label for label in set(self.expected) | set(digest)
            if self.expected.get(label) != digest.get(label)
        )
        self.failed += len(bad)
        if bad:
            self.errors.append(f"{what}: digest differs at {', '.join(bad)}")

    def raised(self, points: int, what: str) -> None:
        self.attempted += points
        self.failed += points
        self.errors.append(f"{what} raised:\n{traceback.format_exc()}")

    def resolve(self, expected: dict) -> None:
        self.expected = expected
        pending, self.pending = self.pending, []
        for digest in pending:
            self.check(digest, "campaign vs oracle")


def timed_campaign(api, spec, workload):
    """One campaign as ``wall_s`` measures it: run plus digest."""
    gc.collect()
    t0 = perf_counter()
    result = api.run_campaign(spec, fork=workload.fork)
    digest = result.digest()
    wall = perf_counter() - t0
    return result, canonical(digest), wall


def traced_campaign(api, workload, seed: int):
    """Set-up plus campaign with every layer wrapped."""
    gc.collect()
    with LayerTrace() as trace:
        spec = load_spec(api, ROOT, workload, seed)
        points = api.expand(spec)
        if workload.fork:
            api.plan_fork_tree(points)
        t0 = perf_counter()
        result = api.run_campaign(spec, fork=workload.fork)
        digest = result.digest()
        wall = perf_counter() - t0
    return trace, result, canonical(digest), wall


def simulated_summary(result) -> list[str]:
    lines = []
    for p in result.points:
        execution = "-" if p.execution_cycles is None else p.execution_cycles
        perf = "-" if p.perf_percent is None else f"{p.perf_percent:.1f} %"
        lines.append(
            f"    {p.label:<28} sim_cycles {p.sim_cycles:>7}  "
            f"exec_cycles {execution:>6}  perf_vs_baseline {perf}"
        )
    return lines


def measure(args, workload) -> int:
    calib_s = calibrate()
    import repro.scenario as api

    spec = load_spec(api, ROOT, workload, args.seed)
    points = api.expand(spec)
    n_points = len(points)
    ledger = Ledger(stored_reference(workload, fingerprint(points)))

    walls: list[float] = []
    setup: list[float] = []
    cycles = 0
    traced: list[tuple] = []  # (trace, wall, fork_stats)
    last = None
    try:
        start = perf_counter()
        while len(walls) < MIN_REPS or perf_counter() - start < args.seconds:
            if not args.trace:
                setup.append(
                    run_child("setup", workload, args.seed)["setup_s"]
                )
            result, digest, wall = timed_campaign(api, spec, workload)
            ledger.check(digest, f"campaign {len(walls)}")
            walls.append(wall)
            cycles = sum(p.sim_cycles for p in result.points)
            last = result
            del result
            if args.trace:
                trace, t_result, t_digest, t_wall = traced_campaign(
                    api, workload, args.seed
                )
                if t_digest != digest:
                    ledger.attempted += n_points
                    ledger.failed += n_points
                    ledger.errors.append(
                        "traced digest differs from the untraced one"
                    )
                traced.append((trace, t_wall, t_result.fork_stats))
                del t_result
    except Exception:  # noqa: BLE001 - a failed campaign is a result
        ledger.raised(n_points, f"campaign {len(walls)}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if ledger.pending:
        try:
            ledger.resolve(run_child("oracle", workload, args.seed)["digest"])
        except (RuntimeError, subprocess.TimeoutExpired, ValueError):
            ledger.raised(n_points, "oracle")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"points {n_points}  measured campaigns {len(walls)}")
    for error in ledger.errors:
        print(f"ERROR {error}", file=sys.stderr)
    if not walls or (args.trace and not traced):
        print(json.dumps({"correct": False,
                          "attempted": max(ledger.attempted, 1),
                          "failed": ledger.failed, "metrics": {}}))
        return 1
    correct = ledger.failed == 0 and not ledger.errors

    wall_s = min(walls)
    info = {"calib_s": calib_s, "walls": walls, "setup": setup,
            "traced_walls": [wall for _, wall, _ in traced],
            "points_failed": ledger.failed,
            "points_attempted": ledger.attempted}
    if args.trace:
        metrics, spans = layer_metrics(traced, wall_s, calib_s)
        info["trace_warnings"] = sorted(
            {w for trace, _, _ in traced for w in trace.integrity_errors()}
        )
        for warning in info["trace_warnings"]:
            print(f"WARNING {warning}", file=sys.stderr)
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": wall_s,
            "sim_cycles_per_s": cycles / wall_s,
            "setup_s": min(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        spans = None
        units = E2E_UNITS

    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print(f"  {'campaign wall, median / slowest':<36} "
          f"{statistics.median(walls):>14.6g} / {max(walls):.6g} s "
          f"(of {len(walls)})")
    print(f"  {'points_failed':<36} {ledger.failed:>14d} count "
          f"(of {ledger.attempted} point runs)")
    print(f"  {'calib_s':<36} {calib_s:>14.6g} s "
          "(host calibration loop, informational)")
    print("  simulated statistics (deterministic, informational; the model "
          "is unvalidated, so no error figure):")
    for line in simulated_summary(last):
        print(line)

    payload = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    write_outputs(args, workload, payload, info, spans)
    print(json.dumps(payload))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(traced, untraced_wall: float, calib_s: float):
    """Median of each layer metric over the traced campaigns; the traced
    wall time is the fastest, like the untraced ``wall_s`` it is
    compared with."""
    per_rep = []
    for trace, wall, fork_stats in traced:
        m = trace.metrics(fork_stats)
        m["other.share"] = m["other.s"] / wall
        per_rep.append(m)
    metrics = {
        name: statistics.median(rep[name] for rep in per_rep)
        for name in per_rep[0]
    }
    metrics["trace.wall_s"] = min(wall for _, wall, _ in traced)
    overhead = metrics["trace.wall_s"] - untraced_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / untraced_wall
    metrics["host.calib_s"] = calib_s
    last = traced[-1][0]
    origin = min((s["start"] for s in last.spans), default=0.0)
    spans = [
        {**s, "start": s["start"] - origin, "end": s["end"] - origin}
        for s in last.spans
    ]
    return metrics, spans


def _layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    if name.endswith("_per_step"):
        return "count/step"
    if "cycles" in name:
        return "cycles"
    return "count"


def write_outputs(args, workload, payload, info, spans) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({**payload, "info": info}, indent=2) + "\n",
        encoding="utf-8",
    )
    if spans is not None:
        (OUT_DIR / f"{stem}-spans.json").write_text(
            json.dumps(spans) + "\n", encoding="utf-8"
        )


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "oracle"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    missing = [
        path for path in ("src/repro/__init__.py", workload.scenario)
        if not (ROOT / path).is_file()
    ]
    if missing:
        print(f"perfbench: run from the repository root; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        return child_main(args.child, workload, args.seed)
    return measure(args, workload)


if __name__ == "__main__":
    sys.exit(main())

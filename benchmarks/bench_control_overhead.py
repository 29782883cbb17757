#!/usr/bin/env python3
"""Control-plane overhead guard: the probe/knob/schedule machinery must
not tax the simulation hot path when nothing is configured.

Registration is build-time-only (lazy closures) and the schedule engine
rides the kernel's hook heap, so an unconfigured control plane's entire
per-cycle cost is one ``if self._hook_heap`` check.  This bench measures
a streaming, always-busy workload (the worst case for per-tick overhead:
no idle stretches to fast-forward) five ways —

* ``control=False``   (registries never built),
* ``control=True``    (registries built, nothing scheduled),
* ``control=True`` + a live telemetry server attached but unwatched
  (the run-loop poll seam with an empty inbox),
* ``control=False`` + an attached flight recorder with the journal
  disabled (the kernel's one step body with its recorder observation
  points live: wake attribution, occupancy, stride-sampled phase and
  per-component tick timing — the cost `run --profile` pays), and
* ``control=True`` + a periodic sampler (informational),

interleaving the runs in per-variant ABBA quads (baseline, variant,
variant, baseline) and gating on the **ratio of pooled median times** —
interference on a shared machine is bursty upper-tail noise the median
drops, and interleaving spreads both populations evenly across any
slow drift; the quads' drift-cancelled ``(v1+v2)/(b1+b2)`` ratios ride
along in the payload as a second opinion.
The script appends the datapoint to ``BENCH_control.json`` and fails
(exit 1) unless the unconfigured overhead, the served-but-unwatched
telemetry overhead, AND the recorder-attached overhead are each under
2 %.

Run:  python benchmarks/bench_control_overhead.py [output.json]
"""

from __future__ import annotations

import gc
import json
import sys
import time
from contextlib import nullcontext
from functools import partial
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_utils import (  # noqa: E402
    append_history,
    best_of,
    host_info,
    time_variants,
)
from repro.obs import FlightRecorder  # noqa: E402
from repro.realm import RegionConfig  # noqa: E402
from repro.system import SystemBuilder  # noqa: E402
from repro.telemetry import TelemetryServer  # noqa: E402
from repro.traffic import BandwidthHog, DmaEngine  # noqa: E402

# Sized so each measured run is a couple hundred milliseconds — long
# enough that timer granularity is negligible, short enough that an
# ABBA quad (baseline, variant, variant, baseline) fits inside a narrow
# window of machine state; a <2% gate is below this container's
# frequency drift, so the pairing has to cancel the drift, not outlast
# it.
CYCLES = 10_000
ROUNDS = 9
GATE_ATTEMPTS = 3
OVERHEAD_LIMIT_PERCENT = 2.0
SAMPLER_EVERY = 200
# Payload names of the variants: the baseline, and the three gated ones.
BASELINE = "no_control"
GATED = ("unconfigured", "served", "recorded")


def _build(control: bool):
    system = (
        SystemBuilder(name="overhead", control=control)
        .add_manager("dma", protect=True, granularity=16, regions=[
            RegionConfig(0x0, 0x20000, 1 << 40, 1000)
        ])
        .add_manager("hog")
        .add_sram("mem", base=0x0, size=0x20000)
        .add_sram("spm", base=0x100000, size=0x20000)
        .build()
    )
    system.attach("dma", lambda port: DmaEngine(
        port, src_base=0x0, src_size=0x8000,
        dst_base=0x100000, dst_size=0x8000, burst_beats=64,
    ))
    system.attach("hog", lambda port: BandwidthHog(port, window=0x8000))
    return system


def _run_once(control: bool, sampler: bool, server=None,
              recorder: bool = False) -> tuple[float, int]:
    system = _build(control)
    if sampler:
        system.control.sampler(
            ["realm.dma.region0.total_bytes", "traffic.hog.bytes_stolen"],
            every=SAMPLER_EVERY,
        )
    if recorder:
        # Flight recorder attached, journal disabled — the step body's
        # observation points live (wake-cause attribution, occupancy,
        # sampled phase and tick timing), i.e. what `--profile` pays.
        FlightRecorder().attach(system.sim)
    live = nullcontext()
    if server is not None:
        # Telemetry attached, nobody watching: the timed loop carries
        # only the poll-seam residue (one truthiness test of the empty
        # command inbox per iteration), never a hook, call, or frame.
        live = server.live_point(system, label="bench")
    # The variants allocate different object populations at build time
    # (the registries hold a few hundred closures); freeze them out of
    # the collector so the timed loop compares tick cost, not GC sweeps
    # over build-time garbage.
    gc.collect()
    gc.disable()
    try:
        with live:
            t0 = time.perf_counter()
            system.sim.run(CYCLES)
            elapsed = time.perf_counter() - t0
    finally:
        gc.enable()
    return elapsed, system.sim.ticks_executed


def measure() -> dict:
    server = TelemetryServer()
    server.start()
    variants = {
        BASELINE: partial(_run_once, False, False),
        "unconfigured": partial(_run_once, True, False),
        "served": partial(_run_once, True, False, server),
        "recorded": partial(_run_once, False, False, recorder=True),
        "sampled": partial(_run_once, True, True),
    }
    # Interleaved so no variant owns the warm caches.  Each variant's
    # ratio comes from an ABBA quad — baseline, variant, variant,
    # baseline, back to back — so any drift that is linear across the
    # quad (CPU frequency decay, thermal ramp) cancels exactly from
    # (v1+v2)/(b1+b2); a single shared baseline per round would bias
    # the later variants by whatever the clock did in between.
    quads = [(key, variants[key]) for name in variants if name != BASELINE
             for key in (BASELINE, name, name, BASELINE)]
    try:
        time_variants(list(variants.items()), own_clock=True)  # warm-up
        samples = time_variants(quads, ROUNDS, own_clock=True)
    finally:
        server.stop()
    assert len({sample.value for sample in samples}) == 1, (
        "the control plane changed scheduling on an identical workload"
    )
    best = best_of(samples)
    quad_ratios: dict[str, list[float]] = {}
    for i in range(0, len(samples), 4):
        b1, v1, v2, b2 = samples[i:i + 4]
        quad_ratios.setdefault(v1.key, []).append(
            (v1.seconds + v2.seconds) / (b1.seconds + b2.seconds))
    # Gate on the ratio of pooled medians.  Interference on a shared
    # machine is bursty — upper-tail outliers the median simply drops —
    # and unlike a best-of (whose expected minimum falls with sample
    # count, biasing a 3x-oversampled baseline low) the median is
    # count-unbiased, so pooling every baseline run from every quad
    # only tightens it.  The per-quad ABBA ratios ride along in the
    # payload as a drift-cancelled second opinion.
    pooled = {
        name: median(s.seconds for s in samples if s.key == name)
        for name in variants
    }
    payload = {
        "benchmark": "control_overhead/streaming_hot_path",
        "python": host_info()["python"],
        "workload": {
            "cycles": CYCLES,
            "rounds": ROUNDS,
            "ticks_executed": samples[0].value,
            "sampler_every": SAMPLER_EVERY,
        },
    }
    for name in variants:
        payload[f"{name}_seconds"] = round(best[name], 5)
    for name in quad_ratios:
        payload[f"{name}_overhead_percent"] = round(
            100.0 * (pooled[name] / pooled[BASELINE] - 1.0), 3)
    for name, ratios in quad_ratios.items():
        payload[f"{name}_overhead_median_percent"] = round(
            100.0 * (median(ratios) - 1.0), 3)
    payload["limit_percent"] = OVERHEAD_LIMIT_PERCENT
    return payload


def _failures(payload: dict) -> list[str]:
    """The gated variants at or over the limit."""
    return [name for name in GATED
            if payload[f"{name}_overhead_percent"] >= OVERHEAD_LIMIT_PERCENT]


def _measure_in_subprocess() -> dict:
    """Run :func:`measure` once in a fresh interpreter."""
    import os
    import subprocess
    import tempfile

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    fd, out = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--measure-json", out],
            check=True, env=env,
        )
        return json.loads(Path(out).read_text(encoding="utf-8"))
    finally:
        Path(out).unlink(missing_ok=True)


def measure_gated() -> dict:
    """Measure, retrying a gate miss up to ``GATE_ATTEMPTS`` times.

    Shared runners carry per-*process* bias — address-space and hash
    layout reshuffle branch-predictor/cache behaviour by a few percent
    per interpreter, below the 2% limit this gate enforces — so
    re-measuring in the same process just re-reads the same bias.
    Retries therefore run in a fresh interpreter each time, redrawing
    the layout.  A real regression is persistent and fails every
    attempt; a layout artifact rarely survives three.  The returned
    payload records which attempt cleared (or the last, if none did).
    """
    payload = measure()
    payload["gate_attempt"] = 1
    for attempt in range(2, GATE_ATTEMPTS + 1):
        if not _failures(payload):
            break
        payload = _measure_in_subprocess()
        payload["gate_attempt"] = attempt
    return payload


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--measure-json":
        # Child mode for measure_gated()'s fresh-interpreter retries:
        # one measurement, no gating, JSON to the given path.
        Path(argv[2]).write_text(
            json.dumps(measure()), encoding="utf-8"
        )
        return 0
    out_path = argv[1] if len(argv) > 1 else "BENCH_control.json"
    payload = measure_gated()
    append_history(out_path, payload)
    print(json.dumps(payload, indent=2))
    failures = _failures(payload)
    for name in failures:
        print(f"FATAL: {name} overhead "
              f"{payload[f'{name}_overhead_percent']:+.2f}% is not under "
              f"{OVERHEAD_LIMIT_PERCENT}%")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

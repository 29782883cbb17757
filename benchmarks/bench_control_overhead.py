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
The smoke assertions bound the unconfigured overhead, the
served-but-unwatched telemetry overhead, AND the recorder-attached
overhead at <2 % each; the script appends the datapoint to
``BENCH_control.json`` (the pytest entry point writes it under its
``tmp_path``, leaving the tracked history alone).

Run:  python benchmarks/bench_control_overhead.py [output.json]
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
from repro.realm import RegionConfig  # noqa: E402
from repro.system import SystemBuilder  # noqa: E402
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
    from contextlib import nullcontext

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
        from repro.obs import FlightRecorder

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
    from statistics import median

    from repro.telemetry import TelemetryServer

    server = TelemetryServer()
    server.start()
    best = {"off": float("inf"), "on": float("inf"),
            "served": float("inf"), "recorded": float("inf"),
            "sampled": float("inf")}
    samples = {"off": [], "on": [], "served": [], "recorded": [],
               "sampled": []}
    ratios = {"on": [], "served": [], "recorded": [], "sampled": []}
    ticks = {}
    variants = (
        ("off", False, False, None, False),
        ("on", True, False, None, False),
        ("served", True, False, server, False),
        ("recorded", False, False, None, True),
        ("sampled", True, True, None, False),
    )
    try:
        for key, control, sampler, srv, rec in variants:  # warm-up
            _run_once(control, sampler, srv, rec)
        for _ in range(ROUNDS):
            # Interleaved so no variant owns the warm caches.  Each
            # variant's ratio comes from an ABBA quad — baseline,
            # variant, variant, baseline, back to back — so any drift
            # that is linear across the quad (CPU frequency decay,
            # thermal ramp) cancels exactly from (v1+v2)/(b1+b2); a
            # single shared baseline per round would bias the later
            # variants by whatever the clock did in between.
            for key, control, sampler, srv, rec in variants:
                if key == "off":
                    continue
                b1, executed_off = _run_once(False, False, None)
                v1, executed = _run_once(control, sampler, srv, rec)
                v2, _ = _run_once(control, sampler, srv, rec)
                b2, _ = _run_once(False, False, None)
                best["off"] = min(best["off"], b1, b2)
                best[key] = min(best[key], v1, v2)
                ticks["off"] = executed_off
                ticks[key] = executed
                samples["off"].extend((b1, b2))
                samples[key].extend((v1, v2))
                ratios[key].append((v1 + v2) / (b1 + b2))
    finally:
        server.stop()
    assert (ticks["off"] == ticks["on"] == ticks["served"]
            == ticks["recorded"] == ticks["sampled"]), (
        "the control plane changed scheduling on an identical workload"
    )
    # Gate on the ratio of pooled medians.  Interference on a shared
    # machine is bursty — upper-tail outliers the median simply drops —
    # and unlike a best-of (whose expected minimum falls with sample
    # count, biasing a 3x-oversampled baseline low) the median is
    # count-unbiased, so pooling every baseline run from every quad
    # only tightens it.  The per-quad ABBA ratios ride along in the
    # payload as a drift-cancelled second opinion.
    overhead = 100.0 * (median(samples["on"]) / median(samples["off"]) - 1.0)
    served_overhead = 100.0 * (
        median(samples["served"]) / median(samples["off"]) - 1.0)
    recorded_overhead = 100.0 * (
        median(samples["recorded"]) / median(samples["off"]) - 1.0)
    sampled_overhead = 100.0 * (
        median(samples["sampled"]) / median(samples["off"]) - 1.0)
    return {
        "benchmark": "control_overhead/streaming_hot_path",
        "python": platform.python_version(),
        "workload": {
            "cycles": CYCLES,
            "rounds": ROUNDS,
            "ticks_executed": ticks["off"],
            "sampler_every": SAMPLER_EVERY,
        },
        "no_control_seconds": round(best["off"], 5),
        "unconfigured_seconds": round(best["on"], 5),
        "served_seconds": round(best["served"], 5),
        "recorded_seconds": round(best["recorded"], 5),
        "sampled_seconds": round(best["sampled"], 5),
        "unconfigured_overhead_percent": round(overhead, 3),
        "served_overhead_percent": round(served_overhead, 3),
        "recorded_overhead_percent": round(recorded_overhead, 3),
        "sampled_overhead_percent": round(sampled_overhead, 3),
        "unconfigured_overhead_median_percent": round(
            100.0 * (median(ratios["on"]) - 1.0), 3),
        "served_overhead_median_percent": round(
            100.0 * (median(ratios["served"]) - 1.0), 3),
        "recorded_overhead_median_percent": round(
            100.0 * (median(ratios["recorded"]) - 1.0), 3),
        "sampled_overhead_median_percent": round(
            100.0 * (median(ratios["sampled"]) - 1.0), 3),
        "limit_percent": OVERHEAD_LIMIT_PERCENT,
    }


def _gates_pass(payload: dict) -> bool:
    return (payload["unconfigured_overhead_percent"] < OVERHEAD_LIMIT_PERCENT
            and payload["served_overhead_percent"] < OVERHEAD_LIMIT_PERCENT
            and payload["recorded_overhead_percent"]
            < OVERHEAD_LIMIT_PERCENT)


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
        if _gates_pass(payload):
            break
        payload = _measure_in_subprocess()
        payload["gate_attempt"] = attempt
    return payload


def _append(path, payload: dict) -> None:
    history = []
    file = Path(path)
    if file.exists():
        history = json.loads(file.read_text(encoding="utf-8"))
    history.append(payload)
    file.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def test_control_plane_hot_path_overhead(tmp_path):
    payload = measure_gated()
    emit(
        "Control plane — hot-path overhead (streaming, no idle stretches)",
        [
            f"no control plane     : {payload['no_control_seconds']:.5f} s",
            f"unconfigured control : {payload['unconfigured_seconds']:.5f} s "
            f"({payload['unconfigured_overhead_percent']:+.2f} %)",
            f"telemetry, unwatched : {payload['served_seconds']:.5f} s "
            f"({payload['served_overhead_percent']:+.2f} %)",
            f"flight recorder      : {payload['recorded_seconds']:.5f} s "
            f"({payload['recorded_overhead_percent']:+.2f} %)",
            f"with {CYCLES // SAMPLER_EVERY}-sample probe series  : "
            f"{payload['sampled_seconds']:.5f} s "
            f"({payload['sampled_overhead_percent']:+.2f} %)",
        ],
    )
    _append(tmp_path / "BENCH_control.json", payload)
    assert payload["unconfigured_overhead_percent"] < OVERHEAD_LIMIT_PERCENT, (
        "unconfigured control plane taxes the tick hot path: "
        f"{payload['unconfigured_overhead_percent']:.2f}% "
        f">= {OVERHEAD_LIMIT_PERCENT}%"
    )
    assert payload["served_overhead_percent"] < OVERHEAD_LIMIT_PERCENT, (
        "an unwatched telemetry server taxes the tick hot path: "
        f"{payload['served_overhead_percent']:.2f}% "
        f">= {OVERHEAD_LIMIT_PERCENT}%"
    )
    assert payload["recorded_overhead_percent"] < OVERHEAD_LIMIT_PERCENT, (
        "an attached flight recorder (journal off) taxes the tick hot "
        f"path: {payload['recorded_overhead_percent']:.2f}% "
        f">= {OVERHEAD_LIMIT_PERCENT}%"
    )


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
    _append(out_path, payload)
    print(json.dumps(payload, indent=2))
    if payload["unconfigured_overhead_percent"] >= OVERHEAD_LIMIT_PERCENT:
        print(f"FATAL: overhead exceeds {OVERHEAD_LIMIT_PERCENT}%")
        return 1
    if payload["served_overhead_percent"] >= OVERHEAD_LIMIT_PERCENT:
        print(f"FATAL: telemetry overhead exceeds {OVERHEAD_LIMIT_PERCENT}%")
        return 1
    if payload["recorded_overhead_percent"] >= OVERHEAD_LIMIT_PERCENT:
        print(f"FATAL: recorder overhead exceeds {OVERHEAD_LIMIT_PERCENT}%")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

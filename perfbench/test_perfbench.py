"""Coverage guard for the benchmark's tracing and inputs.

Run from the repository root::

    python -m pytest perfbench -q

Every wrapped function must exist and must fire on the workload where
that layer does work, so a renamed function fails here instead of
reading zero in the ledger.  The traced campaigns must also reproduce
the stored reference digests (the wrappers are behaviour-neutral).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.scenario as api
from layers import SPAN_ABORTS, TICK_PACKAGES, LayerTrace
from workloads import (
    WORKLOADS,
    canonical,
    fingerprint,
    load_spec,
    seed_overrides,
    stored_reference,
)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Metrics that must be non-zero on a workload: the layer does work there.
MUST_FIRE = {
    "fig6a": [
        "sim.span.abort.opaque", "sim.channel.express.calls",
        "sim.kernel.cycles_fast_forwarded",
    ],
    "stream_steady": [
        "sim.span.hits", "sim.span.cycles_replayed", "sim.span.attempt_hit_s",
        "control.hooks.calls",
    ],
    "budget_grid_fork": [
        "snapshot.capture.calls", "snapshot.restore.calls",
        "scenario.fork.edges", "scenario.fork.prefix_cycles",
        "scenario.fork.saved_cycles", "scenario.fork.plan.s",
        "control.hooks.calls",
    ],
    "noc_hog": ["interconnect.tick.calls", "interconnect.tick.s"],
}

#: Metrics that must read zero: the layer does no work on that workload.
MUST_BE_ZERO = {
    name: [
        "snapshot.capture.calls", "snapshot.restore.calls",
        "scenario.fork.edges", "scenario.fork.saved_cycles",
    ]
    for name in ("fig6a", "stream_steady", "noc_hog")
}

#: Fired on every workload.
ALWAYS = [
    "scenario.load_file.calls", "scenario.expand.calls",
    "scenario.build_system.calls", "scenario.attach_traffic.calls",
    "scenario.install_control.calls", "scenario.collect_observables.calls",
    "scenario.report.calls", "sim.kernel.step.calls",
    "sim.kernel.step.self_s", "sim.kernel.ticks_executed",
    "sim.kernel.cycles_run", "sim.channel.commit.calls",
    "sim.span.attempt.calls", "sim.span.attempt_fail_s",
    *(f"{package}.tick.calls" for package in TICK_PACKAGES),
]


@pytest.fixture(scope="module")
def traced():
    """One traced full-length campaign per workload at seed 0."""
    runs = {}
    for name, workload in WORKLOADS.items():
        with LayerTrace() as trace:
            spec = load_spec(api, ROOT, workload, 0)
            points = api.expand(spec)
            if workload.fork:
                api.plan_fork_tree(points)
            result = api.run_campaign(spec, fork=workload.fork)
            digest = result.digest()
        runs[name] = (trace, trace.metrics(result.fork_stats), digest, points)
    return runs


def test_every_wrapped_function_exists_and_is_restored():
    from repro.sim.channel import Channel
    from repro.sim.kernel import Simulator

    before = (Simulator.step, Channel.commit, api.run_campaign)
    trace = LayerTrace().install()
    try:
        assert Simulator.step is not before[0]
        assert api.run_campaign is not before[2]
    finally:
        trace.uninstall()
    assert (Simulator.step, Channel.commit, api.run_campaign) == before


def test_missing_function_fails_loudly():
    trace = LayerTrace()
    with pytest.raises(AttributeError, match="renamed"):
        trace._patch(api, "no_such_function", lambda fn: fn)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layers_fire_where_they_must(traced, name):
    trace, metrics, _, _ = traced[name]
    assert trace.integrity_errors() == []
    silent = [key for key in ALWAYS + MUST_FIRE[name] if not metrics[key]]
    assert silent == [], f"{name}: layers read zero: {silent}"
    busy = [key for key in MUST_BE_ZERO.get(name, []) if metrics[key]]
    assert busy == [], f"{name}: layers should do no work: {busy}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_accounting_is_consistent(traced, name):
    _, m, _, _ = traced[name]
    ticks = sum(m[f"{package}.tick.calls"] for package in TICK_PACKAGES)
    assert ticks == m["sim.kernel.ticks_executed"]
    aborts = sum(m[f"sim.span.abort.{cause}"] for cause in SPAN_ABORTS)
    assert aborts + m["sim.span.hits"] == m["sim.span.attempt.calls"]
    # Coverage: the coarse frames keep under 5% of the traced time.
    layered = sum(
        value for key, value in m.items()
        if key.endswith((".s", "_s")) and key != "other.s"
    )
    assert m["other.s"] < 0.05 * (layered + m["other.s"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_digest_matches_reference(traced, name):
    _, _, digest, points = traced[name]
    reference = stored_reference(WORKLOADS[name], fingerprint(points))
    assert reference is not None, "reference digest missing or stale"
    assert canonical(digest) == reference


def test_benchmark_json_names_every_emitted_metric(traced):
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.E2E_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    trace, _, _, _ = traced["budget_grid_fork"]
    metrics, spans = run.layer_metrics(
        [(trace, 1.0, None)], untraced_wall=1.0, calib_s=0.1
    )
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        name: run._layer_unit(name) for name in metrics
    }
    names = {span["name"] for span in spans}
    assert {"campaign", "point", "fork.edge", "elaborate", "run",
            "scenario.collect_observables", "scenario.report",
            "snapshot.capture", "snapshot.restore"} <= names


def test_self_time_partitions_nested_calls():
    import time

    trace = LayerTrace()
    inner = trace.hot("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    outer = trace.coarse("outer", body)
    outer()
    assert trace.calls("outer") == trace.calls("inner") == 1
    assert trace.seconds("inner") >= 0.02
    assert trace.seconds("outer") >= 0.01
    (span,) = trace.spans
    assert span["name"] == "outer" and span["parent"] is None
    total = span["end"] - span["start"]
    assert trace.seconds("outer") + trace.seconds("inner") == \
        pytest.approx(total, abs=1e-9)


def test_seed_overrides():
    fig6a = WORKLOADS["fig6a"]
    spec = load_spec(api, ROOT, fig6a, 0)
    assert seed_overrides(fig6a, spec, 0) == {}
    one = seed_overrides(fig6a, spec, 1)
    assert one == seed_overrides(fig6a, spec, 1)
    assert set(one) == {"scenario.seed", "traffic.core.seed"}
    assert one != seed_overrides(fig6a, spec, 2)
    noc = WORKLOADS["noc_hog"]
    assert seed_overrides(noc, load_spec(api, ROOT, noc, 0), 5) == {}
    # A held-out seed changes the inputs, so no stored reference applies.
    seeded = api.expand(load_spec(api, ROOT, fig6a, 1))
    assert stored_reference(fig6a, fingerprint(seeded)) is None


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6a",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_steady",
         "--seed", "4", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        "wall_s", "sim_cycles_per_s", "setup_s", "peak_rss_mb",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())

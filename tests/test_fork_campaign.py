"""Fork-point campaign execution: shared-prefix detection, bit-identical
results vs scratch runs (sequential and across the process pool), and
conservative fallback whenever a shared prefix is not provable."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenario import (
    apply_smoke,
    expand,
    load_file,
    plan_fork_tree,
    run_campaign,
    run_point,
)
from repro.scenario.spec import validate

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _forkable_tree(**overrides):
    """A small until-run campaign whose only divergence is the budget a
    schedule rule writes at cycle 400."""
    tree = {
        "scenario": {"name": "forky", "seed": 11},
        "run": {"until": ["core"], "max_cycles": 200_000},
        "topology": {
            "managers": [
                {
                    "name": "core",
                    "protect": True,
                    "granularity": 16,
                    "regions": [
                        {"base": 0x0, "size": 0x1_0000,
                         "budget_bytes": "unlimited",
                         "period_cycles": "unlimited"},
                    ],
                },
                {
                    "name": "dma",
                    "protect": True,
                    "granularity": 64,
                    "regions": [
                        {"base": 0x0, "size": 0x1_0000,
                         "budget_bytes": "unlimited",
                         "period_cycles": "unlimited"},
                    ],
                },
            ],
            "memories": [
                {"name": "mem", "kind": "sram", "base": 0x0,
                 "size": 0x1_0000},
            ],
        },
        "traffic": {
            "core": {"kind": "core", "pattern": "susan", "n_accesses": 80,
                     "base": 0x0, "footprint": 0x2000, "gap_mean": 2,
                     "beats": 2, "seed": 21},
            "dma": {"kind": "dma", "src_base": 0x0, "src_size": 0x4000,
                    "dst_base": 0x8000, "dst_size": 0x4000,
                    "burst_beats": 128},
        },
        "schedule": [
            {
                "label": "cut",
                "at": 400,
                "set": {"realm.dma.region0.budget_bytes": 4096,
                        "realm.dma.region0.period_cycles": 500},
            },
        ],
        "campaign": {
            "sweep": [
                {"field":
                 "schedule.cut.set.realm.dma.region0.budget_bytes",
                 "values": [256, 2048, 1 << 40]},
            ],
        },
    }
    tree.update(overrides)
    return tree


def _quiet_tree():
    """A forkable until-run that is quiescent at its fork boundary: the
    DMA is off and the core naps between sparse accesses, so the kernel
    fast-forwards across cycle 400, where rule ``cut`` writes the core's
    own budget and period."""
    tree = _forkable_tree()
    tree["traffic"]["dma"]["enabled"] = False
    tree["traffic"]["core"].update(gap_mean=150, n_accesses=30)
    tree["schedule"][0]["set"] = {
        "realm.core.region0.budget_bytes": 4096,
        "realm.core.region0.period_cycles": 500,
    }
    tree["campaign"]["sweep"] = [
        {"field": "schedule.cut.set.realm.core.region0.budget_bytes",
         "values": [16, 1 << 40]},
    ]
    return tree


# ----------------------------------------------------------------------
# plan detection
# ----------------------------------------------------------------------
def test_plan_detects_schedule_value_divergence():
    tree = plan_fork_tree(expand(validate(_forkable_tree())))
    assert tree.shares_prefix
    assert tree.root.cycle == 400
    assert all(
        path.startswith("schedule.0.set.") for path in tree.root.divergent
    )


def test_plan_uses_earliest_divergent_firing():
    tree = _forkable_tree()
    tree["schedule"].append({
        "label": "early",
        "every": 150,
        "set": {"traffic.dma.inter_burst_gap": 0},
    })
    tree["campaign"]["sweep"].append({
        "field": "schedule.early.set.traffic.dma.inter_burst_gap",
        "values": [0, 32],
    })
    plan = plan_fork_tree(expand(validate(tree)))
    assert plan.shares_prefix
    assert plan.root.cycle == 150  # first firing of the periodic rule


def test_plan_refuses_topology_and_trigger_divergence():
    # Shipped fig6a sweeps the splitter granularity: topology diverges
    # at cycle 0, so no fork is provable.
    fig6a = apply_smoke(load_file(SCENARIO_DIR / "fig6a.toml"))
    assert not plan_fork_tree(expand(fig6a)).shares_prefix

    # Divergent rule *triggers* (not just values) refuse too.
    tree = _forkable_tree()
    tree["campaign"] = {
        "points": [
            {"label": "a", "set": {"schedule.cut.at": 400}},
            {"label": "b", "set": {"schedule.cut.at": 800}},
        ],
    }
    assert not plan_fork_tree(expand(validate(tree))).shares_prefix

    # Divergent rule presence (enabled flag) refuses.
    tree = _forkable_tree()
    tree["campaign"] = {
        "points": [
            {"label": "a", "set": {"schedule.cut.enabled": False}},
            {"label": "b"},
        ],
    }
    assert not plan_fork_tree(expand(validate(tree))).shares_prefix


def test_plan_refuses_event_triggered_divergence():
    tree = _forkable_tree()
    tree["schedule"][0] = {
        "label": "cut",
        "when": "realm.dma.region0.total_bytes >= 1",
        "set": {"realm.dma.region0.budget_bytes": 4096},
    }
    assert not plan_fork_tree(expand(validate(tree))).shares_prefix


# ----------------------------------------------------------------------
# execution equivalence
# ----------------------------------------------------------------------
def test_fork_matches_scratch_bit_for_bit():
    spec = validate(_forkable_tree())
    scratch = run_campaign(spec)
    forked = run_campaign(spec, fork=True)
    assert forked.fork_cycle == 400
    assert forked.digest() == scratch.digest()
    assert [p.to_dict() for p in forked.points] == [
        p.to_dict() for p in scratch.points
    ]
    # The sweep diverges for real (not all points equal).
    assert len({p.execution_cycles for p in scratch.points}) > 1
    # Reports stay byte-identical between the two execution modes.
    assert forked.to_json_dict() == scratch.to_json_dict()


def test_fork_over_process_pool_matches_sequential():
    spec = validate(_forkable_tree())
    sequential = run_campaign(spec, fork=True)
    pooled = run_campaign(spec, fork=True, jobs=2)
    assert pooled.digest() == sequential.digest()


def test_fork_on_both_kernels_and_datapaths():
    spec = validate(_forkable_tree())
    reference = run_campaign(spec).digest()
    for active_set in (True, False):
        for batched in (True, False):
            forked = run_campaign(
                spec, fork=True, active_set=active_set, batched=batched
            )
            assert forked.digest() == reference, (
                f"fork drifted with active_set={active_set} "
                f"batched={batched}"
            )


def test_fork_when_the_run_finishes_before_the_fork_cycle():
    # The divergent rule fires long after the traffic completes: the
    # prefix stops at the run's own end and every fork finishes
    # immediately, exactly like its scratch run.
    tree = _forkable_tree()
    tree["schedule"][0]["at"] = 150_000
    spec = validate(tree)
    scratch = run_campaign(spec)
    forked = run_campaign(spec, fork=True)
    assert forked.digest() == scratch.digest()
    assert all(
        p.sim_cycles < 150_000 for p in forked.points
    ), "the run should have completed well before the fork cycle"


def test_fork_prefix_stops_at_a_quiescent_fork_boundary():
    """The shared prefix ends at exactly the fork cycle even when the
    kernel fast-forwards across it, so the divergent rule fires in each
    leaf and never inside the prefix."""
    spec = validate(_quiet_tree())
    scratch = run_campaign(spec)
    assert [p.execution_cycles for p in scratch.points] == [13008, 4434]
    forked = run_campaign(spec, fork=True)
    assert forked.fork_cycle == 400
    assert forked.to_json_dict() == scratch.to_json_dict()


def test_until_run_checkpoints_land_on_exact_multiples(tmp_path):
    """``checkpoint_every`` chunks of an until-run end at exact cycles,
    also where the kernel fast-forwards across a chunk end."""
    tree = _quiet_tree()
    del tree["schedule"]
    del tree["campaign"]
    point = expand(validate(tree))[0]
    scratch = run_point(point)
    chunked = run_point(point, checkpoint_every=400,
                        checkpoint_dir=str(tmp_path))
    assert chunked.to_dict() == scratch.to_dict()
    cycles = sorted(
        int(path.stem.rsplit("-c", 1)[1]) for path in tmp_path.glob("*.ckpt")
    )
    assert cycles == list(range(400, scratch.sim_cycles, 400))


def test_fork_fallback_is_silent_for_unforkable_campaigns():
    # A flat campaign and a fork fallback both run as the tree with no
    # snapshot node: no fork field may be filled, recorded or pooled
    # (else `repro run` prints a fork-tree line and --trace-out carries
    # fork events).
    fig6a = apply_smoke(load_file(SCENARIO_DIR / "fig6a.toml"))
    scratch = run_campaign(fig6a)
    for fork in (False, True):
        for options in ({"record": True}, {"jobs": 2}):
            result = run_campaign(fig6a, fork=fork, **options)
            assert result.fork_cycle is None, (fork, options)
            assert result.fork_stats is None, (fork, options)
            assert result.fork_trace is None, (fork, options)
            assert result.digest() == scratch.digest(), (fork, options)

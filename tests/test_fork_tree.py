"""Fork-tree campaign execution: grouped and hierarchical prefix
sharing (DESIGN.md section 14).

Planner units pin down the tree shapes — a single settable axis yields
the flat shape (one root snapshot, one leaf per point), two settable
axes nest into a two-level tree, a mixed settable/non-settable sweep
splits into scratch groups that each still snapshot — and that the shape is canonical (independent of
sweep-axis file order).  Execution tests assert the contract that makes
``--fork`` safe to flip on blindly: reports byte-identical to scratch
runs on every kernel/datapath combination, sequentially and over the
process pool, including under randomized multi-axis sweeps.
"""

from __future__ import annotations

import copy
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.scenario import (
    apply_smoke,
    expand,
    load_file,
    plan_fork_tree,
    run_campaign,
)
from repro.scenario.spec import validate

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

BUDGET_FIELD = "schedule.cut.set.realm.dma.region0.budget_bytes"
CORE_BUDGET_FIELD = "schedule.cut.set.realm.core.region0.budget_bytes"
TRIM_FIELD = "schedule.trim.set.realm.core.region0.budget_bytes"
BURST_FIELD = "traffic.dma.burst_beats"


def _tree(horizon=1_200, cut_at=400):
    """A horizon-bounded two-manager scenario whose ``cut`` rule writes
    the DMA budget at *cut_at* — the settable divergence under test."""
    return {
        "scenario": {"name": "forktree", "seed": 17},
        "run": {"horizon": horizon},
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
            "core": {"kind": "core", "pattern": "susan", "n_accesses": 60,
                     "base": 0x0, "footprint": 0x2000, "gap_mean": 2,
                     "beats": 2, "seed": 21},
            "dma": {"kind": "dma", "src_base": 0x0, "src_size": 0x4000,
                    "dst_base": 0x8000, "dst_size": 0x4000,
                    "burst_beats": 128},
        },
        "schedule": [
            {
                "label": "cut",
                "at": cut_at,
                "set": {"realm.dma.region0.budget_bytes": 4096,
                        "realm.dma.region0.period_cycles": 500},
            },
        ],
        "campaign": {
            "sweep": [
                {"field": BUDGET_FIELD, "values": [256, 2048, 1 << 40]},
            ],
        },
    }


def _with_trim_axis(tree, trim_at=800, values=(512, 1 << 40)):
    """Add a second settable axis on a rule firing at *trim_at*."""
    tree["schedule"].append({
        "label": "trim",
        "at": trim_at,
        "set": {"realm.core.region0.budget_bytes": 8192},
    })
    tree["campaign"]["sweep"].append(
        {"field": TRIM_FIELD, "values": list(values)}
    )
    return tree


def _with_burst_axis(tree, values=(32, 128)):
    """Add a non-settable axis (diverges from cycle 0)."""
    tree["campaign"]["sweep"].append(
        {"field": BURST_FIELD, "values": list(values)}
    )
    return tree


def _plan(tree):
    return plan_fork_tree(expand(validate(tree)))


def _shape(node):
    """Order-insensitive structural fingerprint of a fork (sub)tree."""
    return (node.cycle, len(node.points),
            tuple(sorted((_shape(c) for c in node.children), key=repr)))


# ----------------------------------------------------------------------
# planner: tree shapes
# ----------------------------------------------------------------------
def test_single_settable_axis_reduces_to_flat_plan():
    points = expand(validate(_tree()))
    tree = plan_fork_tree(points)
    assert tree.shares_prefix and tree.snapshot_nodes == 1
    assert tree.root.cycle == 400
    assert all(child.is_leaf for child in tree.root.children)
    assert len(tree.root.children) == len(points)
    assert tree.root.divergent == (
        "schedule.0.set.realm.dma.region0.budget_bytes",
    )
    assert tree.labels == tuple(p.label for p in points)


def test_two_settable_axes_build_two_level_tree():
    tree = _plan(_with_trim_axis(_tree()))
    root = tree.root
    assert root.cycle == 400
    assert len(root.children) == 3  # one per budget value
    for child in root.children:
        assert child.cycle == 800
        assert len(child.children) == 2  # one leaf per trim value
        assert all(grandchild.is_leaf for grandchild in child.children)
    assert tree.snapshot_nodes == 4
    # Root edge of 400 once (not 6 times), three 400-cycle second-level
    # edges once each (not twice each).
    assert tree.predicted() == {
        "prefix_cycles": 400 + 3 * 400,
        "saved_cycles": 400 * 5 + 3 * 400 * 1,
    }


def test_mixed_axes_split_into_groups_that_still_snapshot():
    tree = _plan(_with_burst_axis(_tree()))
    root = tree.root
    assert root.cycle is None  # structural: bursts diverge from cycle 0
    assert root.fallback == (BURST_FIELD,)
    assert len(root.children) == 2  # one group per burst value
    for group in root.children:
        assert group.cycle == 400  # each group still forks on budget
        assert len(group.points) == 3
        assert all(leaf.is_leaf for leaf in group.children)
    assert tree.shares_prefix and tree.snapshot_nodes == 2
    described = tree.describe()
    assert described["points"] == 6
    assert described["snapshot_nodes"] == 2
    assert described["fallbacks"] == [
        {"points": 6, "groups": 2, "paths": [BURST_FIELD]}
    ]
    assert described["prefix_cycles"] == 800
    assert described["saved_cycles"] == 2 * 400 * 2


def test_tree_shape_is_independent_of_axis_order():
    forward = _with_burst_axis(_with_trim_axis(_tree()))
    reversed_axes = copy.deepcopy(forward)
    reversed_axes["campaign"]["sweep"].reverse()
    assert _shape(_plan(forward).root) == _shape(_plan(reversed_axes).root)
    # Expansion order (labels, seeds) still follows the file's axis
    # order — only the tree's internal layering is canonical.
    assert [p.label for p in expand(validate(forward))] != \
        [p.label for p in expand(validate(reversed_axes))]


def test_identical_points_share_nothing():
    tree = _tree()
    tree["campaign"] = {"points": [{"label": "a"}, {"label": "b"}]}
    plan = _plan(tree)
    assert not plan.shares_prefix
    assert plan.root.cycle is None
    assert all(child.is_leaf for child in plan.root.children)


def test_event_triggered_divergence_stays_scratch():
    tree = _tree()
    tree["schedule"][0] = {
        "label": "cut",
        "when": "realm.dma.region0.total_bytes >= 1",
        "set": {"realm.dma.region0.budget_bytes": 4096},
    }
    tree["campaign"] = {"sweep": [
        {"field": "schedule.cut.set.realm.dma.region0.budget_bytes",
         "values": [256, 1 << 40]},
    ]}
    plan = _plan(tree)
    assert not plan.shares_prefix


# ----------------------------------------------------------------------
# execution: byte-identity with scratch
# ----------------------------------------------------------------------
def test_grouped_tree_matches_scratch_on_all_kernel_combos():
    spec = validate(_with_burst_axis(_tree()))
    reference = run_campaign(spec)
    for active_set in (True, False):
        for batched in (True, False):
            forked = run_campaign(
                spec, fork=True, active_set=active_set, batched=batched
            )
            assert forked.digest() == reference.digest(), (
                f"fork-tree drifted with active_set={active_set} "
                f"batched={batched}"
            )
    forked = run_campaign(spec, fork=True)
    assert forked.fork_cycle is None  # grouped: no whole-sweep prefix
    assert forked.to_json_dict() == reference.to_json_dict()
    # Executed amortization matches the plan (horizon > fork cycle).
    assert forked.fork_stats["executed"] == {
        "prefix_cycles": 800, "saved_cycles": 1600,
    }
    assert forked.fork_stats["planned"]["snapshot_nodes"] == 2


def test_two_level_tree_matches_scratch():
    spec = validate(_with_trim_axis(_tree()))
    reference = run_campaign(spec)
    forked = run_campaign(spec, fork=True)
    assert forked.fork_cycle == 400  # whole sweep shares the root edge
    assert forked.to_json_dict() == reference.to_json_dict()
    assert forked.fork_stats["executed"] == {
        "prefix_cycles": 1600, "saved_cycles": 3200,
    }


def test_fork_tree_over_process_pool_matches_sequential():
    spec = validate(_with_burst_axis(_with_trim_axis(_tree())))
    sequential = run_campaign(spec, fork=True)
    pooled = run_campaign(spec, fork=True, jobs=2)
    assert pooled.to_json_dict() == sequential.to_json_dict()
    assert pooled.fork_stats == sequential.fork_stats


# ----------------------------------------------------------------------
# property: fork-tree == scratch over randomized multi-axis sweeps
# ----------------------------------------------------------------------
@st.composite
def sweep_campaigns(draw):
    tree = _tree(horizon=900, cut_at=draw(st.sampled_from([200, 400])))
    tree["campaign"]["sweep"] = [{
        "field": BUDGET_FIELD,
        "values": draw(st.sampled_from(
            [[256, 1 << 40], [512, 4096], [256, 2048, 1 << 40]]
        )),
    }]
    if draw(st.booleans()):
        _with_trim_axis(tree, trim_at=draw(st.sampled_from([300, 700])))
    if draw(st.booleans()):
        _with_burst_axis(tree, values=draw(st.sampled_from(
            [[32, 128], [128, 32], [64]]
        )))
    if draw(st.booleans()):
        tree["campaign"]["sweep"].reverse()
    return tree


@given(sweep_campaigns())
@settings(max_examples=8, deadline=None)
def test_fork_tree_matches_scratch_property(tree):
    spec = validate(tree)
    scratch = run_campaign(spec)
    forked = run_campaign(spec, fork=True)
    assert forked.to_json_dict() == scratch.to_json_dict()


@st.composite
def quiet_until_campaigns(draw):
    """Until-runs that are quiescent at their fork boundaries: the DMA
    is off, the core naps between sparse accesses, and rule ``cut``
    writes the core's own budget, so the kernel fast-forwards across
    the cycles where the rules fire."""
    tree = _tree(cut_at=draw(st.sampled_from([200, 400])))
    tree["run"] = {"until": ["core"], "max_cycles": 200_000}
    tree["traffic"]["dma"]["enabled"] = False
    tree["traffic"]["core"].update(gap_mean=150, n_accesses=12)
    tree["schedule"][0]["set"] = {
        "realm.core.region0.budget_bytes": 4096,
        "realm.core.region0.period_cycles": 500,
    }
    tree["campaign"]["sweep"] = [{
        "field": CORE_BUDGET_FIELD,
        "values": draw(st.sampled_from([[16, 1 << 40], [16, 48, 4096]])),
    }]
    if draw(st.booleans()):
        _with_trim_axis(tree, trim_at=draw(st.sampled_from([300, 700])))
        if draw(st.booleans()):
            tree["campaign"]["sweep"].reverse()
    return tree


@given(quiet_until_campaigns())
@settings(max_examples=6, deadline=None)
def test_fork_tree_over_quiet_until_runs_matches_scratch_property(tree):
    spec = validate(tree)
    scratch = run_campaign(spec)
    forked = run_campaign(spec, fork=True)
    assert forked.to_json_dict() == scratch.to_json_dict()


# ----------------------------------------------------------------------
# CLI: plan subcommand + fork-stats emission
# ----------------------------------------------------------------------
def test_plan_command_prints_tree_without_running(capsys):
    assert main(["plan", str(SCENARIO_DIR / "budget_grid.toml"),
                 "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "4 points, 2 snapshot node(s)" in out
    assert "schedule-settable (forks below a snapshot)" in out
    assert "splits groups at cycle 0" in out
    assert "snapshot @cycle 2000" in out
    assert "predicted with --fork" in out


def test_plan_command_reports_unshareable_sweeps(capsys):
    assert main(["plan", str(SCENARIO_DIR / "fig6a.toml"),
                 "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "no provable shared prefix" in out


def test_run_fork_emits_tree_stats(capsys):
    assert main(["run", str(SCENARIO_DIR / "budget_grid.toml"),
                 "--smoke", "--fork"]) == 0
    out = capsys.readouterr().out
    assert "fork-tree execution: 2 snapshot node(s) over 4 points" in out
    assert "scratch split into 2 group(s)" in out


def test_budget_grid_fork_matches_scratch():
    spec = apply_smoke(load_file(SCENARIO_DIR / "budget_grid.toml"))
    scratch = run_campaign(spec)
    forked = run_campaign(spec, fork=True)
    assert forked.to_json_dict() == scratch.to_json_dict()

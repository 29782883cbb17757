"""Declarative scenario/campaign subsystem.

A scenario file (TOML or JSON) declares a complete experiment — topology,
traffic bindings, sweep grid, metrics — and this package validates it,
expands the campaign into concrete points with deterministic seeds, runs
them (sequentially or over a process pool), and aggregates the results
into JSON/CSV reports and golden-trace digests.

Typical use::

    from repro.scenario import load_file, run_campaign

    spec = load_file("scenarios/fig6a.toml")
    result = run_campaign(spec, jobs=4)
    print(result.format_table())
    result.write_json("fig6a_report.json")
"""

from repro.scenario.errors import ScenarioError
from repro.scenario.fork import ForkNode, ForkTree, plan_fork_tree
from repro.scenario.loader import dumps, load_file, loads
from repro.scenario.report import CampaignResult, PointResult
from repro.scenario.runner import (
    attach_traffic,
    build_system,
    collect_observables,
    install_control,
    run_campaign,
    run_point,
)
from repro.scenario.spec import (
    AdviseSpec,
    AxisSpec,
    CampaignSpec,
    ManagerScenario,
    MemoryScenario,
    PointSpec,
    ProbesSpec,
    RegulatorSpec,
    RunSpec,
    ScenarioSpec,
    ScheduleActionSpec,
    TopologySpec,
    TrafficScenario,
    WarmSpec,
    validate,
)
from repro.scenario.sweep import (
    ExpandedPoint,
    apply_overrides,
    apply_smoke,
    axis_schedule_settable,
    derive_seed,
    expand,
    set_by_path,
)

__all__ = [
    "AdviseSpec",
    "AxisSpec",
    "CampaignResult",
    "CampaignSpec",
    "ExpandedPoint",
    "ForkNode",
    "ForkTree",
    "ManagerScenario",
    "MemoryScenario",
    "PointResult",
    "PointSpec",
    "ProbesSpec",
    "RegulatorSpec",
    "RunSpec",
    "ScenarioError",
    "ScenarioSpec",
    "ScheduleActionSpec",
    "TopologySpec",
    "TrafficScenario",
    "WarmSpec",
    "apply_overrides",
    "apply_smoke",
    "attach_traffic",
    "axis_schedule_settable",
    "build_system",
    "collect_observables",
    "derive_seed",
    "dumps",
    "expand",
    "install_control",
    "load_file",
    "loads",
    "plan_fork_tree",
    "run_campaign",
    "run_point",
    "set_by_path",
    "validate",
]

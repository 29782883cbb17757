"""Unit tests for the scenario subsystem: loader messages, sweep
mechanics, runner behaviour, and report artefacts."""

from __future__ import annotations

import json

import pytest

from repro.realm.regions import UNLIMITED
from repro.scenario import (
    ScenarioError,
    apply_overrides,
    derive_seed,
    expand,
    load_file,
    loads,
    run_campaign,
    run_point,
    set_by_path,
    validate,
)

MINIMAL = """
[scenario]
name = "mini"
seed = 1

[run]
horizon = 200

[topology]
[[topology.managers]]
name = "hog"

[[topology.memories]]
name = "mem"
kind = "sram"
base = 0x0
size = 0x1_0000

[traffic.hog]
kind = "hog"
window = 0x8000
beats = 16
"""


def _minimal_dict() -> dict:
    return loads(MINIMAL).to_dict()


# ----------------------------------------------------------------------
# loader: precise errors
# ----------------------------------------------------------------------
def test_bad_toml_syntax_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="invalid TOML"):
        loads("[scenario\nname=")


def test_bad_json_syntax_is_a_scenario_error():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        loads("{not json", fmt="json")


def test_unknown_field_suggests_the_close_match():
    raw = _minimal_dict()
    raw["topology"]["managers"][0]["granularityy"] = 8
    with pytest.raises(ScenarioError, match="did you mean 'granularity'"):
        validate(raw)


def test_wrong_type_names_the_path():
    raw = _minimal_dict()
    raw["topology"]["managers"][0]["capacity"] = "big"
    with pytest.raises(ScenarioError,
                       match=r"topology.managers\[0\].capacity"):
        validate(raw)


def test_missing_required_field_names_the_path():
    raw = _minimal_dict()
    del raw["topology"]["memories"][0]["size"]
    with pytest.raises(ScenarioError,
                       match=r"topology.memories\[0\].size"):
        validate(raw)


def test_bool_is_not_an_int():
    raw = _minimal_dict()
    raw["scenario"]["seed"] = True
    with pytest.raises(ScenarioError, match="scenario.seed"):
        validate(raw)


def test_duplicate_manager_names_rejected():
    raw = _minimal_dict()
    raw["topology"]["managers"].append({"name": "hog"})
    with pytest.raises(ScenarioError, match="duplicate name 'hog'"):
        validate(raw)


def test_run_until_requires_a_core_binding():
    raw = _minimal_dict()
    raw["run"] = {"until": ["hog"]}
    with pytest.raises(ScenarioError, match="no core traffic"):
        validate(raw)


def test_until_and_horizon_are_mutually_exclusive():
    raw = _minimal_dict()
    raw["run"]["until"] = ["hog"]
    with pytest.raises(ScenarioError, match="exactly one of"):
        validate(raw)


def test_warm_requires_a_cached_memory():
    raw = _minimal_dict()
    raw["warm"] = [{"cache": "llc", "base": 0, "size": 64}]
    with pytest.raises(ScenarioError, match="no cached_dram memory"):
        validate(raw)


def test_traffic_for_unknown_manager_rejected():
    raw = _minimal_dict()
    raw["traffic"]["ghost"] = {"kind": "hog"}
    with pytest.raises(ScenarioError, match="unknown manager 'ghost'"):
        validate(raw)


def test_regulation_flag_without_a_realm_unit_rejected():
    raw = _minimal_dict()
    raw["topology"]["managers"][0]["regulation"] = True
    with pytest.raises(ScenarioError, match="REALM unit only"):
        validate(raw)
    raw["topology"]["managers"][0].pop("regulation")
    raw["topology"]["managers"][0]["throttle"] = False
    with pytest.raises(ScenarioError, match="REALM unit only"):
        validate(raw)


def test_realm_and_baseline_regulator_are_exclusive():
    raw = _minimal_dict()
    raw["topology"]["managers"][0].update(
        protect=True,
        regulator={"kind": "cnf", "depth_beats": 16},
    )
    with pytest.raises(ScenarioError, match="not both"):
        validate(raw)


def test_noc_table_requires_noc_interconnect():
    raw = _minimal_dict()
    raw["topology"]["noc"] = {"width": 2, "height": 2}
    with pytest.raises(ScenarioError, match='requires interconnect = "noc"'):
        validate(raw)


def test_unlimited_budget_strings_parse_to_sentinel():
    raw = _minimal_dict()
    raw["topology"]["managers"][0]["regions"] = [{
        "base": 0, "size": 0x8000,
        "budget_bytes": "unlimited", "period_cycles": 500,
    }]
    spec = validate(raw)
    region = spec.topology.managers[0].regions[0]
    assert region.budget_bytes == UNLIMITED
    assert region.period_cycles == 500
    # ...and serialize back to the readable form.
    out = spec.to_dict()
    assert (out["topology"]["managers"][0]["regions"][0]["budget_bytes"]
            == "unlimited")


def test_load_file_rejects_unknown_suffix(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("{}")
    with pytest.raises(ScenarioError, match="unsupported scenario file"):
        load_file(path)


def test_load_file_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read scenario file"):
        load_file(tmp_path / "nope.toml")


def test_load_file_json(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(_minimal_dict()))
    assert load_file(path) == loads(MINIMAL)


# ----------------------------------------------------------------------
# sweep: paths, expansion, seeds
# ----------------------------------------------------------------------
def test_set_by_path_resolves_list_elements_by_name():
    raw = _minimal_dict()
    set_by_path(raw, "topology.managers.hog.granularity", 4)
    set_by_path(raw, "topology.memories.0.size", 0x2_0000)
    spec = validate(raw)
    assert spec.topology.managers[0].granularity == 4
    assert spec.topology.memories[0].size == 0x2_0000


def test_set_by_path_unknown_name_lists_alternatives():
    raw = _minimal_dict()
    with pytest.raises(ScenarioError, match="no element named 'dma'"):
        set_by_path(raw, "topology.managers.dma.granularity", 4)


def test_set_by_path_unknown_segment_lists_alternatives():
    raw = _minimal_dict()
    with pytest.raises(ScenarioError, match="unknown path segment"):
        set_by_path(raw, "topology.mangers.hog.granularity", 4)


def test_set_by_path_index_out_of_range():
    raw = _minimal_dict()
    with pytest.raises(ScenarioError, match="out of range"):
        set_by_path(raw, "topology.memories.3.size", 1)


def test_apply_overrides_revalidates():
    spec = loads(MINIMAL)
    with pytest.raises(ScenarioError, match="run"):
        apply_overrides(spec, {"run.horizon": -5})


def test_expand_orders_points_then_grid():
    raw = _minimal_dict()
    raw["campaign"] = {
        "points": [{"label": "special", "set": {"run.horizon": 10}}],
        "sweep": [
            {"field": "traffic.hog.beats", "values": [1, 2]},
            {"field": "run.horizon", "values": [100, 300],
             "labels": ["short", "long"]},
        ],
    }
    labels = [p.label for p in expand(validate(raw))]
    assert labels == [
        "special",
        "beats=1,short", "beats=1,long",
        "beats=2,short", "beats=2,long",
    ]


def test_expand_without_campaign_yields_base_point():
    points = expand(loads(MINIMAL))
    assert [p.label for p in points] == ["mini"]
    assert points[0].spec.run.horizon == 200


def test_axis_fields_apply_one_value_to_all():
    raw = _minimal_dict()
    raw["topology"]["managers"].append({"name": "m2"})
    raw["campaign"] = {
        "sweep": [{
            "fields": ["topology.managers.hog.capacity",
                       "topology.managers.m2.capacity"],
            "values": [3, 5],
        }]
    }
    points = expand(validate(raw))
    for point, cap in zip(points, (3, 5)):
        assert [m.capacity for m in point.spec.topology.managers] == [cap, cap]


def test_axis_without_fields_rejected():
    raw = _minimal_dict()
    raw["campaign"] = {"sweep": [{"fields": [], "values": [1, 2]}]}
    with pytest.raises(ScenarioError,
                       match=r"campaign\.sweep\[0\]\.fields: axis needs "
                             r"at least one field"):
        validate(raw)
    # With labels, an empty axis would expand into identical base points.
    raw["campaign"]["sweep"][0]["labels"] = ["a", "b"]
    with pytest.raises(ScenarioError, match="at least one field"):
        validate(raw)


def _with_regulator(raw: dict, regulator: dict) -> None:
    raw["topology"]["managers"][0]["regulator"] = regulator


def _with_region(raw: dict, period) -> None:
    raw["topology"]["managers"][0]["regions"] = [
        {"size": 0x8000, "budget_bytes": 512, "period_cycles": period}
    ]


def _with_traffic(raw: dict, binding: dict) -> None:
    raw["traffic"]["hog"] = binding


def _with_llc(raw: dict, **fields) -> None:
    raw["topology"]["memories"].append({
        "name": "dram", "kind": "cached_dram", "base": 0x8000_0000,
        "size": 0x1_0000, **fields,
    })


_DMA = {"kind": "dma", "src_base": 0, "src_size": 0x1000,
        "dst_base": 0x8000, "dst_size": 0x1000}


@pytest.mark.parametrize("edit, path", [
    (lambda raw: _with_regulator(
        raw, {"kind": "abu", "budget_bytes": 64, "period_cycles": 0}),
     "topology.managers[0].regulator.period_cycles"),
    (lambda raw: _with_region(raw, 0),
     "topology.managers[0].regions[0].period_cycles"),
    (lambda raw: _with_regulator(raw, {"kind": "abe", "nominal_burst": 0}),
     "topology.managers[0].regulator.nominal_burst"),
    (lambda raw: _with_traffic(raw, {"kind": "core", "n_accesses": 3,
                                     "beats": 0}),
     "traffic.hog.beats"),
    (lambda raw: _with_traffic(raw, {"kind": "hog", "beats": 0}),
     "traffic.hog.beats"),
    (lambda raw: _with_traffic(raw, {"kind": "staller", "beats": 0}),
     "traffic.hog.beats"),
    (lambda raw: _with_traffic(raw, {"kind": "trickler", "beats": 0}),
     "traffic.hog.beats"),
    (lambda raw: _with_traffic(raw, {"kind": "hog", "beats": 257}),
     "traffic.hog.beats"),
    (lambda raw: _with_traffic(raw, {"kind": "hog", "size": -1}),
     "traffic.hog.size"),
    (lambda raw: _with_traffic(raw, {**_DMA, "burst_beats": 0}),
     "traffic.hog.burst_beats"),
    (lambda raw: _with_traffic(raw, {**_DMA, "n_buffers": 0}),
     "traffic.hog.n_buffers"),
    (lambda raw: _with_traffic(raw, {**_DMA, "src_size": 64}),
     "traffic.hog"),
    (lambda raw: _with_traffic(raw, {"kind": "core", "n_accesses": 3,
                                     "read_fraction": 1.5}),
     "traffic.hog.read_fraction"),
    (lambda raw: _with_llc(raw, llc_ways=0),
     "topology.memories[1].llc_ways"),
    (lambda raw: _with_llc(raw, llc_capacity=0),
     "topology.memories[1].llc_capacity"),
], ids=["abu-period", "region-period", "abe-burst", "core-beats",
        "hog-beats", "staller-beats", "trickler-beats", "beats-257",
        "size", "dma-burst", "dma-buffers", "dma-window", "read-fraction",
        "llc-ways", "llc-capacity"])
def test_values_that_cannot_run_are_scenario_errors(edit, path):
    # Each value would otherwise validate and then raise a raw exception
    # (ZeroDivisionError, IndexError, ValueError) mid-run, at build or at
    # attach.
    raw = _minimal_dict()
    edit(raw)
    with pytest.raises(ScenarioError) as info:
        run_point(expand(validate(raw))[0])
    assert info.value.path == path


def test_derive_seed_is_stable_and_spread():
    assert derive_seed(1, 0, "a") == derive_seed(1, 0, "a")
    assert derive_seed(1, 0, "a") != derive_seed(1, 1, "a")
    assert derive_seed(1, 0, "a") != derive_seed(2, 0, "a")


def test_unpinned_core_seed_is_derived_per_point():
    raw = _minimal_dict()
    raw["traffic"]["hog"] = {"kind": "core", "pattern": "susan",
                             "n_accesses": 5}
    raw["campaign"] = {"sweep": [{"field": "run.horizon",
                                  "values": [50, 60]}]}
    points = expand(validate(raw))
    seeds = [p.spec.traffic_for("hog").param("seed") for p in points]
    assert all(isinstance(s, int) for s in seeds)
    assert seeds[0] != seeds[1]
    assert seeds[0] == derive_seed(points[0].seed, "hog")
    # Pinning the seed in the file disables derivation.
    raw["traffic"]["hog"]["seed"] = 7
    points = expand(validate(raw))
    assert [p.spec.traffic_for("hog").param("seed") for p in points] == [7, 7]


def test_duplicate_labels_rejected_at_expansion():
    raw = _minimal_dict()
    raw["campaign"] = {
        "points": [{"label": "beats=1"}],
        "sweep": [{"field": "traffic.hog.beats", "values": [1]}],
    }
    with pytest.raises(ScenarioError, match="duplicate point label"):
        expand(validate(raw))


# ----------------------------------------------------------------------
# runner + report
# ----------------------------------------------------------------------
def test_run_point_collects_observables():
    point = expand(loads(MINIMAL))[0]
    result = run_point(point)
    assert result.sim_cycles == 200
    assert result.observables["managers"]["hog"]["bytes_stolen"] > 0
    assert "hog" in result.observables["channels"]


def test_disabled_traffic_is_not_attached():
    raw = _minimal_dict()
    raw["traffic"]["hog"]["enabled"] = False
    result = run_point(expand(validate(raw))[0])
    assert result.observables["managers"] == {}
    assert result.sim_cycles == 200


def test_run_until_with_all_bindings_disabled_errors():
    raw = _minimal_dict()
    raw["traffic"]["hog"] = {"kind": "core", "pattern": "sequential",
                             "n_accesses": 3, "enabled": False}
    raw["run"] = {"until": ["hog"]}
    with pytest.raises(ScenarioError, match="enabled=false"):
        run_point(expand(validate(raw))[0])


def test_unelaboratable_topology_is_a_scenario_error():
    raw = _minimal_dict()
    # 1x1 mesh cannot place a manager and a memory on distinct nodes.
    raw["topology"]["interconnect"] = "noc"
    raw["topology"]["noc"] = {"width": 1, "height": 1}
    with pytest.raises(ScenarioError, match="topology does not elaborate"):
        run_point(expand(validate(raw))[0])


def test_campaign_reports_perf_relative_to_baseline(tmp_path):
    raw = _minimal_dict()
    raw["traffic"]["hog"] = {"kind": "core", "pattern": "sequential",
                             "n_accesses": 10}
    raw["run"] = {"until": ["hog"], "max_cycles": 10_000}
    raw["campaign"] = {
        "baseline": "alone",
        "points": [{"label": "alone"},
                   {"label": "slow", "set": {"traffic.hog.gap": 5}}],
    }
    result = run_campaign(validate(raw))
    alone, slow = result.points
    assert alone.perf_percent == 100.0
    assert slow.perf_percent < 100.0
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    result.write_json(json_path)
    result.write_csv(csv_path)
    report = json.loads(json_path.read_text())
    assert report["baseline"] == "alone"
    assert [p["label"] for p in report["points"]] == ["alone", "slow"]
    assert csv_path.read_text().count("\n") == 3  # header + 2 points


def test_campaign_jobs_fanout_matches_sequential():
    raw = _minimal_dict()
    raw["campaign"] = {"sweep": [{"field": "traffic.hog.beats",
                                  "values": [4, 8, 16]}]}
    spec = validate(raw)
    assert (run_campaign(spec).digest()
            == run_campaign(spec, jobs=3).digest())


def test_baseline_regulator_kinds_elaborate_and_run():
    for regulator in (
        {"kind": "abu", "budget_bytes": 512, "period_cycles": 200},
        {"kind": "abe", "nominal_burst": 1, "max_outstanding": 2},
        {"kind": "cnf", "depth_beats": 32},
    ):
        raw = _minimal_dict()
        raw["topology"]["managers"][0]["regulator"] = regulator
        result = run_point(expand(validate(raw))[0])
        assert result.sim_cycles == 200


def test_zero_execution_cycles_is_a_number_not_missing(tmp_path):
    """A primary manager finishing in 0 execution cycles is a real
    measurement: relative perf must be computed (not skipped by a falsy
    check) and every artefact must render the 0 instead of '-'."""
    from repro.scenario.report import CampaignResult, PointResult

    def point(label: str, cycles: int) -> PointResult:
        return PointResult(
            label=label, index=0, seed=1, sim_cycles=10,
            primary_manager="hog", execution_cycles=cycles,
            observables={"sim_cycles": 10},
        )

    result = CampaignResult(
        name="zero", description="", seed=1, active_set=True,
        baseline_label="base",
        points=[point("base", 0), point("also-zero", 0),
                point("busy", 50)],
    )
    result._fill_relative()
    base, also_zero, busy = result.points
    assert base.perf_percent == 100.0
    assert also_zero.perf_percent == 100.0
    assert busy.perf_percent == 0.0  # slower than a 0-cycle baseline

    table = result.format_table()
    base_row = table.splitlines()[1]
    assert "       0" in base_row and " - " not in base_row

    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    result.write_json(json_path)
    result.write_csv(csv_path)
    report = json.loads(json_path.read_text())
    assert report["points"][0]["execution_cycles"] == 0
    assert report["points"][0]["perf_percent"] == 100.0
    rows = csv_path.read_text().splitlines()
    assert rows[1].startswith("base,1,10,0,100.0")

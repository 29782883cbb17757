"""Property-based tests for the scenario loader and campaign expansion.

Two contracts, checked under randomized inputs:

* **Round-trip identity** — ``parse -> expand -> serialize -> parse``
  reproduces the same spec: every valid scenario dict validates to a
  spec whose ``to_dict()`` re-validates equal, every expanded campaign
  point does too, and the JSON serialization round-trips.  Expansion is
  deterministic: labels and derived seeds never depend on anything but
  the file content.

* **Error discipline** — arbitrarily corrupted scenario dicts either
  still validate (benign mutation) or raise :class:`ScenarioError`;
  never a raw ``KeyError``/``TypeError``/``AttributeError`` from the
  loader's internals.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario import (
    ScenarioError,
    apply_smoke,
    dumps,
    expand,
    loads,
    validate,
)

# ----------------------------------------------------------------------
# valid scenario dicts
# ----------------------------------------------------------------------
# Every spec class the loader reads is drawn somewhere below, so the
# round-trip and corruption properties reach each of its field tables.
_REGULATORS = [
    {"kind": "abu", "budget_bytes": 1024, "period_cycles": 500},
    {"kind": "abe", "nominal_burst": 2},
    {"kind": "cnf", "depth_beats": 64},
]


def _node(draw) -> list:
    return [draw(st.integers(0, 3)), draw(st.integers(0, 3))]


@st.composite
def manager_dicts(draw, name: str, noc: bool) -> dict:
    style = draw(st.sampled_from(["bare", "realm", "regulator"]))
    manager: dict = {"name": name}
    if style == "realm":
        manager["protect"] = True
        if draw(st.booleans()):
            manager["granularity"] = draw(st.sampled_from([1, 8, 64, 256]))
        if draw(st.booleans()):
            manager["regions"] = [{
                "base": 0,
                "size": 0x10000,
                "budget_bytes": draw(
                    st.sampled_from([256, 4096, "unlimited"])
                ),
                "period_cycles": draw(st.sampled_from([200, "unlimited"])),
            }]
        if draw(st.booleans()):
            manager["realm"] = {
                "n_regions": draw(st.integers(1, 4)),
                "write_buffer_depth": draw(st.sampled_from([8, 16, 32])),
            }
        if draw(st.booleans()):
            manager["regulation"] = draw(st.booleans())
    elif style == "regulator":
        manager["regulator"] = draw(st.sampled_from(_REGULATORS))
    if noc and draw(st.booleans()):
        manager["node"] = _node(draw)
    return manager


@st.composite
def memory_dicts(draw, noc: bool) -> list:
    memories = [{"name": "mem", "kind": "sram", "base": 0, "size": 0x20000}]
    if draw(st.booleans()):
        dram = {
            "name": "dram",
            "kind": draw(st.sampled_from(["dram", "cached_dram"])),
            "base": 0x8000_0000,
            "size": 0x2_0000,
        }
        if draw(st.booleans()):
            dram["timing"] = {
                "t_cas": draw(st.integers(0, 12)),
                "row_bytes": draw(st.sampled_from([1024, 2048])),
            }
        memories.append(dram)
    if noc:
        for memory in memories:
            if draw(st.booleans()):
                memory["node"] = _node(draw)
    return memories


@st.composite
def traffic_dicts(draw) -> dict:
    kind = draw(st.sampled_from(["core", "dma", "hog", "staller", "trickler"]))
    if kind == "core":
        binding = {
            "kind": "core",
            "pattern": draw(st.sampled_from(
                ["susan", "sequential", "random", "strided"]
            )),
            "n_accesses": draw(st.integers(1, 50)),
            "footprint": 4096,
        }
        if draw(st.booleans()):
            binding["seed"] = draw(st.integers(0, 2**31))
        return binding
    if kind == "dma":
        return {"kind": "dma", "src_base": 0, "src_size": 0x1000,
                "dst_base": 0x8000, "dst_size": 0x1000,
                "burst_beats": draw(st.sampled_from([16, 256]))}
    if kind == "hog":
        return {"kind": "hog", "window": 0x8000,
                "beats": draw(st.sampled_from([1, 16, 256]))}
    if kind == "staller":
        return {"kind": "staller", "repeat": draw(st.booleans())}
    return {"kind": "trickler", "gap": draw(st.integers(1, 100))}


@st.composite
def schedule_dicts(draw, realm_managers: list) -> list:
    rules = []
    for i in range(draw(st.integers(0, 2))):
        rule: dict = {"label": f"r{i}"}
        trigger = draw(st.sampled_from(["at", "every", "when"]))
        if trigger == "at":
            rule["at"] = draw(st.integers(0, 500))
        elif trigger == "every":
            rule["every"] = draw(st.integers(1, 500))
            if draw(st.booleans()):
                rule["start"] = draw(st.integers(0, 100))
                rule["until"] = rule["start"] + draw(st.integers(0, 1000))
        else:
            rule["when"] = "port.m0.ar.sent >= 4"
            rule["once"] = draw(st.booleans())
        if draw(st.booleans()):
            rule["enabled"] = draw(st.booleans())
        if draw(st.booleans()):
            rule["set"] = {"realm.m0.region0.budget_bytes":
                           draw(st.integers(0, 4096))}
        if draw(st.booleans()):
            rule["sample"] = ["port.m0.*.sent"]
        if realm_managers and draw(st.booleans()):
            rule["advise"] = {"managers": realm_managers[:1],
                              "period_cycles": draw(st.integers(1, 1000))}
            if draw(st.booleans()):
                rule["advise"]["weights"] = [draw(st.sampled_from([1, 2.5]))]
        if not any(key in rule for key in ("set", "sample", "advise")):
            rule["sample"] = ["port.m0.*.recv"]
        rules.append(rule)
    return rules


@st.composite
def scenario_dicts(draw) -> dict:
    n_managers = draw(st.integers(min_value=1, max_value=3))
    interconnect = draw(st.sampled_from(["auto", "crossbar", "noc"]))
    noc = interconnect == "noc"
    names = [f"m{i}" for i in range(n_managers)]
    managers = [draw(manager_dicts(name, noc)) for name in names]
    memories = draw(memory_dicts(noc))
    traffic = {
        name: draw(traffic_dicts())
        for name in names
        if draw(st.booleans())
    }
    cores = [name for name, b in traffic.items() if b["kind"] == "core"]
    run: dict = {}
    if cores and draw(st.booleans()):
        # A bare string is the one-manager spelling of a list.
        run["until"] = cores[0] if draw(st.booleans()) else cores
        run_key = "run.max_cycles"
    else:
        run["horizon"] = draw(st.integers(1, 2000))
        run_key = "run.horizon"
    topology: dict = {
        "interconnect": interconnect,
        "managers": managers,
        "memories": memories,
    }
    if noc:
        topology["noc"] = {"width": 4, "height": 4}
        if draw(st.booleans()):
            topology["noc"]["router_depth"] = draw(st.integers(1, 8))
    raw: dict = {
        "scenario": {
            "name": "prop",
            "seed": draw(st.integers(0, 2**31)),
            "active_set": draw(st.booleans()),
        },
        "run": run,
        "topology": topology,
        "traffic": traffic,
    }
    if any(m["kind"] == "cached_dram" for m in memories) and draw(
        st.booleans()
    ):
        raw["warm"] = [{"cache": "llc", "base": 0x8000_0000, "size": 4096}]
    if draw(st.booleans()):
        raw["metrics"] = {"collect": draw(st.lists(
            st.sampled_from(["latency", "counters", "realms", "channels"]),
            unique=True,
        ))}
    if draw(st.booleans()):
        raw["probes"] = {"sample": ["port.m0.*.sent"],
                         "every": draw(st.integers(1, 500))}
        if draw(st.booleans()):
            raw["probes"]["start"] = draw(st.integers(0, 100))
    realm_managers = [m["name"] for m in managers if "protect" in m]
    schedule = draw(schedule_dicts(realm_managers))
    if schedule:
        raw["schedule"] = schedule
    if draw(st.booleans()):
        raw["campaign"] = {
            "points": [
                {"label": "short", "set": {run_key: 5}},
                {"label": "long", "set": {run_key: 50}},
            ],
            "sweep": [{
                "field": "scenario.seed",
                "values": draw(
                    st.lists(st.integers(0, 100), min_size=1, max_size=3,
                             unique=True)
                ),
            }],
        }
        if draw(st.booleans()):
            raw["campaign"]["baseline"] = draw(
                st.sampled_from(["short", "long"])
            )
        if draw(st.booleans()):
            fields = ["run.max_cycles", "topology.managers.m0.capacity"]
            raw["campaign"]["sweep"].append({
                "fields": fields[:draw(st.integers(1, 2))],
                "values": [100, 200],
                "labels": ["lo", "hi"],
            })
    if draw(st.booleans()):
        raw["smoke"] = {"set": {run_key: 3}}
    return raw


@settings(max_examples=60, deadline=None)
@given(raw=scenario_dicts())
def test_property_parse_expand_serialize_parse_is_identity(raw):
    spec = validate(raw)
    assert validate(spec.to_dict()) == spec
    assert loads(dumps(spec), fmt="json") == spec
    points = expand(spec)
    assert points, "expansion always yields at least one point"
    for point in points:
        assert validate(point.spec.to_dict()) == point.spec
        assert not point.spec.campaign.points
        assert not point.spec.campaign.sweep
    smoked = apply_smoke(spec)
    assert validate(smoked.to_dict()) == smoked


@settings(max_examples=30, deadline=None)
@given(raw=scenario_dicts())
def test_property_expansion_is_deterministic(raw):
    spec = validate(raw)
    first = [(p.label, p.seed) for p in expand(spec)]
    second = [(p.label, p.seed) for p in expand(validate(copy.deepcopy(raw)))]
    assert first == second
    assert len({label for label, _ in first}) == len(first), "labels unique"


# ----------------------------------------------------------------------
# error discipline under corruption
# ----------------------------------------------------------------------
_JUNK = [None, -1, 3.14, "zzz", "", [], {}, True, [1, 2], {"x": 1}, 2**70]


def _paths(node, prefix=()):
    """All key paths into a nested dict/list tree."""
    out = [prefix] if prefix else []
    if isinstance(node, dict):
        for key, value in node.items():
            out.extend(_paths(value, prefix + (key,)))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.extend(_paths(value, prefix + (i,)))
    return out


def _mutate(tree: dict, path: tuple, action: str, junk) -> None:
    parent = tree
    for segment in path[:-1]:
        parent = parent[segment]
    last = path[-1]
    if action == "delete":
        del parent[last]
    elif action == "replace":
        parent[last] = junk
    else:  # inject an unknown key next to the target
        target = parent[last] if action == "inject-into" else parent
        if isinstance(target, dict):
            target["bogus_field"] = junk
        else:
            parent[last] = junk


@settings(max_examples=150, deadline=None)
@given(
    raw=scenario_dicts(),
    data=st.data(),
)
def test_property_corrupted_scenarios_raise_scenario_error_only(raw, data):
    paths = _paths(raw)
    path = data.draw(st.sampled_from(paths))
    action = data.draw(st.sampled_from(["delete", "replace", "inject-into"]))
    junk = data.draw(st.sampled_from(_JUNK))
    corrupted = copy.deepcopy(raw)
    _mutate(corrupted, path, action, junk)
    try:
        spec = validate(corrupted)
    except ScenarioError:
        return  # the contract: precise scenario errors only
    # Benign mutation: the result must still round-trip and expand
    # without leaking raw exceptions either.
    try:
        expand(spec)
    except ScenarioError:
        return
    assert validate(spec.to_dict()) == spec


@settings(max_examples=50, deadline=None)
@given(text=st.text(max_size=200))
def test_property_garbage_text_raises_scenario_error(text):
    for fmt in ("toml", "json"):
        try:
            loads(text, fmt=fmt)
        except ScenarioError:
            pass  # never a raw parser exception

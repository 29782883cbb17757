"""Control-plane tests: probes, knobs, schedule, and scenario wiring.

Covers the registries in isolation, their wiring onto built systems,
commit-boundary schedule semantics (including kernel equivalence and
fast-forward interaction), hardware-faithful knob routing through the
register file, and the scenario-file front end.
"""

from __future__ import annotations

import pytest

from repro.control import (
    Comparison,
    KnobError,
    KnobRegistry,
    ProbeError,
    ProbeRegistry,
    ScheduleError,
)
from repro.realm import RegionConfig
from repro.realm import register_file as rf
from repro.scenario import (
    ScenarioError,
    attach_traffic,
    build_system,
    install_control,
    loads,
    run_campaign,
    validate,
)
from repro.sim import Channel, Simulator, Tracer
from repro.system import SystemBuilder


# ----------------------------------------------------------------------
# probe registry
# ----------------------------------------------------------------------
def test_probe_register_read_and_order():
    reg = ProbeRegistry()
    reg.register("a.x", lambda: 1)
    reg.register("a.y", lambda: 2, kind="gauge")
    reg.register("b.x", lambda: 3, kind="flag")
    assert reg.read("a.y") == 2
    assert reg.paths() == ["a.x", "a.y", "b.x"]
    assert reg.sample() == {"a.x": 1, "a.y": 2, "b.x": 3}
    assert reg.sample("a.*") == {"a.x": 1, "a.y": 2}
    assert reg.match("*.x") == ["a.x", "b.x"]


def test_probe_errors():
    reg = ProbeRegistry()
    reg.register("a.x", lambda: 1)
    with pytest.raises(ProbeError, match="registered twice"):
        reg.register("a.x", lambda: 2)
    with pytest.raises(ProbeError, match="no probe matches"):
        reg.read("a.z")
    with pytest.raises(ProbeError, match="no probe matches"):
        reg.match("c.*")
    with pytest.raises(ProbeError, match="malformed"):
        reg.register("a..x", lambda: 1)
    with pytest.raises(ProbeError, match="unknown probe kind"):
        reg.register("a.k", lambda: 1, kind="rate")


def test_probe_channel_source_counters_and_events(sim):
    reg = ProbeRegistry()
    ch = Channel(sim, "data")
    reg.register_channel("port.m.data", ch)
    tr = Tracer(sim)
    assert tr.watch_probes(reg, "port.m.*") == ["port.m.data"]
    ch.send("x")
    sim.step()
    ch.recv()
    assert reg.read("port.m.data.sent") == 1
    assert reg.read("port.m.data.recv") == 1
    assert [e.kind for e in tr.events()] == ["send", "recv"]
    reg.detach("port.m.*", tr)
    ch.send("y")
    assert len(tr) == 2  # no longer attached
    with pytest.raises(ProbeError, match="no probe event source"):
        reg.attach("port.q.*", tr)


def test_probe_detach_mirrors_attach(sim):
    """detach returns the matched paths and raises on a zero-match
    pattern, exactly like attach — a typo'd detach can no longer leave
    a tracer silently attached."""
    reg = ProbeRegistry()
    ch_a = Channel(sim, "data")
    ch_b = Channel(sim, "data")
    reg.register_channel("port.a.data", ch_a)
    reg.register_channel("port.b.data", ch_b)
    tr = Tracer(sim)
    assert reg.attach("port.*.data", tr) == ["port.a.data", "port.b.data"]
    assert reg.detach("port.*.data", tr) == ["port.a.data", "port.b.data"]
    ch_a.send("x")
    assert len(tr) == 0  # actually detached
    with pytest.raises(ProbeError, match="no probe event source"):
        reg.detach("port.typo.*", tr)
    # Exact (non-glob) paths resolve too, and re-attach round-trips.
    assert reg.attach("port.a.data", tr) == ["port.a.data"]
    assert reg.detach("port.a.data", tr) == ["port.a.data"]


def test_register_channel_is_atomic(sim):
    """A sub-path collision aborts register_channel before any probe or
    source is published — no half-registered channel survives."""
    reg = ProbeRegistry()
    reg.register("port.m.data.occupancy", lambda: 0, doc="squatter")
    ch = Channel(sim, "data")
    with pytest.raises(ProbeError, match="registered twice"):
        reg.register_channel("port.m.data", ch)
    assert reg.source_paths() == []
    # None of the sibling sub-probes leaked in before the clash.
    assert reg.paths() == ["port.m.data.occupancy"]
    # The registry is still fully usable under a different path.
    assert reg.attach  # sanity: object not corrupted
    reg.register_channel("port.n.data", ch)
    assert reg.source_paths() == ["port.n.data"]


# ----------------------------------------------------------------------
# knob registry
# ----------------------------------------------------------------------
def test_knob_types_and_errors():
    reg = KnobRegistry()
    box = {"v": 0, "b": False}
    reg.register("k.int", lambda: box["v"],
                 lambda v: box.__setitem__("v", v))
    reg.register("k.bool", lambda: box["b"],
                 lambda v: box.__setitem__("b", v), kind="bool")
    reg.set("k.int", 5)
    reg.set("k.bool", True)
    assert box == {"v": 5, "b": True}
    with pytest.raises(KnobError, match="takes an int"):
        reg.set("k.int", True)  # bool is not an int here
    with pytest.raises(KnobError, match="takes a bool"):
        reg.set("k.bool", 1)
    with pytest.raises(KnobError, match="no knob"):
        reg.set("k.missing", 1)
    with pytest.raises(KnobError, match="registered twice"):
        reg.register("k.int", lambda: 0, lambda v: None)


# ----------------------------------------------------------------------
# trigger expressions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("text,expected", [
    ("a.b > 5", ("a.b", ">", 5)),
    ("a.b>=0x10", ("a.b", ">=", 16)),
    ("a.b != -1", ("a.b", "!=", -1)),
    ("  a.b == 3 ", ("a.b", "==", 3)),
])
def test_comparison_parse(text, expected):
    cmp = Comparison.parse(text)
    assert (cmp.path, cmp.op, cmp.value) == expected


@pytest.mark.parametrize("text", ["a.b", "> 5", "a.b > x", "a.b ~ 5", ""])
def test_comparison_parse_rejects(text):
    with pytest.raises(ScheduleError):
        Comparison.parse(text)


# ----------------------------------------------------------------------
# schedule engine on built systems
# ----------------------------------------------------------------------
def build_two_manager_system(active_set=True):
    return (
        SystemBuilder(name="cp", active_set=active_set)
        .add_manager("core", protect=True, granularity=8, regions=[
            RegionConfig(0x0, 0x10000, 4096, 1000)
        ])
        .add_manager("dma")
        .add_sram("mem", base=0x0, size=0x10000)
        .build()
    )


def test_schedule_at_fires_on_the_commit_boundary():
    system = build_two_manager_system()
    seen = []
    system.control.at(10, lambda c: seen.append((c, system.sim.cycle)))
    system.sim.run(20)
    assert seen == [(10, 11)]  # after the commit of cycle 10


def test_schedule_every_with_start_until_and_once():
    system = build_two_manager_system()
    cp = system.control
    ticks, capped = [], []
    cp.every(10, lambda c: ticks.append(c), label="tick")
    cp.every(10, lambda c: capped.append(c), start=5, until=25, label="cap")
    once = cp.every(10, lambda c: None, once=True, label="one")
    system.sim.run(60)
    assert ticks == [10, 20, 30, 40, 50]
    assert capped == [5, 15, 25]
    assert once.fired == 1 and not once.active


def test_schedule_when_trigger_and_once():
    system = build_two_manager_system()
    cp = system.control
    drv = system.add_driver("core")
    rule = cp.every(
        5,
        when="driver.core.completed >= 2",
        set={"realm.core.region0.budget_bytes": 512},
        once=True,
        label="shrink",
    )
    drv.read(0x0, beats=2)
    drv.read(0x40, beats=2)
    system.run_until_idle()
    system.sim.run(20)
    assert rule.fired == 1
    assert rule.evaluations > 1  # polled before the condition held
    assert cp.get("realm.core.region0.budget_bytes") == 512


def test_schedule_rejects_bad_rules():
    system = build_two_manager_system()
    cp = system.control
    with pytest.raises(ScheduleError, match="no actions"):
        cp.at(5, label="empty")
    with pytest.raises(KnobError):
        cp.at(5, set={"realm.core.region9.budget_bytes": 1}, label="bad")
    with pytest.raises(ProbeError):
        cp.every(5, sample=["nothing.*"], label="nosuch")
    cp.at(5, lambda c: None, label="dup")
    with pytest.raises(ScheduleError, match="duplicate"):
        cp.at(6, lambda c: None, label="dup")
    # Kind mismatches on static set-values fail at install, not mid-run.
    with pytest.raises(KnobError, match="takes an int"):
        cp.at(5, set={"realm.core.region0.budget_bytes": True}, label="kind")


def test_register_semantics_rejection_surfaces_as_knob_error():
    system = build_two_manager_system()
    # Well-typed but refused by config validation (granularity must be a
    # positive power of two within the unit's limits).
    with pytest.raises(KnobError, match="rejected"):
        system.control.set("realm.core.granularity", 0)


def test_hook_rescheduling_for_a_past_cycle_defers_to_the_next_boundary():
    sim = Simulator()
    fired = []

    def reschedule(committed):
        fired.append(committed)
        if len(fired) < 3:
            sim.call_at(0, reschedule)  # already committed: next boundary

    sim.call_at(0, reschedule)
    sim.run(10)  # would hang forever if drained at one boundary
    assert fired == [0, 1, 2]


def test_sampler_is_kernel_identical_and_fast_forward_safe():
    """A sampler over a quiescent system must record the same series on
    both kernels, and must not stop the active kernel fast-forwarding."""
    series = {}
    for active_set in (True, False):
        system = build_two_manager_system(active_set=active_set)
        drv = system.add_driver("core")
        cp = system.control
        cp.sampler(
            ["realm.core.region0.total_bytes", "port.core.ar.sent"],
            every=100,
        )
        drv.read(0x0, beats=4)
        system.sim.run(1000)
        series[active_set] = cp.schedule.series["probes"]
    assert series[True] == series[False]
    # The boundary of cycle 1000 belongs to step 1000, which a 1000-cycle
    # run does not execute — the last sample lands at 900.
    assert [e["cycle"] for e in series[True]] == list(range(100, 1000, 100))


def test_hooks_do_not_block_fast_forward():
    system = build_two_manager_system(active_set=True)
    system.control.sampler(["port.core.ar.sent"], every=200)
    system.sim.run(1000)
    # The stretches between samples are still jumped, not stepped.
    assert system.sim.cycles_fast_forwarded >= 700


# ----------------------------------------------------------------------
# knob routing through the register file
# ----------------------------------------------------------------------
def test_realm_knob_write_lands_on_the_register_state():
    """A knob-path write and a raw regfile write must produce the exact
    same register state (satellite: hardware-faithful routing)."""
    via_knob = build_two_manager_system()
    via_raw = build_two_manager_system()
    via_knob.control.set("realm.core.region0.budget_bytes", 2048)
    via_knob.control.set("realm.core.granularity", 4)
    base = rf.unit_base(0)
    via_raw.regfile.write(0x0, 0x51, tid=0x51)  # claim, like the control plane
    via_raw.regfile.write(base + rf.region_base(0) + rf.BUDGET, 2048,
                          tid=0x51)
    via_raw.regfile.write(base + rf.GRANULARITY, 4, tid=0x51)
    via_knob.sim.run(10)  # drain + apply the intrusive granularity change
    via_raw.sim.run(10)
    for offset in (
        base + rf.CTRL,
        base + rf.GRANULARITY,
        base + rf.region_base(0) + rf.BUDGET,
        base + rf.region_base(0) + rf.PERIOD,
        base + rf.region_base(0) + rf.REGION_BASE,
        base + rf.region_base(0) + rf.REGION_SIZE,
    ):
        assert via_knob.regfile._read(offset) == via_raw.regfile._read(offset)


def test_knob_write_respects_foreign_bus_guard_owner():
    system = build_two_manager_system()
    system.regfile.write(0x0, 0x42, tid=0x42)  # someone else claims first
    with pytest.raises(KnobError, match="bus guard"):
        system.control.set("realm.core.region0.budget_bytes", 64)
    # Reads through the regfile are equally guarded.
    with pytest.raises(KnobError):
        system.control.set("realm.core.ctrl.regulation", True)


def test_traffic_and_interconnect_knobs(sim):
    from repro.traffic import BandwidthHog

    system = (
        SystemBuilder(sim)
        .with_crossbar(qos_arbitration=True)
        .add_manager("a")
        .add_manager("b")
        .add_sram("mem", base=0x0, size=0x1000)
        .build()
    )
    hog = system.attach("a", lambda port: BandwidthHog(port, window=0x1000))
    cp = system.control
    assert cp.get("traffic.a.enabled") is True
    cp.set("traffic.a.enabled", False)
    assert hog.enabled is False
    cp.set("traffic.a.max_outstanding", 7)
    assert hog.max_outstanding == 7
    assert cp.get("xbar.a.qos") == -1
    cp.set("xbar.a.qos", 12)
    assert system.interconnect.qos_override[0] == 12
    cp.set("xbar.a.qos", -1)
    assert 0 not in system.interconnect.qos_override


# ----------------------------------------------------------------------
# builder publication
# ----------------------------------------------------------------------
def test_built_system_publishes_expected_namespaces():
    system = build_two_manager_system()
    paths = system.control.probes.paths()
    assert "port.core.aw.sent" in paths
    assert "realm.core.isolated" in paths
    assert "realm.core.region0.budget_remaining" in paths
    assert "xbar.aw_forwarded" in paths
    assert "mem.mem.reads_served" in paths
    knobs = system.control.knobs.paths()
    assert "realm.core.region0.budget_bytes" in knobs
    assert "realm.core.ctrl.regulation" in knobs
    assert all(not k.startswith("realm.dma") for k in knobs)  # unprotected


def test_noc_router_probes(sim):
    system = (
        SystemBuilder(sim)
        .with_noc(3, 2)
        .add_manager("a")
        .add_sram("mem", base=0x0, size=0x1000)
        .build()
    )
    paths = system.control.probes.paths()
    for x in range(3):
        for y in range(2):
            assert f"noc.r{x}c{y}.occupancy" in paths
    assert system.control.read("noc.flits") == 0


def test_control_can_be_disabled():
    system = (
        SystemBuilder(control=False)
        .add_manager("m")
        .add_sram("mem", base=0x0, size=0x1000)
        .build()
    )
    assert system.control is None


# ----------------------------------------------------------------------
# scenario front end
# ----------------------------------------------------------------------
MINIMAL = """
[scenario]
name = "ctl"
seed = 1

[run]
horizon = 3000

[topology]
[[topology.managers]]
name = "core"
protect = true
granularity = 8
[[topology.managers.regions]]
base = 0x0
size = 0x10000
budget_bytes = 512
period_cycles = 500

[[topology.memories]]
name = "mem"
kind = "sram"
base = 0x0
size = 0x10000

[traffic.core]
kind = "core"
pattern = "sequential"
n_accesses = 50
gap = 4
"""


def test_scenario_probes_and_schedule_round_trip():
    text = MINIMAL + """
[probes]
every = 250
sample = ["realm.core.region0.total_bytes"]

[[schedule]]
label = "bump"
at = 1000
[schedule.set]
"realm.core.region0.budget_bytes" = 1024

[[schedule]]
label = "advisor"
every = 500
[schedule.advise]
managers = ["core"]
period_cycles = 500
"""
    spec = loads(text, fmt="toml")
    assert validate(spec.to_dict()) == spec
    result = run_campaign(spec)
    obs = result.points[0].observables
    fired = obs["control"]["fired"]
    assert fired["bump"] == 1
    # Boundaries 250..2750: the horizon's own boundary is never stepped.
    assert fired["probes"] == (3000 - 1) // 250
    assert fired["advisor"] == (3000 - 1) // 500
    series = obs["control"]["series"]["probes"]
    assert [entry["cycle"] for entry in series][:3] == [250, 500, 750]
    assert result.points[0].rules_fired == fired
    assert result.points[0].timeseries["probes"] == series


def test_scenario_schedule_is_kernel_identical():
    text = MINIMAL + """
[probes]
every = 250
sample = ["realm.core.region0.*", "port.core.*.sent"]

[[schedule]]
label = "squeeze"
every = 700
[schedule.set]
"realm.core.region0.budget_bytes" = 128
"""
    spec = loads(text, fmt="toml")
    active = run_campaign(spec).digest()
    naive = run_campaign(spec, active_set=False).digest()
    assert active == naive


def test_scenario_campaign_can_disable_a_rule():
    text = MINIMAL + """
[[schedule]]
label = "bump"
at = 100
[schedule.set]
"realm.core.region0.budget_bytes" = 4096

[campaign]
[[campaign.points]]
label = "on"
[[campaign.points]]
label = "off"
[campaign.points.set]
"schedule.bump.enabled" = false
"""
    result = run_campaign(loads(text, fmt="toml"))
    by_label = {p.label: p for p in result.points}
    assert by_label["on"].rules_fired == {"bump": 1}
    assert by_label["off"].rules_fired == {}


@pytest.mark.parametrize("snippet,message", [
    ("[probes]\nevery = 10\n", r"without any `sample`"),
    ('[probes]\nsample = ["x"]\n', r"probes\.every"),
    ('[[schedule]]\nlabel = "a"\n[schedule.set]\nx = 1\n',
     r"give a trigger"),
    ('[[schedule]]\nlabel = "a"\nat = 5\nevery = 5\n[schedule.set]\nx = 1\n',
     r"exactly one trigger"),
    ('[[schedule]]\nlabel = "a"\nat = 5\nonce = true\n[schedule.set]\nx = 1\n',
     r"`once` is implied"),
    ('[[schedule]]\nlabel = "a"\nat = 5\n', r"no actions"),
    ('[[schedule]]\nlabel = "a"\nat = 5\nwhen = "x ~ 1"\n'
     '[schedule.set]\nx = 1\n', r"when"),
    ('[[schedule]]\nlabel = "a"\nevery = 5\nuntil = 2\n'
     '[schedule.set]\nx = 1\n', r"until precedes"),
    ('[[schedule]]\nlabel = "a"\nat = 5\n[schedule.set]\nx = 1.5\n',
     r"integers or booleans"),
    ('[[schedule]]\nlabel = "a"\nat = 5\n[schedule.advise]\n'
     'managers = ["ghost"]\nperiod_cycles = 100\n', r"advise names"),
    ('[[schedule]]\nlabel = "a"\nat = 5\n[schedule.advise]\n'
     'managers = ["core"]\nperiod_cycles = 100\nregion = 9\n',
     r"region 9 out of range"),
])
def test_scenario_control_validation_errors(snippet, message):
    with pytest.raises(ScenarioError, match=message):
        loads(MINIMAL + snippet, fmt="toml")


def test_scenario_unknown_knob_and_probe_paths_fail_precisely():
    bad_knob = loads(MINIMAL + """
[[schedule]]
label = "a"
at = 5
[schedule.set]
"realm.core.region7.budget_bytes" = 1
""", fmt="toml")
    with pytest.raises(ScenarioError, match="control plane"):
        run_campaign(bad_knob)
    bad_probe = loads(MINIMAL + """
[probes]
every = 10
sample = ["realm.ghost.*"]
""", fmt="toml")
    with pytest.raises(ScenarioError, match="control plane"):
        run_campaign(bad_probe)


def test_install_control_noop_without_sections():
    spec = loads(MINIMAL, fmt="toml")
    system = build_system(spec)
    attach_traffic(system, spec)
    install_control(system, spec)
    assert not system.control.configured
    system.sim.run(100)
    obs = run_campaign(spec).points[0].observables
    assert "control" not in obs


# ----------------------------------------------------------------------
# event-triggered (edge) rules
# ----------------------------------------------------------------------
def _edge_plane():
    from repro.control import ControlPlane

    sim = Simulator()
    plane = ControlPlane(sim)
    box = [0]
    plane.probes.register("t.v", lambda: box[0])
    return sim, plane, box


def test_event_rule_fires_on_rising_edges_only():
    sim, plane, box = _edge_plane()
    fired = []
    rule = plane.schedule.on("t.v >= 5", action=fired.append)
    sim.run(3)
    assert fired == []  # condition never held
    box[0] = 7
    sim.run(2)
    assert fired == [3]  # one firing at the crossing, none while held
    box[0] = 0
    sim.run(2)
    box[0] = 9
    sim.run(2)
    assert fired == [3, 7]  # a second crossing fires again
    assert rule.fired == 2
    assert rule.evaluations == 9  # every commit boundary so far


def test_event_rule_once_start_until():
    sim, plane, box = _edge_plane()
    box[0] = 10  # already true before the run
    once = plane.schedule.on("t.v >= 5", action=lambda c: None,
                             once=True, label="once")
    late = plane.schedule.on("t.v >= 5", action=lambda c: None,
                             start=4, label="late")
    bounded = plane.schedule.on("t.v >= 5", action=lambda c: None,
                                until=2, label="bounded")
    sim.run(8)
    # Already-true at the first evaluation counts as a crossing.
    assert once.fired == 1 and not once.active
    assert late.fired == 1 and late.evaluations == 4  # cycles 4..7
    assert bounded.fired == 1 and not bounded.active
    assert bounded.evaluations == 3  # cycles 0..2 inclusive


def test_event_rule_validation_errors():
    sim, plane, _ = _edge_plane()
    with pytest.raises(ScheduleError, match="start must be"):
        plane.schedule.on("t.v >= 1", action=lambda c: None, start=-1)
    with pytest.raises(ScheduleError, match="until precedes"):
        plane.schedule.on("t.v >= 1", action=lambda c: None,
                          start=10, until=5, label="x")
    with pytest.raises(ScheduleError, match="no actions"):
        plane.schedule.on("t.v >= 1")
    # Rejected rules leave no residue: the label is free again.
    assert plane.schedule.rules == []
    plane.schedule.on("t.v >= 1", action=lambda c: None, label="x")
    assert [r.label for r in plane.schedule.rules] == ["x"]


def test_event_rule_scenario_round_trip_and_kernel_equivalence():
    text = MINIMAL + """
[[schedule]]
label = "clamp"
when = "realm.core.region0.total_bytes >= 100"
once = true
[schedule.set]
"realm.core.region0.budget_bytes" = 16
"""
    spec = loads(text, fmt="toml")
    assert validate(spec.to_dict()) == spec  # when-only rules round-trip
    active = run_campaign(spec)
    naive = run_campaign(spec, active_set=False)
    per_beat = run_campaign(spec, batched=False)
    assert active.digest() == naive.digest() == per_beat.digest()
    point = active.points[0]
    assert point.rules_fired == {"clamp": 1}
    # The clamp bit: the tightened budget depletes and engages budget
    # isolation, which holds address beats at the unit's ingress.
    realms = point.observables["realms"]["core"]
    assert realms["blocked_beats"] > 0


def test_event_rule_state_survives_checkpoint():
    from repro.snapshot import capture_simulator, restore_simulator

    def build():
        sim, plane, box = _edge_plane()
        fired = []
        plane.schedule.on("t.v >= 5", action=fired.append, label="edge")
        return sim, plane, box, fired

    sim, plane, box, fired = build()
    box[0] = 7
    sim.run(4)  # crossing at boundary 0; prev is now True
    state = capture_simulator(sim)

    sim2, plane2, box2, fired2 = build()
    box2[0] = 7
    restore_simulator(sim2, state)
    rule = plane2.schedule.rules[0]
    assert rule.prev is True and rule.fired == 1
    sim2.run(3)
    assert fired2 == []  # no re-fire: the edge state was restored
    box2[0] = 0
    sim2.run(1)
    box2[0] = 8
    sim2.run(2)
    assert len(fired2) == 1  # fresh crossing after the restore

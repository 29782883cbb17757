"""Flight recorder, metrics registry, journal, and trace exporter.

The load-bearing guarantee (DESIGN.md section 15): observability is
execution-side only.  Attaching a recorder — with or without a journal —
must leave every simulated observable byte-identical: digests match the
golden traces, JSON reports match bare runs, snapshots capture the same
tree.  The recorder may *watch* execution (wake causes, occupancy,
phases, checkpoints) but never steer it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import (
    PHASE_STRIDE,
    EventJournal,
    FlightRecorder,
    MetricsRegistry,
    campaign_trace,
    profile_rows,
)
from repro.realm import RegionConfig
from repro.scenario import load_file, run_campaign
from repro.scenario.runner import run_point
from repro.scenario.sweep import apply_smoke, expand
from repro.sim import Component, SimulationError, Simulator
from repro.snapshot import capture_simulator, restore_simulator
from repro.system import SystemBuilder
from repro.traffic import DmaEngine

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.toml"))


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
def test_registry_counter_gauge_histogram():
    registry = MetricsRegistry()
    counter = registry.counter("kernel.ticks")
    counter.inc()
    counter.inc(4)
    registry.gauge("kernel.cycle").set(77)
    hist = registry.histogram("kernel.active_set")
    hist.observe(3)
    hist.observe(3)
    hist.observe(5, count=2)
    assert hist.total() == 4
    snap = registry.snapshot()
    assert snap["counters"] == {"kernel.ticks": 5}
    assert snap["gauges"] == {"kernel.cycle": 77}
    assert snap["histograms"] == {
        "kernel.active_set": {"counts": {"3": 2, "5": 2}}
    }


def test_registry_accessors_are_get_or_create():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert len(registry) == 1


def test_registry_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError, match="registered as counter"):
        registry.gauge("x")
    registry.gauge("g")
    with pytest.raises(TypeError, match="registered as gauge"):
        registry.histogram("g")


def test_registry_snapshot_is_json_safe_and_sorted():
    registry = MetricsRegistry()
    registry.counter("b.two").inc()
    registry.counter("a.one").inc()
    snap = registry.snapshot()
    json.dumps(snap)
    assert list(snap["counters"]) == ["a.one", "b.two"]


# ----------------------------------------------------------------------
# event journal
# ----------------------------------------------------------------------
def test_journal_bounded_ring_counts_drops():
    journal = EventJournal(capacity=4)
    for i in range(7):
        journal.append((i, "wake", "c", "channel"))
    assert len(journal) == 4
    assert journal.dropped == 3
    assert [e[0] for e in journal.events()] == [3, 4, 5, 6]


def test_journal_drain_keeps_drop_count():
    journal = EventJournal(capacity=2)
    for i in range(3):
        journal.append((i, "sleep", "c"))
    drained = journal.drain()
    assert [e[0] for e in drained] == [1, 2]
    assert len(journal) == 0
    assert journal.dropped == 1


def test_journal_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        EventJournal(capacity=0)


# ----------------------------------------------------------------------
# recorder attachment contract
# ----------------------------------------------------------------------
def _small_system():
    system = (
        SystemBuilder(name="obs", control=False)
        .add_manager("dma", protect=True, granularity=16, regions=[
            RegionConfig(0x0, 0x20000, 1 << 40, 1000)
        ])
        .add_sram("mem", base=0x0, size=0x20000)
        .add_sram("spm", base=0x100000, size=0x20000)
        .build()
    )
    system.attach("dma", lambda port: DmaEngine(
        port, src_base=0x0, src_size=0x4000,
        dst_base=0x100000, dst_size=0x4000, burst_beats=16,
    ))
    return system


def test_double_attach_raises():
    system = _small_system()
    FlightRecorder().attach(system.sim)
    with pytest.raises(SimulationError, match="already attached"):
        FlightRecorder().attach(system.sim)


def test_detach_restores_plain_dispatch():
    bare = _small_system()
    bare.sim.run(100)
    system = _small_system()
    sim = system.sim
    recorder = FlightRecorder(journal=True).attach(sim)
    sim.run(50)
    recorder.detach()
    assert sim._recorder is None
    assert sim._rec_journal is None
    observed = len(recorder.journal)
    sim.run(50)
    assert len(recorder.journal) == observed  # nothing recorded after
    assert capture_simulator(sim) == capture_simulator(bare.sim)


def test_detached_simulator_pays_one_attribute():
    system = _small_system()
    assert system.sim._recorder is None
    assert system.sim._rec_journal is None


def test_recorder_counts_without_journal():
    system = _small_system()
    recorder = FlightRecorder().attach(system.sim)
    assert recorder.journal is None
    system.sim.run(200)
    snap = recorder.snapshot()
    assert snap["counters"]["kernel.ticks_executed"] > 0
    assert snap["histograms"]["kernel.active_set"]["counts"]
    assert snap["gauges"]["phase.sample_stride"] >= 1


def test_sleep_counter_matches_journal_exactly():
    # The registry derives sleeps from wake attribution instead of
    # paying a per-event store; the journal records the exact events —
    # the two must agree when nothing was dropped.
    system = _small_system()
    recorder = FlightRecorder(journal=True).attach(system.sim)
    system.sim.run(500)
    snap = recorder.snapshot()
    assert recorder.journal.dropped == 0
    journal_sleeps = sum(
        1 for e in recorder.journal.events() if e[1] == "sleep"
    )
    assert snap["counters"]["kernel.sleeps"] == journal_sleeps
    wake_counters = {
        k: v for k, v in snap["counters"].items() if k.startswith("wake.")
    }
    journal_wakes = sum(
        1 for e in recorder.journal.events()
        if e[1] == "wake" and e[3] != "attach"
    )
    assert sum(wake_counters.values()) == journal_wakes


class _Napper(Component):
    """Ticks once per wake-up, then sleeps."""

    def is_idle(self) -> bool:
        return True


def _journal_sleeps_wakes(recorder):
    events = list(recorder.journal.events())
    sleeps = sum(1 for e in events if e[1] == "sleep")
    wakes = sum(1 for e in events if e[1] == "wake" and e[3] != "attach")
    return sleeps, wakes


def _assert_sleeps_derivable(recorder):
    snap = recorder.snapshot()
    sleeps, wakes = _journal_sleeps_wakes(recorder)
    counted = sum(
        v for k, v in snap["counters"].items() if k.startswith("wake.")
    )
    assert counted == wakes
    assert snap["counters"]["kernel.sleeps"] == sleeps
    return snap


def test_immediate_wake_at_is_attributed():
    # wake_at(c) with c <= sim.cycle wakes at once; from a hook that is
    # a "hook" wake the recorder must see, or the trace would show
    # sleeps with no wake before them.
    sim = Simulator()
    napper = sim.add(_Napper("napper"))
    recorder = FlightRecorder(journal=True).attach(sim)
    for at in (10, 20, 30, 40, 50):
        sim.call_at(at, lambda _, s=sim: napper.wake_at(s.cycle))
    sim.run(60)
    assert _journal_sleeps_wakes(recorder) == (6, 5)
    snap = _assert_sleeps_derivable(recorder)
    assert snap["counters"]["wake.hook.napper"] == 5


def test_restore_rewind_keeps_sleeps_derivable():
    # A restore replaces the active set wholesale: the components it
    # adds are attributed to the "restore" wake cause and the ones it
    # drops are journaled as sleeps, so the derivation survives rewinds.
    sim = Simulator()
    napper = sim.add(_Napper("napper"))
    sim.add(_Napper("other"))
    recorder = FlightRecorder(journal=True).attach(sim)
    awake = capture_simulator(sim)
    sim.run(5)
    asleep = capture_simulator(sim)
    restore_simulator(sim, awake)  # both rejoin
    sim.run(5)
    napper.wake()
    restore_simulator(sim, asleep)  # napper leaves
    assert _journal_sleeps_wakes(recorder) == (5, 3)
    snap = _assert_sleeps_derivable(recorder)
    assert snap["counters"]["wake.restore.napper"] == 1
    assert snap["counters"]["wake.restore.other"] == 1


def test_rewound_stream_keeps_sleeps_derivable():
    system = _small_system()
    sim = system.sim
    recorder = FlightRecorder(journal=True).attach(sim)
    sim.run(300)
    tree = capture_simulator(sim)
    sim.run(437)
    restore_simulator(sim, tree)
    sim.run(200)
    assert recorder.journal.dropped == 0
    _assert_sleeps_derivable(recorder)


class _Awake(Component):
    """No span protocol; awake until cycle *until*."""

    def __init__(self, name: str, until: int) -> None:
        super().__init__(name)
        self.until = until
        self.cycle = 0

    def tick(self, cycle: int) -> None:
        self.cycle = cycle

    def is_idle(self) -> bool:
        return self.cycle + 1 >= self.until


def test_opaque_abort_names_first_registered_awake_unit():
    # Several opaque components awake at once: the journal must name the
    # first in registration order, never whichever one a hash-ordered
    # set happens to yield first.  Each veto holds until it sleeps.
    for _ in range(5):
        sim = Simulator()
        for i in range(6):
            sim.add(_Awake(f"u{i}", until=10 * (i + 1)))
        recorder = FlightRecorder(journal=True).attach(sim)
        sim.run(100)
        aborts = [
            (e[0], e[2], e[3]) for e in recorder.journal.events()
            if e[1] == "span_abort"
        ]
        assert aborts == [(10 * i, "opaque", f"u{i}") for i in range(6)]


def test_naive_kernel_samples_every_component_on_stride_cycles():
    # The naive kernel ticks every component on every stepped cycle, so
    # each component's sampled tick count is exactly the number of
    # stepped cycles on the PHASE_STRIDE grid.
    cycles = 5 * PHASE_STRIDE + 7
    sim = Simulator(active_set=False)
    names = ("a", "b", "c")
    for name in names:
        sim.add(_Napper(name))
    recorder = FlightRecorder().attach(sim)
    sim.run(cycles)
    sampled = sum(1 for c in range(cycles) if c % PHASE_STRIDE == 0)
    snap = recorder.snapshot()
    for name in names:
        assert snap["counters"][f"tick.{name}.ticks"] == (
            sampled * PHASE_STRIDE
        )
        assert snap["counters"][f"tick.{name}.seconds"] > 0
    rows = profile_rows(snap)
    assert {name for name, _, _ in rows} == set(names)


# ----------------------------------------------------------------------
# snapshot invisibility
# ----------------------------------------------------------------------
def test_recorder_invisible_to_snapshots():
    bare = _small_system()
    bare.sim.run(100)
    recorded = _small_system()
    recorder = FlightRecorder(journal=True).attach(recorded.sim)
    recorded.sim.run(100)
    assert capture_simulator(bare.sim) == capture_simulator(recorded.sim)
    assert recorder.journal is not None


def test_recorder_journals_checkpoint_roundtrip():
    system = _small_system()
    recorder = FlightRecorder(journal=True).attach(system.sim)
    sim = system.sim
    sim.run(64)
    tree = capture_simulator(sim)
    sim.run(64)
    restore_simulator(sim, tree)
    kinds = [(e[1], e[2]) for e in recorder.journal.events()
             if e[1] == "ckpt"]
    assert kinds == [("ckpt", "capture"), ("ckpt", "restore")]
    snap = recorder.snapshot()
    assert snap["counters"]["snapshot.captures"] == 1
    assert snap["counters"]["snapshot.restores"] == 1
    assert snap["gauges"]["phase.snapshot_seconds"] > 0


# ----------------------------------------------------------------------
# digest neutrality: every shipped scenario, both kernels
# ----------------------------------------------------------------------
_NEUTRALITY_CASES = [
    pytest.param(path, active_set,
                 id=f"{path.stem}-{'active' if active_set else 'naive'}")
    for path in SCENARIOS
    for active_set in (True, False)
]


@pytest.mark.parametrize("scenario_path,active_set", _NEUTRALITY_CASES)
def test_recorded_run_matches_golden(scenario_path, active_set):
    spec = load_file(scenario_path)
    result = run_campaign(
        spec, smoke=True, active_set=active_set, record=True
    )
    golden = json.loads(
        (GOLDEN_DIR / f"{scenario_path.stem}.json").read_text(
            encoding="utf-8"
        )
    )
    assert result.digest() == golden, (
        f"{scenario_path.stem} digest drifted with the flight recorder "
        f"attached — observability must be execution-side only"
    )
    # Every point carried its execution-side payloads...
    assert all(p.metrics is not None for p in result.points)
    assert all(p.trace is not None for p in result.points)
    # ...and none of them leaked into the report.
    report = result.to_json_dict()
    assert "metrics" not in json.dumps(report)


@pytest.mark.parametrize("active_set", [True, False],
                         ids=["active", "naive"])
def test_recorded_report_byte_identical(active_set):
    spec = load_file(SCENARIO_DIR / "stream_steady.toml")
    bare = run_campaign(spec, smoke=True, active_set=active_set)
    recorded = run_campaign(
        spec, smoke=True, active_set=active_set, record=True
    )
    encode = lambda r: json.dumps(r.to_json_dict(), sort_keys=True)
    assert encode(bare) == encode(recorded)


# ----------------------------------------------------------------------
# trace exporter
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fig6a_trace():
    spec = load_file(SCENARIO_DIR / "fig6a.toml")
    result = run_campaign(spec, smoke=True, record=True)
    return campaign_trace(result), result


def test_trace_shape(fig6a_trace):
    trace, result = fig6a_trace
    assert set(trace) == {"traceEvents", "displayTimeUnit", "metadata"}
    meta = trace["metadata"]
    assert meta["version"] == 1
    assert meta["scenario"] == "fig6a"
    assert meta["ts_unit"] == "simulated cycles"
    assert set(meta["points"]) == {p.label for p in result.points}
    json.dumps(trace)  # serializable end to end


def test_trace_events_are_well_formed(fig6a_trace):
    trace, _ = fig6a_trace
    events = trace["traceEvents"]
    assert events
    for event in events:
        assert {"name", "ph", "pid"} <= set(event)
        if event["ph"] == "X":
            assert {"ts", "dur", "tid"} <= set(event)
            assert event["dur"] >= 0
        elif event["ph"] == "i":
            assert event["s"] == "t"
    kinds = {e["ph"] for e in events}
    assert "X" in kinds and "M" in kinds


def test_trace_slices_monotonic_per_track(fig6a_trace):
    trace, _ = fig6a_trace
    last_start: dict = {}
    last_end: dict = {}
    for event in trace["traceEvents"]:
        if event["ph"] != "X":
            continue
        track = (event["pid"], event["tid"], event["name"])
        assert event["ts"] >= last_start.get(track, 0)
        # Same-name slices on one track never overlap.
        assert event["ts"] >= last_end.get(track, 0)
        last_start[track] = event["ts"]
        last_end[track] = event["ts"] + event["dur"]


def test_trace_has_component_awake_slices(fig6a_trace):
    trace, result = fig6a_trace
    named_threads = {
        (e["pid"], e["args"]["name"])
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    component_names = {name for _, name in named_threads}
    assert "kernel" in component_names
    assert len(component_names) > 1  # real component tracks exist
    awake = [e for e in trace["traceEvents"]
             if e["ph"] == "X" and e["name"] == "awake"]
    assert awake
    assert {"woken_by"} <= set(awake[0]["args"])


def test_trace_metadata_carries_wake_causes(fig6a_trace):
    trace, result = fig6a_trace
    for label, metrics in trace["metadata"]["points"].items():
        wake_counters = {
            name: value
            for name, value in metrics["counters"].items()
            if name.startswith("wake.")
        }
        assert wake_counters, f"point {label} has no wake attribution"


def test_point_run_without_record_has_no_payloads():
    spec = apply_smoke(load_file(SCENARIO_DIR / "stream_steady.toml"))
    point = expand(spec)[0]
    result = run_point(point)
    assert result.metrics is None
    assert result.trace is None
    assert result.span_stats is None

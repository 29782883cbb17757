"""Checkpoint/restore: codec units, store format, and the determinism
guarantee — snapshot → restore → continue must be bit-identical to an
uninterrupted run on every {kernel} x {datapath} combination, for every
shipped scenario, including checkpoints landing mid-burst, mid-
``ExpressRoute``, and between an intrusive knob write and its
drain-and-apply commit."""

from __future__ import annotations

import json
from collections import OrderedDict, deque
from pathlib import Path

import pytest

from repro.axi.beats import ARBeat, AWBeat, RBeat, WBeat
from repro.axi.types import AtomicOp, BurstType, Resp
from repro.scenario import (
    ScenarioError,
    apply_smoke,
    expand,
    load_file,
    loads,
    run_point,
)
from repro.scenario.runner import (
    _elaborate_point,
    _run_prefix,
    collect_observables,
)
from repro.sim import Channel, SimulationError, Simulator
from repro.snapshot import (
    SnapshotError,
    capture_simulator,
    decode_state,
    encode_state,
    load_checkpoint,
    restore_simulator,
    save_checkpoint,
)
from repro.system import SystemBuilder

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def test_codec_round_trips_nested_state():
    beat = AWBeat(id=3, addr=0x100, beats=16, size=3,
                  burst=BurstType.WRAP, atop=AtomicOp.SWAP, txn=7)
    tree = {
        "ints": [1, -2, 3],
        "tuple_key": {(1, 2): deque([beat, WBeat(data=b"\x01", last=True)])},
        "od": OrderedDict([(5, bytearray(b"abc")), (2, None)]),
        "set": {"budget", "user"},
        "resp": Resp.DECERR,
        "nested": (RBeat(id=1, data=b"xy", last=True),
                   ARBeat(id=0, addr=4, beats=1, size=3)),
        "floats": 1.5,
        "bytes": b"\x00\xff",
    }
    decoded = decode_state(encode_state(tree))
    assert decoded == tree
    # Fresh objects, never aliases: mutating the copy leaves the source.
    decoded["od"][5][0] = 0x7F
    assert tree["od"][5] == bytearray(b"abc")
    restored_beat = decoded["tuple_key"][(1, 2)][0]
    assert restored_beat is not beat and restored_beat == beat


def test_codec_rejects_unregistered_types():
    class Alien:
        pass

    with pytest.raises(SnapshotError, match="no state codec"):
        encode_state({"x": Alien()})
    with pytest.raises(SnapshotError, match="unknown state codec tag"):
        decode_state(["X", "alien", None])


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
def test_store_round_trip_and_corruption(tmp_path):
    state = encode_state({"cycle": 42, "beats": deque([WBeat(last=True)])})
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, state, meta={"scenario": "t", "cycle": 42})
    meta, loaded = load_checkpoint(path)
    assert meta["cycle"] == 42
    assert decode_state(loaded) == decode_state(state)

    (tmp_path / "bad.ckpt").write_bytes(b"not a checkpoint at all")
    with pytest.raises(SnapshotError, match="not a repro checkpoint"):
        load_checkpoint(tmp_path / "bad.ckpt")
    blob = bytearray(path.read_bytes())
    blob[8:12] = (999).to_bytes(4, "big")
    (tmp_path / "future.ckpt").write_bytes(bytes(blob))
    with pytest.raises(SnapshotError, match="format 999"):
        load_checkpoint(tmp_path / "future.ckpt")


# ----------------------------------------------------------------------
# commit-boundary-only rule
# ----------------------------------------------------------------------
def test_capture_refused_with_uncommitted_beats():
    sim = Simulator()
    channel = Channel(sim, "ch")
    channel.send("beat")
    with pytest.raises(SnapshotError, match="commit boundaries"):
        capture_simulator(sim)
    # The channel-level guard holds on its own too.
    with pytest.raises(SimulationError, match="commit boundaries"):
        channel.state_capture()


def test_capture_refused_with_unowned_hooks():
    sim = Simulator()
    sim.call_at(10, lambda cycle: None)
    with pytest.raises(SnapshotError, match="cannot be captured"):
        capture_simulator(sim)


def test_restore_rejects_mismatched_structure_and_flags():
    def build(batched=True, managers=1):
        builder = SystemBuilder(batched=batched).with_crossbar()
        for i in range(managers):
            builder.add_manager(f"m{i}", driver=True)
        builder.add_sram("sram", base=0, size=0x1000)
        return builder.build()

    state = build().checkpoint()
    with pytest.raises(SnapshotError, match="registration order"):
        build(managers=2).restore(state)
    with pytest.raises(SnapshotError, match="kernel flags"):
        build(batched=False).restore(state)


# ----------------------------------------------------------------------
# scenario grid: split runs equal the golden digests
# ----------------------------------------------------------------------
def _split_run(point, cut, active_set, batched):
    """Run *point* to *cut*, checkpoint, restore into a fresh build of
    the same point, and finish the run there."""
    system, generators = _elaborate_point(
        point, active_set=active_set, batched=batched
    )
    spec = point.spec
    if spec.run.until:
        waiting = [
            generators[name] for name in spec.run.until if name in generators
        ]
        system.sim.run_until(
            lambda: all(c.done for c in waiting) or system.sim.cycle >= cut,
            max_cycles=cut + 1,
        )
    else:
        system.sim.run(min(cut, spec.run.horizon))
    state = capture_simulator(system.sim)
    return run_point(
        point, active_set=active_set, batched=batched, resume_state=state
    )


_GRID = [
    pytest.param(
        path, active_set, batched,
        id=f"{path.stem}-{'active' if active_set else 'naive'}-"
        f"{'batched' if batched else 'perbeat'}",
    )
    for path in sorted(SCENARIO_DIR.glob("*.toml"))
    for active_set in (True, False)
    for batched in (True, False)
]


@pytest.mark.parametrize("scenario_path,active_set,batched", _GRID)
def test_checkpointed_runs_match_goldens(scenario_path, active_set, batched):
    """Every campaign point of every shipped scenario, interrupted at
    mid-run (an arbitrary commit boundary: mid-burst, mid-express, and
    mid-schedule cuts all occur across the grid) and restored into a
    fresh system, reproduces the golden digest byte for byte."""
    golden = json.loads(
        (GOLDEN_DIR / f"{scenario_path.stem}.json").read_text(
            encoding="utf-8"
        )
    )
    spec = apply_smoke(load_file(scenario_path))
    digest = {}
    for point in expand(spec):
        cut = max(1, golden[point.label]["sim_cycles"] // 2)
        result = _split_run(point, cut, active_set, batched)
        digest[point.label] = result.observables
    assert digest == golden


@pytest.mark.parametrize(
    "scenario_path", sorted(SCENARIO_DIR.glob("*.toml")),
    ids=lambda path: path.stem,
)
def test_capture_is_a_function_of_state(scenario_path):
    """A run restored from its own cycle-700 capture captures at cycle
    1,500 exactly what the uninterrupted run captures there: nothing
    execution-side (such as the schedule's arm counter) leaks into a
    checkpoint, and every stateful class round-trips its fields."""
    point = expand(apply_smoke(load_file(scenario_path)))[-1]
    straight, _ = _elaborate_point(point)
    straight.sim.run(1500)
    paused, _ = _elaborate_point(point)
    paused.sim.run(700)
    resumed, _ = _elaborate_point(point)
    resumed.restore(capture_simulator(paused.sim))
    resumed.sim.run(800)
    assert capture_simulator(resumed.sim) == capture_simulator(straight.sim)


def test_state_fields_must_not_collide_once_stripped():
    from repro.sim.kernel import Stateful

    with pytest.raises(TypeError, match="collide"):
        class Twice(Stateful):
            _STATE_FIELDS = ("_count", "count")


# ----------------------------------------------------------------------
# targeted cuts: mid-ExpressRoute, pending intrusive reconfiguration
# ----------------------------------------------------------------------
def _express_system(active_set=True):
    builder = SystemBuilder(active_set=active_set).with_crossbar()
    builder.add_manager("dma", driver=True)
    builder.add_manager("core", driver=True)
    builder.add_sram("sram", base=0x0, size=0x10000)
    system = builder.build()
    system.driver("dma").write(0x100, beats=256)
    system.driver("dma").read(0x2000, beats=256)
    system.driver("core").read(0x0, beats=2)
    return system


def _driver_fingerprint(system):
    return {
        name: [
            (op.kind, op.addr, op.resp, op.issue_cycle, op.done_cycle)
            for op in driver.completed
        ]
        for name, driver in system.drivers.items()
    }


def test_checkpoint_mid_express_route():
    reference = _express_system()
    reference.run_until_idle()
    expected = _driver_fingerprint(reference)

    paused = _express_system()
    # Step until the kernel is executing an express order for the
    # crossbar (the burst middle is in flight on the reserved W route).
    for _ in range(10_000):
        paused.sim.step()
        if paused.interconnect._w_express or paused.interconnect._r_express:
            break
    else:
        pytest.fail("no express order ever became live")
    state = capture_simulator(paused.sim)

    resumed = _express_system()
    resumed.restore(state)
    # The restored crossbar re-installed the same orders.
    assert {
        mi for mi in resumed.interconnect._w_express
    } == {mi for mi in paused.interconnect._w_express}
    assert {
        mi for mi in resumed.interconnect._r_express
    } == {mi for mi in paused.interconnect._r_express}
    resumed.run_until_idle()
    assert _driver_fingerprint(resumed) == expected
    # Continuing the paused original must agree too (capture is
    # read-only and left nothing behind).
    paused.run_until_idle()
    assert _driver_fingerprint(paused) == expected


def _realm_system():
    from repro.realm.regions import RegionConfig

    builder = SystemBuilder().with_crossbar()
    builder.add_manager(
        "dma", protect=True, granularity=64,
        regions=[RegionConfig(0x0, 0x10000, 1 << 62, 1 << 62)],
        driver=True,
    )
    builder.add_sram("sram", base=0x0, size=0x10000)
    return builder.build()


def test_checkpoint_with_pending_intrusive_reconfig():
    reference = _realm_system()
    reference.driver("dma").write(0x0, beats=200)
    reference.sim.run(20)
    reference.realm("dma").set_granularity(4)  # drains before applying
    reference.sim.run(1)
    assert reference.realm("dma")._pending_reconfig, (
        "test setup: the write burst must keep the unit busy so the "
        "granularity change stays queued"
    )
    state = capture_simulator(reference.sim)

    resumed = _realm_system()
    resumed.driver("dma").write(0x0, beats=200)  # same script, never run
    resumed.restore(state)
    assert resumed.realm("dma")._pending_reconfig == [("granularity", 4)]

    reference.run_until_idle()
    resumed.run_until_idle()
    assert _driver_fingerprint(resumed) == _driver_fingerprint(reference)
    assert resumed.realm("dma").granularity == 4
    assert (
        resumed.realm("dma").mr.state_capture()
        == reference.realm("dma").mr.state_capture()
    )


def test_checkpoint_between_scheduled_knob_write_and_commit():
    """A [[schedule]] rule writes an intrusive knob at cycle 60; the
    checkpoint lands after the write queued but before the drained unit
    committed it."""
    text = """
[scenario]
name = "pending-knob"
seed = 5

[run]
horizon = 400

[topology]
[[topology.managers]]
name = "dma"
protect = true
granularity = 128
[[topology.managers.regions]]
base = 0x0
size = 0x1_0000
budget_bytes = "unlimited"
period_cycles = "unlimited"

[[topology.managers]]
name = "pad"

[[topology.memories]]
name = "mem"
kind = "sram"
base = 0x0
size = 0x1_0000

[traffic.dma]
kind = "dma"
src_base = 0x0
src_size = 0x4000
dst_base = 0x4000
dst_size = 0x4000
burst_beats = 256

[[schedule]]
label = "regran"
at = 60
[schedule.set]
"realm.dma.granularity" = 8
"""
    point = expand(loads(text, fmt="toml"))[0]
    scratch = run_point(point)

    system, generators = _elaborate_point(point)
    system.sim.run(61)  # the rule fired at the boundary of cycle 60
    realm = system.realms["dma"]
    assert any(
        kind == "granularity" for kind, _ in realm._pending_reconfig
    ), "the intrusive write must still be draining at the cut"
    state = capture_simulator(system.sim)
    restored = run_point(point, resume_state=state)
    assert restored.observables == scratch.observables


def test_rewind_same_system():
    fingerprints = []
    for active_set in (False, True):
        system = _express_system(active_set)
        system.sim.run(100)
        state = capture_simulator(system.sim)
        system.run_until_idle()
        final = _driver_fingerprint(system)
        system.restore(state)  # rewind in place
        assert system.sim.cycle == 100
        system.run_until_idle()
        assert _driver_fingerprint(system) == final
        fingerprints.append(final)
    # The naive and active-set kernels replay the same rewound run.
    assert fingerprints[0] == fingerprints[1]


def test_checkpoint_file_round_trip_via_simulator_api(tmp_path):
    system = _express_system()
    system.sim.run(50)
    path = tmp_path / "sys.ckpt"
    tree = system.checkpoint(path)
    fresh = _express_system()
    fresh.restore(path)
    assert fresh.sim.cycle == 50
    assert capture_simulator(fresh.sim) == tree


def test_run_point_checkpoint_every_writes_resumable_files(tmp_path):
    spec = apply_smoke(load_file(SCENARIO_DIR / "fig6a.toml"))
    point = expand(spec)[0]
    scratch = run_point(point)
    run_point(
        point,
        checkpoint_every=100,
        checkpoint_dir=str(tmp_path),
        scenario_name="fig6a",
    )
    files = sorted(tmp_path.glob("*.ckpt"))
    assert files, "periodic checkpointing wrote no files"
    meta, state = load_checkpoint(files[-1])
    assert meta["scenario"] == "fig6a"
    from repro.scenario.spec import validate
    from repro.scenario.sweep import ExpandedPoint

    rebuilt = ExpandedPoint(
        index=meta["index"], label=meta["label"], seed=meta["seed"],
        spec=validate(meta["spec"]),
    )
    resumed = run_point(rebuilt, resume_state=state)
    assert resumed.observables == scratch.observables
    assert resumed.sim_cycles == scratch.sim_cycles


def test_resume_flag_mismatch_is_a_scenario_error(tmp_path):
    spec = apply_smoke(load_file(SCENARIO_DIR / "fig6a.toml"))
    point = expand(spec)[0]
    system, _ = _elaborate_point(point)
    system.sim.run(10)
    state = capture_simulator(system.sim)
    with pytest.raises(ScenarioError, match="kernel flags") as leaf:
        run_point(point, batched=False, resume_state=state)
    assert leaf.value.path == "resume"
    # A fork-tree prefix edge restores through the same body.
    with pytest.raises(ScenarioError, match="kernel flags") as edge:
        _run_prefix(point, 20, active_set=None, batched=False,
                    resume_state=state)
    assert edge.value.path == "fork"


# ----------------------------------------------------------------------
# span-replay cuts: mid-span checkpoints, knob writes at span start + 1
# ----------------------------------------------------------------------
_SPAN_STREAM_TOML = """
[scenario]
name = "span-cut"
seed = 3
active_set = true

[run]
horizon = 1200

[topology]
[[topology.managers]]
name = "dma"
protect = true
granularity = 256
[topology.managers.realm]
write_buffer_present = false
[[topology.managers.regions]]
base = 0x0
size = 0x1_0000
budget_bytes = "unlimited"
period_cycles = "unlimited"

[[topology.managers]]
name = "pad"

[[topology.memories]]
name = "mem"
kind = "sram"
base = 0x0
size = 0x1_0000

[traffic.dma]
kind = "dma"
src_base = 0x0
src_size = 0x4000
dst_base = 0x4000
dst_size = 0x4000
burst_beats = 256
"""

_SPAN_KNOB_TOML = _SPAN_STREAM_TOML + """
[[schedule]]
label = "regran"
at = {at}
[schedule.set]
"realm.dma.granularity" = 64
"""


def _recorded_spans(point, monkeypatch) -> list[tuple[int, int]]:
    """Run *point* on the span-replay kernel and record every committed
    span as a (start_cycle, end_cycle) interval."""
    import repro.sim.kernel as kernel_mod
    from repro.scenario.runner import _execute_run
    from repro.sim.span import attempt_span as real_attempt

    spans: list[tuple[int, int]] = []

    def recording(sim, limit):
        start = sim.cycle
        committed = real_attempt(sim, limit)
        if committed:
            spans.append((start, sim.cycle))
        return committed

    monkeypatch.setattr(kernel_mod, "attempt_span", recording)
    system, generators = _elaborate_point(point, active_set=True, batched=True)
    _execute_run(system, point.spec, point.label, generators)
    monkeypatch.undo()
    assert system.sim.spans_entered == len(spans)
    return spans


def _long_span(spans) -> tuple[int, int]:
    for start, end in spans:
        if start >= 50 and end - start >= 8:
            return start, end
    raise AssertionError(f"no long steady span recorded: {spans[:10]}")


def test_checkpoint_mid_span_is_byte_identical(monkeypatch):
    """A checkpoint cut landing strictly inside what would otherwise be
    one long span splits the span at the cut; restore-and-continue must
    reproduce the uninterrupted observables on all four kernel combos."""
    point = expand(loads(_SPAN_STREAM_TOML, fmt="toml"))[0]
    scratch = run_point(point)  # active + batched, span replay on
    start, end = _long_span(_recorded_spans(point, monkeypatch))
    cut = start + 3
    assert cut < end
    for active_set in (True, False):
        for batched in (True, False):
            system, _ = _elaborate_point(
                point, active_set=active_set, batched=batched
            )
            system.sim.run(cut)
            assert system.sim.cycle == cut
            state = capture_simulator(system.sim)
            resumed = run_point(
                point, active_set=active_set, batched=batched,
                resume_state=state,
            )
            assert resumed.observables == scratch.observables, (
                f"active_set={active_set} batched={batched} diverged "
                f"after a cut at cycle {cut} (span was {start}..{end})"
            )


def test_knob_write_one_cycle_after_span_start_aborts_span(monkeypatch):
    """A scheduled intrusive knob write due one cycle after a span start
    clamps the negotiation window below MIN_SPAN, so the span aborts and
    the write executes on the per-beat path at exactly its cycle —
    byte-identical to the naive kernel, including a checkpoint taken
    while the drain-and-apply is still pending."""
    from repro.sim.span import MIN_SPAN

    steady = expand(loads(_SPAN_STREAM_TOML, fmt="toml"))[0]
    start, _end = _long_span(_recorded_spans(steady, monkeypatch))
    at = start + 1
    assert MIN_SPAN > 2  # the hook at span start + 1 must clamp below it

    point = expand(loads(_SPAN_KNOB_TOML.format(at=at), fmt="toml"))[0]
    scratch = run_point(point)
    naive = run_point(point, active_set=False, batched=False)
    assert scratch.observables == naive.observables

    # The instrumented run: the hook's window clamp aborted span
    # attempts around the knob cycle, streaming re-entered spans after
    # the drained unit applied the new granularity.
    spans = _recorded_spans(point, monkeypatch)
    system, generators = _elaborate_point(point, active_set=True, batched=True)
    from repro.scenario.runner import _execute_run
    _execute_run(system, point.spec, point.label, generators)
    assert all(end <= at + 1 or begin > at for begin, end in spans), (
        "no span may jump past the scheduled knob write's boundary"
    )
    assert system.sim.span_aborts.get("window", 0) > 0
    assert system.sim.spans_entered > 0
    assert system.realms["dma"].granularity == 64

    # Checkpoint one cycle after the rule fired: the intrusive write is
    # queued (or draining) at the cut, and restore-and-continue matches.
    paused, _ = _elaborate_point(point, active_set=True, batched=True)
    paused.sim.run(at + 1)
    state = capture_simulator(paused.sim)
    resumed = run_point(point, resume_state=state)
    assert resumed.observables == scratch.observables

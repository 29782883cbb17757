"""Span-replay (DESIGN.md section 11): closed-form steady-state
evolution must be bit-identical to step-by-step execution.

The property test drives a randomized streaming system — burst lengths,
fragment granularities, finite budgets that exhaust mid-stream, period
edges crossing running spans, write buffer on/off — through the same
horizon with span replay enabled and disabled, and diffs every
observable.  The targeted tests pin the negotiation machinery itself:
abort taxonomy, hook clamping, probe publication, profile stats, and
REALM offers while a budget-isolated unit drains (settled isolation
reasons, horizon ending at the replenish edge);
synthetic components pin its cost shape — failed attempts never scan
past ``MIN_SPAN``, the memoized refuser is asked once, phase 2 re-asks
only offers the phase-1 bound may have cut, and an awake opaque
component costs one attempt, not one per cycle.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.kernel as kernel
from repro.mem import CacheLLC, SramMemory
from repro.realm import RealmUnit, RegionConfig
from repro.realm.config import RealmUnitParams
from repro.realm.isolation import IsolationMode
from repro.scenario import apply_smoke, expand, load_file, run_point
from repro.sim import Channel, Component, Simulator
from repro.sim.span import (
    MIN_SPAN,
    UNBOUNDED,
    SpanOffer,
    attempt_span,
    relay,
)
from repro.system import SystemBuilder
from repro.traffic import DmaEngine

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

UNLIMITED = 1 << 62


def _streaming_system(
    *,
    span_replay: bool,
    burst_beats: int,
    granularity: int,
    budget: int,
    period: int,
    gap: int,
    write_buffer: bool,
):
    sim = Simulator(active_set=True, batched=True, span_replay=span_replay)
    system = (
        SystemBuilder(sim=sim)
        .with_crossbar()
        .add_manager(
            "dma",
            granularity=granularity,
            realm_params=RealmUnitParams(write_buffer_present=write_buffer),
            regions=[RegionConfig(base=0, size=0x40000,
                                  budget_bytes=budget,
                                  period_cycles=period)],
        )
        .add_sram("mem", base=0, size=0x40000)
        .build()
    )
    dma = system.attach(
        "dma",
        lambda port: DmaEngine(port, src_base=0x0, src_size=0x8000,
                               dst_base=0x10000, dst_size=0x8000,
                               burst_beats=burst_beats,
                               inter_burst_gap=gap),
    )
    return system, dma


def _fingerprint(system, dma) -> tuple:
    realm = system.realm("dma")
    snap = realm.region_snapshot(0)
    memory = system.memories["mem"]
    return (
        system.sim.cycle,
        dma.bytes_read,
        dma.bytes_written,
        dma.read_bursts,
        dma.write_bursts,
        snap.total_bytes,
        snap.read_bytes,
        snap.write_bytes,
        snap.bytes_this_period,
        snap.stall_cycles,
        snap.txn_count,
        snap.latency_sum,
        snap.latency_max,
        snap.cycles_into_period,
        realm.mr.denied_by_budget,
        realm.denied_by_budget,
        realm.isolated,
        realm.outstanding,
        memory.reads_served,
        memory.writes_served,
        memory.read_beats,
        memory.write_beats,
        tuple(
            (ch.sent_total, ch.recv_total, ch.busy_cycles)
            for ch in system.ports["dma"].channels
        ),
    )


def _run_fingerprint(span_replay: bool, horizon: int, **cfg) -> tuple:
    system, dma = _streaming_system(span_replay=span_replay, **cfg)
    system.sim.run(horizon)
    return _fingerprint(system, dma)


@settings(max_examples=25, deadline=None)
@given(
    burst_beats=st.sampled_from([4, 16, 64, 256]),
    granularity=st.sampled_from([1, 16, 64, 256]),
    budget=st.sampled_from([2048, 4096, UNLIMITED]),
    period=st.sampled_from([512, 1024, UNLIMITED]),
    gap=st.sampled_from([0, 3]),
    write_buffer=st.booleans(),
    horizon=st.integers(min_value=300, max_value=2500),
)
def test_span_replay_equals_step_by_step(
    burst_beats, granularity, budget, period, gap, write_buffer, horizon
):
    """Closed-form span evolution == per-cycle stepping for randomized
    configurations, including budget exhaustion (small budgets deplete
    after one burst) and period-edge replenishes inside running spans."""
    if period == UNLIMITED:
        budget = UNLIMITED  # a finite budget needs a period to replenish
    cfg = dict(burst_beats=burst_beats, granularity=granularity,
               budget=budget, period=period, gap=gap,
               write_buffer=write_buffer)
    with_spans = _run_fingerprint(True, horizon, **cfg)
    without = _run_fingerprint(False, horizon, **cfg)
    assert with_spans == without


def test_spans_engage_on_steady_stream():
    """The showcase configuration actually exercises the machinery: most
    of the run is covered by spans, and the per-unit counters agree with
    the kernel's."""
    system, _ = _streaming_system(
        span_replay=True, burst_beats=256, granularity=256,
        budget=UNLIMITED, period=UNLIMITED, gap=0, write_buffer=False,
    )
    system.sim.run(4000)
    sim = system.sim
    assert sim.spans_entered > 0
    assert sim.span_cycles_replayed > 2000, (
        "steady streaming should spend most cycles inside spans"
    )
    realm = system.realm("dma")
    assert realm.span_cycles <= sim.span_cycles_replayed
    assert realm.span_hits <= sim.spans_entered


def test_span_replay_off_never_spans():
    system, _ = _streaming_system(
        span_replay=False, burst_beats=256, granularity=256,
        budget=UNLIMITED, period=UNLIMITED, gap=0, write_buffer=False,
    )
    system.sim.run(2000)
    assert system.sim.spans_entered == 0
    assert system.sim.span_cycles_replayed == 0
    assert not system.sim.span_replay_enabled


def test_scheduled_hook_clamps_spans_to_its_boundary():
    """A hook due within MIN_SPAN cycles of a would-be span start aborts
    the span (cause: window), so scheduled observation/reconfiguration
    always executes on the per-beat path at exactly its cycle."""
    system, _ = _streaming_system(
        span_replay=True, burst_beats=256, granularity=256,
        budget=UNLIMITED, period=UNLIMITED, gap=0, write_buffer=False,
    )
    seen = []
    sim = system.sim
    # A hook every 2 cycles keeps n_max below MIN_SPAN forever.
    def reschedule(cycle):
        seen.append(cycle)
        if cycle < 996:
            sim.call_at(cycle + 2, reschedule)
    sim.call_at(2, reschedule)
    sim.run(1000)
    assert sim.spans_entered == 0
    assert sim.span_aborts.get("window", 0) > 0
    assert seen == list(range(2, 998, 2))
    assert MIN_SPAN > 2  # the premise of the clamp in this test


def test_span_probes_published_per_unit():
    spec = apply_smoke(load_file(SCENARIO_DIR / "stream_steady.toml"))
    point = expand(spec)[0]
    from repro.scenario.runner import _elaborate_point, _execute_run

    system, generators = _elaborate_point(point, active_set=True, batched=True)
    _execute_run(system, point.spec, point.label, generators)
    probes = system.control.probes
    for manager in ("dma", "idma"):
        hits = probes.read(f"realm.{manager}.span_hits")
        cycles = probes.read(f"realm.{manager}.span_cycles")
        unit = system.realms[manager]
        assert hits == unit.span_hits
        assert cycles == unit.span_cycles
    assert sum(
        probes.read(f"realm.{m}.span_cycles") for m in ("dma", "idma")
    ) > 0


def test_profile_reports_span_stats():
    spec = apply_smoke(load_file(SCENARIO_DIR / "stream_steady.toml"))
    point = expand(spec)[0]
    result = run_point(point, profile=True)
    stats = result.span_stats
    assert stats is not None and stats["enabled"]
    assert stats["spans_entered"] > 0
    assert stats["span_cycles_replayed"] > 0
    assert set(stats["units"]) == {"dma", "idma"}
    total = sum(u["span_cycles"] for u in stats["units"].values())
    assert total >= stats["span_cycles_replayed"]  # both units join most spans
    # The stats describe the execution strategy, not the modelled SoC:
    # the per-beat reference reports the same observables with zero spans.
    reference = run_point(point, batched=False, profile=True)
    assert reference.span_stats["spans_entered"] == 0
    assert reference.observables == result.observables


def test_span_stats_absent_without_profile():
    spec = apply_smoke(load_file(SCENARIO_DIR / "stream_steady.toml"))
    point = expand(spec)[0]
    assert run_point(point).span_stats is None


def _smoke_stream_runs():
    spec = apply_smoke(load_file(SCENARIO_DIR / "stream_steady.toml"))
    from repro.scenario.runner import _elaborate_point, _execute_run

    for point in expand(spec):
        system, generators = _elaborate_point(
            point, active_set=True, batched=True
        )
        yield point, system, lambda s=system, p=point, g=generators: (
            _execute_run(s, p.spec, p.label, g)
        )


def test_smoke_stream_steady_span_coverage_is_pinned():
    """Negotiation is an execution strategy, but a change to it must
    not silently move a decision: the smoke showcase keeps its attempts,
    abort causes, spans and replayed cycles."""
    coverage = {}
    for point, system, run in _smoke_stream_runs():
        run()
        sim = system.sim
        coverage[point.label] = (
            sim.spans_entered + sum(sim.span_aborts.values()),
            sim.span_aborts,
            sim.spans_entered,
            sim.span_cycles_replayed,
        )
    assert coverage == {
        "uncapped": (
            400, {"no_offer": 170, "opaque": 2, "short": 57, "stitch": 91},
            80, 7266,
        ),
        "budget=8k": (
            622,
            {"no_offer": 457, "opaque": 2, "short": 39, "stitch": 59,
             "window": 3},
            62, 7087,
        ),
    }


def _budget_point(span_replay: bool):
    """The smoke ``stream_steady`` budget=8k point, elaborated: the dma's
    region depletes mid-burst, so its unit drains admitted bursts."""
    spec = apply_smoke(load_file(SCENARIO_DIR / "stream_steady.toml"))
    point = next(p for p in expand(spec) if p.label == "budget=8k")
    from repro.scenario.runner import (
        _elaborate_point,
        _execute_run,
        collect_observables,
    )

    system, generators = _elaborate_point(point, active_set=True,
                                          batched=True)
    system.sim._span_enabled = span_replay

    def run():
        _execute_run(system, point.spec, point.label, generators)
        return collect_observables(system, point.spec, generators)

    return system, run


def test_spans_replay_budget_isolation_drains(monkeypatch):
    """Spans start while the budget-isolated dma unit drains the data of
    bursts it admitted, stop short of the replenish edge whose tick
    releases the isolation, and change no observable."""
    system, run = _budget_point(span_replay=True)
    unit = system.realms["dma"]
    spans = []

    def recorded(sim, limit):
        start, mode = sim.cycle, unit.isolation.mode
        entered = attempt_span(sim, limit)
        if entered:
            spans.append((start, sim.cycle, mode))
        return entered

    monkeypatch.setattr(kernel, "attempt_span", recorded)
    observables = run()
    period = unit.mr.regions[0].config.period_cycles
    draining = [(start, end) for start, end, mode in spans
                if mode is IsolationMode.DRAINING]
    assert draining
    for start, end in draining:
        # The tick at each multiple of the period replenishes the budget.
        assert start // period == (end - 1) // period
        assert start % period
    _, reference = _budget_point(span_replay=False)
    assert observables == reference()


def _draining_unit():
    """The dma unit at the first cycle it offers a span while draining
    (found by stepping the budget point per beat)."""
    system, _ = _budget_point(span_replay=False)
    sim = system.sim
    unit = system.realms["dma"]
    while sim.cycle < unit.mr.regions[0].config.period_cycles:
        if (
            unit.isolation.mode is IsolationMode.DRAINING
            and unit in sim._active
            and unit.span_offer(sim.cycle, UNBOUNDED) is not None
        ):
            return sim, unit
        sim.step()
    pytest.fail("the dma unit never offered a span while draining")


def test_draining_offer_ends_at_the_replenish_edge():
    sim, unit = _draining_unit()
    cycle = sim.cycle
    assert unit.isolation.reasons == {"budget"}
    natural = unit.span_offer(cycle, UNBOUNDED).horizon
    assert natural < unit.mr.next_replenish_edge() - cycle
    # Move the edge inside the flows' own horizon: it now binds.
    region = unit.mr.regions[0]
    region.cycles_into_period = region.config.period_cycles - 10
    edge = unit.mr.next_replenish_edge()
    assert MIN_SPAN <= edge - cycle < natural
    for bound in (MIN_SPAN, UNBOUNDED):
        assert unit.span_offer(cycle, bound).horizon == edge - cycle
    # No finite edge: only a knob write (a hook) can end the isolation.
    region.config.period_cycles = UNLIMITED
    assert unit.mr.next_replenish_edge() is None
    assert unit.span_offer(cycle, UNBOUNDED).horizon == natural


@pytest.mark.parametrize("disagreement", [
    "user_isolate_set", "user_reason_extra", "budget_replenished",
])
def test_offer_refused_when_isolation_reasons_are_not_settled(disagreement):
    """The next tick's FSM would change the isolation reasons, so the
    unit's regulation decision is not settled: no offer."""
    sim, unit = _draining_unit()
    if disagreement == "user_isolate_set":
        unit.config.user_isolate = True
    elif disagreement == "user_reason_extra":
        unit.isolation.reasons.add("user")
    else:
        region = unit.mr.regions[0]
        region.remaining = region.config.budget_bytes
    assert unit.span_offer(sim.cycle, UNBOUNDED) is None


def test_offer_flows_do_not_depend_on_bound():
    """The two-phase contract: whether a component offers, and which
    flows it offers, is the same at ``bound=MIN_SPAN`` as at a large
    bound — only the horizon may differ, and never upward."""
    offered = set()
    mismatches = []
    for _point, system, run in _smoke_stream_runs():
        for component in system.sim.components:
            if not hasattr(component, "span_offer"):
                continue

            def checked(cycle, bound, _offer=component.span_offer):
                small = _offer(cycle, MIN_SPAN)
                large = _offer(cycle, UNBOUNDED)
                if (small is None) != (large is None):
                    mismatches.append((cycle, type(_offer.__self__)))
                elif small is not None:
                    offered.add(type(_offer.__self__))
                    if (
                        small.flows != large.flows
                        or small.horizon > large.horizon
                        or min(small.horizon, MIN_SPAN)
                        != min(large.horizon, MIN_SPAN)
                    ):
                        mismatches.append((cycle, type(_offer.__self__)))
                return _offer(cycle, bound)

            component.span_offer = checked
        run()
    assert mismatches == []
    assert offered == {RealmUnit, DmaEngine, CacheLLC, SramMemory}


# ----------------------------------------------------------------------
# negotiation cost shape, on synthetic components
# ----------------------------------------------------------------------
class _Looper(Component):
    """Sustains one self-loop flow on its own channel.

    The natural horizon is *natural*; a scanner claims at most *bound*
    (like the SRAM and LLC, which scan beat templates up to it).  Every
    ``span_offer`` call is logged as ``(cycle, bound)``.
    """

    def __init__(self, sim, name, natural=UNBOUNDED, scanner=False):
        super().__init__(name)
        self.natural = natural
        self.scanner = scanner
        self.refuse = False
        self.flowing = True
        self.asks = []
        self.applied = []
        self.channel = Channel(sim, f"{name}.loop")
        self.channel.send("beat")
        self.channel.commit()
        sim.add(self)

    def span_offer(self, cycle, bound):
        self.asks.append((cycle, bound))
        if self.refuse:
            return None
        ask = len(self.asks)
        horizon = min(self.natural, bound) if self.scanner else self.natural
        flows = (relay(self.channel, self.channel, "beat"),)
        return SpanOffer(
            flows=flows if self.flowing else (),
            horizon=horizon,
            apply=lambda n: self.applied.append((ask, n)),
        )


class _Opaque(Component):
    """No ``span_offer``; awake until cycle *until*."""

    def __init__(self, name, until=UNBOUNDED):
        super().__init__(name)
        self.until = until
        self.cycle = 0

    def tick(self, cycle):
        self.cycle = cycle

    def is_idle(self):
        return self.cycle + 1 >= self.until


@pytest.mark.parametrize("failure", ["no_offer", "short", "stitch",
                                     "listener", "no_flows"])
def test_failed_negotiation_never_scans_past_min_span(failure):
    sim = Simulator()
    scanner = _Looper(sim, "scanner", natural=500, scanner=True)
    other = _Looper(sim, "other", natural=300)
    if failure == "no_offer":
        other.refuse = True
    elif failure == "short":
        other.natural = MIN_SPAN - 1
    elif failure == "stitch":
        other.channel.send("beat")  # occupancy 2 of 2: full
        other.channel.commit()
    elif failure == "listener":
        sleeper = sim.add(Component("sleeper"))
        sim._active.discard(sleeper)
        other.channel.add_listener(sleeper)
    else:
        scanner.flowing = other.flowing = False
    assert attempt_span(sim, 1000) is False
    assert sim.span_aborts == {failure: 1}
    asks = scanner.asks + other.asks
    assert asks and all(bound == MIN_SPAN for _, bound in asks)
    assert sim.cycle == 0


def test_probe_is_asked_once_and_its_offer_reused():
    sim = Simulator()
    first = _Looper(sim, "first", natural=50)
    probe = _Looper(sim, "probe", natural=40)
    probe.refuse = True
    assert attempt_span(sim, 1000) is False
    assert sim._span_probe is probe
    # Churn: the memoized refuser is asked first, so a repeat refusal
    # costs one span_offer call.
    first.asks.clear()
    probe.asks.clear()
    assert attempt_span(sim, 1000) is False
    assert (len(first.asks), len(probe.asks)) == (0, 1)
    # Once it offers, that one offer is the one applied.
    probe.refuse = False
    probe.asks.clear()
    assert attempt_span(sim, 1000) is True
    assert len(probe.asks) == 1
    assert probe.applied == [(1, 40)]
    assert first.applied == [(len(first.asks), 40)]
    assert sim.cycle == 40


@settings(max_examples=40, deadline=None)
@given(
    loopers=st.lists(
        st.tuples(st.integers(MIN_SPAN, 200), st.booleans()),
        min_size=1, max_size=5,
    ),
    n_max=st.integers(MIN_SPAN, 300),
)
def test_phase_two_extends_only_cut_offers(loopers, n_max):
    """The span is exactly as long as a single-phase negotiation would
    make it, and only offers at the phase-1 bound are asked again."""
    sim = Simulator()
    components = [
        _Looper(sim, f"c{i}", natural=natural, scanner=scanner)
        for i, (natural, scanner) in enumerate(loopers)
    ]
    assert attempt_span(sim, n_max) is True
    n = min([n_max] + [natural for natural, _ in loopers])
    assert sim.cycle == n
    for component in components:
        first, *again = [bound for _, bound in component.asks]
        assert first == MIN_SPAN
        phase1 = min(component.natural, MIN_SPAN) \
            if component.scanner else component.natural
        assert len(again) <= (1 if phase1 == MIN_SPAN else 0)
        assert all(bound > MIN_SPAN for bound in again)
        assert component.applied[-1][1] == n


def test_awake_opaque_component_costs_one_attempt(monkeypatch):
    calls = []

    def counted(sim, limit):
        calls.append(sim.cycle)
        return attempt_span(sim, limit)

    monkeypatch.setattr(kernel, "attempt_span", counted)
    sim = Simulator()
    looper = _Looper(sim, "looper")
    opaque = sim.add(_Opaque("core", until=100))
    sim.run(100)
    assert calls == [0]
    assert sim.span_aborts == {"opaque": 1}
    assert sim._span_veto is opaque and opaque not in sim._active
    # The veto slept at cycle 99: the next attempt spans the rest.
    sim.run(100)
    assert calls == [0, 100]
    assert sim.spans_entered == 1
    assert looper.applied == [(len(looper.asks), 100)]

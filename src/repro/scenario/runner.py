"""Execute scenarios: build through SystemBuilder, run, collect observables.

One :class:`ExpandedPoint` maps onto exactly one simulation:

* the topology section becomes a :class:`repro.system.SystemBuilder`
  declaration (managers with REALM units / baseline regulators, the
  interconnect flavor, the memory backends) — built in file order so a
  scenario reproduces a hand-wired system cycle-for-cycle;
* traffic bindings become generator components attached in file order;
* ``[[warm]]`` directives pre-load caches;
* the run section either waits for the named core traces to finish or
  simulates a fixed horizon.

Every campaign runs through one executor, a depth-first walk of its
fork tree (:func:`_run_tree`): a campaign run from scratch is the tree
with no snapshot node, one leaf per point.  Leaves run sequentially or
fan out over a process pool (``jobs > 1``); every point is an
independent simulation with a deterministic seed, so neither the
fan-out nor the fork tree can change any result, only the wall-clock
time.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from time import perf_counter
from typing import Any, Callable, Optional

from repro.baselines import AbeEqualizer, AbuRegulator, CutForwardUnit
from repro.control.knobs import KnobError
from repro.control.probes import ProbeError
from repro.control.schedule import ScheduleError
from repro.scenario.errors import ScenarioError
from repro.scenario.report import CampaignResult, PointResult
from repro.scenario.spec import (
    ManagerScenario,
    MemoryScenario,
    ScenarioSpec,
    TrafficScenario,
)
from repro.scenario.sweep import ExpandedPoint, apply_smoke, expand
from repro.sim.kernel import Component, SimulationError
from repro.system.builder import System, SystemBuilder
from repro.traffic import (
    BandwidthHog,
    CoreModel,
    DmaEngine,
    StallingWriter,
    TricklingWriter,
    random_trace,
    sequential_trace,
    strided_trace,
    susan_like_trace,
)


# ----------------------------------------------------------------------
# topology -> SystemBuilder
# ----------------------------------------------------------------------
def _regulator_factory(spec: ManagerScenario) -> Callable:
    reg = spec.regulator
    assert reg is not None
    if reg.kind == "abu":
        return lambda up, down: AbuRegulator(
            up, down, budget_bytes=reg.budget_bytes,
            period_cycles=reg.period_cycles,
        )
    if reg.kind == "abe":
        return lambda up, down: AbeEqualizer(
            up, down, nominal_burst=reg.nominal_burst,
            max_outstanding=reg.max_outstanding,
        )
    return lambda up, down: CutForwardUnit(up, down,
                                           depth_beats=reg.depth_beats)


def _declare_manager(builder: SystemBuilder, spec: ManagerScenario) -> None:
    builder.add_manager(
        spec.name,
        protect=spec.protect,
        realm_params=spec.realm,
        granularity=spec.granularity,
        regions=spec.regions,
        regulation=spec.regulation,
        throttle=spec.throttle,
        regulator=_regulator_factory(spec) if spec.regulator else None,
        capacity=spec.capacity,
        node=spec.node,
    )


def _declare_memory(builder: SystemBuilder, spec: MemoryScenario) -> None:
    if spec.kind == "sram":
        builder.add_sram(
            spec.name, base=spec.base, size=spec.size,
            read_latency=spec.read_latency,
            write_latency=spec.write_latency,
            capacity=spec.capacity, node=spec.node,
        )
    elif spec.kind == "dram":
        builder.add_dram(
            spec.name, base=spec.base, size=spec.size, timing=spec.timing,
            capacity=spec.capacity, node=spec.node,
        )
    else:
        builder.add_cached_dram(
            spec.name, base=spec.base, size=spec.size, timing=spec.timing,
            cache_name=spec.cache_name, llc_capacity=spec.llc_capacity,
            llc_ways=spec.llc_ways, line_bytes=spec.line_bytes,
            hit_latency=spec.hit_latency,
            front_capacity=spec.front_capacity, node=spec.node,
        )


def build_system(
    spec: ScenarioSpec,
    *,
    active_set: Optional[bool] = None,
    batched: Optional[bool] = None,
) -> System:
    """Elaborate the scenario's topology (no traffic attached yet)."""
    builder = SystemBuilder(
        name=spec.name,
        active_set=spec.active_set if active_set is None else active_set,
        batched=spec.batched if batched is None else batched,
    )
    flavor = spec.topology.interconnect
    if flavor == "crossbar":
        builder.with_crossbar(qos_arbitration=spec.topology.qos_arbitration)
    elif flavor == "noc":
        noc = spec.topology.noc
        builder.with_noc(noc.width, noc.height, router_depth=noc.router_depth)
    elif flavor == "direct":
        builder.with_direct()
    for manager in spec.topology.managers:
        _declare_manager(builder, manager)
    for memory in spec.topology.memories:
        _declare_memory(builder, memory)
    try:
        return builder.build()
    except ValueError as exc:  # builder-level config error -> scenario error
        raise ScenarioError(f"topology does not elaborate: {exc}",
                            path="topology") from exc


# ----------------------------------------------------------------------
# traffic bindings
# ----------------------------------------------------------------------
def _build_trace(binding: TrafficScenario):
    p = binding.param
    pattern = p("pattern")
    if pattern == "susan":
        return susan_like_trace(
            n_accesses=p("n_accesses"), base=p("base"),
            footprint=p("footprint"), read_fraction=p("read_fraction"),
            gap_mean=p("gap_mean"), beats=p("beats"), size=p("size"),
            seed=p("seed", 42),
        )
    if pattern == "sequential":
        return sequential_trace(
            n_accesses=p("n_accesses"), base=p("base"), kind=p("rw"),
            beats=p("beats"), size=p("size"), gap=p("gap"),
        )
    if pattern == "random":
        return random_trace(
            n_accesses=p("n_accesses"), base=p("base"),
            footprint=p("footprint"), read_fraction=p("read_fraction"),
            beats=p("beats"), size=p("size"), gap=p("gap"), seed=p("seed", 7),
        )
    return strided_trace(
        n_accesses=p("n_accesses"), base=p("base"), stride=p("stride"),
        kind=p("rw"), beats=p("beats"), size=p("size"), gap=p("gap"),
    )


# Each non-core kind's parameters are exactly its generator's keywords.
_GENERATORS = {
    "dma": DmaEngine,
    "hog": BandwidthHog,
    "staller": StallingWriter,
    "trickler": TricklingWriter,
}


def _traffic_factory(binding: TrafficScenario) -> Callable:
    name = f"{binding.manager}.{binding.kind}"
    if binding.kind == "core":
        trace = _build_trace(binding)
        return lambda port: CoreModel(port, trace, name=name)
    generator, params = _GENERATORS[binding.kind], binding.params
    return lambda port: generator(port, **params, name=name)


def attach_traffic(system: System, spec: ScenarioSpec) -> dict[str, Component]:
    """Instantiate enabled traffic generators in file order."""
    generators: dict[str, Component] = {}
    for binding in spec.traffic:
        if not binding.enabled:
            continue
        try:
            generators[binding.manager] = system.attach(
                binding.manager, _traffic_factory(binding)
            )
        except ValueError as exc:  # generator-level config error
            raise ScenarioError(f"traffic does not elaborate: {exc}",
                                path=f"traffic.{binding.manager}") from exc
    return generators


# ----------------------------------------------------------------------
# control plane: [probes] and [[schedule]] sections
# ----------------------------------------------------------------------
def install_control(system: System, spec: ScenarioSpec) -> None:
    """Translate the scenario's control sections into schedule rules.

    Must run after :func:`attach_traffic` so that ``traffic.*`` probe and
    knob paths resolve.  Unknown paths, bad patterns, and rejected knob
    routes surface as precise :class:`ScenarioError`\\ s.
    """
    if not spec.probes and not spec.schedule:
        return
    control = system.control
    if control is None:
        raise ScenarioError(
            "scenario declares [probes]/[[schedule]] but the system was "
            "built without a control plane", path="probes"
        )
    if spec.probes:
        _install_rule(
            "probes",
            lambda: control.schedule.sampler(
                spec.probes.sample,
                spec.probes.every,
                start=spec.probes.start,
                label="probes",
            ),
        )
    for index, action in enumerate(spec.schedule):
        if not action.enabled:
            continue
        path = f"schedule[{index}]"
        loop = (
            _advisor_loop(control, action.advise, path)
            if action.advise is not None
            else None
        )
        callback = loop.step if loop is not None else None
        if action.at is not None:
            rule = _install_rule(
                path,
                lambda a=action, cb=callback: control.schedule.at(
                    a.at, cb, set=dict(a.set), sample=a.sample,
                    when=a.when, label=a.label,
                ),
            )
        elif action.every is not None:
            rule = _install_rule(
                path,
                lambda a=action, cb=callback: control.schedule.every(
                    a.every, cb, start=a.start, until=a.until,
                    set=dict(a.set), sample=a.sample, when=a.when,
                    once=a.once, label=a.label,
                ),
            )
        else:  # event-triggered: bare `when`, fires on the rising edge
            rule = _install_rule(
                path,
                lambda a=action, cb=callback: control.schedule.on(
                    a.when, cb, start=a.start, until=a.until,
                    set=dict(a.set), sample=a.sample, once=a.once,
                    label=a.label,
                ),
            )
        if loop is not None:
            # The loop carries windowed-demand state between firings;
            # anchoring it on the rule lets checkpoints capture it.
            rule.owner = loop


def _install_rule(path: str, install: Callable[[], Any]) -> Any:
    try:
        return install()
    except (ProbeError, KnobError, ScheduleError) as exc:
        raise ScenarioError(f"control plane: {exc}", path=path) from exc


def _advisor_loop(control, advise, path: str):
    # A local import beside its one use.  It loads nothing new: the
    # `repro` package and report.py import repro.analysis already.
    from repro.analysis.advisor import AdvisorLoop

    try:
        return AdvisorLoop(
            control,
            advise.managers,
            period_cycles=advise.period_cycles,
            weights=advise.weights or None,
            region=advise.region,
            link_bytes_per_cycle=advise.link_bytes_per_cycle,
            headroom=advise.headroom,
            set_period=advise.set_period,
        )
    except (ProbeError, KnobError, ValueError) as exc:
        raise ScenarioError(f"control plane: {exc}",
                            path=f"{path}.advise") from exc


# ----------------------------------------------------------------------
# observables
# ----------------------------------------------------------------------
def _latency_digest(latencies: list[int]) -> dict:
    return {
        "count": len(latencies),
        "sum": sum(latencies),
        "min": min(latencies) if latencies else 0,
        "max": max(latencies) if latencies else 0,
    }


def _manager_counters(kind: str, component: Component) -> dict[str, Any]:
    if kind == "core":
        return {
            "done": component.done,
            "execution_cycles": component.execution_cycles,
            "progress": component.progress,
        }
    if kind == "dma":
        return {
            "bytes_read": component.bytes_read,
            "bytes_written": component.bytes_written,
            "read_bursts": component.read_bursts,
            "write_bursts": component.write_bursts,
        }
    if kind == "hog":
        return {"bytes_stolen": component.bytes_stolen}
    if kind == "staller":
        return {"aws_sent": component.aws_sent}
    return {"bursts_completed": component.bursts_completed}


def collect_observables(
    system: System,
    spec: ScenarioSpec,
    generators: dict[str, Component],
) -> dict[str, Any]:
    """A JSON-plain, kernel-independent digest of the run's end state."""
    obs: dict[str, Any] = {"sim_cycles": system.sim.cycle}
    groups = set(spec.metrics)
    if "counters" in groups:
        managers: dict[str, Any] = {}
        for binding in spec.traffic:
            component = generators.get(binding.manager)
            if component is None:
                continue
            managers[binding.manager] = _manager_counters(binding.kind,
                                                          component)
        obs["managers"] = managers
    if "latency" in groups:
        obs["latency"] = {
            binding.manager: _latency_digest(
                generators[binding.manager].latencies
            )
            for binding in spec.traffic
            if binding.kind == "core" and binding.manager in generators
        }
    if "realms" in groups:
        realms: dict[str, Any] = {}
        for name, unit in system.realms.items():
            snap = unit.region_snapshot(0)
            realms[name] = {
                "total_bytes": snap.total_bytes,
                "stall_cycles": snap.stall_cycles,
                "txn_count": snap.txn_count,
                "cycles_into_period": snap.cycles_into_period,
                "denied_by_budget": unit.denied_by_budget,
                "denied_by_throttle": unit.denied_by_throttle,
                "blocked_beats": unit.blocked_aw + unit.blocked_ar,
                "isolated": unit.isolated,
            }
        obs["realms"] = realms
    if "channels" in groups:
        obs["channels"] = {
            name: [
                [ch.sent_total, ch.recv_total, ch.busy_cycles]
                for ch in port.channels
            ]
            for name, port in system.ports.items()
        }
    if system.control is not None and system.control.configured:
        obs["control"] = system.control.digest()
    return obs


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def _until_waiting(
    spec: ScenarioSpec, generators: dict[str, Component]
) -> list[Component]:
    waiting = [
        generators[name] for name in spec.run.until if name in generators
    ]
    if not waiting:
        raise ScenarioError(
            "every manager named in run.until has enabled=false "
            "traffic", path="run.until",
        )
    return waiting


def _run_chunk(
    sim, pred: Callable[[], bool], chunk_end: int, what: str
) -> None:
    """Advance until *pred()* holds or the clock reaches *chunk_end*.

    The chunk end is a transient commit-boundary hook at ``chunk_end -
    1`` whose firing the predicate reads, so the predicate depends on
    state only: fast-forward and span replay stop at that boundary and
    never jump past it, and no hook due at *chunk_end* fires early.  A
    hook left pending when *pred* holds first is dropped by a restore,
    like every transient hook.
    """
    ended: list[int] = []
    sim.call_at_transient(chunk_end - 1, ended.append)
    sim.run_until(
        lambda: bool(ended) or pred(),
        max_cycles=chunk_end - sim.cycle,
        what=what,
    )


def _execute_run(
    system: System,
    spec: ScenarioSpec,
    label: str,
    generators: dict[str, Component],
    *,
    stop_at: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    on_checkpoint=None,
) -> None:
    """Run a point's (possibly resumed) simulation to completion.

    The run is executed in commit-boundary chunks when *stop_at* or
    *checkpoint_every* is given; chunk boundaries only change where the
    kernel pauses, never what it computes, so the outcome is
    bit-identical to one uninterrupted call.  Every chunk ends at its
    exact cycle, and the stop predicates handed to ``run_until`` read
    simulation state only (DESIGN.md section 10).  ``run.max_cycles``
    and ``run.horizon`` are absolute (counted from cycle 0), so a
    resumed run stops exactly where the uninterrupted one would have.
    """
    sim = system.sim
    what = f"{spec.name}[{label}] traffic to finish"
    if spec.run.until:
        waiting = _until_waiting(spec, generators)
        deadline = spec.run.max_cycles
        if stop_at is not None:
            deadline = min(deadline, stop_at)

        def pred() -> bool:
            # Evaluated once per run-loop iteration: a plain loop, not a
            # generator.
            for core in waiting:
                if not core.done:
                    return False
            return True

        while not pred():
            if sim.cycle >= deadline:
                if stop_at is not None and sim.cycle >= stop_at:
                    return  # prefix run: paused, not timed out
                raise SimulationError(
                    f"timeout after {spec.run.max_cycles} cycles waiting "
                    f"for {what}"
                )
            chunk_end = deadline
            if checkpoint_every is not None:
                chunk_end = min(chunk_end, sim.cycle + checkpoint_every)
            _run_chunk(sim, pred, chunk_end, what)
            if (
                on_checkpoint is not None
                and not pred()
                and sim.cycle < deadline
            ):
                on_checkpoint(sim.cycle)
    else:
        end = spec.run.horizon
        if stop_at is not None:
            end = min(end, stop_at)
        while sim.cycle < end:
            chunk = end - sim.cycle
            if checkpoint_every is not None:
                chunk = min(chunk, checkpoint_every)
            sim.run(chunk)
            if on_checkpoint is not None and sim.cycle < end:
                on_checkpoint(sim.cycle)


def _elaborate_point(
    point: ExpandedPoint,
    *,
    active_set: Optional[bool] = None,
    batched: Optional[bool] = None,
) -> tuple[System, dict[str, Component]]:
    """Build a point's system with traffic, control, and warm caches."""
    spec = point.spec
    system = build_system(spec, active_set=active_set, batched=batched)
    generators = attach_traffic(system, spec)
    install_control(system, spec)
    for warm in spec.warm:
        system.warm_cache(warm.base, warm.size, cache=warm.cache)
    return system, generators


def _restore_and_run(
    system: System,
    point: ExpandedPoint,
    generators: dict[str, Component],
    resume_state: Optional[Any],
    restore_path: str,
    live: Any = nullcontext(),
    **run: Any,
) -> None:
    """Restore *resume_state* (if any) into the point's freshly
    elaborated system, then run it inside *live* (*run* goes to
    :func:`_execute_run`).  A refused snapshot surfaces as a
    :class:`ScenarioError` at *restore_path*, a refused control-plane
    action as one at ``schedule``."""
    from repro.snapshot import SnapshotError

    if resume_state is not None:
        try:
            system.restore(resume_state)
        except SnapshotError as exc:
            raise ScenarioError(f"cannot restore snapshot: {exc}",
                                path=restore_path) from exc
    try:
        with live:
            _execute_run(system, point.spec, point.label, generators, **run)
    except (ScheduleError, KnobError, ProbeError) as exc:
        # A rule fired mid-run and its action was refused (e.g. register
        # semantics rejected a well-typed knob value).
        raise ScenarioError(f"control plane: {exc}", path="schedule") from exc


def _checkpoint_meta(
    point: ExpandedPoint,
    spec: ScenarioSpec,
    system: System,
    scenario_name: Optional[str],
) -> dict:
    return {
        "scenario": scenario_name or spec.name,
        "label": point.label,
        "index": point.index,
        "seed": point.seed,
        "cycle": system.sim.cycle,
        "active_set": system.sim.active_set_enabled,
        "batched": system.sim.batched,
        "spec": spec.to_dict(),
    }


def _slug(text: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in text
    ) or "point"


def run_point(
    point: ExpandedPoint,
    *,
    active_set: Optional[bool] = None,
    batched: Optional[bool] = None,
    profile: bool = False,
    record: bool = False,
    resume_state: Optional[Any] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    scenario_name: Optional[str] = None,
    telemetry: Optional[Any] = None,
) -> PointResult:
    """Simulate one expanded campaign point and digest its observables.

    With *profile* or *record*, a flight recorder (:mod:`repro.obs`)
    rides the run and the result carries its registry snapshot in
    ``metrics``; *record* additionally journals execution events for
    ``--trace-out`` (``trace``).  Both are execution-side: observables,
    reports, and golden digests are byte-identical either way
    (DESIGN.md section 15).

    *resume_state* restores a previously captured snapshot (an encoded
    tree) into the freshly built system before running — used by the
    fork-point campaign executor and ``--resume``.  With
    *checkpoint_every*, the run pauses every N cycles and writes a
    checkpoint file into *checkpoint_dir*; neither option changes any
    observable (DESIGN.md section 10).

    *telemetry* attaches the point to a started
    :class:`repro.telemetry.TelemetryServer` for its whole run: the
    scenario's ``[probes]`` section becomes the default live frame
    stream, and socket clients may pause, inspect, reconfigure, and
    checkpoint the machine.  Telemetry is an execution-side tap —
    with or without it, attached or not, every observable and golden
    digest is byte-identical (DESIGN.md section 12).

    The point's system is released
    (:meth:`~repro.sim.kernel.Simulator.release`) once the result is
    taken, so reference counting frees it on return.
    """
    spec = point.spec
    system, generators = _elaborate_point(
        point, active_set=active_set, batched=batched
    )
    recorder = None
    if profile or record:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(journal=record).attach(system.sim)

    on_checkpoint = None
    if checkpoint_every is not None:
        if checkpoint_every < 1:
            raise ScenarioError("checkpoint interval must be >= 1 cycle",
                                path="checkpoint")
        from pathlib import Path

        directory = Path(checkpoint_dir or "checkpoints")
        directory.mkdir(parents=True, exist_ok=True)
        name = scenario_name or spec.name

        def on_checkpoint(cycle: int) -> None:
            from repro.snapshot import capture_simulator, save_checkpoint

            save_checkpoint(
                directory
                / f"{_slug(name)}-{_slug(point.label)}-c{cycle}.ckpt",
                capture_simulator(system.sim),
                meta=_checkpoint_meta(point, spec, system, scenario_name),
            )

    live = nullcontext()
    if telemetry is not None:
        default_watch = None
        if spec.probes:
            default_watch = (
                spec.probes.sample, spec.probes.every, spec.probes.start,
            )
        live = telemetry.live_point(
            system,
            label=point.label,
            default_watch=default_watch,
            meta_fn=lambda: _checkpoint_meta(
                point, spec, system, scenario_name
            ),
        )
    _restore_and_run(
        system, point, generators, resume_state, "resume", live,
        checkpoint_every=checkpoint_every, on_checkpoint=on_checkpoint,
    )

    primary = _primary_core(spec, generators)
    latencies = {
        binding.manager: list(generators[binding.manager].latencies)
        for binding in spec.traffic
        if binding.kind == "core" and binding.manager in generators
    }
    result = PointResult(
        label=point.label,
        index=point.index,
        seed=point.seed,
        sim_cycles=system.sim.cycle,
        primary_manager=primary,
        execution_cycles=(
            generators[primary].execution_cycles if primary else None
        ),
        observables=collect_observables(system, spec, generators),
        latencies=latencies,
        metrics=(
            recorder.snapshot(units=_span_units(system))
            if recorder is not None else None
        ),
        trace=recorder.trace_dump() if recorder is not None else None,
    )
    system.sim.release()
    return result


def _span_units(system: System) -> dict:
    """Per-REALM-unit span participation for the metrics registry."""
    return {
        name: (unit.span_hits, unit.span_cycles)
        for name, unit in system.realms.items()
    }


def _primary_core(
    spec: ScenarioSpec, generators: dict[str, Component]
) -> Optional[str]:
    """The manager whose execution time is *the* result of the point."""
    for name in spec.run.until:
        if name in generators:
            return name
    for binding in spec.traffic:
        if binding.kind == "core" and binding.manager in generators:
            return binding.manager
    return None


def _run_forked(args: tuple) -> PointResult:
    """Process-pool entry for one fork-tree leaf: load the nearest
    ancestor snapshot from the checkpoint store (the handoff encoding —
    DESIGN.md section 14) and finish the point's remaining suffix.  A
    leaf below no snapshot node has no path and runs from scratch."""
    point, ckpt_path, options = args
    resume_state = None
    if ckpt_path is not None:
        from repro.snapshot import load_checkpoint

        _, resume_state = load_checkpoint(ckpt_path)
    return run_point(point, resume_state=resume_state, **options)


def _run_prefix(
    point: ExpandedPoint,
    fork_cycle: int,
    *,
    active_set: Optional[bool],
    batched: Optional[bool],
    resume_state: Optional[Any] = None,
) -> tuple[Any, int]:
    """Execute one shared campaign prefix edge once; returns the
    snapshot tree and the cycle it was captured at.

    The prefix stops at ``fork_cycle`` — the commit boundary *before*
    the first divergent schedule firing — or earlier if the run's own
    stop condition is met first (in which case the forks finish
    immediately, exactly like their scratch runs would).
    *resume_state* continues from a previously captured ancestor
    snapshot, so an interior fork-tree edge simulates only the cycles
    between its parent's snapshot and its own.  The prefix system is
    released once its snapshot is taken.
    """
    from repro.snapshot import capture_simulator

    system, generators = _elaborate_point(
        point, active_set=active_set, batched=batched
    )
    _restore_and_run(
        system, point, generators, resume_state, "fork", stop_at=fork_cycle
    )
    sim = system.sim
    state, cycle = capture_simulator(sim), sim.cycle
    sim.release()
    return state, cycle


def _run_tree(
    spec: ScenarioSpec,
    points: list[ExpandedPoint],
    tree: Any,
    *,
    jobs: int,
    active_set: Optional[bool],
    batched: Optional[bool],
    profile: bool,
    record: bool,
    checkpoint_every: Optional[int],
    checkpoint_dir: Optional[str],
    telemetry: Optional[Any],
) -> CampaignResult:
    """Execute a campaign along its fork tree (DESIGN.md section 14).

    Depth-first walk: every edge between snapshot nodes is simulated
    exactly once, each interior node's state is captured in memory at
    its commit boundary, and every child — interior or leaf — restores
    from its *nearest ancestor* snapshot.  Leaves produce the point
    results; with ``jobs > 1`` the interior edges still run here (each
    is proved once) while the leaf suffixes fan out over a process
    pool, handed (ancestor checkpoint, remaining point) pairs via the
    snapshot store.  A tree with no snapshot node runs every leaf from
    scratch and leaves the result's fork fields ``None``.  Reports are
    byte-identical to scratch execution either way.
    """
    forked = tree.shares_prefix
    options = dict(
        active_set=active_set, batched=batched, profile=profile,
        record=record, checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir, scenario_name=spec.name,
    )
    results: dict[int, PointResult] = {}
    tasks: list[tuple[int, Optional[str]]] = []  # pooled leaf handoffs
    executed = {"prefix_cycles": 0, "saved_cycles": 0}
    # Edge records for the trace exporter (ids, cycle spans, host
    # seconds) — collected only when recording; kept out of fork_stats
    # because wall time differs between pooled and sequential runs.
    fork_trace: Optional[list] = [] if record and forked else None
    edge_ids = [0]
    root_capture: list[Optional[int]] = [None]
    pooled = jobs > 1 and len(points) > 1
    spill_dir: Optional[Any] = None
    spill_count = [0]

    def spill(state: Any, cycle: int) -> str:
        from repro.snapshot import save_checkpoint

        nonlocal spill_dir
        if spill_dir is None:
            import tempfile

            spill_dir = tempfile.TemporaryDirectory(prefix="repro-fork-")
        from pathlib import Path

        spill_count[0] += 1
        path = Path(spill_dir.name) / f"node{spill_count[0]}-c{cycle}.ckpt"
        save_checkpoint(path, state, meta={"cycle": cycle})
        return str(path)

    def walk(node, state, state_path, floor: int, parent: Optional[int]
             ) -> None:
        if node.is_leaf:
            index = node.points[0]
            if fork_trace is not None:
                fork_trace.append(
                    {"leaf_index": index, "parent": parent, "at": floor}
                )
            if pooled:
                tasks.append((index, state_path))
            else:
                results[index] = run_point(
                    points[index], resume_state=state, telemetry=telemetry,
                    **options,
                )
            return
        if node.cycle is None:  # structural: no snapshot of its own
            for child in node.children:
                walk(child, state, state_path, floor, parent)
            return
        t0 = perf_counter()
        new_state, captured = _run_prefix(
            points[node.points[0]], node.cycle,
            active_set=active_set, batched=batched, resume_state=state,
        )
        edge = captured - floor
        executed["prefix_cycles"] += edge
        executed["saved_cycles"] += edge * (len(node.points) - 1)
        edge_id = parent
        if fork_trace is not None:
            edge_ids[0] += 1
            edge_id = edge_ids[0]
            fork_trace.append({
                "id": edge_id,
                "parent": parent,
                "label": f"prefix x{len(node.points)}",
                "from": floor,
                "to": captured,
                "wall_seconds": perf_counter() - t0,
            })
        if node is tree.root:
            root_capture[0] = captured
        new_path = spill(new_state, captured) if pooled else None
        for child in node.children:
            walk(child, new_state, new_path, captured, edge_id)

    try:
        walk(tree.root, None, None, 0, None)
        if pooled:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(
                    _run_forked,
                    [(points[i], path, options) for i, path in tasks],
                ))
            for (i, _), outcome in zip(tasks, outcomes):
                results[i] = outcome
    finally:
        if spill_dir is not None:
            spill_dir.cleanup()

    ordered = [results[i] for i in sorted(results)]
    result = CampaignResult.from_points(
        spec, ordered, active_set=active_set, batched=batched
    )
    if forked:
        result.fork_cycle = root_capture[0]
        result.fork_stats = {"planned": tree.describe(), "executed": executed}
        result.fork_trace = fork_trace
    return result


def run_campaign(
    spec: ScenarioSpec,
    *,
    jobs: int = 1,
    active_set: Optional[bool] = None,
    batched: Optional[bool] = None,
    smoke: bool = False,
    profile: bool = False,
    record: bool = False,
    fork: bool = False,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    telemetry: Optional[Any] = None,
) -> CampaignResult:
    """Expand and execute a whole campaign.

    ``record=True`` attaches a flight recorder with an event journal to
    every point (``--trace-out``); results carry ``metrics`` and
    ``trace`` payloads for :mod:`repro.obs.trace_export` while reports
    and digests stay byte-identical (DESIGN.md section 15).

    ``jobs > 1`` fans points out over a process pool; per-point seeds are
    derived from (master seed, index, label) before dispatch, so the
    parallel run is bit-identical to the sequential one.

    ``fork=True`` enables fork-tree execution: the campaign's points
    are clustered into a prefix tree by their divergences (see
    :func:`repro.scenario.fork.plan_fork_tree`) — every provably
    shared prefix edge is simulated once and snapshotted, and each
    point is restored from its nearest ancestor snapshot instead of
    re-simulating the prefix — sequentially or across the process
    pool.  Results are bit-identical to scratch execution; campaigns
    where nothing is shareable silently fall back.  Scratch execution
    walks the tree with no snapshot node: a structural root with one
    leaf per point, in expansion order.
    """
    from repro.scenario.fork import ForkNode, ForkTree, plan_fork_tree

    if telemetry is not None and jobs > 1:
        raise ScenarioError(
            "live telemetry requires sequential execution (the socket "
            "attaches to one point at a time); drop --jobs or --telemetry",
            path="telemetry",
        )
    if smoke:
        spec = apply_smoke(spec)
    points = expand(spec)
    tree = plan_fork_tree(points) if fork and len(points) > 1 else None
    if tree is None or not tree.shares_prefix:
        tree = ForkTree(ForkNode(
            points=tuple(range(len(points))),
            children=tuple(ForkNode(points=(i,)) for i in range(len(points))),
        ))
    return _run_tree(
        spec, points, tree, jobs=jobs,
        active_set=active_set, batched=batched, profile=profile,
        record=record, checkpoint_every=checkpoint_every,
        checkpoint_dir=checkpoint_dir, telemetry=telemetry,
    )

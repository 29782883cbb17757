"""Per-layer tracing, installed from outside the program.

:class:`LayerTrace` wraps public functions of each ``src/repro`` layer
(plus two private runner seams, ``_elaborate_point`` and ``_run_prefix``,
that mark the elaborate and fork-edge boundaries) and restores them on
:meth:`LayerTrace.uninstall`.  Nothing under ``src/``
knows it is being traced; the harness proves the wrappers are
behaviour-neutral by comparing the traced campaign's digest with the
untraced one.

Two kinds of wrapper:

* *coarse* boundaries (campaign, point, elaborate, run, collect, report,
  fork edge, capture, restore, ...) are recorded as spans — name, start,
  end, parent — kept in memory and written out when the run ends;
* *hot* calls (kernel step, channel commit, component ticks, span
  attempts, express routes, commit-boundary hooks) are only aggregated.

Every wrapper keeps ``calls`` and *self* time: the call's duration minus
the time of wrapped callees, tracked with one shared call stack.  Self
times of all layers therefore partition the traced run, and whatever the
coarse campaign/point/elaborate frames keep for themselves is reported
as ``other.s`` — the part no layer covers.
"""

from __future__ import annotations

from time import perf_counter

#: Component ticks are grouped by the ``repro`` package of the class.
TICK_PACKAGES = ("realm", "interconnect", "mem", "traffic")

#: Every abort cause ``repro.sim.span.attempt_span`` can report.
SPAN_ABORTS = (
    "window", "opaque", "no_offer", "boundary", "no_flows", "short",
    "stitch", "listener",
)

#: Kernel counters read as deltas around every ``run``/``run_until``,
#: so snapshot restores (which reload them) never double-count work.
_KERNEL_COUNTERS = (
    "cycle", "ticks_executed", "ticks_skipped", "cycles_fast_forwarded",
    "span_cycles_replayed",
)

#: Coarse frames whose own (uncovered) time is reported as ``other.s``.
OTHER_FRAMES = ("campaign", "point", "fork.edge", "elaborate")


class LayerTrace:
    """Aggregated layer timings and coarse spans for one traced campaign."""

    def __init__(self) -> None:
        self.acc: dict[str, list] = {}  # key -> [calls, self seconds]
        self.counters: dict[str, int] = {}
        self.spans: list[dict] = []
        self.unknown_ticks: set[str] = set()
        self._stack = [0.0]  # child-time accumulators, base frame first
        self._open: list[int] = []  # ids of the enclosing coarse spans
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _slot(self, key: str) -> list:
        return self.acc.setdefault(key, [0, 0.0])

    def hot(self, key: str, fn):
        """Aggregate-only wrapper: calls and self time under *key*."""
        acc = self._slot(key)
        stack = self._stack
        clock = perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                acc[0] += 1
                acc[1] += dt - child

        return wrapper

    def coarse(self, key: str, fn):
        """Aggregating wrapper that also records a span per call."""
        acc = self._slot(key)
        stack = self._stack
        spans = self.spans
        open_ids = self._open

        def wrapper(*args, **kwargs):
            span = {
                "id": len(spans), "name": key,
                "parent": open_ids[-1] if open_ids else None,
            }
            spans.append(span)
            open_ids.append(span["id"])
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                child = stack.pop()
                stack[-1] += dt
                open_ids.pop()
                acc[0] += 1
                acc[1] += dt - child
                span["start"] = t0
                span["end"] = t1

        return wrapper

    def _attempt_span(self, fn):
        """``attempt_span`` split by outcome: hits vs failed attempts."""
        hit = self._slot("sim.span.attempt_hit")
        fail = self._slot("sim.span.attempt_fail")
        stack = self._stack
        clock = perf_counter

        def wrapper(sim, limit):
            stack.append(0.0)
            t0 = clock()
            ok = False
            try:
                ok = fn(sim, limit)
                return ok
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                slot = hit if ok else fail
                slot[0] += 1
                slot[1] += dt - child

        return wrapper

    def _run_loop(self, fn):
        """``Simulator.run``/``run_until``: a span plus counter deltas."""
        traced = self.coarse("run", fn)
        counters = self.counters

        def wrapper(sim, *args, **kwargs):
            before = [getattr(sim, name) for name in _KERNEL_COUNTERS]
            aborts = dict(sim.span_aborts)
            try:
                return traced(sim, *args, **kwargs)
            finally:
                for name, old in zip(_KERNEL_COUNTERS, before):
                    counters[name] = (
                        counters.get(name, 0) + getattr(sim, name) - old
                    )
                for cause, count in sim.span_aborts.items():
                    key = f"abort.{cause}"
                    counters[key] = (
                        counters.get(key, 0) + count - aborts.get(cause, 0)
                    )

        return wrapper

    def _add(self, fn):
        """``Simulator.add``: wrap the new component's tick by package."""
        trace = self

        def wrapper(sim, component):
            result = fn(sim, component)
            parts = type(component).__module__.split(".")
            package = parts[1] if len(parts) > 1 else parts[0]
            if package not in TICK_PACKAGES:
                trace.unknown_ticks.add(type(component).__qualname__)
                package = "other"
            component.tick = trace.hot(f"{package}.tick", component.tick)
            return result

        return wrapper

    def _call_at(self, fn):
        """``Simulator.call_at``: time every commit-boundary hook."""
        trace = self

        def wrapper(sim, cycle, hook):
            return fn(sim, cycle, trace.hot("control.hooks", hook))

        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def _patch(self, owner, name: str, make) -> None:
        if name not in vars(owner):
            raise AttributeError(
                f"{getattr(owner, '__name__', owner)!r} has no attribute "
                f"{name!r} to trace (renamed?)"
            )
        original = vars(owner)[name]
        self._patches.append((owner, name, original))
        if isinstance(original, classmethod):
            setattr(owner, name, classmethod(make(original.__func__)))
        else:
            setattr(owner, name, make(original))

    def install(self):
        """Wrap every traced function; returns self.

        All or nothing: if one target is missing, the wrappers already
        installed are removed before the error propagates.
        """
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install(self) -> None:
        import repro.scenario as api
        import repro.scenario.fork as fork
        import repro.scenario.runner as runner
        import repro.sim.kernel as kernel
        import repro.snapshot as snapshot
        from repro.scenario.report import CampaignResult
        from repro.sim.channel import Channel, ExpressRoute

        def coarse(key):
            return lambda fn: self.coarse(key, fn)

        def hot(key):
            return lambda fn: self.hot(key, fn)

        # scenario layer (the harness calls these through ``api``)
        self._patch(api, "load_file", coarse("scenario.load_file"))
        self._patch(api, "apply_overrides", coarse("scenario.load_file"))
        self._patch(api, "expand", coarse("scenario.expand"))
        self._patch(api, "run_campaign", coarse("campaign"))
        self._patch(api, "plan_fork_tree", coarse("scenario.fork.plan"))
        # ... and what run_campaign reaches through module globals
        self._patch(runner, "expand", coarse("scenario.expand"))
        self._patch(fork, "plan_fork_tree", coarse("scenario.fork.plan"))
        self._patch(runner, "run_point", coarse("point"))
        self._patch(runner, "_run_prefix", coarse("fork.edge"))
        self._patch(runner, "_elaborate_point", coarse("elaborate"))
        self._patch(runner, "build_system", coarse("scenario.build_system"))
        self._patch(runner, "attach_traffic",
                    coarse("scenario.attach_traffic"))
        self._patch(runner, "install_control",
                    coarse("scenario.install_control"))
        self._patch(runner, "collect_observables",
                    coarse("scenario.collect_observables"))
        self._patch(CampaignResult, "from_points", coarse("scenario.report"))
        self._patch(CampaignResult, "digest", coarse("scenario.report"))
        # snapshot layer (runner imports these lazily, at call time)
        self._patch(snapshot, "capture_simulator", coarse("snapshot.capture"))
        self._patch(snapshot, "restore_simulator", coarse("snapshot.restore"))
        # simulation kernel
        Simulator = kernel.Simulator
        self._patch(Simulator, "run", self._run_loop)
        self._patch(Simulator, "run_until", self._run_loop)
        self._patch(Simulator, "step", hot("sim.kernel.step"))
        self._patch(Simulator, "add", self._add)
        self._patch(Simulator, "call_at", self._call_at)
        self._patch(kernel, "attempt_span", self._attempt_span)
        self._patch(Channel, "commit", hot("sim.channel.commit"))
        self._patch(ExpressRoute, "step", hot("sim.channel.express"))

    def uninstall(self) -> None:
        """Restore every wrapped function (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def calls(self, key: str) -> int:
        return self.acc.get(key, (0, 0.0))[0]

    def seconds(self, key: str) -> float:
        return self.acc.get(key, (0, 0.0))[1]

    def metrics(self, fork_stats=None) -> dict[str, float]:
        """The per-layer metrics of this traced campaign (name -> value)."""
        c, s, n = self.calls, self.seconds, self.counters.get
        m: dict[str, float] = {}
        for name in ("load_file", "expand", "build_system", "attach_traffic",
                     "install_control", "collect_observables", "report"):
            m[f"scenario.{name}.calls"] = c(f"scenario.{name}")
            m[f"scenario.{name}.s"] = s(f"scenario.{name}")
        executed = (fork_stats or {}).get("executed", {})
        m["scenario.fork.plan.s"] = s("scenario.fork.plan")
        m["scenario.fork.edges"] = c("fork.edge")
        m["scenario.fork.prefix_cycles"] = executed.get("prefix_cycles", 0)
        m["scenario.fork.saved_cycles"] = executed.get("saved_cycles", 0)
        for name in ("capture", "restore"):
            m[f"snapshot.{name}.calls"] = c(f"snapshot.{name}")
            m[f"snapshot.{name}.s"] = s(f"snapshot.{name}")

        steps = c("sim.kernel.step")
        cycles = n("cycle", 0)
        m["sim.kernel.step.calls"] = steps
        m["sim.kernel.step.self_s"] = s("sim.kernel.step")
        m["sim.kernel.loop.self_s"] = s("run")
        m["sim.kernel.cycles_run"] = cycles
        m["sim.kernel.ticks_executed"] = n("ticks_executed", 0)
        m["sim.kernel.ticks_skipped"] = n("ticks_skipped", 0)
        m["sim.kernel.ticks_per_step"] = _ratio(n("ticks_executed", 0), steps)
        ff = n("cycles_fast_forwarded", 0)
        m["sim.kernel.cycles_fast_forwarded"] = ff
        m["sim.kernel.ff_share"] = _ratio(ff, cycles)

        commits = c("sim.channel.commit")
        m["sim.channel.commit.calls"] = commits
        m["sim.channel.commit.s"] = s("sim.channel.commit")
        m["sim.channel.commits_per_step"] = _ratio(commits, steps)
        m["sim.channel.express.calls"] = c("sim.channel.express")
        m["sim.channel.express.s"] = s("sim.channel.express")

        hits = c("sim.span.attempt_hit")
        attempts = hits + c("sim.span.attempt_fail")
        m["sim.span.attempt.calls"] = attempts
        m["sim.span.hits"] = hits
        m["sim.span.hit_ratio"] = _ratio(hits, attempts)
        m["sim.span.attempt_fail_s"] = s("sim.span.attempt_fail")
        m["sim.span.attempt_hit_s"] = s("sim.span.attempt_hit")
        m["sim.span.cycles_replayed"] = n("span_cycles_replayed", 0)
        for cause in SPAN_ABORTS:
            m[f"sim.span.abort.{cause}"] = n(f"abort.{cause}", 0)

        for package in TICK_PACKAGES:
            m[f"{package}.tick.calls"] = c(f"{package}.tick")
            m[f"{package}.tick.s"] = s(f"{package}.tick")
        m["control.hooks.calls"] = c("control.hooks")
        m["control.hooks.s"] = s("control.hooks")
        m["other.s"] = sum(s(key) for key in OTHER_FRAMES)
        return m

    def integrity_errors(self) -> list[str]:
        """Coverage problems that would make a layer silently read zero."""
        errors = []
        if self.unknown_ticks:
            errors.append(
                "components outside the traced tick packages: "
                + ", ".join(sorted(self.unknown_ticks))
            )
        for key in self.counters:
            if key.startswith("abort.") and key[6:] not in SPAN_ABORTS:
                errors.append(f"unknown span abort cause {key[6:]!r}")
        return errors


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

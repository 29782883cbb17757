"""Command-line interface: scenario campaigns and the paper's tables.

Each paper experiment is a shipped scenario file; ``run`` executes it.

Usage::

    python -m repro run scenarios/fig6a.toml        # Figure 6a
    python -m repro run scenarios/fig6b.toml        # Figure 6b
    python -m repro run scenarios/fig6a.toml \\
        --set traffic.core.n_accesses=200           # longer core trace
    python -m repro run campaign.toml --jobs 4 --json report.json
    python -m repro run campaign.toml --fork        # fork-point execution
    python -m repro run long.toml --checkpoint-every 100000
    python -m repro run --resume checkpoints/long-point-c100000.ckpt
    python -m repro sweep scenarios/fig6a.toml \\
        --axis traffic.dma.burst_beats=16,64,256    # ad-hoc sweep
    python -m repro run scenarios/fig6a.toml --telemetry 7321  # live stream
    python -m repro watch localhost:7321            # terminal gauges
    python -m repro watch localhost:7321 --pause-at 50000 \\
        --set realm.dma.region0.budget_bytes=4096   # live reconfiguration
    python -m repro probes scenarios/fig6a.toml     # control-plane probes
    python -m repro knobs scenarios/fig6a.toml      # control-plane knobs
    python -m repro plan scenarios/budget_grid.toml # fork tree, no run
    python -m repro table1           # SoC area decomposition
    python -m repro table2           # area-model coefficients

With no subcommand the help text is printed and the exit status is 2.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Any, Callable, Sequence


def _run_table1(args: argparse.Namespace) -> int:
    from repro.area import (
        cheshire_decomposition,
        format_table,
        realm_overhead_percent,
    )

    print(format_table(cheshire_decomposition()))
    print(f"\nAXI-REALM overhead: {realm_overhead_percent():.2f}% "
          "(paper: 2.45%)")
    return 0


def _run_table2(args: argparse.Namespace) -> int:
    from repro.area import TABLE_II, area_breakdown
    from repro.realm import RealmUnitParams

    print(f"{'sub-block':<26} {'const':>8} {'addr':>6} {'data':>6} "
          f"{'pend':>7} {'store':>7}")
    for block in TABLE_II:
        print(f"{block.name:<26} {block.const:>8.1f} "
              f"{block.per_addr_bit:>6.1f} {block.per_data_bit:>6.1f} "
              f"{block.per_pending:>7.1f} {block.per_storage_elem:>7.1f}")
    print("\nTable I configuration, GE per instance:")
    for name, ge in area_breakdown(RealmUnitParams()).items():
        print(f"  {name:<26} {ge:>10.1f}")
    return 0


# ----------------------------------------------------------------------
# scenario campaigns
# ----------------------------------------------------------------------
def parse_cli_value(text: str) -> Any:
    """Parse one ``--set``/``--axis`` value: int, float, bool, or string."""
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(stripped, 0)  # decimal, hex (0x...), underscores
    except ValueError:
        pass
    try:
        return float(stripped)
    except ValueError:
        pass
    return stripped


def _split_assignment(text: str, option: str) -> tuple[str, str]:
    field, sep, value = text.partition("=")
    if not sep or not field:
        raise SystemExit(
            f"repro: error: {option} expects FIELD=VALUE, got {text!r}"
        )
    return field, value


def _load_scenario(args: argparse.Namespace):
    from repro.scenario import apply_overrides, load_file

    spec = load_file(args.file)
    overrides = [
        _split_assignment(item, "--set") for item in (args.set or [])
    ]
    if overrides:
        spec = apply_overrides(
            spec, [(field, parse_cli_value(value))
                   for field, value in overrides]
        )
    return spec


def _emit_campaign(result, args: argparse.Namespace) -> None:
    if result.description:
        print(f"# {result.name} — {result.description}")
    else:
        print(f"# {result.name}")
    print(result.format_table())
    _emit_execution_stats(result, verbose=getattr(args, "profile", False))
    if args.json:
        result.write_json(args.json)
        print(f"report written to {args.json}")
    if args.csv:
        result.write_csv(args.csv)
        print(f"csv written to {args.csv}")
    if args.timeseries:
        result.write_timeseries_csv(args.timeseries)
        print(f"timeseries written to {args.timeseries}")
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro.obs import write_trace

        trace = write_trace(trace_out, result)
        print(f"trace written to {trace_out} "
              f"({len(trace['traceEvents'])} events; "
              "load in ui.perfetto.dev or chrome://tracing)")


def _emit_execution_stats(result, verbose: bool = False) -> None:
    """Execution-side statistics, all read from the flight-recorder
    registry snapshots (``PointResult.metrics``) and the campaign's
    fork-tree summary — the single emit path for ``--profile``,
    span-replay, and fork-tree output (DESIGN.md sections 11/14/15).

    Modelled observables (the result table, reports) never come through
    here; everything printed below describes *how* the run executed.
    """
    # Fork-tree amortization (present whenever the campaign forked,
    # independent of the recorder; --profile adds the per-node plan).
    stats = getattr(result, "fork_stats", None)
    if stats:
        planned = stats["planned"]
        executed = stats["executed"]
        print(
            f"fork-tree execution: {planned['snapshot_nodes']} snapshot "
            f"node(s) over {planned['points']} points; "
            f"{executed['prefix_cycles']} prefix cycles simulated once, "
            f"{executed['saved_cycles']} point-cycles saved"
        )
        for fallback in planned["fallbacks"]:
            paths = ", ".join(fallback["paths"])
            print(
                f"  scratch split into {fallback['groups']} group(s) of "
                f"{fallback['points']} points: {paths} diverges from cycle 0"
            )
        if verbose:
            for node in planned["snapshots"]:
                labels = ", ".join(str(label) for label in node["labels"])
                print(
                    f"  snapshot @{node['cycle']} "
                    f"({', '.join(node['divergent'])}) -> "
                    f"{node['points']} point(s): {labels}"
                )
    if not verbose:
        return
    # Campaign-wide per-component share of wall-clock tick time,
    # estimated from the recorder's stride-sampled steps.
    from repro.obs import PHASE_STRIDE

    seconds: dict[str, float] = {}
    ticks: dict[str, int] = {}
    for point in result.points:
        for name, secs, count in point.profile or []:
            seconds[name] = seconds.get(name, 0.0) + secs
            ticks[name] = ticks.get(name, 0) + count
    total = sum(seconds.values())
    if not total:
        print("\n(no tick time recorded)")
        return
    print(f"\n# tick-time profile (~{total:.3f}s total tick time, "
          f"estimated from 1 in {PHASE_STRIDE} steps)")
    print(f"{'component':<28} {'share':>7} {'seconds':>9} {'ticks':>10}")
    rows = sorted(seconds.items(), key=lambda kv: kv[1], reverse=True)
    for name, secs in rows:
        print(f"{name:<28} {100 * secs / total:>6.1f}% {secs:>9.3f} "
              f"{ticks[name]:>10d}")
    # Per-point span-replay statistics (DESIGN.md section 11).
    span_stats = [(p, p.span_stats) for p in result.points if p.span_stats]
    if not any(s["enabled"] for _, s in span_stats):
        return
    print("\n# span-replay (closed-form steady-state evolution)")
    for point, s in span_stats:
        replayed = s["span_cycles_replayed"]
        cycles = point.sim_cycles or 1
        aborts = ", ".join(
            f"{cause}={count}" for cause, count in s["aborts"].items()
        ) or "none"
        print(f"{point.label}: {s['spans_entered']} spans, "
              f"{replayed} cycles replayed "
              f"({100 * replayed / cycles:.1f}% of {point.sim_cycles}); "
              f"aborts: {aborts}")
        for name, unit in sorted(s["units"].items()):
            if unit["span_hits"]:
                print(f"  realm.{name}: {unit['span_hits']} spans, "
                      f"{unit['span_cycles']} cycles")


def _telemetry_server(args: argparse.Namespace):
    """Start the live-telemetry socket server when ``--telemetry`` was
    given; returns it (or ``None``).  The caller owns ``stop()``."""
    port = getattr(args, "telemetry", None)
    if port is None:
        return None
    from repro.telemetry import TelemetryServer

    server = TelemetryServer(port=port)
    host, bound = server.start()
    print(f"telemetry: listening on {host}:{bound}", flush=True)
    if getattr(args, "telemetry_wait", False):
        print("telemetry: the first point waits for a client command...",
              flush=True)
        _hold_first_point(server)
    return server


def _hold_first_point(server) -> None:
    """``--telemetry-wait``: the first point *server* attaches starts
    only once a client command (say its ``watch``) is queued, so a point
    shorter than the client's round trip cannot end before the client
    subscribes.  A client that leaves while the point is held also
    releases it."""
    attach = server.live_point

    @contextmanager
    def live_point(system, **kwargs):
        with attach(system, **kwargs) as session:
            server.live_point = attach  # later points start at once
            session.wait_for_command()
            yield session

    server.live_point = live_point


def _campaign_command(
    args: argparse.Namespace,
    prepare: Callable[[], Callable[[Any], Any]],
    error: str = "scenario error",
) -> int:
    """The ``run``/``sweep``/``run --resume`` body: *prepare()* loads the
    inputs and returns the executor, which runs with the live-telemetry
    server (or ``None``) and returns the campaign result to emit."""
    from repro.scenario import ScenarioError
    from repro.sim import SimulationError
    from repro.snapshot import SnapshotError

    server = None
    try:
        from repro.telemetry import TelemetryError

        execute = prepare()
        server = _telemetry_server(args)
        result = execute(server)
    except (ScenarioError, SimulationError, SnapshotError,
            TelemetryError) as exc:
        print(f"repro: {error}: {exc}", file=sys.stderr)
        return 1
    finally:
        if server is not None:
            server.stop()
    _emit_campaign(result, args)
    return 0


def _campaign(args: argparse.Namespace, spec):
    """The executor that runs *spec*'s whole campaign."""
    from repro.scenario import run_campaign

    return lambda server: run_campaign(
        spec,
        jobs=args.jobs,
        active_set=False if args.naive_kernel else None,
        batched=False if args.per_beat else None,
        smoke=args.smoke,
        profile=args.profile,
        record=bool(args.trace_out),
        fork=args.fork,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        telemetry=server,
    )


def _run_scenario(args: argparse.Namespace) -> int:
    if args.resume:
        # The checkpoint embeds its point's spec: these cannot apply.
        for given, name in ((args.file, "a scenario file"),
                            (args.set, "--set"), (args.smoke, "--smoke")):
            if given:
                print(f"repro: error: {name} cannot be given with --resume "
                      "(the checkpoint embeds its point's scenario)",
                      file=sys.stderr)
                return 2
        return _campaign_command(
            args, lambda: _resume(args), error="resume error"
        )
    if not args.file:
        print("repro: error: give a scenario file or --resume CKPT",
              file=sys.stderr)
        return 2
    return _campaign_command(
        args, lambda: _campaign(args, _load_scenario(args))
    )


def _resume(args: argparse.Namespace):
    """Load the ``--resume`` checkpoint; returns the executor that
    rebuilds its point's system and continues the run."""
    from repro.scenario import ScenarioError
    from repro.scenario.report import CampaignResult
    from repro.scenario.runner import run_point
    from repro.scenario.spec import validate
    from repro.scenario.sweep import ExpandedPoint
    from repro.snapshot import load_checkpoint

    meta, state = load_checkpoint(args.resume)
    if "spec" not in meta:
        raise ScenarioError(
            f"{args.resume}: checkpoint metadata holds no scenario spec"
        )
    spec = validate(meta["spec"])
    point = ExpandedPoint(
        index=meta.get("index", 0),
        label=meta.get("label", spec.name),
        seed=meta.get("seed", spec.seed),
        spec=spec,
    )
    active_set = False if args.naive_kernel else meta.get("active_set")
    batched = False if args.per_beat else meta.get("batched")

    def execute(server):
        result = run_point(
            point,
            active_set=active_set,
            batched=batched,
            profile=args.profile,
            record=bool(args.trace_out),
            resume_state=state,
            checkpoint_every=args.checkpoint_every,
            checkpoint_dir=args.checkpoint_dir,
            scenario_name=meta.get("scenario"),
            telemetry=server,
        )
        print(f"# resumed {meta.get('scenario', spec.name)}"
              f"[{point.label}] from cycle {meta.get('cycle', '?')}")
        return CampaignResult.from_points(
            spec, [result], active_set=active_set, batched=batched
        )

    return execute


def _sweep_spec(args: argparse.Namespace):
    """The scenario file with its campaign replaced by the ``--axis``
    grid."""
    from dataclasses import replace

    from repro.scenario import AxisSpec, CampaignSpec

    spec = _load_scenario(args)
    axes = []
    for item in args.axis:
        field, values = _split_assignment(item, "--axis")
        # Validated like a file axis (e.g. an empty value list must
        # error out, not silently run the unswept base point).
        axes.append(
            AxisSpec.from_dict(
                {
                    "field": field,
                    "values": [parse_cli_value(v)
                               for v in values.split(",") if v],
                },
                f"--axis {field}",
            )
        )
    return replace(spec, campaign=CampaignSpec(sweep=tuple(axes)))


def _run_sweep(args: argparse.Namespace) -> int:
    return _campaign_command(args, lambda: _campaign(args, _sweep_spec(args)))


def _elaborate(args: argparse.Namespace):
    """Elaborate the scenario's base point as a run would, so every
    probe/knob path — including ``traffic.*`` — is registered."""
    from dataclasses import replace

    from repro.scenario import CampaignSpec, expand
    from repro.scenario.runner import _elaborate_point

    spec = _load_scenario(args)
    # The base scenario, not a campaign point: strip the campaign so the
    # listing reflects the file's own topology and traffic sections.
    point = expand(replace(spec, campaign=CampaignSpec()))[0]
    system, _ = _elaborate_point(point)
    return spec, system


def _run_probes(args: argparse.Namespace) -> int:
    from repro.scenario import ScenarioError
    from repro.sim import SimulationError

    try:
        spec, system = _elaborate(args)
    except (ScenarioError, SimulationError) as exc:
        print(f"repro: scenario error: {exc}", file=sys.stderr)
        return 1
    inventory = system.control.describe()["probes"]
    if args.json:
        _print_inventory_json(spec, "probes", inventory)
        return 0
    print(f"# {spec.name}: {len(inventory)} probes")
    print(f"{'path':<44} {'kind':<8} {'value':>12}  doc")
    for entry in inventory:
        print(f"{entry['path']:<44} {entry['kind']:<8} "
              f"{entry['value']:>12}  {entry['doc']}")
    return 0


def _print_inventory_json(spec, what: str, inventory) -> None:
    """Machine-readable ``probes``/``knobs`` listing.

    Same reporter conventions as ``repro lint --json``: a versioned
    top-level object, stable key order, one-per-line entries under a
    plural key — so CI scripts can parse either with the same idiom.
    """
    import json

    print(json.dumps(
        {
            "version": 1,
            "scenario": spec.name,
            "count": len(inventory),
            what: inventory,
        },
        indent=2,
    ))


def _run_knobs(args: argparse.Namespace) -> int:
    from repro.scenario import ScenarioError
    from repro.sim import SimulationError

    try:
        spec, system = _elaborate(args)
    except (ScenarioError, SimulationError) as exc:
        print(f"repro: scenario error: {exc}", file=sys.stderr)
        return 1
    inventory = system.control.describe()["knobs"]
    if args.json:
        _print_inventory_json(spec, "knobs", inventory)
        return 0
    print(f"# {spec.name}: {len(inventory)} knobs")
    print(f"{'path':<44} {'kind':<6} {'value':>12}  doc")
    for entry in inventory:
        flags = " [intrusive]" if entry["intrusive"] else ""
        print(f"{entry['path']:<44} {entry['kind']:<6} "
              f"{str(entry['value']):>12}  {entry['doc']}{flags}")
    return 0


def _watch_subscribe(client, args: argparse.Namespace):
    """Send the watch command, retrying while no point is live yet.

    ``run --telemetry`` binds its socket before the first point starts
    (and campaigns have gaps between points), so a watch client may
    connect a moment too early; the retry turns that race into a short
    wait instead of an error.
    """
    import time

    from repro.telemetry import TelemetryClientError

    last: Exception | None = None
    for attempt in range(args.retry + 1):
        try:
            return client.watch(
                sample=args.sample or (),
                every=args.every,
                start=args.start,
                label=args.label,
            )
        except TelemetryClientError as exc:
            if "no live point" not in str(exc):
                raise
            last = exc
            if attempt < args.retry:
                time.sleep(0.3)
    raise last  # type: ignore[misc]


def _render_plan_node(node, labels, indent: int = 0) -> None:
    pad = "  " * indent
    if node.is_leaf:
        print(f"{pad}point {labels[node.points[0]]!r}")
        return
    if node.cycle is None:
        paths = ", ".join(node.fallback) or "(identical points)"
        print(f"{pad}scratch split into {len(node.children)} group(s): "
              f"{paths}" + (" diverges from cycle 0" if node.fallback
                            else ""))
    else:
        print(f"{pad}snapshot @cycle {node.cycle} "
              f"({', '.join(node.divergent)}) -> {len(node.points)} points")
    for child in node.children:
        _render_plan_node(child, labels, indent + 1)


def _run_plan(args: argparse.Namespace) -> int:
    """Print a campaign's fork tree without running it — the
    discoverability sibling of ``probes``/``knobs``."""
    from repro.scenario import (
        ScenarioError,
        apply_smoke,
        axis_schedule_settable,
        expand,
        plan_fork_tree,
    )

    try:
        spec = _load_scenario(args)
        if args.smoke:
            spec = apply_smoke(spec)
        points = expand(spec)
        tree = plan_fork_tree(points)
    except ScenarioError as exc:
        print(f"repro: scenario error: {exc}", file=sys.stderr)
        return 1
    summary = tree.describe()
    print(f"# {spec.name}: {summary['points']} points, "
          f"{summary['snapshot_nodes']} snapshot node(s)")
    for axis in spec.campaign.sweep:
        fields = ", ".join(axis.fields)
        kind = ("schedule-settable (forks below a snapshot)"
                if axis_schedule_settable(axis)
                else "not schedule-settable (splits groups at cycle 0)")
        print(f"axis {fields}: {len(axis.values)} values, {kind}")
    print()
    _render_plan_node(tree.root, tree.labels)
    print()
    if tree.shares_prefix:
        print(f"predicted with --fork: {summary['prefix_cycles']} prefix "
              f"cycles simulated once, {summary['saved_cycles']} "
              "point-cycles saved vs scratch")
    else:
        print("no provable shared prefix: --fork would fall back to "
              "scratch execution")
    return 0


def _run_watch(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        Dashboard,
        TelemetryClientError,
        TelemetryClient,
        encode_payload,
        open_sink,
        parse_target,
    )

    sinks = []
    try:
        host, port = parse_target(args.target)
        client = TelemetryClient(host, port, timeout=args.timeout)
        client.connect(retries=args.retry)
    except TelemetryClientError as exc:
        print(f"repro: watch error: {exc}", file=sys.stderr)
        return 1
    try:
        with client:
            _watch_subscribe(client, args)
            if args.pause_at is not None or args.knob or args.checkpoint:
                paused = client.pause(at=args.pause_at)
                print(f"paused at cycle boundary "
                      f"{paused['cycle']}", file=sys.stderr)
                for item in args.knob or []:
                    path, value = _split_assignment(item, "--set")
                    reply = client.set(path, parse_cli_value(value))
                    print(f"set {path} = {reply['value']}", file=sys.stderr)
                if args.checkpoint:
                    reply = client.checkpoint(args.checkpoint)
                    print(f"checkpoint written to {reply['path']} "
                          f"(cycle {reply['cycle']})", file=sys.stderr)
                client.resume()
                print("resumed", file=sys.stderr)
            if args.csv:
                sinks.append(open_sink("csv", args.csv))
            if args.jsonl:
                sinks.append(open_sink("jsonl", args.jsonl))
            count = 1 if args.once else args.frames
            dashboard = None
            if not args.once:
                dashboard = Dashboard(
                    sys.stdout,
                    redraw=not args.raw and sys.stdout.isatty(),
                )
            received = 0
            # Iterate the raw event stream, not frames(): the server
            # interleaves `health` status messages (cycles/sec, active
            # set, span-replay share) that only the dashboard renders —
            # sinks and --once see probe frames exclusively.
            for message in client.events():
                kind = message.get("type")
                if kind == "health":
                    if dashboard is not None:
                        dashboard.update_health(message)
                    continue
                if kind == "end":
                    break
                if kind != "frame":
                    continue
                frame = message
                received += 1
                for sink in sinks:
                    sink(frame)
                if args.once:
                    # CI-friendly: one compact JSON frame on stdout.
                    print(encode_payload(frame).decode("utf-8"))
                elif dashboard is not None:
                    dashboard.update(frame)
                if count is not None and received >= count:
                    break
            if args.once and not received:
                print("repro: watch error: stream ended before a frame "
                      "arrived", file=sys.stderr)
                return 1
    except (TelemetryClientError, KeyboardInterrupt) as exc:
        if isinstance(exc, KeyboardInterrupt):
            return 130
        print(f"repro: watch error: {exc}", file=sys.stderr)
        return 1
    finally:
        for sink in sinks:
            sink.close()
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


_COMMANDS = {
    "table1": _run_table1,
    "table2": _run_table2,
    "run": _run_scenario,
    "sweep": _run_sweep,
    "watch": _run_watch,
    "plan": _run_plan,
    "probes": _run_probes,
    "knobs": _run_knobs,
    "lint": _run_lint,
}


def _add_campaign_options(
    parser: argparse.ArgumentParser, resumable: bool = False
) -> None:
    if resumable:
        parser.add_argument(
            "file", nargs="?", default=None,
            help="scenario file (.toml or .json); not with --resume",
        )
    else:
        parser.add_argument("file", help="scenario file (.toml or .json)")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="fan campaign points out over N worker processes",
    )
    parser.add_argument(
        "--fork", action="store_true",
        help="fork-point execution: simulate the campaign's shared prefix "
        "once and fork every point from the snapshot (bit-identical; "
        "falls back to scratch runs when no shared prefix is provable)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, metavar="N", default=None,
        help="write a checkpoint of every point's state every N cycles",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default="checkpoints",
        help="directory for checkpoint files (default: checkpoints/)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="apply the scenario's [smoke] overrides (quick-run scale)",
    )
    parser.add_argument(
        "--naive-kernel", action="store_true",
        help="run on the naive tick-everything kernel (equivalence checks)",
    )
    parser.add_argument(
        "--per-beat", action="store_true",
        help="disable the batched beat datapath (per-beat reference path, "
        "equivalence checks)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print each component's share of wall-clock tick time after "
        "the run (hot-path hunting; aggregated across campaign points)",
    )
    parser.add_argument(
        "--set", action="append", metavar="FIELD=VALUE",
        help="override a scenario field (dotted path), repeatable",
    )
    parser.add_argument(
        "--telemetry", type=int, metavar="PORT", default=None,
        help="serve live telemetry on this TCP port while running "
        "(0 picks a free port; connect with `repro watch HOST:PORT`; "
        "implies sequential execution)",
    )
    parser.add_argument(
        "--telemetry-wait", action="store_true",
        help="with --telemetry: hold the first point until a client "
        "command (such as watch) is queued, so the stream starts at "
        "cycle 0",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="record a flight-recorder event journal and write a Chrome "
        "trace-event JSON file (load in ui.perfetto.dev or "
        "chrome://tracing); reports and digests are unaffected",
    )
    parser.add_argument("--json", metavar="PATH",
                        help="write the campaign report as JSON")
    parser.add_argument("--csv", metavar="PATH",
                        help="write the campaign result table as CSV")
    parser.add_argument(
        "--timeseries", metavar="PATH",
        help="write sampled probe timeseries (long-form CSV; needs a "
        "[probes] or [[schedule]] sampler in the scenario)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AXI-REALM reproduction: run declarative scenario "
        "campaigns and regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    run_parser = sub.add_parser(
        "run", help="run a scenario/campaign file and print the result table"
    )
    _add_campaign_options(run_parser, resumable=True)
    run_parser.add_argument(
        "--resume", metavar="CKPT", default=None,
        help="resume a checkpoint file written by --checkpoint-every "
        "(the checkpoint embeds its campaign point, so a scenario file, "
        "--set and --smoke are refused)",
    )
    sweep_parser = sub.add_parser(
        "sweep",
        help="sweep ad-hoc axes over a scenario file "
        "(--axis FIELD=V1,V2,... replaces the file's campaign)",
    )
    _add_campaign_options(sweep_parser)
    sweep_parser.add_argument(
        "--axis", action="append", metavar="FIELD=V1,V2,...", required=True,
        help="cartesian sweep axis (repeat for a grid)",
    )
    watch_parser = sub.add_parser(
        "watch",
        help="connect to a running `run --telemetry` simulation: stream "
        "live probe frames, pause/inspect/reconfigure, checkpoint",
    )
    watch_parser.add_argument(
        "target", metavar="HOST:PORT",
        help="telemetry server address (bare PORT means localhost)",
    )
    watch_parser.add_argument(
        "--once", action="store_true",
        help="print the first frame as JSON and exit (smoke checks)",
    )
    watch_parser.add_argument(
        "--frames", type=int, metavar="N", default=None,
        help="stop after N frames (default: until the point ends)",
    )
    watch_parser.add_argument(
        "--raw", action="store_true",
        help="plain per-frame lines instead of the redrawing gauge panel",
    )
    watch_parser.add_argument(
        "--sample", action="append", metavar="PATTERN", default=None,
        help="watch these probe patterns instead of the point's [probes] "
        "stream (repeatable; needs --every)",
    )
    watch_parser.add_argument(
        "--every", type=int, metavar="N", default=None,
        help="sampling period for --sample subscriptions",
    )
    watch_parser.add_argument(
        "--start", type=int, metavar="CYCLE", default=None,
        help="first sample cycle for --sample (default: --every)",
    )
    watch_parser.add_argument(
        "--label", default=None,
        help="label for a --sample subscription (default: watch)",
    )
    watch_parser.add_argument(
        "--csv", metavar="PATH", default=None,
        help="append frames to a long-form CSV (label,rule,cycle,probe,"
        "value — the write_timeseries_csv layout)",
    )
    watch_parser.add_argument(
        "--jsonl", metavar="PATH", default=None,
        help="append frame payloads as JSON lines ({\"cycle\",\"values\"})",
    )
    watch_parser.add_argument(
        "--pause-at", type=int, metavar="CYCLE", default=None,
        help="pause at this cycle's commit boundary before streaming "
        "(equivalent to a schedule.at(CYCLE) rule's instant)",
    )
    watch_parser.add_argument(
        "--set", dest="knob", action="append", metavar="PATH=VALUE",
        default=None,
        help="write a knob while paused (repeatable; implies a pause at "
        "the next boundary unless --pause-at is given)",
    )
    watch_parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="write a server-side checkpoint while paused (resumable "
        "with `repro run --resume PATH`)",
    )
    watch_parser.add_argument(
        "--retry", type=int, metavar="N", default=10,
        help="connection/subscription retries, 0.2-0.3s apart "
        "(default 10: rides out the run's startup)",
    )
    watch_parser.add_argument(
        "--timeout", type=float, metavar="SECONDS", default=30.0,
        help="socket receive timeout (default 30s)",
    )
    plan_parser = sub.add_parser(
        "plan",
        help="print a campaign's fork tree — snapshot nodes, scratch "
        "groups, predicted cycles saved under `run --fork` — without "
        "running anything",
    )
    plan_parser.add_argument("file", help="scenario file (.toml or .json)")
    plan_parser.add_argument(
        "--smoke", action="store_true",
        help="plan the scenario's [smoke] scale instead of full scale",
    )
    plan_parser.add_argument(
        "--set", action="append", metavar="FIELD=VALUE",
        help="override a scenario field (dotted path), repeatable",
    )
    for command, what in (("probes", "probes"), ("knobs", "knobs")):
        list_parser = sub.add_parser(
            command,
            help=f"list the control-plane {what} a scenario's system "
            "publishes (paths, types, current values)",
        )
        list_parser.add_argument("file",
                                 help="scenario file (.toml or .json)")
        list_parser.add_argument(
            "--set", action="append", metavar="FIELD=VALUE",
            help="override a scenario field (dotted path), repeatable",
        )
        list_parser.add_argument(
            "--json", action="store_true",
            help="print the inventory as versioned JSON on stdout "
            "(same reporter conventions as `repro lint --json`)",
        )
    sub.add_parser("table1", help="SoC area decomposition (Table I)")
    sub.add_parser("table2", help="area-model coefficients (Table II)")
    lint_parser = sub.add_parser(
        "lint",
        help="AST determinism & state-contract checks (DESIGN.md §13); "
        "exit 1 on any finding",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint_parser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main, parse_cli_value
from repro.telemetry import TelemetryClient, parse_target

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

TINY_SCENARIO = """
[scenario]
name = "tiny"
seed = 3

[run]
until = ["core"]
max_cycles = 50_000

[topology]
[[topology.managers]]
name = "core"

[[topology.memories]]
name = "mem"
kind = "sram"
base = 0x0
size = 0x1_0000

[traffic.core]
kind = "core"
pattern = "sequential"
n_accesses = 8

[campaign]
baseline = "base"
[[campaign.points]]
label = "base"
[[campaign.points]]
label = "gapped"
[campaign.points.set]
"traffic.core.gap" = 4

[smoke.set]
"traffic.core.n_accesses" = 2
"""


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "CVA6" in out
    assert "overhead" in out


def test_table2_command(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Burst Splitter" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["nope"])


# ----------------------------------------------------------------------
# no subcommand: help + exit status 2 (not a traceback)
# ----------------------------------------------------------------------
def test_no_subcommand_prints_help_and_returns_2(capsys):
    assert main([]) == 2
    out = capsys.readouterr().out
    assert "usage: repro" in out
    assert "run" in out and "table1" in out


def test_module_invocation_without_subcommand_exits_2():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro"], capture_output=True, text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert "usage: repro" in proc.stdout
    assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------------
# scenario subcommands
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.toml"
    path.write_text(TINY_SCENARIO)
    return path


def test_run_command_prints_table_and_writes_reports(
    tiny_scenario, tmp_path, capsys
):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    assert main(["run", str(tiny_scenario), "--json", str(json_path),
                 "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "base" in out and "gapped" in out
    report = json.loads(json_path.read_text())
    assert report["scenario"] == "tiny"
    assert [p["label"] for p in report["points"]] == ["base", "gapped"]
    assert report["points"][0]["perf_percent"] == 100.0
    assert csv_path.read_text().startswith("label,")


def test_run_command_smoke_applies_overrides(tiny_scenario, tmp_path):
    json_path = tmp_path / "report.json"
    assert main(["run", str(tiny_scenario), "--smoke",
                 "--json", str(json_path)]) == 0
    report = json.loads(json_path.read_text())
    latency = report["points"][0]["latency"]
    assert latency["count"] == 2  # smoke trims the trace to 2 accesses


def test_run_command_set_overrides(tiny_scenario, tmp_path):
    json_path = tmp_path / "report.json"
    assert main(["run", str(tiny_scenario),
                 "--set", "traffic.core.n_accesses=3",
                 "--json", str(json_path)]) == 0
    report = json.loads(json_path.read_text())
    assert report["points"][0]["latency"]["count"] == 3


def test_run_command_scenario_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("[scenario]\nname = 'x'\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "scenario error" in err


def test_run_command_missing_file_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.toml")]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_sweep_command_replaces_campaign(tiny_scenario, tmp_path, capsys):
    json_path = tmp_path / "report.json"
    assert main(["sweep", str(tiny_scenario),
                 "--axis", "traffic.core.gap=0,6",
                 "--json", str(json_path)]) == 0
    report = json.loads(json_path.read_text())
    assert [p["label"] for p in report["points"]] == ["gap=0", "gap=6"]
    # The ad-hoc sweep dropped the file's explicit points.
    out = capsys.readouterr().out
    assert "gapped" not in out


def test_sweep_command_empty_axis_values_errors(tiny_scenario, capsys):
    assert main(["sweep", str(tiny_scenario),
                 "--axis", "traffic.core.gap="]) == 1
    assert "at least one value" in capsys.readouterr().err


def test_run_command_watchdog_timeout_exits_1(tiny_scenario, capsys):
    assert main(["run", str(tiny_scenario),
                 "--set", "run.max_cycles=2"]) == 1
    err = capsys.readouterr().err
    assert "scenario error" in err
    assert "timeout after 2 cycles" in err
    assert "Traceback" not in err


def test_chunked_run_timeout_reports_the_run_deadline(
    tiny_scenario, tmp_path, capsys
):
    # The last checkpoint chunk ends at run.max_cycles; the timeout
    # names the run's deadline, not the chunk's length.
    assert main(["run", str(tiny_scenario),
                 "--set", "run.max_cycles=5",
                 "--checkpoint-every", "3",
                 "--checkpoint-dir", str(tmp_path / "ckpt")]) == 1
    err = capsys.readouterr().err
    assert "timeout after 5 cycles" in err
    assert "Traceback" not in err


def test_sweep_command_bad_axis_value_errors(tiny_scenario, capsys):
    assert main(["sweep", str(tiny_scenario),
                 "--axis", "traffic.core.gap=zzz,1"]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_parse_cli_value_types():
    assert parse_cli_value("256") == 256
    assert parse_cli_value("0x40") == 64
    assert parse_cli_value("2_000") == 2000
    assert parse_cli_value("1.5") == 1.5
    assert parse_cli_value("true") is True
    assert parse_cli_value("False") is False
    assert parse_cli_value("unlimited") == "unlimited"


# ----------------------------------------------------------------------
# control-plane subcommands
# ----------------------------------------------------------------------
PROTECTED_SCENARIO = TINY_SCENARIO.replace(
    'name = "core"',
    'name = "core"\nprotect = true\ngranularity = 8',
)


@pytest.fixture
def protected_scenario(tmp_path):
    path = tmp_path / "protected.toml"
    path.write_text(PROTECTED_SCENARIO)
    return path


def test_probes_command_lists_paths(protected_scenario, capsys):
    assert main(["probes", str(protected_scenario)]) == 0
    out = capsys.readouterr().out
    assert "probes" in out
    assert "port.core.ar.sent" in out
    assert "realm.core.region0.budget_remaining" in out
    assert "traffic.core.progress" in out


def test_knobs_command_lists_paths_and_values(protected_scenario, capsys):
    assert main(["knobs", str(protected_scenario)]) == 0
    out = capsys.readouterr().out
    assert "realm.core.region0.budget_bytes" in out
    assert "realm.core.granularity" in out
    assert "[intrusive]" in out
    assert "8" in out  # the declared granularity reads back


def test_probes_command_scenario_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("[scenario]\nname = 'x'\n")
    assert main(["probes", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "scenario error" in err and "Traceback" not in err


def test_run_command_writes_timeseries_csv(protected_scenario, tmp_path):
    spec = protected_scenario.read_text() + """
[probes]
every = 50
sample = ["realm.core.region0.total_bytes"]
"""
    path = tmp_path / "sampled.toml"
    path.write_text(spec)
    ts_path = tmp_path / "ts.csv"
    assert main(["run", str(path), "--timeseries", str(ts_path)]) == 0
    lines = ts_path.read_text().splitlines()
    assert lines[0] == "label,rule,cycle,probe,value"
    assert any("realm.core.region0.total_bytes" in line
               for line in lines[1:])


# ----------------------------------------------------------------------
# checkpoint / resume / fork flags
# ----------------------------------------------------------------------
def test_run_checkpoint_every_and_resume_round_trip(
    tiny_scenario, tmp_path, capsys
):
    ckpt_dir = tmp_path / "cks"
    ref_json = tmp_path / "ref.json"
    assert main(["run", str(tiny_scenario), "--json", str(ref_json),
                 "--set", "traffic.core.gap=40"]) == 0
    assert main(["run", str(tiny_scenario), "--checkpoint-every", "100",
                 "--checkpoint-dir", str(ckpt_dir),
                 "--set", "traffic.core.gap=40"]) == 0
    capsys.readouterr()
    files = sorted(ckpt_dir.glob("tiny-base-*.ckpt"))
    assert files, "no checkpoint files written"
    resumed_json = tmp_path / "resumed.json"
    assert main(["run", "--resume", str(files[0]),
                 "--json", str(resumed_json)]) == 0
    out = capsys.readouterr().out
    assert "resumed tiny[base]" in out
    reference = json.loads(ref_json.read_text())
    resumed = json.loads(resumed_json.read_text())
    base = next(p for p in reference["points"] if p["label"] == "base")
    assert resumed["points"][0]["observables"] == base["observables"]


_GOOD_CKPT = (Path(__file__).resolve().parent / "checkpoints"
              / "stream-steady-budget_8k-c2000.ckpt")


def _ckpt_garbage(path: Path) -> None:
    path.write_bytes(b"nope")


def _ckpt_truncated(path: Path) -> None:
    blob = _GOOD_CKPT.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])


def _ckpt_format_skewed(path: Path) -> None:
    from repro.snapshot.store import MAGIC

    blob = _GOOD_CKPT.read_bytes()
    path.write_bytes(MAGIC + (1).to_bytes(4, "big") + blob[len(MAGIC) + 4:])


def _ckpt_rewritten(edit):
    def write(path: Path) -> None:
        from repro.snapshot import load_checkpoint, save_checkpoint

        meta, state = load_checkpoint(_GOOD_CKPT)
        edit(meta)
        save_checkpoint(path, state, meta=meta)

    return write


def _bad_spec(meta: dict) -> None:
    meta["spec"]["topology"]["managers"][0]["bogus"] = 1


def _no_spec(meta: dict) -> None:
    del meta["spec"]


@pytest.mark.parametrize("write, message", [
    (_ckpt_garbage, "not a repro checkpoint file"),
    (_ckpt_truncated, "corrupt checkpoint payload"),
    (_ckpt_format_skewed, "checkpoint format 1 is not the supported format"),
    (_ckpt_rewritten(_bad_spec), "topology.managers[0]: unknown field"),
    (_ckpt_rewritten(_no_spec), "checkpoint metadata holds no scenario spec"),
], ids=["garbage", "truncated", "format-skewed", "bad-spec", "no-spec"])
def test_run_resume_rejects_garbage(write, message, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    write(bad)
    assert main(["run", "--resume", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "repro: resume error:" in err
    assert message in err


@pytest.mark.parametrize("extra, named", [
    (["--set", "run.horizon=2500"], "--set"),
    (["--smoke"], "--smoke"),
    ([str(SRC_DIR.parent / "scenarios" / "stream_steady.toml")],
     "a scenario file"),
], ids=["set", "smoke", "file"])
def test_run_resume_rejects_inputs_the_checkpoint_fixes(
    extra, named, capsys
):
    # The checkpoint embeds its point's spec: a second spec source used to
    # be dropped silently and the run went on to the checkpoint's horizon.
    ckpt = (Path(__file__).resolve().parent / "checkpoints"
            / "stream-steady-budget_8k-c2000.ckpt")
    assert main(["run", "--resume", str(ckpt), *extra]) == 2
    captured = capsys.readouterr()
    assert f"{named} cannot be given with --resume" in captured.err
    assert captured.out == ""


def test_run_without_file_or_resume_exits_2(capsys):
    assert main(["run"]) == 2
    assert "scenario file or --resume" in capsys.readouterr().err


def test_run_fork_flag_falls_back_cleanly(tiny_scenario, capsys):
    assert main(["run", str(tiny_scenario), "--fork"]) == 0
    out = capsys.readouterr().out
    assert "base" in out and "gapped" in out
    # No provable shared prefix here: no fork-point banner printed.
    assert "fork-point execution" not in out


def test_run_profile_prints_tick_time_table(tiny_scenario, capsys):
    assert main(["run", str(tiny_scenario), "--profile"]) == 0
    out = capsys.readouterr().out
    assert "# tick-time profile" in out
    header = out.index("# tick-time profile")
    table = out[header:].splitlines()
    assert table[1].split() == ["component", "share", "seconds", "ticks"]
    assert len(table) > 2 and table[2].split()[1].endswith("%")


# ----------------------------------------------------------------------
# live telemetry
# ----------------------------------------------------------------------
TELEMETRY_SCENARIO = """
[scenario]
name = "live"
seed = 7

[run]
horizon = 20_000

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

[probes]
every = 200
sample = ["traffic.hog.bytes_stolen"]
"""


def test_run_telemetry_without_clients_is_invisible(tmp_path, capsys):
    """--telemetry 0 with nobody watching: the run completes normally
    and the report is byte-identical to an unserved run."""
    path = tmp_path / "live.toml"
    path.write_text(TELEMETRY_SCENARIO)
    served = tmp_path / "served.json"
    plain = tmp_path / "plain.json"
    assert main(["run", str(path), "--telemetry", "0",
                 "--json", str(served)]) == 0
    out = capsys.readouterr().out
    assert "telemetry: listening on 127.0.0.1:" in out
    assert main(["run", str(path), "--json", str(plain)]) == 0
    assert served.read_text() == plain.read_text()


def test_watch_bad_target_exits_1(capsys):
    assert main(["watch", "no-port-here"]) == 1
    assert "watch error" in capsys.readouterr().err


def test_watch_connection_refused_exits_1(capsys):
    # Port 1 on localhost is never listening; --retry 0 fails fast.
    assert main(["watch", "127.0.0.1:1", "--retry", "0"]) == 1
    assert "watch error" in capsys.readouterr().err


def test_run_telemetry_watch_once_end_to_end(tmp_path):
    """The CI smoke flow: `run --telemetry --telemetry-wait` in one
    process, `watch --once` in another, one valid frame on stdout."""
    path = tmp_path / "live.toml"
    path.write_text(TELEMETRY_SCENARIO)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    run_proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "run", str(path),
         "--telemetry", "0", "--telemetry-wait"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        # The bound port is announced before the run starts (and the
        # run then holds its first point on --telemetry-wait until the
        # watcher's command is queued).
        line = run_proc.stdout.readline()
        assert "telemetry: listening on" in line, line
        target = line.rsplit(" ", 1)[-1].strip()
        watch_proc = subprocess.run(
            [sys.executable, "-m", "repro", "watch", target,
             "--once", "--retry", "50"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert watch_proc.returncode == 0, watch_proc.stderr
        frame = json.loads(watch_proc.stdout)
        assert frame["type"] == "frame"
        assert frame["point"] == "live"
        assert frame["cycle"] % 200 == 0
        assert "traffic.hog.bytes_stolen" in frame["values"]
        out, err = run_proc.communicate(timeout=120)
        assert run_proc.returncode == 0, err
        assert "live" in out  # the campaign table still prints
    finally:
        if run_proc.poll() is None:
            run_proc.kill()
            run_proc.communicate()


def test_telemetry_wait_holds_the_first_point_for_a_command(
    tmp_path, capsys
):
    """`--telemetry-wait` holds the first point until a client command
    is queued: a client that connects, idles for longer than the whole
    point takes, and only then sends `watch` still gets a frame."""
    path = tmp_path / "live.toml"
    path.write_text(TELEMETRY_SCENARIO)
    status = []
    run = threading.Thread(
        target=lambda: status.append(main(
            ["run", str(path), "--set", "run.horizon=2000",
             "--telemetry", "0", "--telemetry-wait"])),
        daemon=True,
    )
    run.start()
    try:
        out = ""
        deadline = time.monotonic() + 30
        while "listening on" not in out:
            assert time.monotonic() < deadline, "no telemetry port announced"
            out += capsys.readouterr().out
            time.sleep(0.01)
        host, port = parse_target(out.split("listening on ")[1].split()[0])
        with TelemetryClient(host, port) as client:
            if not client.hello["live"]:
                # Connected before the point attached: its broadcast
                # says it has (held, under --telemetry-wait).
                assert next(client.events())["type"] == "point"
            # Let the run end its point first if anything lets it start.
            run.join(timeout=0.5)
            client.watch()
            frame = next(client.frames(1))
        assert frame["point"] == "live" and frame["cycle"] == 200
    finally:
        run.join(timeout=60)
    assert status == [0]

"""The benchmark regression judge (``benchmarks/check_regression.py``).

CI runs the judge on the datapoint histories the benchmark scripts
append to; these tests pin its rule on the tracked histories and on
small synthetic ones.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_regression", ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)
judge = check_regression.judge


def _history(name: str, length: int) -> list[dict]:
    # The histories are append-only: the first entries stay as judged here.
    return json.loads((ROOT / name).read_text(encoding="utf-8"))[:length]


def _datapath(**speedups: float) -> dict:
    return {
        "scenarios": {name: {"speedup": value}
                      for name, value in speedups.items()},
        "best_speedup": max(speedups.values()),
    }


GOOD = {"fig6a": 1.1, "noc_hog": 4.0, "stream_steady": 6.0}


def _ratios(result: dict) -> dict[str, tuple]:
    return {
        name: (record.get("baseline_speedup"), record.get("fresh_speedup"),
               record.get("drop_percent"))
        for name, record in result["speedups"].items()
    }


def test_tracked_datapath_history_passes_with_its_ratios():
    result = judge(_history("BENCH_datapath.json", 10))
    assert result["status"] == "PASS"
    assert _ratios(result) == {
        "best_speedup": (5.619, 6.039, -7.47),
        "fig6a": (1.209, 1.108, 8.35),
        "noc_hog": (4.495, 4.686, -4.25),
        "stream_steady": (5.619, 6.039, -7.47),
    }


def test_tracked_snapshot_history_passes_with_its_ratios():
    result = judge(_history("BENCH_snapshot.json", 9))
    assert result["status"] == "PASS"
    assert _ratios(result) == {
        "flat": (1.54, 1.43, 7.14),
        "grouped": (2.203, 2.338, -6.13),
    }


@pytest.mark.parametrize("drop, status", [(0.16, "FAIL"), (0.14, "PASS")])
def test_drift_limit_is_fifteen_percent(drop, status):
    fresh = dict(GOOD, stream_steady=GOOD["stream_steady"] * (1 - drop))
    assert judge([_datapath(**GOOD), _datapath(**fresh)])["status"] == status
    flat = [{"speedup": 2.0}, {"sweep": "flat", "speedup": 2.0 * (1 - drop)}]
    assert judge(flat)["status"] == status


@pytest.mark.parametrize("kind, name, floor", [
    ("datapath", "stream_steady", 2.5),
    ("datapath", "fig6a", 0.95),
    ("datapath", "noc_hog", 2.0),
    ("datapath", "best_speedup", 2.0),
    ("flat", "flat", 1.15),
    ("grouped", "grouped", 2.0),
])
def test_each_floor_fails_just_below_its_value(kind, name, floor):
    def entry(value):
        if kind != "datapath":
            return {"sweep": kind, "speedup": value}
        fresh = _datapath(**GOOD)
        if name == "best_speedup":
            fresh["best_speedup"] = value
        else:
            fresh["scenarios"][name]["speedup"] = value
        return fresh

    assert judge([entry(floor)])["status"] == "PASS"
    below = judge([entry(floor - 0.01)])
    assert below["status"] == "FAIL"
    assert below["speedups"][name]["floor"] == floor


def test_scenario_missing_from_the_fresh_entry_fails():
    fresh = _datapath(fig6a=1.1, stream_steady=6.0)
    result = judge([_datapath(**GOOD), _datapath(**GOOD)], [fresh])
    assert result["status"] == "PASS"
    result = judge([fresh], [_datapath(**GOOD)])
    assert result["status"] == "FAIL"
    assert result["speedups"]["noc_hog"] == {"missing": True}


def test_untagged_fork_entries_count_as_flat():
    history = [{"speedup": 1.5}, {"sweep": "grouped", "speedup": 2.2},
               {"sweep": "flat", "speedup": 1.4}]
    result = judge(history)
    assert result["speedups"]["flat"]["baseline_speedup"] == 1.5
    assert "baseline_speedup" not in result["speedups"]["grouped"]
    assert judge([{"speedup": 1.0}])["status"] == "FAIL"  # flat floor


def test_kind_without_baseline_checks_only_its_floor(capsys):
    result = judge([{"sweep": "grouped", "speedup": 2.1}])
    assert result["status"] == "PASS"
    assert result["speedups"]["grouped"] == {"fresh_speedup": 2.1,
                                             "floor": 2.0}
    assert "drift check skipped" in capsys.readouterr().out
    assert judge([{"sweep": "grouped", "speedup": 1.9}])["status"] == "FAIL"


def test_cli_compares_fresh_against_a_baseline_file(tmp_path, capsys):
    baseline, fresh = tmp_path / "base.json", tmp_path / "fresh.json"
    baseline.write_text(json.dumps([{"sweep": "flat", "speedup": 2.0}]))
    fresh.write_text(json.dumps([{"sweep": "flat", "speedup": 1.5}]))
    assert check_regression.main(["judge", str(fresh)]) == 0
    assert check_regression.main(["judge", str(fresh), str(baseline)]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last.removeprefix("RESULT "))["status"] == "FAIL"

"""The lint framework: rules, suppressions, CLI, and the CI gate.

Four layers of coverage:

* golden finding lists for every ``*_bad.py`` fixture (each shipped
  rule has a failing fixture proving it fires);
* clean and suppressed fixtures lint to zero findings;
* the tier-1 meta-test: ``repro lint src/repro`` reports zero findings
  (the CI gate, run in-process);
* the mutation acceptance test: deleting any one ``_STATE_FIELDS`` name
  or ``state_capture`` key from ``RealmUnit`` makes snapshot-coverage
  fail.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.control.paths import check_dotted_path, validate_path
from repro.lint import all_rules, lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.rules import RULE_CLASSES, rule_ids
from repro.lint.rules.phase import PhaseDisciplineRule
from repro.lint.rules.snapshot import SnapshotCoverageRule

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "lint_fixtures"
SRC = REPO / "src" / "repro"


def lint_fixture(name: str):
    return lint_paths([str(FIXTURES / name)], all_rules())


# ----------------------------------------------------------------------
# golden finding lists: every rule fires on its bad fixture
# ----------------------------------------------------------------------
GOLDEN = {
    "snapshot_bad.py": [
        ("snapshot-coverage", 7),    # MissingCapture: no state_capture
        ("snapshot-coverage", 23),   # UncoveredAttr.dropped
        ("snapshot-coverage", 41),   # emits 'extra', never consumed
        ("snapshot-coverage", 41),   # consumes 'phantom', never emitted
        ("snapshot-coverage", 56),   # RestoreOnlyAttr.level
        ("snapshot-coverage", 66),   # TableMissesAttr.backlog
        ("snapshot-coverage", 73),   # WrittenOutsideInit.limit
        ("snapshot-coverage", 90),   # InheritsEmptyTable.count
        ("snapshot-coverage", 104),  # KeyTwice emits a table key again
    ],
    "codec_bad.py": [
        ("codec-registration", 17),  # Scratchpad(...) unregistered
    ],
    "nondet_bad.py": [
        ("nondeterminism-sources", 11),  # time.time
        ("nondeterminism-sources", 12),  # datetime.now
        ("nondeterminism-sources", 17),  # os.urandom
        ("nondeterminism-sources", 21),  # random.shuffle (global RNG)
        ("nondeterminism-sources", 22),  # unseeded random.Random()
        ("nondeterminism-sources", 27),  # id()
        ("nondeterminism-sources", 32),  # set-literal iteration
        ("nondeterminism-sources", 34),  # set(...) iteration
        ("bad-suppression", 38),  # a suppression that silences nothing
    ],
    "optional_int_bad.py": [
        ("optional-int-truthiness", 12),  # if probe_value:
        ("optional-int-truthiness", 14),  # execution_cycles or 1
        ("optional-int-truthiness", 15),  # if not probe_value:
        ("optional-int-truthiness", 21),  # first if first else ...
    ],
    "phase_bad.py": [
        ("phase-discipline", 13),  # _queue.append
        ("phase-discipline", 14),  # _pending read
        ("phase-discipline", 15),  # _queue.pop
        ("phase-discipline", 16),  # .regfile poke
    ],
    "obs_bad.py": [
        ("obs-isolation", 11),  # repro.obs import inside state_capture
        ("obs-isolation", 12),  # sim._recorder read
        ("obs-isolation", 16),  # FlightRecorder() constructed
        ("obs-isolation", 21),  # sim._recorder write in state_restore
        ("obs-isolation", 22),  # sim._rec_journal write
    ],
    "probe_path_bad.py": [
        ("probe-path-literal", 5),   # regoin0
        ("probe-path-literal", 6),   # totl_bytes
        ("probe-path-literal", 7),   # port channel 'ax'
        ("probe-path-literal", 8),   # driver field 'complete'
        ("probe-path-literal", 13),  # typo'd glob prefix
    ],
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_bad_fixture_golden_findings(fixture):
    findings = lint_fixture(fixture)
    assert [(f.rule, f.line) for f in findings] == GOLDEN[fixture]


def test_every_shipped_rule_has_a_failing_fixture():
    fired = {rule for findings in map(lint_fixture, GOLDEN)
             for rule in {f.rule for f in findings}}
    assert fired == set(rule_ids()) | {"bad-suppression"}


@pytest.mark.parametrize("fixture", [
    "snapshot_clean.py", "codec_clean.py", "nondet_clean.py",
    "optional_int_clean.py", "phase_clean.py", "probe_path_clean.py",
    "obs_clean.py",
])
def test_clean_fixture_has_no_findings(fixture):
    assert lint_fixture(fixture) == []


@pytest.mark.parametrize("fixture", [
    "snapshot_suppressed.py", "nondet_suppressed.py",
    "optional_int_suppressed.py", "phase_suppressed.py",
    "probe_path_suppressed.py", "obs_suppressed.py",
])
def test_suppressed_fixture_has_no_findings(fixture):
    assert lint_fixture(fixture) == []


# ----------------------------------------------------------------------
# suppression mechanics
# ----------------------------------------------------------------------
def test_suppression_without_reason_is_a_finding():
    findings = lint_source(
        "import time\n"
        "t = time.time()  # repro: lint-ok[nondeterminism-sources]\n",
        all_rules(), subpath="sim/x.py",
    )
    rules = [f.rule for f in findings]
    assert "bad-suppression" in rules
    assert "nondeterminism-sources" in rules  # reasonless: not honored


def test_suppression_only_silences_named_rule():
    findings = lint_source(
        "import time\n"
        "t = time.time()  # repro: lint-ok[phase-discipline] wrong rule\n",
        all_rules(), subpath="sim/x.py",
    )
    # The finding stands, and the misnamed suppression silenced nothing.
    assert [f.rule for f in findings] == [
        "nondeterminism-sources", "bad-suppression",
    ]


def test_comment_line_suppression_covers_next_code_line():
    findings = lint_source(
        "import time\n"
        "# repro: lint-ok[nondeterminism-sources] bench-only module\n"
        "t = time.time()\n",
        all_rules(), subpath="sim/x.py",
    )
    assert findings == []


def test_suppression_that_silences_nothing_is_a_finding():
    source = (
        "import time\n"
        "t = 1  # repro: lint-ok[nondeterminism-sources] nothing to silence\n"
        "# repro: lint-ok[nondeterminism-sources,phase-discipline] half used\n"
        "u = time.time()\n"
    )
    findings = lint_source(source, all_rules(), subpath="sim/x.py")
    assert [(f.rule, f.line) for f in findings] == [("bad-suppression", 2)]
    # Only a suppression whose rules all ran is judged: under a rule
    # filter, one naming other rules is not reported.
    assert lint_source(source, [PhaseDisciplineRule()],
                       subpath="sim/x.py") == []
    assert lint_main(["--rule", "probe-path-literal",
                      str(FIXTURES / "nondet_bad.py")]) == 0


def test_unknown_directive_is_a_finding():
    findings = lint_source(
        "x = 1  # repro: lint-allow[foo] not a directive we have\n",
        all_rules(), subpath="sim/x.py",
    )
    assert [f.rule for f in findings] == ["bad-suppression"]


# ----------------------------------------------------------------------
# the CI gate, in-process
# ----------------------------------------------------------------------
def test_repro_src_lints_clean():
    assert lint_paths([str(SRC)], all_rules()) == []


# ----------------------------------------------------------------------
# mutation acceptance: every RealmUnit snapshot field is load-bearing
# ----------------------------------------------------------------------
def _realm_unit_snapshot_entries():
    """``RealmUnit``'s ``_STATE_FIELDS`` names, the keys of the dict its
    ``state_capture`` returns, and ``(key, deleted, mutated source)``
    for each: a table name deleted from the table, or a dict entry
    deleted from the dict."""
    source = (SRC / "realm" / "unit.py").read_text(encoding="utf-8")
    lines = source.splitlines(keepends=True)
    tree = ast.parse(source)
    unit = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "RealmUnit"
    )
    table = next(
        stmt.value for stmt in unit.body
        if isinstance(stmt, ast.Assign)
        and [t.id for t in stmt.targets] == ["_STATE_FIELDS"]
    )
    capture = next(
        stmt for stmt in unit.body
        if isinstance(stmt, ast.FunctionDef)
        and stmt.name == "state_capture"
    )
    returned = next(
        node.value for node in ast.walk(capture)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)
    )
    entries = []
    for name in table.elts:
        line = lines[name.lineno - 1]
        rest = line[name.end_col_offset:].removeprefix(",").lstrip(" ")
        mutated = lines[:name.lineno - 1] + [line[:name.col_offset] + rest]
        entries.append((name.value.lstrip("_"), name.value,
                        "".join(mutated + lines[name.lineno:])))
    for key, value in zip(returned.keys, returned.values):
        if key is None:  # **super().state_capture(): the table above
            continue
        entries.append((key.value, key.value, "".join(
            lines[:key.lineno - 1] + lines[value.end_lineno:]
        )))
    keys = [key.value for key in returned.keys if key is not None]
    return [name.value for name in table.elts], keys, entries


_TABLE, _KEYS, _ENTRIES = _realm_unit_snapshot_entries()


@pytest.mark.parametrize("key,deleted,mutated", _ENTRIES,
                         ids=[e[0] for e in _ENTRIES])
def test_deleting_any_realm_unit_capture_key_fails_lint(key, deleted, mutated):
    findings = lint_source(mutated, [SnapshotCoverageRule()],
                           filename="realm/unit.py", subpath="realm/unit.py")
    hits = [f for f in findings
            if f.rule == "snapshot-coverage"
            and (f"RealmUnit.{deleted} " in f.message
                 or repr(deleted) in f.message)]
    assert hits, f"deleting {deleted!r} went undetected"


def test_realm_unit_capture_has_expected_shape():
    """The table holds the unit's own fields, the hand-written capture
    its nested and in-place ones, and no key is emitted twice."""
    keys = [name.lstrip("_") for name in _TABLE] + _KEYS
    assert len(keys) == len(set(keys))
    assert "_cycle" in _TABLE and "_pending_reconfig" in _TABLE
    assert "mr" in _KEYS and "config" in _KEYS


# ----------------------------------------------------------------------
# CLI exit codes and JSON report
# ----------------------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys):
    assert lint_main([str(FIXTURES / "snapshot_clean.py")]) == 0
    assert lint_main([str(FIXTURES / "snapshot_bad.py")]) == 1
    capsys.readouterr()
    assert lint_main(["--rule", "no-such-rule",
                      str(FIXTURES / "snapshot_bad.py")]) == 2
    broken = tmp_path / "broken.py"
    broken.write_text("def (:\n")
    assert lint_main([str(broken)]) == 2


def test_cli_rule_filter(capsys):
    code = lint_main(["--rule", "probe-path-literal",
                      str(FIXTURES / "snapshot_bad.py")])
    capsys.readouterr()
    assert code == 0  # snapshot findings filtered out


def test_cli_json_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = lint_main(["--json", str(out),
                      str(FIXTURES / "probe_path_bad.py")])
    capsys.readouterr()
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["files_checked"] == 1
    assert {f["rule"] for f in payload["findings"]} == {"probe-path-literal"}
    assert {r["id"] for r in payload["rules"]} == set(rule_ids())
    finding = payload["findings"][0]
    assert set(finding) == {"rule", "path", "line", "col", "message"}


def test_main_cli_has_lint_subcommand():
    from repro.cli import main as repro_main

    assert repro_main(["lint", str(FIXTURES / "snapshot_clean.py")]) == 0
    assert repro_main(["lint", str(FIXTURES / "snapshot_bad.py")]) == 1


# ----------------------------------------------------------------------
# the shared path grammar (single source of truth)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", [
    "realm.dma.region0.total_bytes",
    "realm.dma.ctrl.regulation",
    "realm.dma.granularity",
    "port.core.ar.sent",
    "xbar.aw_forwarded",
    "xbar.core.qos",
    "noc.r1c0.occupancy",
    "noc.flits",
    "mem.main.row_hits",
    "cache.llc.hits",
    "traffic.dma.enabled",
    "driver.core.completed",
])
def test_grammar_accepts_published_shapes(path):
    assert validate_path(path) is None


@pytest.mark.parametrize("path", [
    "realm.dma.regoin0.total_bytes",
    "realm.dma.region0.totl_bytes",
    "port.core.ax.sent",
    "noc.r1x0.occupancy",
    "driver.core.complete",
    "bogus.root",
    "realm.dma",
    "realm.dma.region0.total_bytes.extra",
])
def test_grammar_rejects_misshapen_paths(path):
    assert validate_path(path) is not None


def test_grammar_patterns_check_literal_prefix():
    assert validate_path("realm.dma.region0.*", pattern=True) is None
    assert validate_path("realm.*", pattern=True) is None
    assert validate_path("realm.dma.regoin0.*", pattern=True) is not None
    assert validate_path("realm.dma.region0.*") is not None  # not a knob


def test_registries_share_the_charset_check():
    from repro.control import knobs, probes

    assert probes.check_dotted_path is check_dotted_path
    assert knobs.check_dotted_path is check_dotted_path
    with pytest.raises(KeyError):
        check_dotted_path("bad..path", KeyError, "probe")


def test_rule_registry_is_well_formed():
    ids = rule_ids()
    assert len(ids) == len(set(ids)) == len(RULE_CLASSES) >= 6
    for rule in all_rules():
        assert rule.id and rule.description

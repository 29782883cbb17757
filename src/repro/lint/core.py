"""Lint driver: module loading, suppressions, and the rule protocol.

A *rule* is a plugin with a stable id, run in two phases: an optional
``prepare(modules)`` pass that sees every module first (used e.g. to
pool ``Optional[int]`` annotations across the package), then a
``check(module)`` pass producing :class:`Finding`s.  The driver parses
each file once, extracts inline suppressions, runs every rule, and
filters suppressed findings.

Suppression grammar (comments)::

    <code>  # repro: lint-ok[rule-id] reason text
    # repro: lint-ok[rule-a,rule-b] reason text     (applies to next code line)

A missing reason or unknown directive is reported as a
``bad-suppression`` finding — suppressions are part of the audited
surface, not an escape hatch.  So is a suppression that silenced no
finding although every rule it names ran: a stale one cannot linger.

Fixture files under ``tests/lint_fixtures/`` opt into package-scoped
rules with a location pragma::

    # repro: lint-treat-as realm/fixture.py
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

__all__ = [
    "Finding", "LintError", "ModuleInfo", "Rule",
    "load_module", "lint_modules", "lint_paths", "lint_source",
]


class LintError(Exception):
    """A file could not be linted (unreadable, syntax error)."""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*lint-ok\[(?P<rules>[^\]]*)\]\s*(?P<reason>.*)$"
)
_TREAT_AS_RE = re.compile(r"#\s*repro:\s*lint-treat-as\s+(?P<subpath>\S+)")
_DIRECTIVE_RE = re.compile(r"#\s*repro:\s*lint-(?!ok\[|treat-as\b)")


@dataclass
class _Suppression:
    row: int             # where the comment is
    col: int
    line: int            # line the suppression covers
    rules: tuple[str, ...]
    reason: str
    used: bool = False


@dataclass
class ModuleInfo:
    """One parsed module plus everything the rules need to know."""

    path: str                       # display path (as given)
    source: str
    tree: ast.Module
    subpath: str                    # path under the repro package root
    suppressions: list[_Suppression] = field(default_factory=list)
    directive_findings: list[Finding] = field(default_factory=list)

    def in_packages(self, *packages: str) -> bool:
        """True when this module lives under any of the given
        top-level repro sub-packages (``"realm"``, ``"sim"``, ...)."""
        head = self.subpath.split("/", 1)[0]
        return head in packages

    def suppressed(self, finding: Finding) -> bool:
        for sup in self.suppressions:
            if sup.line == finding.line and finding.rule in sup.rules:
                sup.used = True
                return True
        return False

    def stale_suppressions(self, ran: set[str]) -> list[Finding]:
        """A ``bad-suppression`` finding for each suppression that
        silenced nothing although every rule it names ran."""
        return [
            Finding(self.path, sup.row, sup.col, "bad-suppression",
                    f"suppression of [{', '.join(sup.rules)}] silences "
                    "no finding")
            for sup in self.suppressions
            if not sup.used and ran.issuperset(sup.rules)
        ]


class Rule:
    """Base class for lint rules (the plugin protocol).

    Subclasses set :attr:`id` / :attr:`description` and implement
    :meth:`check`; :meth:`prepare` is an optional whole-corpus pass run
    before any ``check`` call.
    """

    id: str = ""
    description: str = ""

    def prepare(self, modules: Sequence[ModuleInfo]) -> None:
        """Whole-corpus pass (cross-module state pooling)."""

    def check(self, module: ModuleInfo) -> list[Finding]:
        raise NotImplementedError


def _package_subpath(path: Path) -> str:
    """Path under the ``repro`` package root (``realm/unit.py``), or the
    bare filename when the file is not inside the package (tests,
    fixtures — which may override via ``lint-treat-as``)."""
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return path.name


def _scan_comments(
    display_path: str, source: str
) -> tuple[list[_Suppression], list[Finding], Optional[str]]:
    """Extract suppressions, directive-syntax findings, and the
    ``lint-treat-as`` override from a module's comments."""
    suppressions: list[_Suppression] = []
    findings: list[Finding] = []
    treat_as: Optional[str] = None
    lines = source.splitlines()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions, findings, treat_as
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        text = token.string
        row, col = token.start
        treat = _TREAT_AS_RE.search(text)
        if treat:
            treat_as = treat.group("subpath")
            continue
        match = _SUPPRESS_RE.search(text)
        if match:
            rules = tuple(
                r.strip() for r in match.group("rules").split(",") if r.strip()
            )
            reason = match.group("reason").strip()
            if not rules:
                findings.append(Finding(
                    display_path, row, col, "bad-suppression",
                    "suppression names no rule ids",
                ))
                continue
            if not reason:
                findings.append(Finding(
                    display_path, row, col, "bad-suppression",
                    f"suppression of [{', '.join(rules)}] gives no reason",
                ))
                continue
            # A comment-only line covers the next line with code on it.
            covered = row
            if lines[row - 1][:col].strip() == "":
                covered = row + 1
                while covered <= len(lines) and (
                    not lines[covered - 1].strip()
                    or lines[covered - 1].lstrip().startswith("#")
                ):
                    covered += 1
            suppressions.append(
                _Suppression(row, col, covered, rules, reason)
            )
            continue
        if _DIRECTIVE_RE.search(text):
            findings.append(Finding(
                display_path, row, col, "bad-suppression",
                f"unknown lint directive in comment: {text.strip()!r}",
            ))
    return suppressions, findings, treat_as


def load_module(
    path: Path, *, display: Optional[str] = None
) -> ModuleInfo:
    display_path = display if display is not None else str(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"{display_path}: cannot read: {exc}") from exc
    return _module_from_source(source, display_path, _package_subpath(path))


def _module_from_source(
    source: str, display_path: str, subpath: str
) -> ModuleInfo:
    try:
        tree = ast.parse(source, filename=display_path)
    except SyntaxError as exc:
        raise LintError(
            f"{display_path}:{exc.lineno}: syntax error: {exc.msg}"
        ) from exc
    suppressions, findings, treat_as = _scan_comments(display_path, source)
    return ModuleInfo(
        path=display_path,
        source=source,
        tree=tree,
        subpath=treat_as if treat_as is not None else subpath,
        suppressions=suppressions,
        directive_findings=findings,
    )


def iter_python_files(paths: Iterable[str]) -> list[Path]:
    """Expand files/directories into a sorted, deduplicated file list."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise LintError(f"{raw}: not a python file or directory")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


def lint_modules(
    modules: Sequence[ModuleInfo], rules: Sequence[Rule]
) -> list[Finding]:
    """Run *rules* over parsed *modules*; returns unsuppressed findings,
    and the suppressions whose rules all ran but silenced nothing,
    sorted by location."""
    for rule in rules:
        rule.prepare(modules)
    ran = {rule.id for rule in rules}
    findings: list[Finding] = []
    for module in modules:
        findings.extend(module.directive_findings)
        for rule in rules:
            for finding in rule.check(module):
                if not module.suppressed(finding):
                    findings.append(finding)
        findings.extend(module.stale_suppressions(ran))
    return sorted(findings)


def lint_paths(
    paths: Iterable[str], rules: Sequence[Rule]
) -> list[Finding]:
    """Lint files/directories.  Raises :class:`LintError` on unreadable
    or unparsable input."""
    modules = [load_module(path) for path in iter_python_files(paths)]
    return lint_modules(modules, rules)


def lint_source(
    source: str,
    rules: Sequence[Rule],
    *,
    filename: str = "<string>",
    subpath: str = "",
) -> list[Finding]:
    """Lint a source string (test harness entry point — e.g. mutate
    ``realm/unit.py``'s source and prove snapshot-coverage fires)."""
    module = _module_from_source(source, filename, subpath or filename)
    return lint_modules([module], rules)

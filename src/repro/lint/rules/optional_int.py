"""optional-int-truthiness: 0 is a value, None is the absence of one.

The PR 7 report bug class: probe reads, ``execution_cycles``, and
cycle counters are ``Optional[int]`` where **0 is meaningful** — a run
can legitimately finish at cycle 0, a counter can legitimately read 0.
``if x:`` / ``x or default`` silently conflate that 0 with None.  This
rule pools every ``Optional[int]`` annotation it can see (parameters,
variable/attribute annotations, dataclass fields, property returns)
across the whole linted corpus, then flags truthiness tests on them,
requiring an explicit ``is not None``.

Attribute tracking is name-based: once any class annotates
``execution_cycles: Optional[int]``, *every* ``<expr>.execution_cycles``
truthiness test anywhere is flagged — deliberately aggressive, because
call sites are exactly where the PR 7 bug lived.
"""

from __future__ import annotations

import ast
from typing import Optional, Sequence

from repro.lint.core import Finding, ModuleInfo, Rule


def _is_optional_int(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value,
                                                           str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return False
    # Optional[int] / typing.Optional[int]
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else ""
        )
        if name == "Optional":
            return _names_int(annotation.slice)
        if name == "Union":
            elts = (annotation.slice.elts
                    if isinstance(annotation.slice, ast.Tuple) else [])
            return _union_of_int_none(elts)
    # int | None / None | int
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op,
                                                        ast.BitOr):
        return _union_of_int_none([annotation.left, annotation.right])
    return False


def _names_int(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "int"


def _is_none_const(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _union_of_int_none(elts: Sequence[ast.expr]) -> bool:
    if len(elts) != 2:
        return False
    return (
        (_names_int(elts[0]) and _is_none_const(elts[1]))
        or (_names_int(elts[1]) and _is_none_const(elts[0]))
    )


class OptionalIntTruthinessRule(Rule):
    id = "optional-int-truthiness"
    description = (
        "truthiness tests on Optional[int] values conflate 0 with None "
        "— use `is not None` (the PR 7 report bug class)"
    )

    def __init__(self) -> None:
        self._optional: set[str] = set()
        self._conflicted: set[str] = set()

    @property
    def _attr_names(self) -> set[str]:
        """Names annotated Optional[int] somewhere and never annotated
        as anything else — a name like ``until`` that is Optional[int]
        on one class but ``tuple[str, ...]`` on another is ambiguous at
        an attribute access, so it is dropped from the pool."""
        return self._optional - self._conflicted

    # ------------------------------------------------------------------
    # phase 1: pool Optional[int] attribute/property names corpus-wide
    # ------------------------------------------------------------------
    def prepare(self, modules: Sequence[ModuleInfo]) -> None:
        for module in modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    self._pool_class(node)

    def _note(self, name: str, annotation: Optional[ast.expr]) -> None:
        if _is_optional_int(annotation):
            self._optional.add(name)
        else:
            self._conflicted.add(name)

    def _pool_class(self, cls: ast.ClassDef) -> None:
        for stmt in cls.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                self._note(stmt.target.id, stmt.annotation)
            elif isinstance(stmt, ast.FunctionDef):
                if stmt.returns is not None and any(
                    isinstance(dec, ast.Name) and dec.id == "property"
                    for dec in stmt.decorator_list
                ):
                    self._note(stmt.name, stmt.returns)
                # self.x: Optional[int] = ... inside any method
                for inner in ast.walk(stmt):
                    if (isinstance(inner, ast.AnnAssign)
                            and isinstance(inner.target, ast.Attribute)
                            and isinstance(inner.target.value, ast.Name)
                            and inner.target.value.id == "self"):
                        self._note(inner.target.attr, inner.annotation)

    # ------------------------------------------------------------------
    # phase 2: flag truthiness contexts
    # ------------------------------------------------------------------
    def check(self, module: ModuleInfo) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(module, node))
        return findings

    def _check_function(
        self, module: ModuleInfo, func: ast.FunctionDef
    ) -> list[Finding]:
        tracked: set[str] = set()
        all_args = (func.args.posonlyargs + func.args.args
                    + func.args.kwonlyargs)
        for arg in all_args:
            if _is_optional_int(arg.annotation):
                tracked.add(arg.arg)
        for node in ast.walk(func):
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)
                    and _is_optional_int(node.annotation)):
                tracked.add(node.target.id)

        findings: list[Finding] = []

        def suspect(node: ast.expr, guarded: set[str]) -> Optional[str]:
            """Name of the Optional[int] value truth-tested here."""
            if isinstance(node, ast.Name):
                if node.id in tracked and node.id not in guarded:
                    return node.id
            elif isinstance(node, ast.Attribute):
                if node.attr in self._attr_names:
                    return ast.unparse(node)
            return None

        def guards_in(test: ast.expr) -> set[str]:
            """Names compared against None inside this same test
            (``x is not None and x`` is deliberate, don't flag it)."""
            out: set[str] = set()
            for node in ast.walk(test):
                if isinstance(node, ast.Compare):
                    for comparator in [node.left, *node.comparators]:
                        if isinstance(comparator, ast.Name):
                            out.add(comparator.id)
            return out

        def flag_test(test: ast.expr, *, nested: bool = False) -> None:
            guarded = guards_in(test) if not nested else set()
            if isinstance(test, ast.BoolOp):
                guarded |= guards_in(test)
                for value in test.values:
                    if isinstance(value, ast.BoolOp):
                        flag_test(value, nested=True)
                        continue
                    name = suspect(value, guarded)
                    if name is not None:
                        emit(value, name)
                return
            if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
                test = test.operand
            name = suspect(test, guarded)
            if name is not None:
                emit(test, name)

        def emit(node: ast.expr, name: str) -> None:
            findings.append(Finding(
                module.path, node.lineno, node.col_offset, self.id,
                f"truthiness test on Optional[int] {name!r} treats 0 "
                f"like None — use `is not None`",
            ))

        for node in ast.walk(func):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not func:
                continue  # nested defs get their own visit
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                flag_test(node.test)
            elif isinstance(node, ast.Assert):
                flag_test(node.test)
            elif isinstance(node, ast.BoolOp):
                # value-context `x or default`: every operand but the
                # last is truth-tested (If/While tests handled above
                # re-walk into the same BoolOp; dedup below).
                guarded = guards_in(node)
                for value in node.values[:-1]:
                    name = suspect(value, guarded)
                    if name is not None:
                        emit(value, name)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    for cond in gen.ifs:
                        flag_test(cond)

        # An If/While whose test is a BoolOp walks the BoolOp twice
        # (once as test, once as bare BoolOp) — deduplicate findings.
        unique = sorted(set(findings))
        return unique

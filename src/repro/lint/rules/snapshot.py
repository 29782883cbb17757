"""snapshot-coverage: every mutable attribute is captured & restored.

DESIGN.md §10's contract, checked statically: a class that ticks,
defines a snapshot hook, declares a ``_STATE_FIELDS`` table or
subclasses ``Stateful``, and that holds mutable state, must capture
it.  A class-level ``_STATE_FIELDS`` tuple is that class's capture
*and* restore of every name it lists (the shared hooks of
:class:`repro.sim.kernel.Stateful` walk it); every other such
attribute must be read inside a hand-written ``state_capture``, whose
dict keys must be exactly the keys ``state_restore`` consumes.  Scoped
to the packages whose instances end up inside a snapshot tree.

What counts as *mutable state* is deliberately shape-based:

* every ``self.X`` assigned or mutated (an item store, ``append``,
  ``pop``, ...) in any method other than ``__init__``;
* ``self.X`` assigned in ``__init__`` to a state-shaped initializer —
  a constant, a container literal/comprehension, or a ``list``/
  ``dict``/``set``/``deque``/... constructor call.  Attributes
  initialized from constructor *parameters* or other objects, and
  never written again, are configuration/wiring, not state.

Deliberate exemptions (e.g. REALM's span-replay counters, which are
execution strategy rather than simulated state) are suppressed at the
``__init__`` assignment site with a reason.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.core import Finding, ModuleInfo, Rule

#: Packages whose classes participate in snapshots (DESIGN.md §10).
SNAPSHOT_PACKAGES = (
    "realm", "sim", "mem", "interconnect", "traffic", "baselines",
    "control", "analysis",
)

_STATE_CONSTRUCTORS = frozenset((
    "list", "dict", "set", "tuple", "frozenset", "bytearray",
    "deque", "OrderedDict", "defaultdict", "Counter",
))
_CONTAINER_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.Tuple,
    ast.ListComp, ast.DictComp, ast.SetComp,
)
_MUTATORS = frozenset((
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "move_to_end", "pop", "popitem", "popleft",
    "remove", "reverse", "rotate", "setdefault", "sort", "update",
))


def _self_attr_target(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _subscripted_attr(node: ast.expr) -> Optional[str]:
    """``X`` of ``self.X``, ``self.X[i]``, ``self.X[i][j]``, ..."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _self_attr_target(node)


def _is_state_shaped(value: ast.expr) -> bool:
    """Does this initializer expression look like mutable state rather
    than configuration/wiring?"""
    if isinstance(value, ast.Constant):
        return True
    if isinstance(value, ast.UnaryOp) and isinstance(value.operand,
                                                    ast.Constant):
        return True
    if isinstance(value, _CONTAINER_LITERALS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        # list(existing_thing) is a wiring copy of configuration;
        # list() / deque() / bytearray(64) is fresh mutable state.
        return name in _STATE_CONSTRUCTORS and all(
            isinstance(arg, ast.Constant) for arg in value.args
        ) and not value.keywords
    return False


def _assigned_attrs(
    func: ast.FunctionDef, *, state_shaped_only: bool
) -> dict[str, int]:
    """``self.X`` written in *func* -> first line: assigned, item-stored,
    deleted from, or mutated through a container method.  With
    *state_shaped_only*, only assignments of a state-shaped initializer
    (or tuple unpacks) count."""
    out: dict[str, int] = {}
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [node.target], node.value
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            targets = [node.func.value]
        for target in targets:
            unpacked = isinstance(target, ast.Tuple)
            for element in target.elts if unpacked else [target]:
                if not state_shaped_only:
                    attr = _subscripted_attr(element)
                elif unpacked or (value is not None
                                  and _is_state_shaped(value)):
                    attr = _self_attr_target(element)
                else:
                    continue
                if attr is not None:
                    out.setdefault(attr, element.lineno)
    return out


def _state_evidence(cls: ast.ClassDef) -> dict[str, int]:
    """The class's mutable-state attributes -> the line a finding about
    each is reported at (its ``__init__`` assignment when it has one,
    where a suppression belongs)."""
    init_lines: dict[str, int] = {}
    evidence: dict[str, int] = {}
    for stmt in cls.body:
        if not isinstance(stmt, ast.FunctionDef):
            continue
        is_init = stmt.name == "__init__"
        if is_init:
            init_lines = _assigned_attrs(stmt, state_shaped_only=False)
        found = _assigned_attrs(stmt, state_shaped_only=is_init)
        for attr, line in found.items():
            evidence.setdefault(attr, line)
    return {
        attr: init_lines.get(attr, line) for attr, line in evidence.items()
    }


def _state_table(cls: ast.ClassDef) -> Optional[list[str]]:
    """The names of a class-level ``_STATE_FIELDS`` tuple of string
    constants; the inherited empty table of a direct ``Stateful``
    subclass that declares none; else None."""
    for stmt in cls.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "_STATE_FIELDS"
               for t in targets) and isinstance(stmt.value, (ast.Tuple,
                                                             ast.List)):
            return [
                elt.value for elt in stmt.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
    for base in cls.bases:
        if getattr(base, "id", getattr(base, "attr", None)) == "Stateful":
            return []
    return None


def _attrs_read(func: ast.FunctionDef) -> set[str]:
    return {
        node.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _is_super_capture(value: ast.expr) -> bool:
    """``super().state_capture()``"""
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "state_capture"
        and isinstance(value.func.value, ast.Call)
        and isinstance(value.func.value.func, ast.Name)
        and value.func.value.func.id == "super"
    )


def _capture_keys(func: ast.FunctionDef) -> Optional[set[str]]:
    """Top-level string keys of the dict literal ``state_capture``
    returns (a ``**super().state_capture()`` entry adds the table's,
    counted separately), or None when the body doesn't return such a
    literal (key symmetry can't be checked statically then)."""
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            keys: set[str] = set()
            for key, value in zip(node.value.keys, node.value.values):
                if key is None and _is_super_capture(value):
                    continue
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    return None
                keys.add(key.value)
            return keys
    return None


def _restore_keys(func: ast.FunctionDef) -> Optional[set[str]]:
    """Keys ``state_restore`` consumes from its state argument via
    ``state["k"]`` / ``state.get("k")``; None when it consumes none but
    passes the argument on whole (e.g. delegated restore)."""
    args = [a.arg for a in func.args.args if a.arg != "self"]
    if not args:
        return None
    state_name = args[0]
    keys: set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == state_name
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.add(node.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == state_name
            and node.func.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.add(node.args[0].value)
    if not keys and any(
        isinstance(node, ast.Name) and node.id == state_name
        for node in ast.walk(func)
    ):
        return None
    return keys


class SnapshotCoverageRule(Rule):
    id = "snapshot-coverage"
    description = (
        "mutable component state must be covered by _STATE_FIELDS or "
        "state_capture and consumed symmetrically by state_restore "
        "(DESIGN.md §10)"
    )

    def check(self, module: ModuleInfo) -> list[Finding]:
        if not module.in_packages(*SNAPSHOT_PACKAGES):
            return []
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef
    ) -> list[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
        }
        tick = methods.get("tick")
        capture = methods.get("state_capture")
        restore = methods.get("state_restore")
        table = _state_table(cls)
        if not (tick or capture or restore or table is not None):
            return []  # not a snapshot participant

        mutable = _state_evidence(cls)
        findings: list[Finding] = []
        path = module.path
        if capture is None and table is None:
            if tick is not None and mutable:
                findings.append(Finding(
                    path, cls.lineno, cls.col_offset, self.id,
                    f"class {cls.name!r} ticks with mutable state "
                    f"({', '.join(sorted(mutable))}) but defines no "
                    f"state_capture",
                ))
            if restore is not None:
                findings.append(Finding(
                    path, restore.lineno, restore.col_offset, self.id,
                    f"class {cls.name!r} defines state_restore without "
                    f"state_capture",
                ))
            return findings
        if capture is not None and restore is None:
            findings.append(Finding(
                path, capture.lineno, capture.col_offset, self.id,
                f"class {cls.name!r} defines state_capture without "
                f"state_restore",
            ))

        captured = set(table or ())
        if capture is not None:
            captured |= _attrs_read(capture)
        for attr in sorted(mutable):
            if attr not in captured and attr.lstrip("_") not in captured:
                findings.append(Finding(
                    path, mutable[attr], 0, self.id,
                    f"{cls.name}.{attr} is mutable state but neither in "
                    f"_STATE_FIELDS nor read in state_capture",
                ))

        table_keys = {name.lstrip("_") for name in table or ()}
        produced = _capture_keys(capture) if capture is not None else set()
        for key in sorted((produced or set()) & table_keys):
            findings.append(Finding(
                path, capture.lineno, capture.col_offset, self.id,
                f"{cls.name}.state_capture emits key {key!r} that "
                f"_STATE_FIELDS already captures",
            ))
        if restore is not None:
            consumed = _restore_keys(restore)
            if produced is not None and consumed is not None:
                produced |= table_keys
                consumed |= table_keys
                for key in sorted(produced - consumed):
                    findings.append(Finding(
                        path, restore.lineno, restore.col_offset, self.id,
                        f"{cls.name}.state_capture emits key {key!r} that "
                        f"state_restore never consumes",
                    ))
                for key in sorted(consumed - produced):
                    findings.append(Finding(
                        path, restore.lineno, restore.col_offset, self.id,
                        f"{cls.name}.state_restore consumes key {key!r} "
                        f"that state_capture never emits",
                    ))
        return findings

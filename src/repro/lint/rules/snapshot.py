"""snapshot-coverage: every mutable attribute is captured & restored.

DESIGN.md §10's contract, checked statically: a class that ticks (or
already defines a snapshot hook) and assigns mutable state must define
``state_capture``, every such attribute must be read inside the
capture body, and the capture dict's keys must be exactly the keys
``state_restore`` consumes.  Scoped to the component packages whose
instances end up inside a snapshot tree.

What counts as *mutable state* is deliberately shape-based:

* every ``self.X`` assigned in ``state_restore`` (restore exists to
  rewind state, so everything it touches is simulated state by
  definition);
* ``self.X`` assigned in ``__init__`` to a state-shaped initializer —
  a constant, a container literal/comprehension, or a ``list``/
  ``dict``/``set``/``deque``/... constructor call.  Attributes
  initialized from constructor *parameters* or other objects are
  configuration/wiring, not state, and are exempt.

Deliberate exemptions (e.g. REALM's span-replay counters, which are
execution strategy rather than simulated state) are suppressed at the
assignment site with a reason.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.core import Finding, ModuleInfo, Rule

#: Packages whose classes participate in snapshots (DESIGN.md §10).
SNAPSHOT_PACKAGES = (
    "realm", "sim", "mem", "interconnect", "traffic", "baselines",
    "control",
)

_STATE_CONSTRUCTORS = frozenset((
    "list", "dict", "set", "tuple", "frozenset", "bytearray",
    "deque", "OrderedDict", "defaultdict", "Counter",
))
_CONTAINER_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.Tuple,
    ast.ListComp, ast.DictComp, ast.SetComp,
)


def _self_attr_target(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


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
    """``self.X`` assignment targets in *func* -> first assignment line."""
    out: dict[str, int] = {}
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
            value = getattr(node, "value", None)
        for target in targets:
            if isinstance(target, ast.Tuple):
                inner = list(target.elts)
            else:
                inner = [target]
            for element in inner:
                attr = _self_attr_target(element)
                if attr is None:
                    continue
                if state_shaped_only and not (
                    isinstance(target, ast.Tuple)
                    or (value is not None and _is_state_shaped(value))
                ):
                    continue
                out.setdefault(attr, element.lineno)
        # mutating calls: self._pending.clear() style
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("clear", "update", "extend", "append")
        ):
            attr = _self_attr_target(node.func.value)
            if attr is not None and not state_shaped_only:
                out.setdefault(attr, node.lineno)
    return out


def _attrs_read(func: ast.FunctionDef) -> set[str]:
    return {
        node.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _name_table_coverage(cls: ast.ClassDef, capture: ast.FunctionDef) -> set[str]:
    """Attr names covered via the getattr-over-a-name-table idiom::

        _STATE_FIELDS = ("a", "b", ...)
        def state_capture(self):
            return {n: getattr(self, n) for n in self._STATE_FIELDS}

    Any class-level tuple/list of string constants that the capture body
    references (as ``self.NAME`` or bare ``NAME``) contributes its
    strings as covered attributes."""
    tables: dict[str, set[str]] = {}
    for stmt in cls.body:
        value = getattr(stmt, "value", None)
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                   else [])
        if not isinstance(value, (ast.Tuple, ast.List)):
            continue
        strings = {
            elt.value for elt in value.elts
            if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        }
        if len(strings) != len(value.elts):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                tables[target.id] = strings
    if not tables:
        return set()
    referenced = _attrs_read(capture) | {
        node.id for node in ast.walk(capture) if isinstance(node, ast.Name)
    }
    out: set[str] = set()
    for name, strings in tables.items():
        if name in referenced:
            out |= strings
    return out


def _capture_keys(func: ast.FunctionDef) -> Optional[set[str]]:
    """Top-level string keys of the dict literal ``state_capture``
    returns, or None when the body doesn't return a plain dict literal
    (key symmetry can't be checked statically then)."""
    for node in ast.walk(func):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
            keys: set[str] = set()
            for key in node.value.keys:
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    return None
                keys.add(key.value)
            return keys
    return None


def _restore_keys(func: ast.FunctionDef) -> Optional[set[str]]:
    """Keys ``state_restore`` consumes from its state argument via
    ``state["k"]`` / ``state.get("k")``; None when the argument is
    passed on whole (e.g. delegated restore)."""
    args = [a.arg for a in func.args.args if a.arg != "self"]
    if not args:
        return None
    state_name = args[0]
    keys: set[str] = set()
    opaque = False
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == state_name
        ):
            if (isinstance(node.slice, ast.Constant)
                    and isinstance(node.slice.value, str)):
                keys.add(node.slice.value)
            else:
                opaque = True
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
        elif (
            isinstance(node, ast.Name)
            and node.id == state_name
            and isinstance(node.ctx, ast.Load)
        ):
            parent_ok = False  # bare use of the whole dict -> opaque
            # (subscripts/get calls above already consumed their Name)
            if not parent_ok:
                opaque = True
    # A bare `state` use always coexists with the Name nodes inside the
    # subscript/get patterns; treat the method as opaque only when it
    # consumed *no* literal keys at all.
    if not keys and opaque:
        return None
    return keys


class SnapshotCoverageRule(Rule):
    id = "snapshot-coverage"
    description = (
        "mutable component state must be covered by state_capture and "
        "consumed symmetrically by state_restore (DESIGN.md §10)"
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
        init = methods.get("__init__")
        tick = methods.get("tick")
        capture = methods.get("state_capture")
        restore = methods.get("state_restore")
        if not (tick or capture or restore):
            return []  # not a snapshot participant

        mutable: dict[str, int] = {}
        if init is not None:
            mutable.update(_assigned_attrs(init, state_shaped_only=True))
        if restore is not None:
            for attr, line in _assigned_attrs(
                restore, state_shaped_only=False
            ).items():
                mutable.setdefault(attr, line)

        findings: list[Finding] = []
        path = module.path
        if capture is None:
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
        if restore is None:
            findings.append(Finding(
                path, capture.lineno, capture.col_offset, self.id,
                f"class {cls.name!r} defines state_capture without "
                f"state_restore",
            ))

        captured = _attrs_read(capture) | _name_table_coverage(cls, capture)
        for attr in sorted(mutable):
            if attr not in captured and attr.lstrip("_") not in captured:
                findings.append(Finding(
                    path, mutable[attr], 0, self.id,
                    f"{cls.name}.{attr} is mutable state but never read "
                    f"in state_capture",
                ))

        if restore is not None:
            produced = _capture_keys(capture)
            consumed = _restore_keys(restore)
            if produced is not None and consumed is not None:
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

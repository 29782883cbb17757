"""Fork planning: provably shared campaign prefixes as a prefix tree.

Campaign points that differ only in *time-anchored* inputs — the values
a ``[[schedule]]`` rule writes when it fires — execute bit-identically
until the first divergent firing: the rules are armed from cycle 0 on
every point, but arming is invisible, and a rule's ``set`` payload
cannot influence the machine before the commit boundary at which it
first runs.  :func:`plan_fork_tree` detects that situation by diffing
the canonical dict form of the expanded points:

* a leaf difference under ``schedule.<i>.set.<knob>`` is tolerated iff
  the rule is otherwise identical across points (same label, trigger,
  bounds, ``when``, ``sample``, and the same set *keys*); it activates
  at the rule's first firing (``at``, or ``start``/``every`` for
  periodic rules — event-triggered rules evaluate from ``start``,
  which is effectively cycle 0, so they never enable a fork);
* any other difference — topology, traffic (including per-point
  derived seeds), run bounds, probes, rule presence/trigger — can
  shape behaviour from cycle 0 and disables sharing *between the
  points it separates*.

The plan is a **prefix tree**: points are partitioned recursively —
first by the divergences that are *not* schedule-settable (those
separate groups that share nothing and each start from scratch), then,
inside every
group, by the earliest-activating settable divergence, which becomes a
snapshot node.  A leaf restores from its *nearest ancestor* snapshot,
so a 2-axis sweep where only one axis is schedule-settable still
yields one snapshot per settable-axis group instead of collapsing to
scratch, and a fully-settable 2-axis sweep yields a two-level tree
(shared root prefix, per-first-axis interior snapshots, leaves).

The tree shape is canonical: it depends only on each divergence's
activation cycle (non-settable divergences partition at depth 0,
settable ones sort deeper by ascending activation), never on the file
order of the sweep axes — see DESIGN.md section 14.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.scenario.sweep import ExpandedPoint


def _collect_diffs(a: Any, b: Any, path: tuple, out: set) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in set(a) | set(b):
            if key not in a or key not in b:
                out.add(path + (key,))
            else:
                _collect_diffs(a[key], b[key], path + (key,), out)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.add(path)
            return
        for index, (va, vb) in enumerate(zip(a, b)):
            _collect_diffs(va, vb, path + (index,), out)
        return
    if a != b:
        out.add(path)


def _rule_first_firing(rule: dict) -> Optional[int]:
    """First commit boundary at which *rule* can act, or None if it
    evaluates from (effectively) cycle 0."""
    if "at" in rule:
        return rule["at"]
    if "every" in rule:
        return rule.get("start", rule["every"])
    # Event-triggered: evaluated at every boundary from `start`.
    start = rule.get("start", 0)
    return start if start > 0 else None


def _schedule_set_activation(
    path: tuple, dicts: Sequence[dict]
) -> Optional[int]:
    """Activation cycle of a ``schedule.<i>.set.*`` divergence, or None
    when the divergence is not fork-tolerant."""
    if len(path) < 4 or path[0] != "schedule" or path[2] != "set":
        return None
    index = path[1]
    rules = []
    for tree in dicts:
        schedule = tree.get("schedule")
        if not isinstance(schedule, list) or index >= len(schedule):
            return None
        rules.append(schedule[index])
    head = rules[0]
    if not head.get("enabled", True):
        return None  # disabled everywhere -> would never diff; be safe
    head_shape = {k: v for k, v in head.items() if k != "set"}
    head_keys = sorted(head.get("set", {}))
    for rule in rules[1:]:
        if {k: v for k, v in rule.items() if k != "set"} != head_shape:
            return None  # trigger/bounds/label differ, not just values
        if sorted(rule.get("set", {})) != head_keys:
            return None  # different knobs written, not just values
    return _rule_first_firing(head)


# ----------------------------------------------------------------------
# fork trees: hierarchical prefix sharing
# ----------------------------------------------------------------------
_MISSING = object()


def _value_at(tree: Any, path: tuple) -> Any:
    """The subtree at a diff *path*, or the ``_MISSING`` sentinel."""
    node = tree
    for segment in path:
        if isinstance(node, dict):
            if segment not in node:
                return _MISSING
            node = node[segment]
        elif isinstance(node, list):
            if not isinstance(segment, int) or segment >= len(node):
                return _MISSING
            node = node[segment]
        else:
            return _MISSING
    return node


def _partition_key(value: Any) -> str:
    """A canonical, hashable key for grouping JSON-plain diff values."""
    if value is _MISSING:
        return "\x00missing"
    return json.dumps(value, sort_keys=True)


def _dotted(path: tuple) -> str:
    return ".".join(str(segment) for segment in path)


def _path_sort_key(path: tuple) -> tuple:
    """Total order over diff paths whose segments mix list indices and
    dict keys (plain ``sorted`` would compare int against str)."""
    return tuple(
        (1, f"{segment:020d}") if isinstance(segment, int)
        else (0, segment)
        for segment in path
    )


@dataclass(frozen=True)
class ForkNode:
    """One node of a fork tree.

    Three shapes:

    * **leaf** (no children): one concrete campaign point, restored
      from its nearest ancestor snapshot (or built from scratch when
      no ancestor holds one) and run to completion;
    * **snapshot node** (``cycle`` set): the points below are
      bit-identical until ``cycle`` — the executor simulates the edge
      from the parent once, snapshots at the commit boundary ``cycle``
      (before the divergent hook fires), and hands the snapshot to
      every child;
    * **structural node** (``cycle`` is None): the points below
      diverge in ways that shape behaviour from the parent's cycle on
      (topology, traffic, seeds, rule triggers...), recorded in
      ``fallback``; children share only whatever an *ancestor*
      snapshot already proved.
    """

    points: tuple[int, ...]  # expansion indices covered, ascending
    cycle: Optional[int] = None
    children: tuple["ForkNode", ...] = ()
    #: dotted diff paths this node partitions its children by
    divergent: tuple[str, ...] = ()
    #: dotted diff paths that refused sharing (structural nodes only)
    fallback: tuple[str, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class ForkTree:
    """The fork-tree plan over one campaign's expanded points."""

    root: ForkNode
    labels: tuple[str, ...] = ()

    def _walk(self, node: Optional[ForkNode] = None):
        node = node or self.root
        yield node
        for child in node.children:
            for descendant in self._walk(child):
                yield descendant

    @property
    def snapshot_nodes(self) -> int:
        return sum(1 for n in self._walk() if n.cycle is not None)

    @property
    def shares_prefix(self) -> bool:
        """Whether executing the tree can save any work at all."""
        return self.snapshot_nodes > 0

    def predicted(self) -> dict[str, int]:
        """Planner-side amortization estimate (the run may stop earlier
        than a snapshot cycle, so the executor reports actuals too).

        ``prefix_cycles`` is simulated once per snapshot node instead
        of once per point below it; ``saved_cycles`` counts the
        per-point simulation work that sharing avoids.
        """
        prefix = saved = 0

        def visit(node: ForkNode, floor: int) -> None:
            nonlocal prefix, saved
            start = floor
            if node.cycle is not None:
                edge = node.cycle - floor
                prefix += edge
                saved += edge * (len(node.points) - 1)
                start = node.cycle
            for child in node.children:
                visit(child, start)

        visit(self.root, 0)
        return {"prefix_cycles": prefix, "saved_cycles": saved}

    def describe(self) -> dict[str, Any]:
        """JSON-plain plan summary (``repro plan``, reports, benches)."""
        nodes = list(self._walk())
        snapshots = [
            {
                "cycle": n.cycle,
                "points": len(n.points),
                "labels": [self.labels[i] for i in n.points]
                if self.labels else list(n.points),
                "divergent": list(n.divergent),
            }
            for n in nodes
            if n.cycle is not None
        ]
        fallbacks = [
            {
                "points": len(n.points),
                "groups": len(n.children),
                "paths": list(n.fallback),
            }
            for n in nodes
            if n.fallback
        ]
        return {
            "points": len(self.root.points),
            "nodes": len(nodes),
            "snapshot_nodes": len(snapshots),
            "snapshots": snapshots,
            "fallbacks": fallbacks,
            **self.predicted(),
        }


def _leaf(index: int) -> ForkNode:
    return ForkNode(points=(index,))


def _partition(
    indices: tuple[int, ...], dicts: Sequence[dict], paths: list[tuple]
) -> list[tuple[int, ...]]:
    """Split *indices* by their value tuple at *paths* (first-seen
    order, so the partition order is expansion order)."""
    parts: dict[tuple, list[int]] = {}
    for index in indices:
        key = tuple(
            _partition_key(_value_at(dicts[index], path))
            for path in sorted(paths, key=_path_sort_key)
        )
        parts.setdefault(key, []).append(index)
    return [tuple(members) for members in parts.values()]


def _build_node(indices: tuple[int, ...], dicts: Sequence[dict]) -> ForkNode:
    if len(indices) == 1:
        return _leaf(indices[0])
    group = [dicts[i] for i in indices]
    diffs: set[tuple] = set()
    for other in group[1:]:
        _collect_diffs(group[0], other, (), diffs)
    if not diffs:
        # Identical specs: no divergence to fork before; each point
        # still restores from whatever an ancestor snapshot proved.
        return ForkNode(
            points=indices, children=tuple(_leaf(i) for i in indices)
        )
    activations: dict[tuple, int] = {}
    refused: list[tuple] = []
    for path in diffs:
        activation = _schedule_set_activation(path, group)
        if activation is None or activation < 1:
            refused.append(path)
        else:
            activations[path] = activation
    if refused:
        # Divergences that shape behaviour from cycle 0 on: split into
        # groups that agree on *all* of them, then retry per group —
        # tolerability only improves on subsets, so the recursion can
        # still prove settable-axis sharing inside each group.
        parts = _partition(indices, dicts, refused)
        dotted = tuple(
            _dotted(p) for p in sorted(refused, key=_path_sort_key)
        )
        return ForkNode(
            points=indices,
            children=tuple(_build_node(part, dicts) for part in parts),
            divergent=dotted,
            fallback=dotted,
        )
    # Every divergence is schedule-settable: snapshot at the earliest
    # activation and split by the divergences that fire there; the
    # rest (strictly later activations) recurse below the snapshot.
    cycle = min(activations.values())
    earliest = [p for p, a in activations.items() if a == cycle]
    parts = _partition(indices, dicts, earliest)
    return ForkNode(
        points=indices,
        cycle=cycle,
        children=tuple(_build_node(part, dicts) for part in parts),
        divergent=tuple(
            _dotted(p) for p in sorted(earliest, key=_path_sort_key)
        ),
    )


def plan_fork_tree(points: Sequence[ExpandedPoint]) -> ForkTree:
    """Build the hierarchical prefix-sharing plan for a campaign.

    Always returns a tree; when nothing is shareable every leaf hangs
    off a structural root and ``shares_prefix`` is False (the executor
    then runs every point from scratch, exactly like ``fork=False``).
    A single-axis schedule-value sweep yields the flat shape: one root
    snapshot node at the rule's first firing with one leaf per point.
    """
    dicts = [point.spec.to_dict() for point in points]
    labels = tuple(point.label for point in points)
    if not points:
        return ForkTree(root=ForkNode(points=()), labels=labels)
    root = _build_node(tuple(range(len(points))), dicts)
    return ForkTree(root=root, labels=labels)

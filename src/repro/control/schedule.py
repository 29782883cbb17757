"""Schedule engine: scripted observation and reconfiguration over time.

Rules fire at *commit boundaries* via the kernel's hook heap
(:meth:`repro.sim.Simulator.call_at`), the instant after a cycle's channel
commits and watchers when all state is final — so a rule observes and
mutates exactly the same machine state on the active-set and the naive
kernel, and scheduled runs stay bit-identical across both (and across the
process-pool campaign fan-out).  Three trigger shapes:

* ``at(cycle)``         — one-shot;
* ``every(period)``     — periodic, optionally phase-shifted (``start``)
  and bounded (``until``);
* ``when="probe OP k"`` — a comparison over a probe, evaluated at the
  rule's cycles; the rule's actions run only while it holds;
* ``on(when=...)``      — *event-triggered*: the comparison is evaluated
  at every commit boundary and the actions fire exactly when it
  crosses from false to true (a rising edge), not while it merely
  holds.  No period to tune: the rule reacts in the same cycle on both
  kernels, because the per-cycle hook also bounds fast-forward jumps.

A rule's actions are knob writes (``set``), probe sampling into a
timeseries (``sample``), and/or an arbitrary callable — the building
blocks of the paper's operator loop (observe demand, reconfigure
budgets) as scripted, reproducible simulation input.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.control.knobs import KnobError, KnobRegistry
from repro.control.probes import ProbeRegistry
from repro.sim.kernel import Simulator, Stateful


class ScheduleError(Exception):
    """Malformed rule, bad trigger expression, or conflicting options."""


_OPS: dict[str, Callable[[int, int], bool]] = {
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
}


@dataclass(frozen=True)
class Comparison:
    """A parsed ``when`` expression: ``<probe path> <op> <integer>``."""

    path: str
    op: str
    value: int

    @classmethod
    def parse(cls, text: str) -> "Comparison":
        stripped = text.strip()
        for token in _OPS:  # two-char operators first (dict order above)
            if token in stripped:
                lhs, _, rhs = stripped.partition(token)
                lhs, rhs = lhs.strip(), rhs.strip()
                if not lhs or not rhs:
                    break
                try:
                    value = int(rhs, 0)
                except ValueError:
                    raise ScheduleError(
                        f"right-hand side of {text!r} must be an integer"
                    ) from None
                return cls(path=lhs, op=token, value=value)
        raise ScheduleError(
            f"cannot parse trigger {text!r}; expected "
            "'<probe path> <op> <integer>' with op one of "
            + ", ".join(_OPS)
        )

    def evaluate(self, probes: ProbeRegistry) -> bool:
        return _OPS[self.op](probes.read(self.path), self.value)

    def __str__(self) -> str:
        return f"{self.path} {self.op} {self.value}"


@dataclass
class Rule:
    """One installed schedule rule (internal; build via :class:`Schedule`)."""

    label: str
    at: Optional[int] = None
    every: Optional[int] = None
    start: Optional[int] = None
    until: Optional[int] = None
    when: Optional[Comparison] = None
    once: bool = False
    edge: bool = False  # event-triggered: fire on false->true crossings
    set: tuple[tuple[str, Any], ...] = ()
    sample: tuple[str, ...] = ()  # concrete probe paths, resolved at install
    action: Optional[Callable[[int], None]] = None
    owner: Any = None  # stateful object behind `action` (e.g. AdvisorLoop)
    fired: int = 0
    evaluations: int = 0
    active: bool = True
    prev: bool = False  # edge rules: condition value at the last evaluation
    # (cycle, arm order) of the pending kernel hook, None when none is
    # armed; lets a snapshot re-arm every rule in the captured order.
    armed: Optional[tuple[int, int]] = None


class Schedule(Stateful):
    """Owns the rules, their timeseries, and the kernel hook chain."""

    _STATE_FIELDS = ("series",)

    def __init__(
        self,
        sim: Simulator,
        probes: ProbeRegistry,
        knobs: KnobRegistry,
    ) -> None:
        self.sim = sim
        self.probes = probes
        self.knobs = knobs
        self.rules: list[Rule] = []
        #: label -> [{"cycle": c, "values": {path: value}}, ...]
        self.series: dict[str, list[dict[str, Any]]] = {}
        # repro: lint-ok[snapshot-coverage] arm-order tiebreaker; captures record each pending rule's rank instead, and state_restore re-arms the rules in rank order
        self._arm_seq = 0
        # Checkpoints capture rule state here instead of the kernel's
        # hook heap (hooks are closures); restore re-arms every rule.
        sim.register_state_client("schedule", self)

    # ------------------------------------------------------------------
    # rule construction
    # ------------------------------------------------------------------
    def at(
        self,
        cycle: int,
        action: Optional[Callable[[int], None]] = None,
        *,
        set: Optional[Mapping[str, Any]] = None,
        sample: Sequence[str] = (),
        when: Optional[str] = None,
        label: str = "",
    ) -> Rule:
        """One-shot rule at the commit boundary of *cycle*."""
        if cycle < 0:
            raise ScheduleError("at-cycle must be >= 0")
        rule = self._make_rule(label, action, set, sample, when, once=True)
        rule.at = cycle
        self._arm(rule)
        return rule

    def every(
        self,
        period: int,
        action: Optional[Callable[[int], None]] = None,
        *,
        start: Optional[int] = None,
        until: Optional[int] = None,
        set: Optional[Mapping[str, Any]] = None,
        sample: Sequence[str] = (),
        when: Optional[str] = None,
        once: bool = False,
        label: str = "",
    ) -> Rule:
        """Periodic rule: fires at ``start`` (default *period*), then every
        *period* cycles until *until* (inclusive) or, with ``once=True``,
        until its condition first holds and the actions run."""
        if period < 1:
            raise ScheduleError("period must be >= 1")
        first = period if start is None else start
        if first < 0:
            raise ScheduleError("start must be >= 0")
        if until is not None and until < first:
            raise ScheduleError("until precedes the first firing")
        rule = self._make_rule(label, action, set, sample, when, once)
        rule.every = period
        rule.start = start
        rule.until = until
        self._arm(rule)
        return rule

    def on(
        self,
        when: str,
        action: Optional[Callable[[int], None]] = None,
        *,
        start: Optional[int] = None,
        until: Optional[int] = None,
        set: Optional[Mapping[str, Any]] = None,
        sample: Sequence[str] = (),
        once: bool = False,
        label: str = "",
    ) -> Rule:
        """Event-triggered rule: fire on the trigger's rising edge.

        The comparison is evaluated at every commit boundary from
        ``start`` (default 0) through ``until`` (inclusive, default
        unbounded); the actions run exactly when it crosses from false
        to true — including at the first evaluation if it already
        holds, which counts as a crossing from the pre-run state.
        ``once=True`` retires the rule after its first firing.

        The per-cycle evaluation rides the same commit-boundary hooks
        as timed rules, so edge-triggered runs stay bit-identical
        across kernels; note it also caps quiescent fast-forward jumps
        at one cycle while the rule is live.
        """
        first = 0 if start is None else start
        if first < 0:
            raise ScheduleError("start must be >= 0")
        if until is not None and until < first:
            raise ScheduleError("until precedes the first evaluation")
        rule = self._make_rule(label, action, set, sample, when, once)
        if rule.when is None:  # pragma: no cover - _make_rule guarantees
            raise ScheduleError("event-triggered rules need a trigger")
        rule.edge = True
        rule.start = start
        rule.until = until
        self._arm(rule)
        return rule

    def sampler(
        self,
        patterns: Sequence[str],
        every: int,
        *,
        start: Optional[int] = None,
        label: str = "probes",
    ) -> Rule:
        """Periodic probe sampler recording into ``series[label]``."""
        return self.every(every, start=start, sample=patterns, label=label)

    def _make_rule(
        self,
        label: str,
        action: Optional[Callable[[int], None]],
        set: Optional[Mapping[str, Any]],
        sample: Sequence[str],
        when: Optional[str],
        once: bool,
    ) -> Rule:
        label = label or f"rule{len(self.rules)}"
        if any(r.label == label for r in self.rules):
            raise ScheduleError(f"duplicate rule label {label!r}")
        writes = tuple((set or {}).items())
        for path, value in writes:
            # Unknown paths and kind mismatches fail at install time, not
            # at the rule's firing cycle deep inside a run.
            self.knobs.check_value(path, value)
        resolved = tuple(self.probes.match(*sample)) if sample else ()
        condition = Comparison.parse(when) if when is not None else None
        if condition is not None:
            self.probes.probe(condition.path)  # unknown-path check
        if not writes and not resolved and action is None:
            raise ScheduleError(
                f"rule {label!r} has no actions (set/sample/callable)"
            )
        rule = Rule(label=label, when=condition, once=once, set=writes,
                    sample=resolved, action=action)
        self.rules.append(rule)
        if resolved:
            self.series.setdefault(label, [])
        return rule

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def _dispatch(self, rule: Rule) -> Callable[[Rule, int], None]:
        if rule.edge:
            return self._tick_edge
        if rule.at is not None:
            return self._fire
        return self._tick_rule

    def _call_at(self, cycle: int, rule: Rule) -> None:
        """Arm *rule* at *cycle*, tracking the pending hook on the rule
        so a snapshot can re-arm every rule in the captured order."""
        self._arm_seq += 1
        rule.armed = (cycle, self._arm_seq)
        dispatch = self._dispatch(rule)

        def hook(committed: int, r=rule, fn=dispatch) -> None:
            r.armed = None
            fn(r, committed)

        self.sim.call_at(cycle, hook)

    def _first_cycle(self, rule: Rule) -> int:
        if rule.at is not None:
            return rule.at
        if rule.edge:
            return 0 if rule.start is None else rule.start
        return rule.every if rule.start is None else rule.start

    def _arm(self, rule: Rule) -> None:
        self._call_at(self._first_cycle(rule), rule)

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _tick_rule(self, rule: Rule, committed: int) -> None:
        self._fire(rule, committed)
        if not rule.active:
            return
        next_cycle = committed + rule.every
        if rule.until is not None and next_cycle > rule.until:
            rule.active = False
            return
        self._call_at(next_cycle, rule)

    def _tick_edge(self, rule: Rule, committed: int) -> None:
        if not rule.active:
            return
        rule.evaluations += 1
        holds = rule.when.evaluate(self.probes)
        crossed = holds and not rule.prev
        rule.prev = holds
        if crossed:
            self._run_actions(rule, committed)
            rule.fired += 1
            if rule.once:
                rule.active = False
                return
        if rule.until is not None and committed + 1 > rule.until:
            rule.active = False
            return
        self._call_at(committed + 1, rule)

    def _fire(self, rule: Rule, committed: int) -> None:
        if not rule.active:
            return
        rule.evaluations += 1
        if rule.when is not None and not rule.when.evaluate(self.probes):
            return
        self._run_actions(rule, committed)
        rule.fired += 1
        if rule.once:
            rule.active = False

    def _run_actions(self, rule: Rule, committed: int) -> None:
        for path, value in rule.set:
            try:
                self.knobs.set(path, value)
            except KnobError as exc:
                raise ScheduleError(
                    f"rule {rule.label!r} at cycle {committed}: {exc}"
                ) from exc
        if rule.sample:
            self.series[rule.label].append({
                "cycle": committed,
                "values": {p: self.probes.read(p) for p in rule.sample},
            })
        if rule.action is not None:
            rule.action(committed)

    # ------------------------------------------------------------------
    # snapshot contract (simulator state client)
    # ------------------------------------------------------------------
    def state_pending_hooks(self) -> int:
        """How many kernel hooks this engine owns right now (capture
        validation: every pending hook must have a re-arming owner)."""
        return sum(1 for rule in self.rules if rule.armed is not None)

    def state_capture(self) -> dict:
        """Rule progress, pending-arm info, timeseries, and the state of
        stateful rule owners (e.g. advisor loops).  The kernel's hook
        heap itself is never captured — each pending rule records its
        cycle and its rank among the pending rules, and restore re-arms
        them in that order, which reproduces the same firing order the
        uninterrupted run would have had.  The rank, unlike the arm
        counter a restore renumbers, depends on simulated state only."""
        pending = sorted(r.armed for r in self.rules if r.armed is not None)
        rules = []
        for rule in self.rules:
            armed = rule.armed
            if armed is not None:
                armed = (armed[0], pending.index(armed))
            entry: dict[str, Any] = {
                "label": rule.label,
                "fired": rule.fired,
                "evaluations": rule.evaluations,
                "active": rule.active,
                "prev": rule.prev,
                "armed": armed,
            }
            if rule.owner is not None and hasattr(rule.owner, "state_capture"):
                entry["owner"] = rule.owner.state_capture()
            rules.append(entry)
        return {**super().state_capture(), "rules": rules}

    def state_restore(self, state: dict) -> None:
        captured = state["rules"]
        labels = [entry["label"] for entry in captured]
        if labels != [rule.label for rule in self.rules]:
            from repro.snapshot.codec import SnapshotError

            raise SnapshotError(
                f"schedule rules differ from the snapshot ({labels} vs "
                f"{[r.label for r in self.rules]})"
            )
        for rule, entry in zip(self.rules, captured):
            rule.fired = entry["fired"]
            rule.evaluations = entry["evaluations"]
            rule.active = entry["active"]
            rule.prev = entry["prev"]
            rule.armed = None
            if "owner" in entry:
                if rule.owner is None or not hasattr(
                    rule.owner, "state_restore"
                ):
                    from repro.snapshot.codec import SnapshotError

                    raise SnapshotError(
                        f"rule {rule.label!r} captured owner state but the "
                        "restored rule has no stateful owner"
                    )
                rule.owner.state_restore(entry["owner"])
        super().state_restore(state)
        # Re-arm in the captured order so same-cycle hooks fire in the
        # order the uninterrupted run would have used.
        pending = sorted(
            (entry["armed"], rule)
            for rule, entry in zip(self.rules, captured)
            if entry["armed"] is not None
        )
        for (cycle, _), rule in pending:
            self._call_at(cycle, rule)

    # ------------------------------------------------------------------
    # digest
    # ------------------------------------------------------------------
    @property
    def configured(self) -> bool:
        return bool(self.rules)

    def digest(self) -> dict[str, Any]:
        """JSON-plain summary: firing counts plus every timeseries."""
        return {
            "fired": {r.label: r.fired for r in self.rules},
            "series": {label: list(samples)
                       for label, samples in self.series.items()},
        }

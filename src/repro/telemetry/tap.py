"""ProbeTap: an execution-side pub/sub layer over the probe registry.

A tap subscription samples a set of probes at commit boundaries on a
periodic cadence and pushes each sample as a :class:`TapFrame` to a
consumer callable — the live counterpart of the schedule engine's
``[probes]`` sampler, with one decisive difference: the tap rides
*transient* kernel hooks (:meth:`repro.sim.Simulator.call_at_transient`)
and records nothing into the control-plane digest, so attaching,
watching, and detaching can never change a golden trace.  Conversely a
tap with no subscriptions arms no hooks at all: the detached hot path
is byte-for-byte the untapped kernel.

Cadence mirrors :meth:`repro.control.schedule.Schedule.every` exactly —
first firing at ``start`` (default ``every``), then every ``every``
cycles — so a subscription created before the run with the same
patterns as a scenario's ``[probes]`` section produces frames whose
``(cycle, values)`` stream is identical to the post-hoc timeseries.
A subscription created mid-run joins the same lattice (the next firing
is the earliest ``start + k*every`` at or after the current cycle):
late attachment loses early frames but never shifts the phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.control.probes import ProbeRegistry
from repro.sim.kernel import Simulator


class TapError(Exception):
    """Bad subscription parameters or unknown subscription."""


@dataclass(frozen=True)
class TapFrame:
    """One sampled observation: the probe values at a commit boundary."""

    label: str
    cycle: int
    values: dict[str, int]

    def payload(self) -> dict[str, Any]:
        """The ``{"cycle", "values"}`` dict, shaped exactly like one
        entry of a schedule sampler's timeseries."""
        return {"cycle": self.cycle, "values": dict(self.values)}


@dataclass
class TapSubscription:
    """One consumer's periodic sampling of a resolved probe set."""

    label: str
    paths: tuple[str, ...]
    every: int
    start: Optional[int]
    consumer: Callable[[TapFrame], None]
    active: bool = True
    frames: int = 0
    owner: Any = None  # opaque cookie (e.g. the socket client watching)

    @property
    def first_cycle(self) -> int:
        return self.every if self.start is None else self.start


class ProbeTap:
    """Owns the subscriptions and their transient kernel hooks.

    One tap per live point; build with the point's simulator and probe
    registry.  All methods must run on the simulation thread (the tap
    is not locked — the socket server marshals commands onto the sim
    thread through the kernel's poll seam).
    """

    def __init__(self, sim: Simulator, probes: ProbeRegistry) -> None:
        self.sim = sim
        self.probes = probes
        self.subscriptions: list[TapSubscription] = []

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self,
        consumer: Callable[[TapFrame], None],
        sample: Sequence[str],
        *,
        every: int,
        start: Optional[int] = None,
        label: str = "probes",
        owner: Any = None,
    ) -> TapSubscription:
        """Attach *consumer* to a periodic sample of *sample* patterns.

        Patterns resolve through :meth:`ProbeRegistry.match` (raising
        :class:`~repro.control.probes.ProbeError` on a miss) at
        subscription time, so the frame's value order is the registry's
        registration order — the same order the schedule sampler uses.
        """
        if every < 1:
            raise TapError("sampling period must be >= 1 cycle")
        if start is not None and start < 0:
            raise TapError("start must be >= 0")
        if not sample:
            raise TapError("subscription needs at least one probe pattern")
        paths = tuple(self.probes.match(*sample))
        sub = TapSubscription(
            label=label, paths=paths, every=every, start=start,
            consumer=consumer, owner=owner,
        )
        self.subscriptions.append(sub)
        self._arm(sub, self._next_due(sub))
        return sub

    def unsubscribe(self, sub: TapSubscription) -> None:
        """Detach *sub*; raises :class:`TapError` if it is not attached.

        The pending hook (if any) fires as a no-op and does not re-arm
        — by the next commit boundary the kernel carries no trace of
        the subscription.
        """
        if sub not in self.subscriptions:
            raise TapError(f"subscription {sub.label!r} is not attached")
        sub.active = False
        self.subscriptions.remove(sub)

    def detach_all(self, owner: Any = None) -> list[TapSubscription]:
        """Drop every subscription (of *owner*, when given); returns them."""
        dropped = [
            s for s in self.subscriptions
            if owner is None or s.owner is owner
        ]
        for sub in dropped:
            sub.active = False
            self.subscriptions.remove(sub)
        return dropped

    @property
    def attached(self) -> bool:
        return bool(self.subscriptions)

    # ------------------------------------------------------------------
    # hook chain
    # ------------------------------------------------------------------
    def _next_due(self, sub: TapSubscription) -> int:
        """Earliest cadence cycle at or after the current one.

        ``sim.cycle`` is the next uncommitted cycle, so a hook armed at
        it fires at that cycle's own boundary — a mid-run subscriber
        can still observe the current cycle if it lies on the lattice.
        """
        first = sub.first_cycle
        now = self.sim.cycle
        if now <= first:
            return first
        periods = -(-(now - first) // sub.every)  # ceil division
        return first + periods * sub.every

    def _arm(self, sub: TapSubscription, cycle: int) -> None:
        self.sim.call_at_transient(cycle, lambda committed: self._fire(
            sub, committed
        ))

    def _fire(self, sub: TapSubscription, committed: int) -> None:
        if not sub.active:
            return
        frame = TapFrame(
            label=sub.label,
            cycle=committed,
            values={p: self.probes.read(p) for p in sub.paths},
        )
        sub.frames += 1
        self._arm(sub, committed + sub.every)
        sub.consumer(frame)

"""Registered valid/ready channels.

A :class:`Channel` models one AXI channel hop (or any other point-to-point
handshake).  Semantics:

* A beat sent in cycle *N* is visible to the receiver from cycle *N+1*
  (registered output).  Each hop therefore costs exactly one clock cycle.
* ``can_send`` is computed against the occupancy snapshot taken at the last
  commit, so whether the receiver pops in the same cycle does not influence
  the sender.  This makes the simulation deterministic regardless of the
  order in which components tick.
* The default capacity of 2 behaves like a skid buffer: under simultaneous
  push/pop the channel sustains one beat per cycle, which is what a
  well-formed AXI register slice achieves.

Channels are the wake-up fabric of the active-set kernel: a component that
registered itself with :meth:`Channel.add_listener` (usually via
:meth:`~repro.sim.kernel.Component.watch`) is woken whenever a commit
changes observable channel state — new beats became visible to the
receiver, or buffered space was freed for the sender.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Generic, Iterable, Optional, TypeVar

from repro.sim.kernel import Component, SimulationError, Simulator, Stateful

T = TypeVar("T")


class _TracerFan:
    """Fans one channel's handshake events out to several tracer sinks.

    Installed transparently by :meth:`Channel.attach_tracer` when a second
    sink attaches, so the channel hot path stays a single ``is not None``
    check no matter how many observers subscribe.
    """

    __slots__ = ("sinks",)

    def __init__(self, sinks: list) -> None:
        self.sinks = sinks

    def on_send(self, channel, item) -> None:
        for sink in self.sinks:
            sink.on_send(channel, item)

    def on_recv(self, channel, item) -> None:
        for sink in self.sinks:
            sink.on_recv(channel, item)


class Channel(Stateful, Generic[T]):
    """Point-to-point, single-producer/single-consumer registered channel."""

    __slots__ = (
        "name",
        "capacity",
        "_sim",
        "_queue",
        "_pending",
        "_snapshot",
        "_sent_total",
        "_recv_total",
        "_busy_cycles",
        "_busy_mark",
        "_tracer",
        "_recv_listeners",
        "_send_listeners",
    )
    _STATE_FIELDS = ("_snapshot", "_sent_total", "_recv_total")

    def __init__(
        self,
        sim: Simulator,
        name: str = "ch",
        capacity: int = 2,
    ) -> None:
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._sim = sim
        self._queue: deque[T] = deque()
        self._pending: list[T] = []
        self._snapshot = 0
        self._sent_total = 0
        self._recv_total = 0
        # Busy cycles through _busy_mark, the cycle of the last commit.
        self._busy_cycles = 0
        self._busy_mark = 0
        self._tracer = None  # repro: lint-ok[snapshot-coverage] observer wiring, not simulated state
        self._recv_listeners: tuple[Component, ...] = ()  # repro: lint-ok[snapshot-coverage] observer wiring, not simulated state
        self._send_listeners: tuple[Component, ...] = ()  # repro: lint-ok[snapshot-coverage] observer wiring, not simulated state
        sim.register_channel(self)

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def can_send(self) -> bool:
        """True if the sender may push a beat this cycle."""
        return self._snapshot + len(self._pending) < self.capacity

    def send(self, item: T) -> None:
        """Push *item*; visible to the receiver from the next cycle."""
        if not self.can_send():
            raise SimulationError(f"send on full channel {self.name!r}")
        self._pending.append(item)
        self._sent_total += 1
        self._sim._hot_channels.add(self)
        if self._tracer is not None:
            self._tracer.on_send(self, item)

    def send_many(self, items: Iterable[T]) -> None:
        """Push a whole run of beats in one call (O(1) bookkeeping).

        All beats become visible together at the next commit, exactly as
        if :meth:`send` had been called once per beat in the same cycle;
        the run must fit in the sender's current headroom.  Counters are
        updated from the batch delta; an attached tracer still sees one
        ``on_send`` per beat, in order.
        """
        items = list(items)
        if not items:
            return
        if self._snapshot + len(self._pending) + len(items) > self.capacity:
            raise SimulationError(
                f"send_many of {len(items)} beats overflows channel "
                f"{self.name!r}"
            )
        self._pending.extend(items)
        self._sent_total += len(items)
        self._sim._hot_channels.add(self)
        if self._tracer is not None:
            for item in items:
                self._tracer.on_send(self, item)

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def can_recv(self) -> bool:
        """True if a committed beat is waiting."""
        return bool(self._queue)

    def peek(self) -> T:
        """Look at the head beat without consuming it."""
        if not self._queue:
            raise SimulationError(f"peek on empty channel {self.name!r}")
        return self._queue[0]

    def recv(self) -> T:
        """Consume and return the head beat."""
        if not self._queue:
            raise SimulationError(f"recv on empty channel {self.name!r}")
        self._recv_total += 1
        item = self._queue.popleft()
        self._sim._hot_channels.add(self)
        if self._tracer is not None:
            self._tracer.on_recv(self, item)
        return item

    def recv_up_to(self, limit: Optional[int] = None) -> list[T]:
        """Consume every committed beat (up to *limit*) in one call.

        Equivalent to calling :meth:`recv` in a loop within the same
        cycle — legal wherever a component already drains at line rate —
        but with counters fed from the batch delta.  Returns the beats in
        arrival order; an attached tracer sees one ``on_recv`` per beat.
        """
        queue = self._queue
        if not queue:
            return []
        n = len(queue) if limit is None or limit > len(queue) else limit
        if n <= 0:
            return []
        out = [queue.popleft() for _ in range(n)]
        self._recv_total += n
        self._sim._hot_channels.add(self)
        if self._tracer is not None:
            for item in out:
                self._tracer.on_recv(self, item)
        return out

    def move_to(self, dst, transform: Optional[Callable[[T], T]] = None) -> bool:
        """Relay the head beat into *dst* (a Channel or Wire) in one call.

        The single-beat pass-through primitive of the batch API: one
        guarded ``recv`` + ``send`` with exactly the per-beat observable
        effects (counters, tracer events, wake-ups).  Returns True when a
        beat moved.
        """
        if not self._queue or not dst.can_send():
            return False
        item = self.recv()
        dst.send(item if transform is None else transform(item))
        return True

    # ------------------------------------------------------------------
    # kernel interface
    # ------------------------------------------------------------------
    def add_listener(self, component: Component, events: str = "all") -> None:
        """Wake *component* on commit-time state changes.

        ``events`` selects which: ``"recv"`` wakes on new visible beats
        (for the receiver), ``"send"`` on freed space (for the sender),
        ``"all"`` on either.
        """
        if events in ("all", "recv") and component not in self._recv_listeners:
            self._recv_listeners = self._recv_listeners + (component,)
        if events in ("all", "send") and component not in self._send_listeners:
            self._send_listeners = self._send_listeners + (component,)

    def remove_listener(self, component: Component, events: str = "all") -> bool:
        """Unsubscribe *component*; returns True if it was subscribed.

        Used by express routes to keep the owning component asleep while
        the kernel forwards the burst middle on its behalf.
        """
        removed = False
        if events in ("all", "recv") and component in self._recv_listeners:
            self._recv_listeners = tuple(
                c for c in self._recv_listeners if c is not component
            )
            removed = True
        if events in ("all", "send") and component in self._send_listeners:
            self._send_listeners = tuple(
                c for c in self._send_listeners if c is not component
            )
            removed = True
        return removed

    def commit(self) -> None:
        """Clock edge: make this cycle's sends visible, refresh snapshot."""
        sim = self._sim
        cycle = sim.cycle
        if self._snapshot:  # held for every cycle since the last commit
            self._busy_cycles += cycle - self._busy_mark
        self._busy_mark = cycle
        pending = len(self._pending)
        if pending:
            self._queue.extend(self._pending)
            self._pending.clear()
        occupancy = len(self._queue)
        # New beats wake the receiver.  The sender's headroom is snapshot
        # + pending; it grows (and wakes the sender) whenever a beat was
        # consumed this cycle, even if a simultaneous send refilled it.
        space_freed = occupancy < self._snapshot + pending
        self._snapshot = occupancy
        if pending:
            listeners = self._recv_listeners
            if space_freed:
                listeners += self._send_listeners
        elif space_freed:
            listeners = self._send_listeners
        else:
            return
        # Simulator.wake() semantics inlined (foreign-sim listeners
        # skipped), on a path shared with the recorder: only genuine
        # asleep -> awake transitions are counted — the counters measure
        # scheduling work, not redundant wake requests.  These
        # transitions are per-cycle-frequent on churny workloads, so
        # the accounting is two subscripts into a dict the recorder
        # pre-seeded with every component — no method call, no .get().
        active = sim._active
        for component in listeners:
            if component._sim is sim and component not in active:
                active.add(component)
                rec = sim._recorder
                if rec is not None:
                    rec._channel_wakes[component] += 1
                    journal = sim._rec_journal
                    if journal is not None:
                        journal.append(
                            (cycle, "wake", component.name, "channel")
                        )

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        """Committed queue and counters (commit boundaries only).

        Listener wiring and attached tracers are structure, not state:
        a restore target carries its own from construction (express
        orders re-suppress what they manage when their owner restores).
        """
        if self._pending:
            raise SimulationError(
                f"channel {self.name!r} has uncommitted beats; snapshots "
                "are legal only at commit boundaries"
            )
        busy = self._busy_cycles
        if self._snapshot:
            # Folded through the capture cycle; restore re-marks there.
            busy += self._sim.cycle - self._busy_mark
        return {
            **super().state_capture(),
            "queue": list(self._queue),
            "busy_cycles": busy,
        }

    def state_restore(self, state: dict) -> None:
        """Restore a capture; the simulator's clock must be restored first."""
        super().state_restore(state)
        self._queue = deque(state["queue"])
        self._pending = []
        self._busy_cycles = state["busy_cycles"]
        self._busy_mark = self._sim.cycle

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Beats currently buffered (committed + pending)."""
        return len(self._queue) + len(self._pending)

    @property
    def sent_total(self) -> int:
        return self._sent_total

    @property
    def recv_total(self) -> int:
        return self._recv_total

    @property
    def busy_cycles(self) -> int:
        """Cycles in which at least one committed beat was buffered."""
        if self._snapshot:
            return self._busy_cycles + self._sim.cycle - self._busy_mark
        return self._busy_cycles

    def attach_tracer(self, tracer) -> None:
        """Attach a sink with ``on_send(ch, item)`` / ``on_recv(ch, item)``.

        Several sinks may attach (a fan-out shim multiplexes them);
        attaching the same sink twice is a no-op.
        """
        current = self._tracer
        if current is None:
            self._tracer = tracer
        elif current is tracer:
            return
        elif isinstance(current, _TracerFan):
            if tracer not in current.sinks:
                current.sinks.append(tracer)
        else:
            self._tracer = _TracerFan([current, tracer])

    def detach_tracer(self, tracer) -> None:
        """Remove one sink previously attached with :meth:`attach_tracer`."""
        current = self._tracer
        if current is tracer:
            self._tracer = None
        elif isinstance(current, _TracerFan) and tracer in current.sinks:
            current.sinks.remove(tracer)
            if len(current.sinks) == 1:
                self._tracer = current.sinks[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Channel {self.name!r} occ={self.occupancy}/{self.capacity}>"


class ExpressRoute:
    """A kernel-executed forwarding order for the middle of a burst.

    A component that has proven a point-to-point route stable until a
    burst boundary — e.g. the crossbar once an AW grant has reserved a
    subordinate's W channel, or an R burst locked to its source — installs
    an order and goes to sleep; the kernel then performs the component's
    would-be move (one guarded ``recv`` + ``send``, at most one beat per
    cycle) in the express phase of every step, so the observable effects
    are bit-identical to per-beat ticking at a fraction of the cost.

    The order forwards **only the uncontended middle** of the burst: it
    never moves a beat whose ``last`` flag is set.  Burst boundaries are
    where same-cycle arbitration hand-offs between managers happen in the
    owner's scan order, so the order tears itself down — at the commit
    boundary where the ``last`` beat (or a ``guard``-rejected foreign
    beat) becomes visible — and wakes the owner, whose next tick handles
    the boundary on the per-beat reference path, arbiters and all.  This
    is what makes the batched path bit-identical (DESIGN.md section 9).

    The order suppresses the owner's wake-up subscription on the two
    channels it manages while installed (restored at teardown), so the
    owner can leave the active set for the span of the burst middle.
    ``on_done`` runs at teardown so the owner can drop its bookkeeping
    for the order.
    """

    __slots__ = ("src", "dst", "owner", "transform", "guard", "on_done")

    def __init__(
        self,
        src: Channel,
        dst: Channel,
        owner: Component,
        transform: Optional[Callable] = None,
        guard: Optional[Callable] = None,
        on_done: Optional[Callable] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.owner = owner
        self.transform = transform
        self.guard = guard
        self.on_done = on_done

    # ------------------------------------------------------------------
    def install(self, sim: Simulator) -> "ExpressRoute":
        self.src.remove_listener(self.owner, "recv")
        self.dst.remove_listener(self.owner, "send")
        sim.install_express(self)
        return self

    def cancel(self) -> None:
        """Tear the order down and wake the owner to resume per-beat."""
        if self.on_done is not None:
            self.on_done()
        self.src.add_listener(self.owner, "recv")
        self.dst.add_listener(self.owner, "send")
        sim = self.owner._sim
        if sim is not None:
            sim.remove_express(self)
        self.owner.wake()

    # ------------------------------------------------------------------
    def boundary(self, beat) -> bool:
        """A beat the order must not touch: burst end or foreign beat."""
        return beat.last or (self.guard is not None and not self.guard(beat))

    def ready(self) -> bool:
        """True if :meth:`step` would act this cycle (move or cancel).

        Consulted by the kernel's quiescence check so a fast-forward can
        never jump over cycles in which the order has work to do.
        """
        queue = self.src._queue
        if not queue:
            return False
        if self.boundary(queue[0]):
            return True  # the pending cancellation must run
        return self.dst.can_send()

    def step(self) -> None:
        """Forward at most one middle beat; run by the kernel every cycle."""
        queue = self.src._queue
        if not queue:
            return
        beat = queue[0]
        if self.boundary(beat):
            # Normally intercepted by after_commit() the cycle the beat
            # surfaced; kept as a defensive hand-back.
            self.cancel()
            return
        if not self.dst.can_send():
            return
        beat = self.src.recv()
        transform = self.transform
        self.dst.send(beat if transform is None else transform(beat))

    def after_commit(self) -> None:
        """Boundary watch, run after every commit phase.

        The cancellation must fire at the commit where the boundary beat
        becomes visible — before the next tick phase — so the owner's
        scan handles the boundary in the same cycle the per-beat
        reference path would have.
        """
        queue = self.src._queue
        if queue and self.boundary(queue[0]):
            self.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ExpressRoute {self.src.name!r} -> {self.dst.name!r} "
            f"for {self.owner.name!r}>"
        )


class ChannelPair:
    """A request/response channel pair (convenience for simple links)."""

    def __init__(self, sim: Simulator, name: str, capacity: int = 2) -> None:
        self.req: Channel = Channel(sim, f"{name}.req", capacity)
        self.rsp: Channel = Channel(sim, f"{name}.rsp", capacity)

    @property
    def channels(self) -> tuple[Channel, Channel]:
        return (self.req, self.rsp)


def drain(channel: Channel[T], limit: Optional[int] = None) -> list[T]:
    """Consume up to *limit* committed beats from *channel* (all if None).

    Test helper; components should consume at line rate in their tick.
    """
    out: list[T] = []
    while channel.can_recv() and (limit is None or len(out) < limit):
        out.append(channel.recv())
    return out

"""Cycle-based simulation kernel with an active-set scheduler.

The kernel drives a set of :class:`Component` objects with a shared clock.
Every cycle has two phases:

1. *tick phase*: each component's :meth:`Component.tick` runs once.  During
   the tick a component may consume beats from its input channels and send
   beats on its output channels.
2. *commit phase*: every registered :class:`~repro.sim.channel.Channel`
   commits, making the beats sent in this cycle visible to their receiver in
   the next cycle.  The active-set kernel commits only the channels touched
   since their last commit: per-cycle counts are functions of the clock.

Because channel occupancy that gates ``can_send`` is snapshotted at the
commit, simulation results are deterministic and independent of the order in
which components tick (see ``DESIGN.md`` section 4).

Active-set scheduling
---------------------

Ticking every component every cycle wastes most of the work on quiescent
systems (a throttled DMA, a cache with no misses, an unused manager).  The
kernel therefore maintains an *active set*:

* A component that returns ``True`` from :meth:`Component.is_idle` after its
  tick is removed from the active set and no longer ticked.
* Channels wake their listeners (registered via :meth:`Component.watch`)
  whenever a commit changes observable state: new beats became visible, or
  buffered space was freed for the sender.
* A component may schedule a timed wake-up with :meth:`Component.wake_at`
  (used e.g. by the REALM unit to wake exactly at a budget-replenish edge)
  or be woken explicitly with :meth:`Component.wake` (used e.g. when a new
  operation is scripted onto a sleeping driver).
* When the active set is empty and no channel is owed a commit, the
  simulator *fast-forwards* the clock to the next timed wake-up (or the end
  of the run) instead of stepping cycle by cycle.

The contract for :meth:`Component.is_idle` is strict: it must return
``True`` only if ``tick`` would not change any observable state until one of
the component's watched channels changes or a scheduled wake-up fires.  The
default implementation returns ``False`` (always ticked), which is always
correct; see ``DESIGN.md`` section 5 for the full contract.  Constructing a
:class:`Simulator` with ``active_set=False`` restores the naive
tick-everything kernel, which is useful for equivalence testing.

Batched transport
-----------------

``Simulator(batched=True)`` (the default) additionally enables the batched
beat datapath: channels move whole runs of beats through
:class:`ExpressRoute` orders at the step boundary, and the NoC scopes its
step to routers that hold flits.  The flag selects the transport only:
memory latency and every ``is_idle`` rule are the same on both datapaths,
and who sleeps is the active set's decision.  All of it is a pure
optimisation — every observable is bit-identical to the per-beat reference
path, which ``batched=False`` preserves unchanged (see ``DESIGN.md``
section 9 for the equivalence contract).

An :class:`ExpressRoute` is the kernel half of that contract: a component
that has proven a point-to-point forwarding decision stable for the middle
of a burst (e.g. the crossbar's reserved W channel after an AW grant)
installs an order ``src -> dst``; the kernel then executes the move —
at most one beat per cycle, exactly as the component's tick would have —
in the express phase between the tick and commit phases, and the component
may leave the active set for the burst middle.  The order is torn down at
the burst boundary (``last``) or cancelled the moment its guard sees a
beat it does not own, which re-wakes the owner for per-beat stepping.

Span replay
-----------

On top of both optimised paths, ``span_replay=True`` (the default) lets
the run loop replay provably linear steady states in closed form
(:func:`~repro.sim.span.attempt_span`, ``DESIGN.md`` section 11) before
falling back to :meth:`Simulator.step`.  The kernel keeps the state that
makes a failed negotiation cheap: the components registered without
``span_offer`` (tested against the active set in one ``isdisjoint``),
the last refuser (asked first next time), and the last opaque veto —
while that component stays awake the run loop skips the attempt, which
could only abort.

Flight-recorder seam
--------------------

:meth:`Simulator.attach_recorder` hands the kernel a
:class:`~repro.obs.FlightRecorder` without rebinding anything: the one
:meth:`Simulator.step` body keeps its observation points — active-set
occupancy, the sleep journal, and phase and per-component tick wall
time on 1 in ``PHASE_STRIDE`` stepped cycles — behind
``rec is not None`` tests, and wake sites attribute causes inline.  The
recorder observes execution only (``DESIGN.md`` section 15).
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Callable, Optional

from repro.sim.span import attempt_span


class Stateful:
    """Snapshot hooks that walk a class-level field table.

    ``_STATE_FIELDS`` names the attributes a subclass's snapshot holds as
    they are; each is captured under its name with leading underscores
    stripped and assigned back on restore.  Neither side copies: the
    capture is encoded at once and a restore decodes fresh objects
    (DESIGN.md section 10).  A subclass whose state needs a transform —
    a nested capture, a change of type, an in-place restore — overrides
    the hooks and extends the table's entries through ``super()``.
    """

    __slots__ = ()
    _STATE_FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        keys = [name.lstrip("_") for name in cls._STATE_FIELDS]
        if len(set(keys)) != len(keys):
            raise TypeError(
                f"{cls.__name__}._STATE_FIELDS names collide once leading "
                f"underscores are stripped: {cls._STATE_FIELDS}"
            )

    def state_capture(self) -> dict:
        """Everything this object's simulated behaviour reads or writes,
        as a dict of primitives, containers, and codec-registered
        objects.

        Called at commit boundaries by
        :func:`repro.snapshot.capture_simulator`.  A component that
        installed :class:`~repro.sim.channel.ExpressRoute` orders must
        describe them here and re-install them in :meth:`state_restore`.
        """
        return {
            name.lstrip("_"): getattr(self, name)
            for name in self._STATE_FIELDS
        }

    def state_restore(self, state: dict) -> None:
        """Restore a :meth:`state_capture` dict into this object.

        Runs on a freshly built (never ticked) object of the same
        declaration, or in place over an already-run one.  Must not
        schedule wake-ups: the kernel's active set and wake queue are
        restored wholesale afterwards.
        """
        for name in self._STATE_FIELDS:
            setattr(self, name, state[name.lstrip("_")])


class Component(Stateful):
    """Base class for everything that is evaluated once per clock cycle.

    Subclasses implement :meth:`tick`.  A component is registered with a
    :class:`Simulator` either by passing the simulator to
    :meth:`Simulator.add` or by constructing it through helper factories
    that do so internally.  A stateful subclass declares its snapshot
    fields once, in ``_STATE_FIELDS`` (:class:`Stateful`), and overrides
    the hooks only for fields that need a transform: restoring a capture
    is the only way to rewind it.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self._sim: Optional["Simulator"] = None  # repro: lint-ok[snapshot-coverage] kernel registration back-reference, rebuilt by Simulator.add

    def tick(self, cycle: int) -> None:
        """Evaluate one clock cycle.  Override in subclasses."""

    # ------------------------------------------------------------------
    # activity contract
    # ------------------------------------------------------------------
    def is_idle(self) -> bool:
        """True if ``tick`` is a no-op until a watched channel changes or a
        scheduled wake-up fires.  The default keeps the component always
        active, which is always correct."""
        return False

    def watch(self, *bundles, role: str = "both") -> None:
        """Subscribe to wake-up events from channels or channel bundles.

        Accepts :class:`~repro.sim.channel.Channel` objects or anything
        with a ``channels`` tuple of them (e.g. ``AxiBundle``).  Safe to
        call from ``__init__`` before the component is added to a
        simulator.

        *role* refines which commit events wake this component on an AXI
        bundle: a ``"device"`` receives requests (woken by new aw/w/ar
        beats, and by freed space on b/r it sends on), a ``"manager"``
        the opposite.  ``"both"`` subscribes to every event, which is
        always safe.
        """
        for endpoint in bundles:
            channels = getattr(endpoint, "channels", None)
            if channels is None:
                endpoint.add_listener(self)
                continue
            requests = getattr(endpoint, "request_channels", None)
            if role == "both" or requests is None:
                for channel in channels:
                    channel.add_listener(self)
            elif role == "device":
                for channel in requests:
                    channel.add_listener(self, "recv")
                for channel in endpoint.response_channels:
                    channel.add_listener(self, "send")
            elif role == "manager":
                for channel in requests:
                    channel.add_listener(self, "send")
                for channel in endpoint.response_channels:
                    channel.add_listener(self, "recv")
            else:  # pragma: no cover - config error
                raise ValueError(f"unknown watch role {role!r}")

    def wake(self) -> None:
        """(Re-)insert this component into its simulator's active set."""
        if self._sim is not None:
            self._sim.wake(self)

    def wake_at(self, cycle: int) -> None:
        """Schedule a wake-up at *cycle* (no-op if not yet registered)."""
        if self._sim is not None:
            self._sim.wake_at(self, cycle)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class SimulationError(RuntimeError):
    """Raised for protocol violations and kernel misuse."""


class Simulator:
    """Owns the clock, the components, and the channels.

    Usage::

        sim = Simulator()
        sim.add(my_component)
        sim.run(1000)

    With ``active_set=True`` (the default) quiescent components are
    skipped and fully-idle stretches are fast-forwarded; pass
    ``active_set=False`` for the naive tick-everything kernel.
    """

    def __init__(
        self,
        name: str = "sim",
        active_set: bool = True,
        batched: bool = True,
        span_replay: bool = True,
    ) -> None:
        self.name = name
        self.cycle = 0
        self._components: list[Component] = []
        self._channels: list = []  # list[Channel]; untyped to avoid cycle
        self._active_set_enabled = active_set
        self._batched = batched
        # Span replay rides on both optimised paths: the active set
        # bounds the negotiation to awake components and the batched
        # flag scopes it to runs whose express orders can join spans.
        self._span_enabled = bool(active_set and batched and span_replay)
        self._active: set[Component] = set()
        self._hot_channels: set = set()  # channels owed a commit
        self._express: list = []  # list[ExpressRoute], installation order
        self._wake_heap: list[tuple[int, int, Component]] = []
        self._wake_seq = 0
        # Commit-boundary hooks: (cycle, seq, fn) fired after the commit
        # of *cycle*.  The control plane's schedule
        # engine is built on these; see DESIGN.md section 8.
        self._hook_heap: list[tuple[int, int, Callable[[int], None]]] = []
        self._hook_seq = 0
        # Transient hooks are execution-side observers (the telemetry
        # tap, live pause requests): they ride the same heap, but are
        # counted separately so snapshot capture can tell them apart
        # from client-owned hooks that re-arm on restore.
        self._transient_hooks = 0
        # Run-loop poll seam: an execution-side callback (e.g. a live
        # telemetry session draining its command inbox) guarded by a
        # truthiness gate.  The hot path only ever tests the gate — the
        # callback runs when the gate is truthy, so a client that hands
        # in its (usually empty) command queue as the gate pays one
        # C-level bool() per iteration, never a Python call.  None (the
        # default) keeps the detached hot path to the same single test.
        self._poll_fn: Optional[Callable[[], None]] = None
        self._poll_gate: object = None
        # Flight-recorder seam (repro.obs; DESIGN.md section 15): None
        # keeps every observation point to one ``is None`` test.  Its
        # journal is mirrored so per-event journal tests on frequent
        # paths (span aborts, sleeps) cost one attribute load.  Never
        # part of the snapshot contract.
        self._recorder = None
        self._rec_journal = None
        # True while _fire_hooks drains: wake() attributes to "hook".
        self._in_hooks = False
        # Snapshot state clients: objects owning commit-boundary hooks
        # (the schedule engine) or other non-component state (the bus
        # guard); captured/restored alongside the kernel by name.
        self._state_clients: dict[str, object] = {}
        # Introspection counters (``ticks_skipped`` is derived).
        self.ticks_executed = 0
        self._slots_offset = 0  # sum of the add cycles; restore rebases it
        self.cycles_fast_forwarded = 0
        # Span-replay statistics (introspection only; deliberately not
        # part of the snapshot contract — spans are an execution
        # strategy, not simulated state).
        self.spans_entered = 0
        self.span_cycles_replayed = 0
        self.span_aborts: dict = {}
        # Negotiation state (repro.sim.span): the last refuser, asked
        # first next time; the components without ``span_offer`` in
        # registration order; and the last opaque veto, which skips
        # attempts while it stays awake.
        self._span_probe: Optional[Component] = None
        self._opaque: list[Component] = []
        self._span_veto: Optional[Component] = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    @property
    def active_set_enabled(self) -> bool:
        return self._active_set_enabled

    @property
    def batched(self) -> bool:
        """True when the batched beat datapath is enabled (the default).

        The flag selects the transport: the crossbar's express orders,
        the NoC's scoped step, and span replay, which rides on them.
        ``batched=False`` keeps the per-beat reference transport — no
        express routes, full NoC scans, no spans — as the equivalence
        baseline; memory latency and sleep rules do not depend on it.
        """
        return self._batched

    @property
    def span_replay_enabled(self) -> bool:
        """True when linear steady states are replayed in closed form."""
        return self._span_enabled

    def add(self, component: Component) -> Component:
        """Register *component*; returns it for chaining."""
        if component in self._components:
            raise SimulationError(f"component {component.name!r} added twice")
        self._components.append(component)
        component._sim = self
        self._slots_offset += self.cycle
        self._active.add(component)
        if not hasattr(component, "span_offer"):
            self._opaque.append(component)
        rec = self._recorder
        if rec is not None:
            # step() and Channel.commit index these with bare
            # subscripts: keep them sized and seeded.
            rec._occupancy.append(0)
            rec._channel_wakes[component] = 0
        return component

    def register_channel(self, channel) -> None:
        """Called by Channel.__init__; not part of the public API."""
        self._channels.append(channel)

    def register_state_client(self, name: str, client) -> None:
        """Register a non-component state owner for checkpoint/restore.

        *client* implements ``state_capture()``/``state_restore(state)``
        (and, if it schedules commit-boundary hooks, a
        ``state_pending_hooks()`` count so captures can verify that
        every pending hook has an owner that will re-arm it).
        """
        if name in self._state_clients:
            raise SimulationError(f"state client {name!r} registered twice")
        self._state_clients[name] = client

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self, path=None) -> dict:
        """Capture the complete simulation state at this commit boundary.

        Returns the encoded state tree (plain data: picklable,
        deep-copy-safe); with *path* the tree is also written as a
        versioned, compressed checkpoint file.  Legal only between
        steps, when every channel has committed (which is always the
        case outside :meth:`step`).  See DESIGN.md section 10.
        """
        from repro.snapshot import capture_simulator, save_checkpoint

        state = capture_simulator(self)
        if path is not None:
            save_checkpoint(path, state)
        return state

    def restore_checkpoint(self, source) -> None:
        """Restore state captured by :meth:`checkpoint`.

        *source* is a state tree or a checkpoint file path.  The
        simulator must structurally match the captured one: same kernel
        flags, same channels and components in registration order —
        i.e. a fresh build of the same declaration (or this simulator
        itself, for rewinding).  Continuing afterwards is bit-identical
        to never having been interrupted.
        """
        import os

        from repro.snapshot import load_checkpoint, restore_simulator

        if isinstance(source, (str, bytes, os.PathLike)):
            _, source = load_checkpoint(source)
        restore_simulator(self, source)

    def release(self) -> None:
        """Free this finished system by reference counting.

        A built system is reference-cyclic: components point at the
        simulator that lists them and at channels that list them back,
        and some at parts that point back at them (a REALM splitter's
        ``config`` is its unit; the crossbar's express orders call back
        into it).  A cycle survives until a full collection, which a
        campaign rarely triggers, so a finished point would stay
        resident.  Clearing the attributes of the simulator, of every
        component and of every state client breaks each such cycle: the
        system is freed the moment its last outside reference goes.
        None of them may be used afterwards.
        """
        for owner in (*self._components, *self._state_clients.values()):
            vars(owner).clear()
        vars(self).clear()

    # ------------------------------------------------------------------
    # active-set bookkeeping
    # ------------------------------------------------------------------
    def wake(self, component: Component) -> None:
        """Make *component* tick again from the next tick phase onward."""
        if component._sim is not self:
            return
        rec = self._recorder
        if rec is None:
            self._active.add(component)
            return
        # Recorded: attribute genuine asleep -> awake transitions to
        # "hook" while hooks drain, else "direct".  Channel and timer
        # wakes attribute inline at their sites, so every transition
        # is counted once and sleeps can be derived from the total.
        active = self._active
        if component not in active:
            active.add(component)
            rec.wake_event(
                component.name,
                "hook" if self._in_hooks else "direct",
                self.cycle,
            )

    def wake_at(self, component: Component, cycle: int) -> None:
        """Schedule *component* to re-enter the active set at *cycle*."""
        if component._sim is not self:
            return
        if cycle <= self.cycle:
            # Immediate: a plain wake, so a recorder attributes it.
            self.wake(component)
            return
        self._wake_seq += 1
        heapq.heappush(self._wake_heap, (cycle, self._wake_seq, component))

    # ------------------------------------------------------------------
    # flight recorder (repro.obs)
    # ------------------------------------------------------------------
    def attach_recorder(self, recorder) -> None:
        """Attach a flight recorder (one at a time; DESIGN.md section 15).

        The recorder collects execution-side metrics (wake causes,
        occupancy, phase wall time) and optionally journals events.  It
        is never captured by snapshots and never influences simulated
        state or digests; :meth:`step` reads it from ``_recorder``, so
        attaching rebinds nothing.
        """
        if self._recorder is not None:
            raise SimulationError("a flight recorder is already attached")
        self._recorder = recorder
        recorder.on_attach(self)
        self._rec_journal = recorder.journal

    def detach_recorder(self) -> None:
        """Detach the flight recorder (no-op when none is attached)."""
        self._recorder = None
        self._rec_journal = None

    # ------------------------------------------------------------------
    # express routes (batched datapath)
    # ------------------------------------------------------------------
    def install_express(self, order) -> None:
        """Register an :class:`~repro.sim.channel.ExpressRoute` order.

        The kernel steps every installed order once per cycle, between the
        tick and commit phases, in installation order.
        """
        if order not in self._express:
            self._express.append(order)
            rec = self._recorder
            if rec is not None:
                rec.express_event("install", order, self.cycle)

    def remove_express(self, order) -> None:
        """Drop an express order (no-op if it is not installed)."""
        try:
            self._express.remove(order)
        except ValueError:
            return
        rec = self._recorder
        if rec is not None:
            rec.express_event("cancel", order, self.cycle)

    def _run_express(self) -> None:
        # Orders may cancel themselves (and thereby mutate the registry)
        # while stepping, so iterate over a snapshot.
        for order in tuple(self._express):
            order.step()

    # ------------------------------------------------------------------
    # commit-boundary hooks
    # ------------------------------------------------------------------
    def call_at(self, cycle: int, fn: Callable[[int], None]) -> None:
        """Run *fn(cycle)* at the commit boundary of *cycle*.

        The hook fires after the commit phase of *cycle*, when every
        channel has published and every component's state is final for
        that cycle — the same instant on both kernel variants, which is
        what makes scheduled observation and reconfiguration
        bit-identical across them.  Hooks scheduled for a
        cycle that already committed fire at the next boundary.  A hook
        may wake components, write configuration, and schedule further
        hooks (periodic schedules re-arm themselves this way).
        """
        self._hook_seq += 1
        heapq.heappush(self._hook_heap, (cycle, self._hook_seq, fn))

    def call_at_transient(self, cycle: int, fn: Callable[[int], None]) -> None:
        """Like :meth:`call_at`, but for execution-side observers.

        Transient hooks share the heap (same firing order, same
        fast-forward/span bounding) but are excluded from the snapshot
        ownership audit: :func:`repro.snapshot.capture_simulator` expects
        every *persistent* hook to be owned by a state client that
        re-arms it on restore, whereas a transient hook belongs to the
        live execution (telemetry sampling, a pause request) and is
        simply dropped by restore, never re-armed.
        Telemetry stays a tap, never simulated state.
        """
        self._transient_hooks += 1

        def fire(committed: int, _fn=fn) -> None:
            self._transient_hooks -= 1
            _fn(committed)

        self.call_at(cycle, fire)

    # ------------------------------------------------------------------
    # run-loop poll seam
    # ------------------------------------------------------------------
    def set_poll(self, fn: Callable[[], None], gate: object = None) -> None:
        """Install the run-loop poll callback (one at a time).

        *fn* runs at the top of a :meth:`run`/:meth:`run_until`
        iteration — always at a commit boundary, never mid-step — and
        may arm transient hooks, read probes, or block (a live pause).
        It must not send on channels or mutate simulated state directly.

        *gate* is an optional truthiness guard: when given (typically
        the caller's own command queue), *fn* is only invoked on
        iterations where ``bool(gate)`` is true, keeping the idle
        attached cost to one C-level test instead of a Python call.
        Whoever needs *fn* to run must therefore make the gate truthy
        first (e.g. enqueue a command — a sentinel will do).  Without a
        gate, *fn* runs every iteration.
        """
        if self._poll_fn is not None:
            raise SimulationError("a run-loop poll callback is already set")
        self._poll_fn = fn
        self._poll_gate = gate if gate is not None else True

    def clear_poll(self) -> None:
        """Remove the run-loop poll callback (no-op when unset)."""
        self._poll_fn = None
        self._poll_gate = None

    def _fire_hooks(self, committed: int) -> None:
        """Fire every hook due at or before the just-committed cycle.

        Drained in two phases so a hook that schedules another hook for
        an already-committed cycle defers it to the next boundary (the
        documented contract) instead of re-entering this drain — which
        would also let a self-rescheduling hook loop forever.
        """
        heap = self._hook_heap
        due = []
        while heap and heap[0][0] <= committed:
            due.append(heapq.heappop(heap))
        rec = self._recorder
        if rec is not None:
            rec._hooks_fired += len(due)
        # While the drain runs, wake() attributes to the "hook" cause.
        self._in_hooks = True
        try:
            for _, _, fn in due:
                fn(committed)
        finally:
            self._in_hooks = False

    def _process_due_wakes(self, cycle: int) -> None:
        heap = self._wake_heap
        rec = self._recorder
        active = self._active
        while heap and heap[0][0] <= cycle:
            _, _, component = heapq.heappop(heap)
            if component._sim is self:
                if rec is not None and component not in active:
                    rec.wake_event(component.name, "timer", cycle)
                active.add(component)

    def _quiescent(self) -> bool:
        """True when nothing will change until a timed wake-up (or never)."""
        if not self._active_set_enabled or self._active or self._hot_channels:
            return False
        for order in self._express:
            if order.ready():
                return False
        return True

    def _owes_commit(self) -> bool:
        """True while a channel touched outside a step has beats to
        publish or space to free (a span must not skip that commit)."""
        for channel in self._hot_channels:
            if channel._pending or len(channel._queue) < channel._snapshot:
                return True
        return False

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation by exactly one cycle.

        The one step body of both kernels: the ``active_set`` branches
        keep the naive tick-everything path beside the active-set path
        as its independent reference.  Flight-recorder observation
        points sit behind ``rec is not None`` tests (see the module
        docstring); ``timed`` reuses the per-tick test slot, so sampling
        adds nothing per tick to the detached path.
        """
        cycle = self.cycle
        rec = self._recorder
        journal = self._rec_journal
        # Recorded steps are timed on 1 in PHASE_STRIDE cycles (phase
        # and per-component tick wall time): perf_counter calls on every
        # step would alone breach the recorder's <2% overhead gate, and
        # shares are stable under uniform, cycle-keyed sampling.
        timed = rec is not None and not cycle & rec._phase_mask
        if timed:
            t0 = perf_counter()
        active_set = self._active_set_enabled
        if active_set:
            if self._wake_heap:
                self._process_due_wakes(cycle)
            active = self._active
            if rec is not None:
                # Preallocated to len(components) + 2 on attach; the
                # active set can never outgrow the component list.
                rec._occupancy[len(active)] += 1
            if active:
                for component in self._components:
                    if component in active:
                        if timed:
                            rec.timed_tick(component, cycle)
                        else:
                            component.tick(cycle)
                        self.ticks_executed += 1
                        if component.is_idle():
                            # No sleep counter: the registry derives it
                            # from wake attribution at snapshot time.
                            active.discard(component)
                            if journal is not None:
                                journal.append(
                                    (cycle, "sleep", component.name)
                                )
        else:
            if rec is not None:
                rec._occupancy[len(self._components)] += 1
            for component in self._components:
                if timed:
                    rec.timed_tick(component, cycle)
                else:
                    component.tick(cycle)
                self.ticks_executed += 1
        if timed:
            t1 = perf_counter()
        if self._express:
            self._run_express()
        if timed:
            t2 = perf_counter()
        if active_set:
            hot = self._hot_channels
            if hot:
                for channel in hot:
                    channel.commit()
                hot.clear()
        else:
            for channel in self._channels:
                channel.commit()
        if self._express:
            # Boundary watch: orders whose head beat is now a burst end
            # (or foreign) cancel here so the owner ticks next cycle.
            for order in tuple(self._express):
                order.after_commit()
        self.cycle = cycle + 1
        if self._hook_heap:
            self._fire_hooks(cycle)
        if timed:
            rec.sample_phases(t0, t1, t2)

    def _fast_forward(self, target: int) -> None:
        """Jump the clock to *target* while the system is quiescent.

        Per-cycle counts (``busy_cycles``, ``ticks_skipped``) are
        functions of the clock, so the jump is invisible to everything
        except wall-clock time.
        """
        start = self.cycle
        self.cycle = target
        skipped = target - start
        self.cycles_fast_forwarded += skipped
        rec = self._recorder
        if rec is not None:
            rec.fast_forward(start, skipped)
        if self._hook_heap:
            # _next_stop capped the jump at the earliest hook's boundary,
            # so at most the hooks of the just-committed cycle are due.
            self._fire_hooks(self.cycle - 1)

    def _next_stop(self, limit: int) -> int:
        if self._wake_heap:
            limit = min(limit, self._wake_heap[0][0])
        if self._hook_heap:
            # A hook due at cycle C fires at the C -> C+1 boundary, so a
            # quiescent jump may pass through C but no further.
            limit = min(limit, self._hook_heap[0][0] + 1)
        return limit

    def run(self, cycles: int) -> int:
        """Run for *cycles* cycles; returns the new current cycle."""
        self._advance(self.cycle + cycles)
        return self.cycle

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
        what: str = "condition",
    ) -> int:
        """Step until *predicate()* is true; returns the cycle it became true.

        Raises :class:`SimulationError` if *max_cycles* elapse first, which
        keeps deadlocked test benches from hanging silently.

        *predicate* must be a function of simulation state (component or
        channel observables), not of the cycle counter: when the system is
        quiescent the kernel fast-forwards, so a predicate that flips purely
        with ``sim.cycle`` may be observed late.  Use :meth:`run` for
        time-based waits.
        """
        if not self._advance(self.cycle + max_cycles, predicate):
            raise SimulationError(
                f"timeout after {max_cycles} cycles waiting for {what}"
            )
        return self.cycle

    def _advance(
        self,
        limit: int,
        predicate: Optional[Callable[[], bool]] = None,
    ) -> bool:
        """The one run loop behind :meth:`run` and :meth:`run_until`.

        Advances until *predicate()* holds (without a predicate: until
        the clock reaches *limit*) and returns True; returns False when
        *limit* is reached first.  Each iteration polls, then jumps a
        quiescent stretch, replays a span, or steps one cycle.  A span
        attempt is skipped while a channel owes a commit, and while the
        component that vetoed the last one as opaque is still awake: it
        would veto again.  ``run`` and ``run_until`` never call each
        other, so wrappers around either see each run exactly once.
        """
        while not (
            predicate() if predicate is not None else self.cycle >= limit
        ):
            if self._poll_gate:
                self._poll_fn()
            if self.cycle >= limit:
                return False
            if self._quiescent():
                target = self._next_stop(limit)
                if target > self.cycle:
                    self._fast_forward(target)
                    continue
            elif (
                self._span_enabled
                and self._span_veto not in self._active
                and not self._owes_commit()
                and attempt_span(self, limit)
            ):
                continue
            self.step()
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def ticks_skipped(self) -> int:
        """One tick slot per component per cycle since its :meth:`add`,
        less ``ticks_executed`` (always 0 on the naive kernel)."""
        slots = len(self._components) * self.cycle - self._slots_offset
        return slots - self.ticks_executed

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components)

    @property
    def active_components(self) -> tuple[Component, ...]:
        """Components currently in the active set (in registration order)."""
        return tuple(c for c in self._components if c in self._active)

    def find(self, name: str) -> Optional[Component]:
        """Return the first component whose name matches, or ``None``."""
        for component in self._components:
            if component.name == name:
                return component
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Simulator {self.name!r} cycle={self.cycle} "
            f"components={len(self._components)} channels={len(self._channels)}>"
        )

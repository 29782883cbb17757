"""Span-replay: closed-form multi-cycle evolution of linear steady states.

The batched datapath (``ExpressRoute``) removed the per-beat cost of the
*transport* half of an uncontended stream, but every beat still pays one
tick of every component on the path — for streaming scenarios the
regulation pipeline (REALM unit) and the endpoint models dominate.  Span
replay generalises the kernel's quiescent fast-forward to *linearly
streaming* systems: when every active component can prove that its next
``n`` ticks are a pure repetition — the same beats moving one hop per
cycle with every queue occupancy constant — the kernel advances the clock
``n`` cycles at once and lets each component apply the closed-form state
update for the whole span.

Protocol
--------

A component opts in by implementing ``span_offer(cycle, bound)``:

* return ``None`` if the component cannot guarantee linearity this cycle
  (any pending boundary, arbitration, reconfiguration, or latency event);
* otherwise return a :class:`SpanOffer` describing the *flows* the
  component sustains (exactly one beat per cycle per flow), the maximum
  number of cycles ``horizon`` the guarantee holds, and an ``apply(n)``
  closure that advances the component's internal state by ``n`` cycles in
  closed form — bit-identical to ``n`` per-beat ticks.

``bound`` is the number of cycles the kernel can use at most; a
component whose horizon needs a per-beat scan may stop scanning at
``bound`` — claiming *less* than it could sustain is always safe,
claiming more than it can is never.  Only the horizon may depend on
``bound``: whether an offer is made, its flows, and their templates
must not, because the kernel proves a span with ``bound=MIN_SPAN``
offers and re-asks for a longer horizon only once the span has passed
every check.

The kernel (:func:`attempt_span`) accepts the offers only if they stitch
into a closed system: every channel touched by a flow must have exactly
one producer and one consumer, a steady occupancy (``1 <= occ < cap``),
value-identical queued beats matching the producer/consumer templates,
and no observer (tracer or non-participant listener) that would have seen
per-cycle events.  Installed :class:`~repro.sim.channel.ExpressRoute`
orders join the stitch as relay flows, so channel-side batching and
regulation-side replay compose into one span.  The span is clamped to
the next timed wake-up and the next commit-boundary hook, so scheduled
observation/reconfiguration (the control plane) and budget edges fire on
exactly the cycle they would have per-beat.

Equivalence contract: a span of ``n`` cycles leaves every observable in
the exact state ``n`` calls to ``step()`` would have produced, for *any*
``n`` within the negotiated horizon.  See DESIGN.md section 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

#: Spans shorter than this are not worth the negotiation overhead; the
#: clamp also guarantees that a commit-boundary hook (e.g. a scheduled
#: knob write) landing within MIN_SPAN cycles of a would-be span start
#: aborts the span outright and is reached on the per-beat path.
MIN_SPAN = 4

#: Horizon for flows whose sustain length is bounded by the other side.
UNBOUNDED = 1 << 60


@dataclass(slots=True)
class SpanFlow:
    """One sustained beat-per-cycle movement.

    ``src``/``dst`` are channels (either may be ``None`` for a flow that
    originates or terminates inside the component).  ``template_in`` is
    the value consumed from ``src`` each cycle, ``template_out`` the
    value produced into ``dst`` — for a pure relay they are equal.
    """

    src: Optional[Any]
    dst: Optional[Any]
    template_in: Optional[Any] = None
    template_out: Optional[Any] = None


def relay(src: Any, dst: Any, template: Any) -> SpanFlow:
    """A flow that moves *template* from *src* to *dst* unchanged."""
    return SpanFlow(src, dst, template, template)


def consume(src: Any, template: Any) -> SpanFlow:
    """A flow that consumes *template* from *src* each cycle."""
    return SpanFlow(src, None, template, None)


def produce(dst: Any, template: Any) -> SpanFlow:
    """A flow that produces *template* into *dst* each cycle."""
    return SpanFlow(None, dst, None, template)


@dataclass(slots=True)
class SpanOffer:
    """A component's guarantee of ``horizon`` linear cycles.

    ``apply(n)`` must advance the component's state exactly as ``n``
    per-beat ticks would, for any ``1 <= n <= horizon``.
    """

    flows: tuple
    horizon: int
    apply: Callable[[int], None]


def _abort(sim, cause: str, refuser=None) -> bool:
    aborts = sim.span_aborts
    aborts[cause] = aborts.get(cause, 0) + 1
    # The abort-cause counters live on the simulator (folded into the
    # metrics registry at snapshot time); the recorder only needs to
    # hear about aborts when its journal wants the per-event taxonomy —
    # negotiation failures are per-cycle-frequent, so a journal-less
    # recorder must not pay more than the one test the detached path
    # already pays (``sim._rec_journal`` mirrors the journal exactly
    # for this reason).
    journal = sim._rec_journal
    if journal is not None:
        journal.append(
            (sim.cycle, "span_abort", cause,
             refuser.name if refuser is not None else None)
        )
    return False


def _refusal(offer) -> Optional[str]:
    """The abort cause one offer proves on its own evidence, or None.

    Every test here is one the stitch check would repeat over the whole
    flow set, so rejecting early never changes whether a span happens.
    """
    if offer is None:
        return "no_offer"
    if offer.horizon < MIN_SPAN:
        return "short"
    for flow in offer.flows:
        for channel in (flow.src, flow.dst):
            if channel is not None and (
                channel._tracer is not None
                or not 1 <= len(channel._queue) < channel.capacity
            ):
                return "stitch"
    return None


def attempt_span(sim, limit: int) -> bool:
    """Negotiate and execute one span ending no later than *limit*.

    Returns ``True`` if a span was applied (the clock has advanced),
    ``False`` if the system is not in a provably linear state — the
    caller then falls back to :meth:`Simulator.step`.  Checks run
    cheapest first and every failure stops at the first check that
    fails; per-beat horizon scans run only for a span already proven
    (DESIGN.md section 11).
    """
    cycle = sim.cycle
    active = sim._active
    n_max = limit - cycle
    hooks = sim._hook_heap
    if hooks:
        # A hook due at cycle C fires at the C -> C+1 boundary; the span
        # may cover C but not jump past the boundary.
        n_max = min(n_max, hooks[0][0] + 1 - cycle)
    if n_max < MIN_SPAN:
        return _abort(sim, "window")

    # Every active component must vouch for its own linearity.  One
    # without the protocol (a core executing, an arbitrating
    # interconnect) vetoes the span; the kernel skips further attempts
    # while that veto stays awake.
    opaque = sim._opaque
    if not active.isdisjoint(opaque):
        for component in opaque:
            if component in active:
                sim._span_veto = component
                return _abort(sim, "opaque", component)

    # A wake scheduled by a *sleeping* component is a real event: the
    # component rejoins the active set on that cycle, so the span must
    # end there.  A wake belonging to an already-active component is
    # subsumed by its own offer: the offer contract guarantees that
    # ``apply(n)`` equals ``n`` ticks for any ``n`` within the horizon,
    # so any self-scheduled wake inside the horizon is inconsequential.
    for wake_cycle, _, component in sim._wake_heap:
        if wake_cycle - cycle < n_max and component not in active \
                and component._sim is sim:
            n_max = wake_cycle - cycle
    if n_max < MIN_SPAN:
        return _abort(sim, "window")

    # Installed express orders join the span as relay flows: the order
    # moves its source head one hop per cycle, unchanged until a burst
    # boundary or a guard rejection.  The boundary needs no offers, so
    # it is checked here; the flows are built once the offers pass.
    express = sim._express
    for order in express:
        queue = order.src._queue
        if queue and order.boundary(queue[0]):
            return _abort(sim, "boundary")

    # Phase 1: prove the span with MIN_SPAN-bounded offers, so horizon
    # scans stop after MIN_SPAN beats.  The component that refused last
    # time is the most likely refuser now (boundary churn lasts several
    # cycles): it is asked first, and its offer is reused below.
    probe = sim._span_probe
    probe_offer = None
    if probe is not None and probe in active:
        probe_offer = probe.span_offer(cycle, MIN_SPAN)
        cause = _refusal(probe_offer)
        if cause is not None:
            return _abort(sim, cause, probe)
    owners = []
    offers = []
    flows = []
    for component in sim._components:
        if component not in active:
            continue
        if component is probe:
            offer = probe_offer
        else:
            offer = component.span_offer(cycle, MIN_SPAN)
            cause = _refusal(offer)
            if cause is not None:
                sim._span_probe = component
                return _abort(sim, cause, component)
        owners.append(component)
        offers.append(offer)
        flows.extend(offer.flows)
    for order in express:
        queue = order.src._queue
        if queue:
            head = queue[0]
            out = head if order.transform is None else order.transform(head)
            flows.append(SpanFlow(order.src, order.dst, head, out))

    if not flows:
        return _abort(sim, "no_flows")

    # Stitch check: the flows must close over every touched channel with
    # a steady, value-uniform queue and no out-of-span observer.  Every
    # active component offered, so the participants are the active set.
    producers: dict = {}
    consumers: dict = {}
    for flow in flows:
        if flow.src is not None:
            if flow.src in consumers:
                return _abort(sim, "stitch")
            consumers[flow.src] = flow.template_in
        if flow.dst is not None:
            if flow.dst in producers:
                return _abort(sim, "stitch")
            producers[flow.dst] = flow.template_out
    if producers.keys() != consumers.keys():
        return _abort(sim, "stitch")
    for channel, template in consumers.items():
        if template is None or producers[channel] != template:
            return _abort(sim, "stitch")
        if channel._pending or channel._tracer is not None:
            return _abort(sim, "stitch")
        queue = channel._queue
        if not 1 <= len(queue) < channel.capacity:
            return _abort(sim, "stitch")
        for beat in queue:
            if getattr(beat, "last", False) or beat != template:
                return _abort(sim, "stitch")
        for listener in channel._recv_listeners:
            if listener not in active:
                return _abort(sim, "listener", listener)
        for listener in channel._send_listeners:
            if listener not in active:
                return _abort(sim, "listener", listener)

    # Phase 2: extend the proven span.  A horizon above MIN_SPAN was not
    # cut by the phase-1 bound; one at MIN_SPAN may have been, so that
    # offer is re-asked with the running minimum as its bound (once the
    # minimum is down to MIN_SPAN no re-ask can lengthen the span).
    # Flows and templates do not depend on the bound: the stitch holds.
    n = n_max
    for offer in offers:
        if MIN_SPAN < offer.horizon < n:
            n = offer.horizon
    for index, offer in enumerate(offers):
        if offer.horizon <= MIN_SPAN < n:
            offer = offers[index] = owners[index].span_offer(cycle, n)
            if offer.horizon < n:
                n = offer.horizon

    # --- commit the span -------------------------------------------------
    sim.cycle = cycle + n
    for offer in offers:
        offer.apply(n)
    for channel in consumers:
        # One beat entered and one left per cycle; occupancy unchanged.
        channel._sent_total += n
        channel._recv_total += n
    sim.spans_entered += 1
    sim.span_cycles_replayed += n
    rec = sim._recorder
    if rec is not None:
        rec.span_commit(cycle, n, len(offers))
    if sim._hook_heap:
        # n_max capped the span at the earliest hook's boundary, so at
        # most the hooks of the just-committed cycle are due.
        sim._fire_hooks(sim.cycle - 1)
    return True

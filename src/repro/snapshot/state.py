"""Commit-boundary capture and restore of a whole simulator.

:func:`capture_simulator` walks a :class:`~repro.sim.kernel.Simulator`
at a commit boundary — the only instant at which every channel has
published its sends and every component's state is final for the cycle
— and returns an encoded plain tree (see :mod:`repro.snapshot.codec`).
:func:`restore_simulator` writes such a tree back into a simulator
whose structure matches: same kernel flags, same channels and
components in the same registration order (the natural situation:
a fresh build of the same :class:`~repro.system.SystemBuilder` /
scenario declaration).

What is captured where (the ownership contract, DESIGN.md section 10):

* the **kernel** owns the clock, the active set, the timed wake queue,
  the hot-channel set, and the introspection counters;
* each **channel** owns its committed queue and counters (captures on
  an uncommitted channel are refused — commit-boundary-only rule);
* each **component** owns everything its tick reads or writes,
  including runtime configuration written through knobs and any
  :class:`~repro.sim.channel.ExpressRoute` orders it installed (the
  component re-installs them on restore, which also re-suppresses the
  listener subscriptions the orders manage);
* registered **state clients** (the schedule engine, the bus guard)
  own the commit-boundary hook heap: the kernel's pending hooks are
  *not* captured as data — each client re-arms its own on restore, in
  captured order, which is why a capture is refused while a hook not
  owned by any client is pending.  Hooks armed through
  :meth:`~repro.sim.kernel.Simulator.call_at_transient` (the telemetry
  tap, live pause requests) are execution-side observers: captures
  tolerate them and restores drop them for good — nothing re-arms
  them, so :func:`~repro.scenario.runner.run_point` restores before a
  live session subscribes.  A checkpoint taken while a live client
  watches therefore restores bit-identically into a build with no
  telemetry at all.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Any

from repro.snapshot.codec import SnapshotError, decode_state, encode_state

#: On-disk / on-wire format revision.  Bump on any incompatible change
#: to the tree layout or to a component's state dict.
SNAPSHOT_FORMAT = 1


def _client_pending_hooks(client: Any) -> int:
    probe = getattr(client, "state_pending_hooks", None)
    return probe() if probe is not None else 0


def capture_simulator(sim) -> dict:
    """Capture *sim* into an encoded plain tree (commit boundaries only)."""
    # The flight recorder is execution-side: it observes the capture
    # (timing + journal event) but is never part of the captured tree —
    # the explicit field list below is the whole snapshot contract.
    rec = sim._recorder
    t0 = perf_counter() if rec is not None else 0.0
    for channel in sim._channels:
        if channel._pending:
            raise SnapshotError(
                f"channel {channel.name!r} has uncommitted beats; "
                "snapshots are legal only at commit boundaries"
            )
    owned = sum(
        _client_pending_hooks(client) for client in sim._state_clients.values()
    )
    transient = getattr(sim, "_transient_hooks", 0)
    if len(sim._hook_heap) != owned + transient:
        raise SnapshotError(
            f"{len(sim._hook_heap)} commit-boundary hooks pending but state "
            f"clients account for {owned} (+{transient} transient); hooks "
            "scheduled directly via Simulator.call_at cannot be captured"
        )
    index_of = {id(c): i for i, c in enumerate(sim._components)}  # repro: lint-ok[nondeterminism-sources] id() keys an identity map within one capture pass; only registration indices are persisted
    wake_heap = sorted(
        (cycle, seq, index_of[id(component)])  # repro: lint-ok[nondeterminism-sources] id() keys an identity map within one capture pass; only registration indices are persisted
        for cycle, seq, component in sim._wake_heap
        if component._sim is sim
    )
    channel_index = {id(ch): i for i, ch in enumerate(sim._channels)}  # repro: lint-ok[nondeterminism-sources] id() keys an identity map within one capture pass; only registration indices are persisted
    raw = {
        "format": SNAPSHOT_FORMAT,
        "flags": {
            "active_set": sim._active_set_enabled,
            "batched": sim._batched,
        },
        "cycle": sim.cycle,
        "channel_names": [ch.name for ch in sim._channels],
        "channels": [ch.state_capture() for ch in sim._channels],
        "component_names": [c.name for c in sim._components],
        "components": [c.state_capture() for c in sim._components],
        "kernel": {
            "active": sorted(
                index_of[id(c)] for c in sim._active if id(c) in index_of  # repro: lint-ok[nondeterminism-sources] id() keys an identity map within one capture pass; only registration indices are persisted
            ),
            "wake_heap": wake_heap,
            "wake_seq": sim._wake_seq,
            "hot": sorted(
                channel_index[id(ch)]  # repro: lint-ok[nondeterminism-sources] id() keys an identity map within one capture pass; only registration indices are persisted
                for ch in sim._hot_channels
                if id(ch) in channel_index  # repro: lint-ok[nondeterminism-sources] id() keys an identity map within one capture pass; only registration indices are persisted
            ),
            "ticks_executed": sim.ticks_executed,
            "ticks_skipped": sim.ticks_skipped,
            "cycles_fast_forwarded": sim.cycles_fast_forwarded,
        },
        "clients": {
            name: client.state_capture()
            for name, client in sim._state_clients.items()
        },
    }
    tree = encode_state(raw)
    if rec is not None:
        rec.snapshot_event("capture", sim.cycle, perf_counter() - t0)
    return tree


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SnapshotError(message)


def restore_simulator(sim, tree: dict) -> None:
    """Restore an encoded tree into *sim* (structure must match)."""
    rec = sim._recorder
    t0 = perf_counter() if rec is not None else 0.0
    state = decode_state(tree)
    _check(isinstance(state, dict), "snapshot tree is not a mapping")
    _check(
        state.get("format") == SNAPSHOT_FORMAT,
        f"snapshot format {state.get('format')!r} != {SNAPSHOT_FORMAT} "
        "(regenerate the checkpoint)",
    )
    flags = state["flags"]
    _check(
        flags["active_set"] == sim._active_set_enabled
        and flags["batched"] == sim._batched,
        "kernel flags differ: snapshot taken with "
        f"active_set={flags['active_set']} batched={flags['batched']}, "
        f"restoring into active_set={sim._active_set_enabled} "
        f"batched={sim._batched}",
    )
    _check(
        state["channel_names"] == [ch.name for ch in sim._channels],
        "channel registration order differs from the snapshot "
        "(was the system built from the same declaration?)",
    )
    _check(
        state["component_names"] == [c.name for c in sim._components],
        "component registration order differs from the snapshot "
        "(was the system built from the same declaration?)",
    )
    _check(
        set(state["clients"]) == set(sim._state_clients),
        "state clients differ from the snapshot "
        f"({sorted(state['clients'])} vs {sorted(sim._state_clients)})",
    )
    # Unwind any live express orders first: cancelling restores the
    # listener subscriptions they suppress, so components re-installing
    # captured orders start from clean wiring.
    for order in tuple(sim._express):
        order.cancel()
    sim._express.clear()
    # The clock first: channels re-mark their busy cycles at it.
    sim.cycle = state["cycle"]
    for channel, channel_state in zip(sim._channels, state["channels"]):
        channel.state_restore(channel_state)
    for component, component_state in zip(
        sim._components, state["components"]
    ):
        component.state_restore(component_state)
    kernel = state["kernel"]
    components = sim._components
    channels = sim._channels
    previous = sim._active
    sim._active = {components[i] for i in kernel["active"]}
    if rec is not None:
        rec.active_restored(previous, sim.cycle)
    heap = [
        (cycle, seq, components[i]) for cycle, seq, i in kernel["wake_heap"]
    ]
    heapq.heapify(heap)
    sim._wake_heap = heap
    sim._wake_seq = kernel["wake_seq"]
    sim._hot_channels = {channels[i] for i in kernel["hot"]}
    sim.ticks_executed = kernel["ticks_executed"]
    # Rebase the offset the captured ticks_skipped is derived from.
    slots = kernel["ticks_skipped"] + kernel["ticks_executed"]
    sim._slots_offset = len(components) * sim.cycle - slots
    sim.cycles_fast_forwarded = kernel["cycles_fast_forwarded"]
    # Clients re-arm their commit-boundary hooks from their own state;
    # anything the fresh build armed (e.g. a schedule's first firings)
    # is dropped wholesale first.  Transient hooks (telemetry taps, live
    # pause requests) belong to the execution, not the state: they are
    # dropped too, and nothing re-arms them.
    sim._hook_heap.clear()
    sim._transient_hooks = 0
    for name, client_state in state["clients"].items():
        sim._state_clients[name].state_restore(client_state)
    if rec is not None:
        rec.snapshot_event("restore", sim.cycle, perf_counter() - t0)

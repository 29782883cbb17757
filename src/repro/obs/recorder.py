"""The flight recorder: execution metrics + event journal for one run.

A :class:`FlightRecorder` attaches to a
:class:`~repro.sim.kernel.Simulator` (``sim.attach_recorder``) and
collects execution-side measurements while the run proceeds:

* wake-cause attribution per component (channel commit vs ``wake_at``
  timer vs ``call_at`` hook vs direct call vs snapshot restore),
* an active-set occupancy histogram (one observation per stepped cycle),
* phase-split wall time (tick / express / commit / snapshot) and
  per-component tick time, stride-sampled on 1 in :data:`PHASE_STRIDE`
  stepped cycles — ``perf_counter`` calls on every step would alone
  breach the <2% overhead gate, and *shares* are stable under uniform
  sampling (the reported seconds and tick counts are the sample scaled
  by the stride; ``--profile`` prints the per-component estimates),
* span, express-route, fast-forward, and checkpoint counters,
* optionally a bounded :class:`~repro.obs.journal.EventJournal` of the
  same transitions, for trace export.

Everything here is execution strategy, never simulated state: the
recorder is invisible to ``snapshot/`` (lint rule ``obs-isolation``
locks that in) and neutral to digests and goldens.  Detached, the
kernel's single step body skips every observation point behind an
``is None`` test — the same discipline as the ``set_poll`` seam.

The hot-path counters are plain dicts and lists on the recorder
(cheapest possible updates); :meth:`FlightRecorder.snapshot` folds them
into the typed :class:`~repro.obs.metrics.MetricsRegistry` and
serializes it, so every consumer reads one registry-shaped dict.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.obs.journal import DEFAULT_CAPACITY, EventJournal
from repro.obs.metrics import MetricsRegistry

__all__ = ["FlightRecorder", "PHASE_STRIDE"]

#: Phase wall-time is measured on stepped cycles where
#: ``cycle & (PHASE_STRIDE - 1) == 0`` — a power of two so the kernel's
#: sampling test is one mask.  Cycle-keyed (not counter-keyed) so which
#: steps get sampled is a deterministic function of simulated time.
PHASE_STRIDE = 64


class FlightRecorder:
    """Execution metrics (and optionally a journal) for one simulator."""

    def __init__(
        self,
        journal: bool = False,
        journal_capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        self.sim = None
        self.registry = MetricsRegistry()
        self.journal: Optional[EventJournal] = (
            EventJournal(journal_capacity) if journal else None
        )
        # Hot-path accumulators (folded into the registry on snapshot).
        self._wakes: dict = {}  # (name, cause) -> count, all but channel
        # Channel wakes are ~per-cycle-frequent (every listener rejoining
        # on a commit), so they get the cheapest possible store: a dict
        # pre-seeded with every component at attach time, updated inline
        # by Channel.commit with two subscripts and no method call.
        self._channel_wakes: dict = {}  # component -> count
        self._occupancy: list = [0]
        self._phase = [0.0, 0.0, 0.0, 0.0]  # tick, express, commit, snapshot
        # Per-component tick time on sampled steps: name -> [ticks, s].
        self._tick_samples: dict = {}
        self._phase_mask = PHASE_STRIDE - 1  # kernel's sampling test
        self._attach_active = 0
        self._fast_forwards = 0
        self._hooks_fired = 0
        self._express_installed = 0
        self._express_cancelled = 0
        self._snapshot_captures = 0
        self._snapshot_restores = 0
        self._attach_cycle = 0

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, sim) -> "FlightRecorder":
        """Attach to *sim* (sugar for ``sim.attach_recorder(self)``)."""
        sim.attach_recorder(self)
        return self

    def on_attach(self, sim) -> None:
        """Kernel callback from ``attach_recorder``; not public API."""
        self.sim = sim
        self._attach_cycle = sim.cycle
        self._attach_active = len(sim._active)
        self._occupancy = [0] * (len(sim._components) + 2)
        # Pre-seed so the commit-path update is a guaranteed-hit
        # ``wakes[component] += 1`` (Simulator.add keeps this in sync
        # for components registered after attach).
        self._channel_wakes = {c: 0 for c in sim._components}
        journal = self.journal
        if journal is not None:
            # Open a track slice for everything already awake, so the
            # exporter sees a defined state from the first cycle on.
            cycle = sim.cycle
            active = sim._active
            for component in sim._components:
                if component in active:
                    journal.append((cycle, "wake", component.name, "attach"))

    def detach(self) -> None:
        sim = self.sim
        if sim is not None and sim._recorder is self:
            sim.detach_recorder()
        self.sim = None

    # ------------------------------------------------------------------
    # kernel hot-path hooks (called only while attached)
    # ------------------------------------------------------------------
    def wake_event(self, name: str, cause: str, cycle: int) -> None:
        """One component transitioned asleep -> awake (timer, hook,
        direct-call, and restore paths; channel wakes are accounted
        inline by ``Channel.commit``)."""
        key = (name, cause)
        wakes = self._wakes
        wakes[key] = wakes.get(key, 0) + 1
        journal = self.journal
        if journal is not None:
            journal.append((cycle, "wake", name, cause))

    def timed_tick(self, component, cycle: int) -> None:
        """Tick *component* on a sampled step, timing it."""
        t0 = perf_counter()
        component.tick(cycle)
        elapsed = perf_counter() - t0
        samples = self._tick_samples
        slot = samples.get(component.name)
        if slot is None:
            slot = samples[component.name] = [0, 0.0]
        slot[0] += 1
        slot[1] += elapsed

    def sample_phases(self, t0: float, t1: float, t2: float) -> None:
        """Close a sampled step: tick, express, and commit phase time
        from the kernel's ``t0``/``t1``/``t2`` marks to now."""
        phase = self._phase
        phase[0] += t1 - t0
        phase[1] += t2 - t1
        phase[2] += perf_counter() - t2

    def fast_forward(self, start: int, skipped: int) -> None:
        self._fast_forwards += 1
        journal = self.journal
        if journal is not None:
            journal.append((start, "ff", skipped))

    def span_commit(self, cycle: int, n: int, participants: int) -> None:
        journal = self.journal
        if journal is not None:
            journal.append((cycle, "span", n, participants))

    def express_event(self, action: str, order, cycle: int) -> None:
        if action == "install":
            self._express_installed += 1
        else:
            self._express_cancelled += 1
        journal = self.journal
        if journal is not None:
            journal.append((cycle, "express", action, order.owner.name))

    def active_restored(self, previous, cycle: int) -> None:
        """A snapshot restore replaced the active set wholesale.

        Every component it added counts as a ``"restore"`` wake and every
        one it removed is journaled as a sleep, in registration order, so
        derived sleeps keep matching the journal across a rewind.
        """
        sim = self.sim
        active = sim._active
        journal = self.journal
        for component in sim._components:
            if component in active:
                if component not in previous:
                    self.wake_event(component.name, "restore", cycle)
            elif component in previous and journal is not None:
                journal.append((cycle, "sleep", component.name))

    def snapshot_event(self, action: str, cycle: int, seconds: float) -> None:
        if action == "capture":
            self._snapshot_captures += 1
        else:
            self._snapshot_restores += 1
        self._phase[3] += seconds
        journal = self.journal
        if journal is not None:
            journal.append((cycle, "ckpt", action, seconds))

    # ------------------------------------------------------------------
    # folding + serialization
    # ------------------------------------------------------------------
    def snapshot(self, units=None) -> dict:
        """Fold everything into the registry and serialize it.

        *units* optionally maps unit name -> ``(span_hits, span_cycles)``
        so span-replay attribution per REALM unit rides the same
        registry (the runner supplies it from the built system).
        """
        sim = self.sim
        registry = self.registry
        counter = registry.counter
        gauge = registry.gauge
        if sim is not None:
            counter("kernel.ticks_executed").value = sim.ticks_executed
            counter("kernel.ticks_skipped").value = sim.ticks_skipped
            counter("kernel.cycles_fast_forwarded").value = (
                sim.cycles_fast_forwarded
            )
            counter("span.entered").value = sim.spans_entered
            counter("span.cycles_replayed").value = sim.span_cycles_replayed
            for cause, count in sim.span_aborts.items():
                counter(f"span.abort.{cause}").value = count
            gauge("kernel.cycle").set(sim.cycle)
            gauge("span.enabled").set(int(sim.span_replay_enabled))
        counter("kernel.fast_forwards").value = self._fast_forwards
        counter("kernel.hooks_fired").value = self._hooks_fired
        counter("express.installed").value = self._express_installed
        counter("express.cancelled").value = self._express_cancelled
        counter("snapshot.captures").value = self._snapshot_captures
        counter("snapshot.restores").value = self._snapshot_restores
        wake_total = 0
        for component, count in self._channel_wakes.items():
            if count:
                wake_total += count
                counter(f"wake.channel.{component.name}").value = count
        for (name, cause), count in self._wakes.items():
            wake_total += count
            counter(f"wake.{cause}.{name}").value = count
        # Sleeps are derived, not counted: every awake episode either
        # ended in a sleep or is still running, so sleeps = episodes
        # started (active at attach + attributed wakes) - still active.
        # Counting per event would cost an attribute store on a
        # ~2-per-cycle path.  Every wake path (commit, timer, hook,
        # direct ``Simulator.wake``, ``wake_at`` of a past cycle,
        # snapshot restore) is attributed.  The journal, when enabled,
        # records the exact per-event sequence.
        if sim is not None:
            counter("kernel.sleeps").value = max(
                self._attach_active + wake_total - len(sim._active), 0
            )
        # Tick/express/commit and per-component ticks were measured on
        # 1-in-PHASE_STRIDE stepped cycles; scale the sample back to
        # whole-run estimates (snapshot time is measured on every
        # capture/restore — no scaling).
        phase = self._phase
        stride = self._phase_mask + 1
        for name, (ticks, seconds) in self._tick_samples.items():
            counter(f"tick.{name}.seconds").value = seconds * stride
            counter(f"tick.{name}.ticks").value = ticks * stride
        gauge("phase.sample_stride").set(stride)
        gauge("phase.tick_seconds").set(phase[0] * stride)
        gauge("phase.express_seconds").set(phase[1] * stride)
        gauge("phase.commit_seconds").set(phase[2] * stride)
        gauge("phase.snapshot_seconds").set(phase[3])
        histogram = registry.histogram("kernel.active_set")
        for size, count in enumerate(self._occupancy):
            if count:
                histogram.counts[size] = count
        if units:
            for name, (hits, cycles) in units.items():
                counter(f"span.unit.{name}.hits").value = hits
                counter(f"span.unit.{name}.cycles").value = cycles
        journal = self.journal
        if journal is not None:
            gauge("journal.events").set(len(journal))
            gauge("journal.dropped").set(journal.dropped)
        return registry.snapshot()

    def trace_dump(self) -> Optional[dict]:
        """The journal plus track context, ready for the trace exporter."""
        journal = self.journal
        if journal is None:
            return None
        sim = self.sim
        return {
            "components": (
                [c.name for c in sim._components] if sim is not None else []
            ),
            "events": list(journal.events()),
            "dropped": journal.dropped,
            "start_cycle": self._attach_cycle,
            "end_cycle": sim.cycle if sim is not None else 0,
        }

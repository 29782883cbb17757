"""The REALM unit: isolation, burst splitter, write buffer, and M&R unit
orchestrated by a small FSM (Figure 2).

The four sub-blocks are evaluated ingress-to-egress inside one simulator
tick, connected by same-cycle wires, so the unit adds a single registered
hop on each traversal direction (see ``repro.realm.wires``).

The FSM arbitrates the isolation block's three trigger sources
(Section III-A):

* **user command** — the CTRL register's isolate bit;
* **budget depletion** — any region of the M&R unit out of credit; the
  request is dropped again when the period replenishes the budget;
* **intrusive reconfiguration** — changes to the splitter granularity or a
  region's address boundary first drain the unit, apply the change while
  isolated, then release.
"""

from __future__ import annotations

from typing import Optional

from repro.axi.ports import AxiBundle
from repro.realm.bookkeeping import BookkeepingSnapshot
from repro.realm.burst_splitter import BurstSplitterStage
from repro.realm.config import RealmRuntimeConfig, RealmUnitParams
from repro.realm.isolation import IsolationStage
from repro.realm.mr_unit import MonitorRegulationStage
from repro.realm.regions import RegionConfig, RegionState
from repro.realm.throttle import ThrottleUnit
from repro.realm.wires import WireBundle
from repro.realm.write_buffer import WriteBufferStage
from repro.sim.kernel import Component
from repro.sim.span import UNBOUNDED, SpanOffer, relay


class RealmUnit(Component):
    """One per-manager real-time regulation and monitoring unit."""

    _STATE_FIELDS = (
        "_pending_reconfig", "_cycle", "_freeze_sig", "_freeze_counters",
        "_freeze_delta", "_frozen_since", "_frozen_applied_through",
    )

    def __init__(
        self,
        up: AxiBundle,
        down: AxiBundle,
        params: RealmUnitParams = RealmUnitParams(),
        name: str = "realm",
    ) -> None:
        super().__init__(name)
        self.params = params
        self.config = RealmRuntimeConfig(
            regions=[RegionConfig() for _ in range(params.n_regions)]
        )
        self.up = up
        self.down = down
        self.watch(up, role="device")
        self.watch(down, role="manager")
        link_a = WireBundle(f"{name}.iso2split")
        link_b = WireBundle(f"{name}.split2wbuf")
        link_c = WireBundle(f"{name}.wbuf2mr")
        self._links = (link_a, link_b, link_c)
        self._wires = tuple(w for link in self._links for w in link.channels)
        self.isolation = IsolationStage(up, link_a, name=f"{name}.isolate")
        self.splitter = BurstSplitterStage(
            link_a, link_b, config=self, name=f"{name}.splitter"
        )
        self.write_buffer = WriteBufferStage(
            link_b,
            link_c,
            depth_beats=params.write_buffer_depth,
            enabled=params.write_buffer_present,
            name=f"{name}.write_buffer",
        )
        self._throttle = ThrottleUnit(
            max_outstanding=params.max_pending, enabled=False
        )
        self.mr = MonitorRegulationStage(
            link_c,
            down,
            regions=[RegionState(cfg) for cfg in self.config.regions],
            throttle=self._throttle,
            name=f"{name}.mr",
        )
        self._pending_reconfig: list[tuple[str, object]] = []
        # Frozen-stall detection (active-set kernel): when the pipeline is
        # blocked in a stable state (budget depletion, user isolation, a
        # poisoned write burst), the only per-cycle state changes are
        # linear counters.  After two consecutive ticks with an identical
        # structural signature and identical counter deltas, the unit
        # sleeps and the skipped cycles are replayed arithmetically.
        self._cycle = -1
        self._freeze_sig: Optional[tuple] = None
        self._freeze_counters: Optional[tuple] = None
        self._freeze_delta: Optional[tuple] = None
        self._frozen_since: Optional[int] = None
        self._frozen_applied_through = -1
        # Span-replay statistics (execution strategy, not simulated state:
        # excluded from state_capture like the kernel's tick counters).
        self.span_hits = 0  # repro: lint-ok[snapshot-coverage] execution-strategy counter, not simulated state
        self.span_cycles = 0  # repro: lint-ok[snapshot-coverage] execution-strategy counter, not simulated state

    # ------------------------------------------------------------------
    # splitter config view (the splitter reads these each cycle)
    # ------------------------------------------------------------------
    @property
    def granularity(self) -> int:
        return self.config.granularity

    @property
    def granularity_aw(self) -> int:
        """Write-path granularity, clamped to the write buffer depth."""
        return min(self.config.granularity, self.params.max_fragment_beats)

    @property
    def splitter_enabled(self) -> bool:
        return self.params.splitter_present and self.config.splitter_enabled

    # ------------------------------------------------------------------
    # runtime configuration API (what the register file calls)
    # ------------------------------------------------------------------
    def set_granularity(self, beats: int) -> None:
        """Intrusive: drains the unit, then changes the fragment size."""
        candidate = RealmRuntimeConfig(
            granularity=beats,
            splitter_enabled=self.config.splitter_enabled,
            regions=self.config.regions,
        )
        candidate.validate(self.params)
        self._queue_reconfig("granularity", beats)

    def _queue_reconfig(self, kind: str, payload) -> None:
        # Pending reconfigurations are plain data, not closures, so a
        # checkpoint taken between a knob write and its drain-and-apply
        # commit captures them verbatim (DESIGN.md section 10).
        self._pending_reconfig.append((kind, payload))
        self.wake()

    def _apply_reconfig(self, kind: str, payload) -> None:
        if kind == "granularity":
            self.config.granularity = payload
        elif kind == "region":
            index, base, size, budget, period = payload
            region = RegionConfig(base, size, budget, period)
            self.config.regions[index] = region
            self.mr.regions[index].reconfigure(region)
        elif kind == "region_base":
            index, base = payload
            state = self.mr.regions[index]
            state.config.base = base
            state.replenish()
        elif kind == "region_size":
            index, size = payload
            state = self.mr.regions[index]
            state.config.size = size
            state.replenish()
        elif kind == "splitter_enabled":
            self.config.splitter_enabled = payload
        else:  # pragma: no cover - internal invariant
            raise ValueError(f"unknown reconfiguration kind {kind!r}")

    def configure_region(self, index: int, region: RegionConfig) -> None:
        """Intrusive: replaces a region's boundary/budget/period atomically.

        The region's field values are captured at call time; later
        mutation of the caller's object has no effect.
        """
        if not 0 <= index < self.params.n_regions:
            raise IndexError(f"region index {index} out of range")
        self._queue_reconfig(
            "region",
            (index, region.base, region.size, region.budget_bytes,
             region.period_cycles),
        )

    def set_region_base(self, index: int, base: int) -> None:
        """Intrusive: change one region's base, keeping the other fields."""
        if not 0 <= index < self.params.n_regions:
            raise IndexError(f"region index {index} out of range")
        self._queue_reconfig("region_base", (index, base))

    def set_region_size(self, index: int, size: int) -> None:
        """Intrusive: change one region's size, keeping the other fields."""
        if not 0 <= index < self.params.n_regions:
            raise IndexError(f"region index {index} out of range")
        self._queue_reconfig("region_size", (index, size))

    def set_budget(self, index: int, budget_bytes: int) -> None:
        """Non-intrusive: takes effect at the next replenish."""
        self.mr.regions[index].config.budget_bytes = budget_bytes
        self.wake()

    def set_period(self, index: int, period_cycles: int) -> None:
        """Non-intrusive: takes effect immediately for the running clock."""
        self.mr.regions[index].config.period_cycles = period_cycles
        self.wake()

    def set_regulation_enabled(self, enabled: bool) -> None:
        self.config.regulation_enabled = enabled
        self.mr.regulation_enabled = enabled
        self.wake()

    def set_throttle_enabled(self, enabled: bool) -> None:
        self.config.throttle_enabled = enabled
        self._throttle.enabled = enabled
        self.wake()

    def set_splitter_enabled(self, enabled: bool) -> None:
        self._queue_reconfig("splitter_enabled", enabled)

    def set_user_isolate(self, isolate: bool) -> None:
        self.config.user_isolate = isolate
        self.wake()

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def isolated(self) -> bool:
        return self.isolation.isolated

    @property
    def outstanding(self) -> int:
        return self.isolation.outstanding

    @property
    def budget_exhausted(self) -> bool:
        self._sync_clocks()
        return self.mr.budget_exhausted

    def region_snapshot(self, index: int) -> BookkeepingSnapshot:
        self._sync_clocks()
        return self.mr.region_snapshot(index)

    def region_remaining(self, index: int) -> int:
        """Budget credit left in region *index* this period, synced to the
        last committed cycle (what a hardware status read would return)."""
        self._sync_clocks()
        return self.mr.regions[index].remaining

    # Synced views of the linear denial/blockage counters.  While the
    # unit sleeps through a frozen stall, the raw fields lag behind the
    # clock until the replay on wake-up; external observers (probes, the
    # scenario digest) must read through here so both kernels report the
    # same value at any commit boundary.
    @property
    def denied_by_budget(self) -> int:
        self._sync_clocks()
        return self.mr.denied_by_budget

    @property
    def denied_by_throttle(self) -> int:
        self._sync_clocks()
        return self.mr.denied_by_throttle

    @property
    def blocked_aw(self) -> int:
        self._sync_clocks()
        return self.isolation.blocked_aw

    @property
    def blocked_ar(self) -> int:
        self._sync_clocks()
        return self.isolation.blocked_ar

    def _sync_clocks(self) -> None:
        """Catch the lazy period clocks up for an external observer.

        While the unit sleeps, its M&R clocks lag behind the simulator;
        this advances them through the last completed tick phase so status
        reads see exactly what the naive kernel would have computed."""
        if self._sim is not None:
            through = self._sim.cycle - 1
            self._catch_up_frozen(through)
            self.mr.advance_to(through)

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        if self._frozen_since is not None:
            self._catch_up_frozen(cycle - 1)
            self._frozen_since = None
        self.mr.on_cycle(cycle)
        self._fsm()
        self.isolation.tick_request(cycle)
        self.splitter.tick_request(cycle)
        self.write_buffer.tick_request(cycle)
        self.mr.tick_request(cycle)
        self.mr.tick_response(cycle)
        self.write_buffer.tick_response(cycle)
        self.splitter.tick_response(cycle)
        self.isolation.tick_response(cycle)

    def is_idle(self) -> bool:
        """The unit may sleep only when completely quiescent: no beat in
        any stage or boundary channel, no reconfiguration pending, and no
        activity flag set this cycle.  The period clocks keep running
        lazily (see :meth:`MonitorRegulationStage.on_cycle`); if a depleted
        region will replenish, a timed wake-up preserves the exact cycle at
        which budget isolation is released."""
        if self._pending_reconfig:
            return False
        up, down = self.up, self.down
        mr, sp = self.mr, self.splitter
        if (
            not mr.stalled_this_cycle
            and not mr.transferring_this_cycle
            and not (up.aw._queue or up.w._queue or up.ar._queue)
            and not (down.b._queue or down.r._queue)
            # Fragments left to emit: the splitter sends one next tick
            # (passing an unregulated fragment sets no activity flag).
            and not (sp._aw_fragments or sp._ar_fragments)
            and self._unit_empty()
        ):
            self._freeze_sig = None
            edge = self.mr.next_replenish_edge()
            if edge is not None:
                self.wake_at(edge)
            return True
        return self._check_frozen()

    # ------------------------------------------------------------------
    # span-replay (DESIGN.md section 11)
    # ------------------------------------------------------------------
    def span_offer(self, cycle: int, bound: int) -> Optional[SpanOffer]:
        """Offer a closed-form multi-cycle step while linearly streaming.

        The unit is *linear* when its regulation decisions are settled for
        the whole span: no reconfiguration pending, the isolation reasons
        exactly those the next tick's FSM would assert, and every
        address-phase wire at rest.  W/R data movement never charges
        budget — only AW/AR admission does — so a region can only
        replenish mid-span.  That is harmless while passing, but it
        releases budget isolation, so a budget-isolated unit (draining
        the data of bursts it admitted before) offers only up to the next
        replenish edge, whose tick must run per-beat.  The only per-cycle
        activity is then data movement: one W beat relayed
        ``up.w -> down.w`` through the splitter's current fragment and the
        write buffer's steady queue, and/or one R beat relayed
        ``down.r -> up.r`` — both value-identical every cycle.  Neither is
        a burst's last beat and no B beat moves, so a draining unit stays
        draining.
        """
        if self._pending_reconfig:
            return None
        link_a, link_b, link_c = self._links
        # The most common refusal first, before any settled-state work:
        # a beat held on an internal wire (a stalled pipeline).  Any W,
        # R, B or AR beat there, or an AW awaiting M&R admission, would
        # move or be decided inside the span.  Only the splitter's AW
        # wires may hold a fragment AW at rest; they are checked below.
        for link in self._links:
            if (
                link.w._item is not None
                or link.r._item is not None
                or link.b._item is not None
                or link.ar._item is not None
            ):
                return None
        if link_c.aw._item is not None:
            return None
        if (
            self._frozen_since is not None
            and self._frozen_applied_through != cycle - 1
        ):
            # Lazy counters still lag from a frozen sleep; the next tick
            # replays them before anything else may happen.
            return None
        iso = self.isolation
        sp = self.splitter
        wb = self.write_buffer
        mr = self.mr
        settled = set()
        if self.config.user_isolate:
            settled.add("user")
        horizon = UNBOUNDED
        if mr.budget_exhausted:
            settled.add("budget")
            edge = mr.next_replenish_edge()
            if edge is not None:
                horizon = edge - cycle
        # The isolation stage passes exactly while no reason is asserted,
        # so settled reasons settle the mode as well.
        if iso.reasons != settled:
            return None
        # No address-phase or response-boundary event may be in flight:
        # AW/AR admission charges budget and B completion closes a burst,
        # so any of them inside the span would be nonlinear.
        if self.up.aw._queue or self.up.ar._queue or self.down.b._queue:
            return None
        if sp._ar_fragments:
            return None
        if sp._aw_fragments:
            if link_b.aw._item is None:
                return None  # splitter would emit the next fragment
        elif link_a.aw._item is not None:
            return None  # splitter would ingest a new AW
        if link_b.aw._item is not None and not (
            wb.enabled and len(wb._aw_q) == wb.max_pending_aw
        ):
            return None  # the buffer (or bypass) would move the AW

        flows = []
        w_head = self.up.w._queue[0] if self.up.w._queue else None
        if w_head is not None:
            if w_head.last:
                return None
            if iso._w_bursts_owed < 1:
                return None
            beats_left = sp._w_beats_left
            if beats_left is None or beats_left < 2:
                return None  # next egress beat would close the fragment
            horizon = min(horizon, beats_left - 1)
            if wb.enabled:
                if (
                    wb._forwarding is None
                    or not wb._aw_forwarded
                    or len(wb._w_q) >= wb.depth_beats
                    or not wb._w_q
                ):
                    return None
                for index, queued in enumerate(wb._w_q):
                    if queued.last or queued != w_head:
                        if index == 0:
                            return None
                        horizon = min(horizon, index)
                        break
            flows.append(relay(self.up.w, self.down.w, w_head))
        elif wb.enabled:
            if wb._forwarding is None:
                if wb._aw_q:
                    return None  # buffer may start forwarding a burst
            elif wb._w_q or not wb._aw_forwarded:
                return None  # buffer drains or emits AW without ingress
        r_head = self.down.r._queue[0] if self.down.r._queue else None
        if r_head is not None:
            if r_head.last:
                return None
            flows.append(relay(self.down.r, self.up.r, r_head))
        if not flows:
            return None
        has_r = r_head is not None
        has_w = w_head is not None

        def apply(n: int) -> None:
            last_cycle = cycle + n - 1
            mr.advance_to(last_cycle)
            mr.stalled_this_cycle = False
            mr.transferring_this_cycle = has_r
            if has_w:
                sp._w_beats_left -= n
                if wb.enabled:
                    queue = wb._w_q
                    rotate = min(n, len(queue))
                    for _ in range(rotate):
                        queue.popleft()
                        queue.append(w_head.copy())
                    wb.peak_occupancy = max(
                        wb.peak_occupancy, len(queue) + 1
                    )
            self._cycle = last_cycle
            self._freeze_sig = None
            self._freeze_counters = None
            self._freeze_delta = None
            self._frozen_since = None
            self.span_hits += 1
            self.span_cycles += n

        return SpanOffer(flows=tuple(flows), horizon=horizon, apply=apply)

    # ------------------------------------------------------------------
    # frozen-stall detection
    # ------------------------------------------------------------------
    def _signature(self) -> tuple:
        """Structural state that must be bit-identical between ticks for
        the pipeline to count as frozen.  Anything that can influence a
        tick's behaviour and is not a pure linear counter belongs here."""
        iso = self.isolation
        wb = self.write_buffer
        sp = self.splitter
        mr = self.mr
        return (
            iso.mode,
            tuple(sorted(iso.reasons)),
            iso.outstanding_reads,
            iso.outstanding_writes,
            iso._w_bursts_owed,
            tuple(
                w.occupancy for link in self._links for w in link.channels
            ),
            len(wb._aw_q),
            len(wb._w_q),
            wb._complete_bursts,
            wb._forwarding is None,
            wb._aw_forwarded,
            len(sp._aw_fragments),
            len(sp._ar_fragments),
            len(sp._w_boundaries),
            sp._w_beats_left,
            mr.outstanding,
            mr.stalled_this_cycle,
            mr.transferring_this_cycle,
            tuple(region.remaining for region in mr.regions),
            tuple(
                (len(ch._queue), len(ch._pending), ch._snapshot)  # repro: lint-ok[phase-discipline] commit-boundary signature peek: read-only, feeds span-replay linearity detection
                for ch in (*self.up.channels, *self.down.channels)
            ),
        )

    def _counters(self) -> tuple:
        """The linear per-cycle counters a frozen stretch accumulates."""
        return (
            self.isolation.blocked_aw,
            self.isolation.blocked_ar,
            self.mr.denied_by_budget,
            self.mr.denied_by_throttle,
            tuple(book.stall_cycles for book in self.mr.books),
        )

    def _check_frozen(self) -> bool:
        if self.mr.transferring_this_cycle:
            self._freeze_sig = None
            return False
        sig = self._signature()
        counters = self._counters()
        if self._freeze_sig == sig and self._freeze_counters is not None:
            prev = self._freeze_counters
            delta = (
                counters[0] - prev[0],
                counters[1] - prev[1],
                counters[2] - prev[2],
                counters[3] - prev[3],
                tuple(a - b for a, b in zip(counters[4], prev[4])),
            )
            if delta == self._freeze_delta:
                # Two consecutive identical deltas on an identical
                # signature: the stretch is provably linear until a wake
                # event (channel commit, config call, replenish edge).
                self._frozen_since = self._cycle
                self._frozen_applied_through = self._cycle
                # Any enabled region's replenish can change admission
                # (budget depletion or the throttle's budget-fraction
                # cap), so the frozen sleep must end at the first edge.
                edge = self.mr.next_replenish_edge(depleted_only=False)
                if edge is not None:
                    self.wake_at(edge)
                return True
            self._freeze_delta = delta
        else:
            self._freeze_sig = sig
            self._freeze_delta = None
        self._freeze_counters = counters
        return False

    def _catch_up_frozen(self, through_cycle: int) -> None:
        """Replay the linear counters for cycles slept through frozen."""
        if self._frozen_since is None:
            return
        n = through_cycle - self._frozen_applied_through
        if n <= 0:
            return
        self._frozen_applied_through = through_cycle
        d = self._freeze_delta
        self.isolation.blocked_aw += d[0] * n
        self.isolation.blocked_ar += d[1] * n
        self.mr.denied_by_budget += d[2] * n
        self.mr.denied_by_throttle += d[3] * n
        for book, stalls in zip(self.mr.books, d[4]):
            book.stall_cycles += stalls * n

    def _fsm(self) -> None:
        # A trigger is re-asserted only when it changes: the isolation
        # mode is PASS exactly while no reason is held, so asserting a
        # held reason (or releasing an absent one) is a no-op.
        iso = self.isolation
        reasons = iso.reasons
        # User-commanded isolation.
        if self.config.user_isolate:
            if "user" not in reasons:
                iso.request_isolate("user")
        elif "user" in reasons:
            iso.release("user")
        # Budget-driven isolation: engaged while any region is depleted,
        # released when the period replenishes the budget.
        if self.mr.budget_exhausted:
            if "budget" not in reasons:
                iso.request_isolate("budget")
        elif "budget" in reasons:
            iso.release("budget")
        # Intrusive reconfiguration: drain, apply, release.
        if self._pending_reconfig:
            iso.request_isolate("reconfig")
            if iso.isolated and self._unit_empty():
                for kind, payload in self._pending_reconfig:
                    self._apply_reconfig(kind, payload)
                self._pending_reconfig.clear()
                iso.release("reconfig")

    def _unit_empty(self) -> bool:
        """True when no beat is buffered in any internal link or stage."""
        for wire in self._wires:
            if wire._item is not None:
                return False
        wb = self.write_buffer
        return not (wb._w_q or wb._complete_bursts)

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        """Full unit state: pipeline stages, links, runtime config (as
        programmed through knobs), queued intrusive reconfigurations,
        and the frozen-stall replay bookkeeping — captured raw, so a
        unit sleeping through a frozen stall restores with its lazy
        counters still lagging and replays them on wake-up exactly as
        the uninterrupted run would."""
        config = self.config
        return {
            **super().state_capture(),
            "config": {
                "granularity": config.granularity,
                "splitter_enabled": config.splitter_enabled,
                "regulation_enabled": config.regulation_enabled,
                "throttle_enabled": config.throttle_enabled,
                "user_isolate": config.user_isolate,
            },
            "throttle": {
                "enabled": self._throttle.enabled,
                "max_outstanding": self._throttle.max_outstanding,
            },
            "links": [link.state_capture() for link in self._links],
            "isolation": self.isolation.state_capture(),
            "splitter": self.splitter.state_capture(),
            "write_buffer": self.write_buffer.state_capture(),
            "mr": self.mr.state_capture(),
        }

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        config_state = state["config"]
        config = self.config
        config.granularity = config_state["granularity"]
        config.splitter_enabled = config_state["splitter_enabled"]
        config.regulation_enabled = config_state["regulation_enabled"]
        config.throttle_enabled = config_state["throttle_enabled"]
        config.user_isolate = config_state["user_isolate"]
        self._throttle.enabled = state["throttle"]["enabled"]
        self._throttle.max_outstanding = state["throttle"]["max_outstanding"]
        for link, link_state in zip(self._links, state["links"]):
            link.state_restore(link_state)
        self.isolation.state_restore(state["isolation"])
        self.splitter.state_restore(state["splitter"])
        self.write_buffer.state_restore(state["write_buffer"])
        self.mr.state_restore(state["mr"])
        # A freshly built unit may still hold its initial (unapplied)
        # region reconfigurations; the restored region configs make
        # them obsolete, and the runtime view must share the restored
        # config objects exactly as a drained apply would have left it.
        self.config.regions = [r.config for r in self.mr.regions]

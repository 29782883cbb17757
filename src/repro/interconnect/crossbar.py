"""Burst-granular round-robin AXI4 crossbar.

Models the behaviour of the PULP AXI crossbar ([19] in the paper) that the
evaluation platform (Cheshire) uses:

* **AW/AR arbitration per subordinate is round-robin at burst granularity.**
  A 256-beat DMA burst granted ahead of a single-beat core access therefore
  delays the core access by up to 256 cycles — the paper's worst case.
* **The subordinate W channel is reserved in AW-grant order.**  Once a
  manager wins AW arbitration, no other manager's write data may enter that
  subordinate until the winner sends ``w.last``.  A manager that withholds
  its write data stalls the subordinate for everyone — the denial-of-service
  vector the REALM write buffer defends against.
* **Responses are routed by ID prefix** (the manager index is composed into
  the upper ID bits on ingress and stripped on egress).
* **Decode misses get DECERR** responses generated inside the crossbar.

The crossbar is a single component; beats traverse it in one cycle (they
are re-sent on the subordinate-side channels and become visible after the
commit), matching the one-cycle-per-hop convention of the kernel.

Batched datapath: once a burst has won arbitration, the middle of the
burst traverses a fixed, uncontended route — the subordinate W channel is
reserved until ``w.last``, and the R mux is locked to its source until
``r.last``.  Under ``Simulator(batched=True)`` the crossbar installs an
:class:`~repro.sim.channel.ExpressRoute` for those spans and leaves the
active set; the kernel forwards the beats with identical observable
effects, and the order tears itself down at the burst boundary (or on a
foreign beat), waking the crossbar so every arbitration, DECERR, and
``last`` decision still runs on the per-beat reference path.

Each routing pass decodes every head once into request bit masks (the
destination of each manager's AW/AR head, the owner of each
subordinate's B/R head), a sole requester skips the arbiter scan, and
the crossbar sleeps while every waiting beat is blocked (DESIGN.md
section 9).
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.axi.beats import ARBeat, AWBeat, BBeat, RBeat
from repro.axi.idspace import IdMap
from repro.axi.ports import AxiBundle
from repro.axi.types import Resp
from repro.interconnect.address_map import AddressMap
from repro.interconnect.arbiter import RoundRobinArbiter
from repro.sim.channel import ExpressRoute
from repro.sim.kernel import Component

# Sentinel subordinate index for decode misses.
_ERR = -1


class AxiCrossbar(Component):
    """N-manager x M-subordinate crossbar with round-robin burst arbitration.

    *manager_ports* are the bundles whose request channels the crossbar
    consumes; *subordinate_ports* are the bundles it drives toward the
    memories.  ``addr_map`` decodes request addresses to subordinate
    indices.
    """

    _STATE_FIELDS = (
        "_w_order", "_w_route", "_err_b", "_err_r", "_err_w_ids", "_r_lock",
        "aw_forwarded", "ar_forwarded", "decode_errors",
    )

    def __init__(
        self,
        manager_ports: Sequence[AxiBundle],
        subordinate_ports: Sequence[AxiBundle],
        addr_map: AddressMap,
        name: str = "xbar",
        inner_id_bits: int = 8,
        qos_arbitration: bool = False,
    ) -> None:
        super().__init__(name)
        if not manager_ports or not subordinate_ports:
            raise ValueError("crossbar needs at least one manager and subordinate")
        self.managers = list(manager_ports)
        self.subs = list(subordinate_ports)
        self.watch(*self.managers, role="device")
        self.watch(*self.subs, role="manager")
        self.addr_map = addr_map
        self.idmap = IdMap(inner_id_bits)
        # Response routing reads the manager prefix of a widened ID by
        # shift and strips it by mask (the IdMap's layout, without the
        # per-beat validation of IdMap.split), from the head beats of
        # the subordinates' response channels.
        self._id_shift = self.idmap.inner_id_bits
        self._inner_mask = self.idmap.inner_mask
        self._sub_b = tuple(sub.b for sub in self.subs)
        self._sub_r = tuple(sub.r for sub in self.subs)
        self.qos_arbitration = qos_arbitration
        # Per-manager QoS override (control-plane knob): when set, it
        # replaces the per-beat AxQOS value at the arbitration points.
        self.qos_override: dict[int, int] = {}
        n_mgr, n_sub = len(self.managers), len(self.subs)

        # Per-subordinate arbiters over managers.  Default: round-robin at
        # burst granularity.  With *qos_arbitration*, a QoS-400-style
        # priority arbiter picks the highest AxQOS head beat instead.
        if qos_arbitration:
            from repro.baselines.qos400 import QosArbiter

            def aw_priority(mi: int) -> int:
                override = self.qos_override.get(mi)
                if override is not None:
                    return override
                ch = self.managers[mi].aw
                return ch.peek().qos if ch.can_recv() else 0

            def ar_priority(mi: int) -> int:
                override = self.qos_override.get(mi)
                if override is not None:
                    return override
                ch = self.managers[mi].ar
                return ch.peek().qos if ch.can_recv() else 0

            self._aw_arb = [
                QosArbiter(n_mgr, aw_priority) for _ in range(n_sub)
            ]
            self._ar_arb = [
                QosArbiter(n_mgr, ar_priority) for _ in range(n_sub)
            ]
        else:
            self._aw_arb = [RoundRobinArbiter(n_mgr) for _ in range(n_sub)]
            self._ar_arb = [RoundRobinArbiter(n_mgr) for _ in range(n_sub)]
        # Per-subordinate W-channel reservation queue (manager indices in
        # AW-grant order).  Head owns the subordinate's W channel.
        self._w_order: list[deque[int]] = [deque() for _ in range(n_sub)]
        # Per-manager W routing queue (subordinate index per issued AW, in
        # AW order; _ERR entries consume-and-drop with a DECERR B).
        self._w_route: list[deque[int]] = [deque() for _ in range(n_mgr)]
        # Per-manager DECERR response state.
        self._err_b: list[deque[BBeat]] = [deque() for _ in range(n_mgr)]
        self._err_r: list[deque[RBeat]] = [deque() for _ in range(n_mgr)]
        self._err_w_ids: list[deque[int]] = [deque() for _ in range(n_mgr)]
        # Per-manager response muxes over (subordinates + error source).
        self._b_arb = [RoundRobinArbiter(n_sub + 1) for _ in range(n_mgr)]
        self._r_arb = [RoundRobinArbiter(n_sub + 1) for _ in range(n_mgr)]
        # Per-manager R burst lock: source index until r.last.
        self._r_lock: list[Optional[int]] = [None] * n_mgr
        # Active express orders for burst middles (batched datapath).
        self._w_express: dict[int, ExpressRoute] = {}
        self._r_express: dict[int, ExpressRoute] = {}
        self._batch_mode = False  # repro: lint-ok[snapshot-coverage] recomputed from the kernel's datapath mode every tick

        # Statistics.
        self.aw_forwarded = 0
        self.ar_forwarded = 0
        self.decode_errors = 0

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._batch_mode = self._sim._batched
        self._route_aw()
        self._route_w()
        self._route_ar()
        self._route_b()
        self._route_r()

    def is_idle(self) -> bool:
        """Blocked-state sleeping: true when no pass would act next tick.

        Every waiting beat then sits behind a full channel, a W
        reservation or an R lock (arbiters do not advance when no one
        can be granted).  A full channel frees at a commit that wakes
        the crossbar as its sender; reservations and locks change only
        in its own tick; and a channel an express order manages wakes
        the crossbar at the order's teardown.
        """
        managers, subs = self.managers, self.subs
        n_mgr = len(managers)
        decode = self._decode
        w_express = self._w_express
        r_lock = self._r_lock
        for mi, mgr in enumerate(managers):
            queue = mgr.aw._queue
            if queue:
                dest = decode(queue[0].addr)
                if dest == _ERR or subs[dest].aw.can_send():
                    return False
            queue = mgr.ar._queue
            if queue:
                dest = decode(queue[0].addr)
                if dest == _ERR or subs[dest].ar.can_send():
                    return False
            queue = mgr.w._queue
            if queue and mi not in w_express and self._w_route[mi]:
                dest = self._w_route[mi][0]
                if dest == _ERR:
                    return False
                order = self._w_order[dest]
                if (not order or order[0] == mi) and (
                    (self._batch_mode and not queue[0].last)
                    or subs[dest].w.can_send()
                ):
                    return False
            if self._err_b[mi] and mgr.b.can_send():
                return False
            if (
                self._err_r[mi]
                and r_lock[mi] in (None, len(subs))
                and mgr.r.can_send()
            ):
                return False
        shift = self._id_shift
        r_express = self._r_express
        for si, sub in enumerate(subs):
            queue = sub.b._queue
            if queue:
                owner = queue[0].id >> shift
                if owner < n_mgr and managers[owner].b.can_send():
                    return False
            queue = sub.r._queue
            if queue:
                owner = queue[0].id >> shift
                if (
                    owner < n_mgr
                    and owner not in r_express
                    and r_lock[owner] in (None, si)
                    and managers[owner].r.can_send()
                ):
                    return False
        return True

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        """Arbitration pointers, reservation/routing queues, DECERR
        response state, R locks, and the live express orders (described
        by their endpoints; re-installed on restore)."""
        subs = self.subs
        return {
            **super().state_capture(),
            "qos_override": dict(self.qos_override),
            "aw_arb": [a.state_capture() for a in self._aw_arb],
            "ar_arb": [a.state_capture() for a in self._ar_arb],
            "b_arb": [a.state_capture() for a in self._b_arb],
            "r_arb": [a.state_capture() for a in self._r_arb],
            "w_express": {
                mi: next(
                    si for si, sub in enumerate(subs)
                    if sub.w is order.dst
                )
                for mi, order in self._w_express.items()
            },
            "r_express": {
                mi: next(
                    si for si, sub in enumerate(subs)
                    if sub.r is order.src
                )
                for mi, order in self._r_express.items()
            },
        }

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self.qos_override.clear()
        self.qos_override.update(state["qos_override"])
        for arb, ptr in zip(self._aw_arb, state["aw_arb"]):
            arb.state_restore(ptr)
        for arb, ptr in zip(self._ar_arb, state["ar_arb"]):
            arb.state_restore(ptr)
        for arb, ptr in zip(self._b_arb, state["b_arb"]):
            arb.state_restore(ptr)
        for arb, ptr in zip(self._r_arb, state["r_arb"]):
            arb.state_restore(ptr)
        # Re-install live express orders.  Installation re-suppresses the
        # listener subscriptions each order manages; express execution is
        # order-independent (every order owns disjoint channels for the
        # span of its burst), so a canonical W-then-R order is safe.
        for order in list(self._w_express.values()) + list(
            self._r_express.values()
        ):
            order.cancel()
        for mi in sorted(state["w_express"]):
            self._install_w_express(mi, state["w_express"][mi])
        for mi in sorted(state["r_express"]):
            self._install_r_express(mi, state["r_express"][mi])

    # ------------------------------------------------------------------
    # express installation (batched datapath)
    # ------------------------------------------------------------------
    def _install_w_express(self, mi: int, dest: int) -> None:
        """Hand the reserved W route ``manager mi -> subordinate dest``
        to the kernel for the remainder of the burst middle."""
        order = ExpressRoute(
            self.managers[mi].w,
            self.subs[dest].w,
            self,
            on_done=lambda: self._w_express.pop(mi, None),
        )
        self._w_express[mi] = order
        order.install(self._sim)

    def _install_r_express(self, mi: int, src: int) -> None:
        """Hand the locked R route ``subordinate src -> manager mi`` to
        the kernel.  The guard cancels the order the moment a beat with a
        foreign manager prefix surfaces (subordinates emit R bursts
        contiguously, so this only happens at burst boundaries)."""
        shift, inner_mask = self._id_shift, self._inner_mask

        def guard(beat) -> bool:
            return beat.id >> shift == mi

        def transform(raw) -> RBeat:
            return RBeat(
                id=raw.id & inner_mask,
                data=raw.data,
                resp=raw.resp,
                last=raw.last,
                user=raw.user,
                txn=raw.txn,
            )

        order = ExpressRoute(
            self.subs[src].r,
            self.managers[mi].r,
            self,
            transform=transform,
            guard=guard,
            on_done=lambda: self._r_express.pop(mi, None),
        )
        self._r_express[mi] = order
        order.install(self._sim)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def _decode(self, addr: int) -> int:
        port = self.addr_map.decode(addr)
        return _ERR if port is None else port

    def _route_aw(self) -> None:
        managers = self.managers
        # Destination bit masks: bit mi of masks[si] is set while manager
        # mi's AW head decodes to subordinate si.  A manager sends at
        # most one AW per cycle, so a grant exposes no head to decode.
        masks: Optional[list[int]] = None
        for mi, m in enumerate(managers):
            queue = m.aw._queue
            if not queue:
                continue
            dest = self._decode(queue[0].addr)
            if dest == _ERR:
                # Decode misses are absorbed immediately (no subordinate
                # involved).
                beat = m.aw.recv()
                self._w_route[mi].append(_ERR)
                self._err_w_ids[mi].append(beat.id)
                self.decode_errors += 1
                continue
            if masks is None:
                masks = [0] * len(self.subs)
            masks[dest] |= 1 << mi
        if masks is None:
            return
        for si, mask in enumerate(masks):
            sub = self.subs[si]
            if not mask or not sub.aw.can_send():
                continue
            granted = _grant(self._aw_arb[si], mask, len(managers))
            beat = managers[granted].aw.recv()
            fwd = beat.copy()
            fwd.id = self.idmap.compose(granted, beat.id)
            sub.aw.send(fwd)
            self._w_order[si].append(granted)
            self._w_route[granted].append(si)
            self.aw_forwarded += 1

    def _route_w(self) -> None:
        w_express = self._w_express
        for mi, mgr in enumerate(self.managers):
            if mi in w_express:
                continue  # the kernel is forwarding this burst middle
            if not mgr.w._queue or not self._w_route[mi]:
                continue
            dest = self._w_route[mi][0]
            if dest == _ERR:
                beat = mgr.w.recv()
                if beat.last:
                    self._w_route[mi].popleft()
                    bid = self._err_w_ids[mi].popleft()
                    self._err_b[mi].append(BBeat(id=bid, resp=Resp.DECERR))
                continue
            sub = self.subs[dest]
            # The subordinate's W channel belongs to the manager at the
            # head of the AW-grant order; anyone else waits.
            if self._w_order[dest] and self._w_order[dest][0] != mi:
                continue
            if self._batch_mode and not mgr.w._queue[0].last:
                # Reserved, uncontended middle: hand the span to the
                # kernel (the express phase moves the beat this cycle).
                self._install_w_express(mi, dest)
                continue
            if not sub.w.can_send():
                continue
            beat = mgr.w.recv()
            sub.w.send(beat)
            if beat.last:
                self._w_route[mi].popleft()
                self._w_order[dest].popleft()

    def _route_ar(self) -> None:
        managers = self.managers
        masks: Optional[list[int]] = None  # as in _route_aw
        for mi, m in enumerate(managers):
            queue = m.ar._queue
            if not queue:
                continue
            dest = self._decode(queue[0].addr)
            if dest == _ERR:
                beat = m.ar.recv()
                self._err_r[mi].extend(
                    RBeat(
                        id=beat.id,
                        resp=Resp.DECERR,
                        last=(i == beat.beats - 1),
                        txn=beat.txn,
                    )
                    for i in range(beat.beats)
                )
                self.decode_errors += 1
                continue
            if masks is None:
                masks = [0] * len(self.subs)
            masks[dest] |= 1 << mi
        if masks is None:
            return
        for si, mask in enumerate(masks):
            sub = self.subs[si]
            if not mask or not sub.ar.can_send():
                continue
            granted = _grant(self._ar_arb[si], mask, len(managers))
            beat = managers[granted].ar.recv()
            fwd = beat.copy()
            fwd.id = self.idmap.compose(granted, beat.id)
            sub.ar.send(fwd)
            self.ar_forwarded += 1

    # ------------------------------------------------------------------
    # response path
    # ------------------------------------------------------------------
    def _owner_masks(self, channels, errors) -> Optional[list[int]]:
        """Per-manager source bit masks for one response pass.

        Bit ``si`` of ``masks[mi]`` is set while subordinate *si*'s head
        beat on its ``channels`` entry carries manager *mi*'s ID prefix;
        bit ``len(subs)`` while manager *mi*'s DECERR queue in *errors*
        holds a beat.  ``None`` when no source holds a beat.
        """
        shift = self._id_shift
        n_mgr = len(self.managers)
        masks: Optional[list[int]] = None
        for si, channel in enumerate(channels):
            queue = channel._queue
            if queue:
                owner = queue[0].id >> shift
                if owner < n_mgr:
                    if masks is None:
                        masks = [0] * n_mgr
                    masks[owner] |= 1 << si
        if any(errors):
            err_bit = 1 << len(self.subs)
            for mi, queue in enumerate(errors):
                if queue:
                    if masks is None:
                        masks = [0] * n_mgr
                    masks[mi] |= err_bit
        return masks

    def _expose(self, masks: list[int], channel, si: int, mi: int) -> None:
        """Decode the head a pop by manager *mi* exposed on subordinate
        *si*'s *channel*: a later manager in the same pass may take it."""
        queue = channel._queue
        if queue:
            owner = queue[0].id >> self._id_shift
            if mi < owner < len(masks):
                masks[owner] |= 1 << si

    def _route_b(self) -> None:
        subs = self.subs
        masks = self._owner_masks(self._sub_b, self._err_b)
        if masks is None:
            return
        n_sub = len(subs)
        for mi, mask in enumerate(masks):
            if not mask:
                continue
            mgr = self.managers[mi]
            if not mgr.b.can_send():
                continue
            granted = _grant(self._b_arb[mi], mask, n_sub + 1)
            if granted == n_sub:
                mgr.b.send(self._err_b[mi].popleft())
                continue
            channel = subs[granted].b
            beat = channel.recv()
            mgr.b.send(
                BBeat(
                    id=beat.id & self._inner_mask,
                    resp=beat.resp,
                    user=beat.user,
                    txn=beat.txn,
                )
            )
            self._expose(masks, channel, granted, mi)

    def _route_r(self) -> None:
        subs = self.subs
        masks = self._owner_masks(self._sub_r, self._err_r)
        if masks is None:
            return
        n_sub = len(subs)
        r_express = self._r_express
        for mi, mask in enumerate(masks):
            if not mask or mi in r_express:
                continue  # nothing to route, or the kernel forwards it
            mgr = self.managers[mi]
            if not mgr.r.can_send():
                continue
            src = self._r_lock[mi]
            if src is None:
                src = _grant(self._r_arb[mi], mask, n_sub + 1)
                self._r_lock[mi] = src
            elif not mask >> src & 1:
                continue
            if src == n_sub:
                beat = self._err_r[mi].popleft()
                mgr.r.send(beat)
            else:
                channel = subs[src].r
                if self._batch_mode and not channel._queue[0].last:
                    # Locked, uncontended middle: hand the span to the
                    # kernel (the express phase moves the beat this
                    # cycle).
                    self._install_r_express(mi, src)
                    continue
                raw = channel.recv()
                beat = RBeat(
                    id=raw.id & self._inner_mask,
                    data=raw.data,
                    resp=raw.resp,
                    last=raw.last,
                    user=raw.user,
                    txn=raw.txn,
                )
                mgr.r.send(beat)
                self._expose(masks, channel, src, mi)
            if beat.last:
                self._r_lock[mi] = None


def _grant(arbiter, mask: int, n: int) -> int:
    """Grant one requester of the non-empty request bit *mask*.

    A sole requester takes ``grant_one`` (equal to a one-hot ``grant``);
    only a contested output pays for the full request vector.
    """
    if not mask & (mask - 1):
        return arbiter.grant_one(mask.bit_length() - 1)
    return arbiter.grant([bool(mask >> i & 1) for i in range(n)])

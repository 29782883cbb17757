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
        # Routing is purely input-driven: with no recv-able beat on any
        # side and no queued DECERR responses, every route pass is a no-op
        # (arbiters do not advance when no one requests).  Channels whose
        # burst middle an express order is forwarding don't count — their
        # beats move without the crossbar, and the order re-wakes it at
        # the burst boundary.
        w_express = self._w_express
        for mi, mgr in enumerate(self.managers):
            if mgr.aw.can_recv() or mgr.ar.can_recv():
                return False
            if mgr.w.can_recv() and mi not in w_express:
                return False
        express_srcs = (
            {order.src for order in self._r_express.values()}
            if self._r_express
            else None
        )
        for sub in self.subs:
            if sub.b.can_recv():
                return False
            if sub.r.can_recv() and (
                express_srcs is None or sub.r not in express_srcs
            ):
                return False
        for queue in self._err_b:
            if queue:
                return False
        for queue in self._err_r:
            if queue:
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
            "qos_override": dict(self.qos_override),
            "aw_arb": [a.state_capture() for a in self._aw_arb],
            "ar_arb": [a.state_capture() for a in self._ar_arb],
            "b_arb": [a.state_capture() for a in self._b_arb],
            "r_arb": [a.state_capture() for a in self._r_arb],
            "w_order": [deque(q) for q in self._w_order],
            "w_route": [deque(q) for q in self._w_route],
            "err_b": [deque(q) for q in self._err_b],
            "err_r": [deque(q) for q in self._err_r],
            "err_w_ids": [deque(q) for q in self._err_w_ids],
            "r_lock": list(self._r_lock),
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
            "aw_forwarded": self.aw_forwarded,
            "ar_forwarded": self.ar_forwarded,
            "decode_errors": self.decode_errors,
        }

    def state_restore(self, state: dict) -> None:
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
        self._w_order = [deque(q) for q in state["w_order"]]
        self._w_route = [deque(q) for q in state["w_route"]]
        self._err_b = [deque(q) for q in state["err_b"]]
        self._err_r = [deque(q) for q in state["err_r"]]
        self._err_w_ids = [deque(q) for q in state["err_w_ids"]]
        self._r_lock = list(state["r_lock"])
        self.aw_forwarded = state["aw_forwarded"]
        self.ar_forwarded = state["ar_forwarded"]
        self.decode_errors = state["decode_errors"]
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
        idmap = self.idmap

        def guard(beat) -> bool:
            return idmap.manager_of(beat.id) == mi

        def transform(raw) -> RBeat:
            return RBeat(
                id=idmap.inner_of(raw.id),
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
        heads: Optional[list[Optional[int]]] = None
        for mi, m in enumerate(managers):
            if not m.aw._queue:
                continue
            dest = self._decode(m.aw._queue[0].addr)
            if dest == _ERR:
                # Decode misses are absorbed immediately (no subordinate
                # involved).
                beat = m.aw.recv()
                self._w_route[mi].append(_ERR)
                self._err_w_ids[mi].append(beat.id)
                self.decode_errors += 1
            else:
                if heads is None:
                    heads = [None] * len(managers)
                heads[mi] = dest
        if heads is None:
            return
        for si, sub in enumerate(self.subs):
            if not sub.aw.can_send():
                continue
            requests = [dest == si for dest in heads]
            if True not in requests:
                continue  # an all-idle grant would be a no-op anyway
            granted = self._aw_arb[si].grant(requests)
            if granted is None:
                continue
            beat = managers[granted].aw.recv()
            fwd = beat.copy()
            fwd.id = self.idmap.compose(granted, beat.id)
            sub.aw.send(fwd)
            self._w_order[si].append(granted)
            self._w_route[granted].append(si)
            self.aw_forwarded += 1
            heads[granted] = None  # one AW per manager per cycle

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
        heads: Optional[list[Optional[int]]] = None
        for mi, m in enumerate(managers):
            if not m.ar._queue:
                continue
            dest = self._decode(m.ar._queue[0].addr)
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
            else:
                if heads is None:
                    heads = [None] * len(managers)
                heads[mi] = dest
        if heads is None:
            return
        for si, sub in enumerate(self.subs):
            if not sub.ar.can_send():
                continue
            requests = [dest == si for dest in heads]
            if True not in requests:
                continue
            granted = self._ar_arb[si].grant(requests)
            if granted is None:
                continue
            beat = managers[granted].ar.recv()
            fwd = beat.copy()
            fwd.id = self.idmap.compose(granted, beat.id)
            sub.ar.send(fwd)
            self.ar_forwarded += 1
            heads[granted] = None

    # ------------------------------------------------------------------
    # response path
    # ------------------------------------------------------------------
    def _b_source_ready(self, mi: int, src: int) -> bool:
        if src == len(self.subs):
            return bool(self._err_b[mi])
        ch = self.subs[src].b
        return ch.can_recv() and self.idmap.manager_of(ch.peek().id) == mi

    def _route_b(self) -> None:
        n_sub = len(self.subs)
        if not any(sub.b._queue for sub in self.subs) and not any(
            self._err_b
        ):
            return
        for mi, mgr in enumerate(self.managers):
            if not mgr.b.can_send():
                continue
            requests = [self._b_source_ready(mi, s) for s in range(n_sub + 1)]
            if True not in requests:
                continue
            granted = self._b_arb[mi].grant(requests)
            if granted is None:
                continue
            if granted == n_sub:
                mgr.b.send(self._err_b[mi].popleft())
            else:
                beat = self.subs[granted].b.recv()
                mgr.b.send(
                    BBeat(
                        id=self.idmap.inner_of(beat.id),
                        resp=beat.resp,
                        user=beat.user,
                        txn=beat.txn,
                    )
                )

    def _r_source_ready(self, mi: int, src: int) -> bool:
        if src == len(self.subs):
            return bool(self._err_r[mi])
        ch = self.subs[src].r
        return ch.can_recv() and self.idmap.manager_of(ch.peek().id) == mi

    def _route_r(self) -> None:
        n_sub = len(self.subs)
        if not any(sub.r._queue for sub in self.subs) and not any(
            self._err_r
        ):
            return
        r_express = self._r_express
        for mi, mgr in enumerate(self.managers):
            if mi in r_express:
                continue  # the kernel is forwarding this burst middle
            if not mgr.r.can_send():
                continue
            src = self._r_lock[mi]
            if src is None:
                requests = [
                    self._r_source_ready(mi, s) for s in range(n_sub + 1)
                ]
                if True not in requests:
                    continue
                src = self._r_arb[mi].grant(requests)
                if src is None:
                    continue
                self._r_lock[mi] = src
            elif not self._r_source_ready(mi, src):
                continue
            if (
                self._batch_mode
                and src != n_sub
                and not self.subs[src].r._queue[0].last
            ):
                # Locked, uncontended middle: hand the span to the kernel
                # (the express phase moves the beat this cycle).
                self._install_r_express(mi, src)
                continue
            if src == n_sub:
                beat = self._err_r[mi].popleft()
                mgr.r.send(beat)
            else:
                raw = self.subs[src].r.recv()
                beat = RBeat(
                    id=self.idmap.inner_of(raw.id),
                    data=raw.data,
                    resp=raw.resp,
                    last=raw.last,
                    user=raw.user,
                    txn=raw.txn,
                )
                mgr.r.send(beat)
            if beat.last:
                self._r_lock[mi] = None

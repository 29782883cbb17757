"""AXI4 network-on-chip (Figure 1b).

The paper designs AXI-REALM "to be independent of the memory system's
architecture, making it compatible with any memory system featuring AXI4
interfaces, from commonly used crossbar-based interconnects to more
scalable network-on-chips".  This module provides that second memory
system: a 2D-mesh, XY-routed, input-buffered NoC with AXI network
interfaces, so REALM units can be validated at the ingress of a NoC
exactly as in Figure 1b.

Abstraction level: one AXI beat per flit, two physical networks (request
and response) for protocol deadlock freedom, one flit per link per cycle,
round-robin output arbitration in the routers.  Subordinate network
interfaces serialise write bursts in AW-arrival order (W flits of
different managers may interleave in the network; the NI reorders them),
so a write burst occupies a subordinate only once its data streams in.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.axi.beats import BBeat, RBeat, WBeat
from repro.axi.idspace import IdMap
from repro.axi.ports import AxiBundle
from repro.axi.types import Resp
from repro.interconnect.address_map import AddressMap
from repro.interconnect.arbiter import RoundRobinArbiter
from repro.sim.kernel import Component, SimulationError, Stateful


@dataclass(slots=True)
class Flit:
    """One AXI beat in flight through the mesh."""

    dest: tuple[int, int]
    kind: str  # "aw" | "w" | "ar" | "b" | "r"
    beat: object
    src: tuple[int, int]


class _Router(Stateful):
    """One mesh router: 5 input queues, XY routing, RR per output."""

    DIRECTIONS = ("local", "north", "south", "east", "west")
    _STATE_FIELDS = ("flits_routed",)

    def __init__(self, x: int, y: int, depth: int = 4) -> None:
        self.x = x
        self.y = y
        self.depth = depth
        self.inputs: dict[str, deque[Flit]] = {
            d: deque() for d in self.DIRECTIONS
        }
        self._arbiters: dict[str, RoundRobinArbiter] = {
            d: RoundRobinArbiter(len(self.DIRECTIONS)) for d in self.DIRECTIONS
        }
        # Output staging written during route, drained by the network.
        self.staged: dict[str, Optional[Flit]] = {
            d: None for d in self.DIRECTIONS
        }
        self.flits_routed = 0
        # Flits queued or staged here, kept by accept, eject and link
        # moves on both datapaths.
        self.held = 0  # repro: lint-ok[snapshot-coverage] derived from inputs and staged, recounted by state_restore
        # Batched-datapath tables, filled once by _MeshNetwork: the input
        # queues in DIRECTIONS order (state_restore refills them in
        # place) and the XY route (dest -> output index).
        self._queues = [self.inputs[d] for d in self.DIRECTIONS]  # repro: lint-ok[snapshot-coverage] aliases of inputs, immutable after build
        self._route: dict[tuple[int, int], int] = {}  # repro: lint-ok[snapshot-coverage] topology table, immutable after build

    def can_accept(self, direction: str) -> bool:
        return len(self.inputs[direction]) < self.depth

    def accept(self, direction: str, flit: Flit) -> None:
        if not self.can_accept(direction):
            raise SimulationError(f"router ({self.x},{self.y}) input full")
        self.inputs[direction].append(flit)
        self.held += 1

    def _output_for(self, flit: Flit) -> str:
        dx, dy = flit.dest
        if dx > self.x:
            return "east"
        if dx < self.x:
            return "west"
        if dy > self.y:
            return "north"
        if dy < self.y:
            return "south"
        return "local"

    def route(self) -> None:
        """Pick at most one flit per free output from the input queues."""
        dirs = self.DIRECTIONS
        for out in dirs:
            if self.staged[out] is not None:
                continue
            requests = [
                bool(self.inputs[d]) and self._output_for(self.inputs[d][0]) == out
                for d in dirs
            ]
            granted = self._arbiters[out].grant(requests)
            if granted is None:
                continue
            self.staged[out] = self.inputs[dirs[granted]].popleft()
            self.flits_routed += 1

    def route_batched(self) -> None:
        """:meth:`route` with one route-table lookup per input head.

        The heads are looked up once, into per-output bit masks of
        requesting inputs, and the requested outputs are served in
        :attr:`DIRECTIONS` order.  A pop looks up only the head it
        exposes: a later output may still take it this cycle, as the
        reference's live re-read allows, while an earlier or the same
        output is already decided.  A sole requester sets the
        round-robin pointer past itself, exactly what ``grant`` does;
        only contested outputs arbitrate.
        """
        queues = self._queues
        route = self._route
        want = [0, 0, 0, 0, 0]
        outs = 0
        bit = 1
        for queue in queues:
            if queue:
                out = route[queue[0].dest]
                want[out] |= bit
                outs |= 1 << out
            bit <<= 1
        staged = self.staged
        dirs = self.DIRECTIONS
        while outs:
            low = outs & -outs
            outs ^= low
            out = low.bit_length() - 1
            name = dirs[out]
            if staged[name] is not None:
                continue
            mask = want[out]
            if mask & (mask - 1):
                granted = self._arbiters[name].grant(
                    [bool(mask >> i & 1) for i in range(5)]
                )
            else:
                granted = self._arbiters[name].grant_one(mask.bit_length() - 1)
            queue = queues[granted]
            staged[name] = queue.popleft()
            self.flits_routed += 1
            if queue:
                later = route[queue[0].dest]
                if later > out:
                    want[later] |= 1 << granted
                    outs |= 1 << later

    def state_capture(self) -> dict:
        return {
            **super().state_capture(),
            "inputs": {d: deque(q) for d, q in self.inputs.items()},
            "arbiters": {
                d: a.state_capture() for d, a in self._arbiters.items()
            },
            "staged": dict(self.staged),
        }

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        held = 0
        for direction in self.DIRECTIONS:
            queue = self.inputs[direction]
            queue.clear()
            queue.extend(state["inputs"][direction])
            self._arbiters[direction].state_restore(
                state["arbiters"][direction]
            )
            flit = state["staged"][direction]
            self.staged[direction] = flit
            held += len(queue) + (flit is not None)
        self.held = held


class _MeshNetwork(Stateful):
    """One physical network: a grid of routers moved once per cycle.

    The batched datapath keeps an *active* set of router coordinates, a
    superset of those holding flits, so a step visits only the few
    routers a burst is streaming through instead of scanning the whole
    (mostly empty) mesh; each step drops the routers it leaves empty.
    Routing and link movement are per-router independent, so the visit
    order cannot change a result (DESIGN.md section 9).
    """

    _OPPOSITE = {"north": "south", "south": "north",
                 "east": "west", "west": "east"}
    _DELTA = {"north": (0, 1), "south": (0, -1),
              "east": (1, 0), "west": (-1, 0)}
    _STATE_FIELDS = ("flits",)

    def __init__(self, width: int, height: int, depth: int = 4) -> None:
        self.width = width
        self.height = height
        self.flits = 0  # flits anywhere in the network (queues + staging)
        self.routers = {
            (x, y): _Router(x, y, depth)
            for x in range(width)
            for y in range(height)
        }
        # Coordinates of routers that may hold flits (batched datapath);
        # a superset of the truly busy ones, pruned during step().
        self._active: set[tuple[int, int]] = set()
        # Per node: the router and its links (output, neighbour,
        # neighbour's input queue, neighbour node).  The mesh owns the
        # table so no router points at another: a finished mesh is
        # freed by reference counting, with no cycle to collect.
        self._links: dict[tuple[int, int], tuple] = {}  # repro: lint-ok[snapshot-coverage] topology table, immutable after build
        for router in self.routers.values():
            self._wire(router)

    def _wire(self, router: _Router) -> None:
        """Build *router*'s link table and its XY route table, filled
        from :meth:`_Router._output_for`; no entry may leave the mesh."""
        links = []
        for out, (dx, dy) in self._DELTA.items():
            node = (router.x + dx, router.y + dy)
            neighbor = self.routers.get(node)
            if neighbor is not None:
                queue = neighbor.inputs[self._OPPOSITE[out]]
                links.append((out, neighbor, queue, node))
        self._links[router.x, router.y] = (router, tuple(links))
        linked = {"local"} | {link[0] for link in links}
        for dest in self.routers:
            out = router._output_for(Flit(dest, "route", None, dest))
            if out not in linked:
                raise SimulationError(
                    f"router ({router.x},{router.y}) routes {dest} "
                    f"{out}, off the mesh edge"
                )
            router._route[dest] = _Router.DIRECTIONS.index(out)

    def router(self, node: tuple[int, int]) -> _Router:
        return self.routers[node]

    def inject(self, node: tuple[int, int], flit: Flit) -> bool:
        router = self.routers[node]
        if not router.can_accept("local"):
            return False
        router.accept("local", flit)
        self._active.add(node)
        self.flits += 1
        return True

    def eject(self, node: tuple[int, int]) -> Optional[Flit]:
        router = self.routers[node]
        flit = router.staged["local"]
        router.staged["local"] = None
        if flit is not None:
            self.flits -= 1
            router.held -= 1
        return flit

    def step(self, batched: bool = False) -> None:
        """Route inside every router, then move staged flits over links."""
        if batched:
            self._step_batched()
            return
        for router in self.routers.values():
            router.route()
        opposite = self._OPPOSITE
        delta = self._DELTA
        for (x, y), router in self.routers.items():
            for out, (dx, dy) in delta.items():
                flit = router.staged[out]
                if flit is None:
                    continue
                neighbor = self.routers.get((x + dx, y + dy))
                if neighbor is None:  # pragma: no cover - routing bug guard
                    raise SimulationError("flit routed off the mesh edge")
                if neighbor.can_accept(opposite[out]):
                    neighbor.accept(opposite[out], flit)
                    router.staged[out] = None
                    router.held -= 1

    def _step_batched(self) -> None:
        """:meth:`step` over the active routers only, table-driven."""
        active = self._active
        if not active:
            return
        table = self._links
        visit = [table[node] for node in active]
        for router, _ in visit:
            if router.held:
                router.route_batched()
        for router, links in visit:
            staged = router.staged
            for out, neighbor, queue, node in links:
                flit = staged[out]
                if flit is not None and len(queue) < neighbor.depth:
                    queue.append(flit)
                    staged[out] = None
                    neighbor.held += 1
                    router.held -= 1
                    active.add(node)
            if not router.held:
                active.discard((router.x, router.y))

    def state_capture(self) -> dict:
        return {
            **super().state_capture(),
            "active": sorted(self._active),
            "routers": {
                node: router.state_capture()
                for node, router in self.routers.items()
            },
        }

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self._active = set(state["active"])
        for node, router_state in state["routers"].items():
            self.routers[node].state_restore(router_state)


class AxiNoc(Component):
    """AXI mesh NoC: manager and subordinate network interfaces.

    *managers* maps a node coordinate to the manager-side bundle whose
    requests enter the network there; *subordinates* maps coordinates to
    downstream bundles.  ``addr_map`` decodes to subordinate indices (in
    the iteration order of *subordinates*).  A decode miss is answered by
    the manager's NI: one DECERR R beat per requested beat, or one
    DECERR B after the burst's last W, queued until the channel is free.
    """

    _STATE_FIELDS = (
        "_w_route", "_err_w", "_err_b", "_err_r", "_sub_aw_order",
        "_sub_w_queues", "flits_injected",
    )

    def __init__(
        self,
        width: int,
        height: int,
        managers: dict[tuple[int, int], AxiBundle],
        subordinates: dict[tuple[int, int], AxiBundle],
        addr_map: AddressMap,
        name: str = "noc",
        inner_id_bits: int = 8,
        router_depth: int = 4,
    ) -> None:
        super().__init__(name)
        if not managers or not subordinates:
            raise ValueError("NoC needs at least one manager and subordinate")
        for node in list(managers) + list(subordinates):
            if not (0 <= node[0] < width and 0 <= node[1] < height):
                raise ValueError(f"node {node} outside the {width}x{height} mesh")
        overlap = set(managers) & set(subordinates)
        if overlap:
            raise ValueError(f"nodes used for both roles: {overlap}")
        self.request_net = _MeshNetwork(width, height, router_depth)
        self.response_net = _MeshNetwork(width, height, router_depth)
        self.managers = managers
        self.subordinates = subordinates
        self.watch(*managers.values(), role="device")
        self.watch(*subordinates.values(), role="manager")
        self.addr_map = addr_map
        self.idmap = IdMap(inner_id_bits)
        self._sub_nodes = list(subordinates.keys())
        self._mgr_nodes = list(managers.keys())
        # NI wiring for the per-cycle passes, immutable after build: each
        # NI's channels and the router whose local staged slot it reads.
        self._mgr_ports = tuple(
            (i, node, b.aw, b.w, b.ar, b.b, b.r,
             self.response_net.routers[node])
            for i, (node, b) in enumerate(managers.items())
        )
        self._sub_ports = tuple(
            (node, b.aw, b.w, b.ar, b.b, b.r, self.request_net.routers[node])
            for node, b in subordinates.items()
        )
        # Manager NI state: W routing FIFO (dest per issued AW).
        self._w_route: dict[tuple[int, int], deque[tuple[int, int]]] = {
            node: deque() for node in managers
        }
        # Manager NI DECERR state, per manager index: the B of each
        # unmapped AW until its last W, then B and R beats to send.
        self._err_w: list[deque[BBeat]] = [deque() for _ in managers]
        self._err_b: list[deque[BBeat]] = [deque() for _ in managers]
        self._err_r: list[deque[RBeat]] = [deque() for _ in managers]
        # Subordinate NI state: AW order and per-manager W queues.
        self._sub_aw_order: dict[tuple[int, int], deque[tuple[int, int]]] = {
            node: deque() for node in subordinates
        }
        self._sub_w_queues: dict[
            tuple[int, int], dict[tuple[int, int], deque[WBeat]]
        ] = {node: {} for node in subordinates}
        self.flits_injected = 0

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        batched = self._sim._batched
        self._manager_inject()
        self._subordinate_eject()
        self._subordinate_inject()
        self._manager_eject()
        self.request_net.step(batched)
        self.response_net.step(batched)

    def is_idle(self) -> bool:
        if self.request_net.flits or self.response_net.flits:
            return False
        for queue in self._err_b:
            if queue:
                return False
        for queue in self._err_r:
            if queue:
                return False
        for _, _, aw, w, ar, _, _, _ in self._mgr_ports:
            if aw._queue or w._queue or ar._queue:
                return False
        for node, _, w, _, b, r, _ in self._sub_ports:
            if b._queue or r._queue:
                return False
            # Buffered W data replayable right now means there is work.
            order = self._sub_aw_order[node]
            if order and w.can_send():
                queue = self._sub_w_queues[node].get(order[0])
                if queue:
                    return False
        return True

    # ------------------------------------------------------------------
    # manager network interfaces
    # ------------------------------------------------------------------
    def _dest_for(self, addr: int) -> Optional[tuple[int, int]]:
        idx = self.addr_map.decode(addr)
        if idx is None or idx >= len(self._sub_nodes):
            return None
        return self._sub_nodes[idx]

    def _manager_inject(self) -> None:
        net = self.request_net
        for mgr_idx, node, aw, w, ar, _, _, _ in self._mgr_ports:
            if not (aw._queue or w._queue or ar._queue):
                continue
            # AW: one per cycle, establishes the W route.
            if aw._queue:
                beat = aw._queue[0]
                dest = self._dest_for(beat.addr)
                if dest is None:
                    aw.recv()
                    self._w_route[node].append(node)  # error sentinel: self
                    self._err_w[mgr_idx].append(
                        BBeat(id=beat.id, resp=Resp.DECERR, txn=beat.txn)
                    )
                elif net.inject(
                    node, Flit(dest, "aw", self._widen(beat, mgr_idx), node)
                ):
                    aw.recv()
                    self._w_route[node].append(dest)
                    self.flits_injected += 1
            # W: follows the oldest AW's route.
            if w._queue:
                w_route = self._w_route[node]
                if w_route:
                    dest = w_route[0]
                    beat = w._queue[0]
                    if dest == node:  # decode-miss burst: swallow, then DECERR
                        w.recv()
                        if beat.last:
                            w_route.popleft()
                            self._err_b[mgr_idx].append(
                                self._err_w[mgr_idx].popleft()
                            )
                    elif net.inject(node, Flit(dest, "w", beat, node)):
                        w.recv()
                        if beat.last:
                            w_route.popleft()
            # AR.
            if ar._queue:
                beat = ar._queue[0]
                dest = self._dest_for(beat.addr)
                if dest is None:
                    ar.recv()
                    self._err_r[mgr_idx].extend(
                        RBeat(id=beat.id, resp=Resp.DECERR,
                              last=(i == beat.beats - 1), txn=beat.txn)
                        for i in range(beat.beats)
                    )
                elif net.inject(
                    node, Flit(dest, "ar", self._widen(beat, mgr_idx), node)
                ):
                    ar.recv()
                    self.flits_injected += 1

    def _widen(self, beat, mgr_idx: int):
        out = beat.copy()
        out.id = self.idmap.compose(mgr_idx, beat.id)
        return out

    def _manager_eject(self) -> None:
        net = self.response_net
        err_b, err_r = self._err_b, self._err_r
        inner_of = self.idmap.inner_of
        for mgr_idx, node, _, _, _, b, r, router in self._mgr_ports:
            flit = router.staged["local"]
            if err_b[mgr_idx] or err_r[mgr_idx]:
                flit = self._send_decerr(mgr_idx, b, r, flit)
            if flit is None:
                continue
            beat = flit.beat
            if flit.kind == "b":
                if not b.can_send():
                    continue
                net.eject(node)
                b.send(BBeat(id=inner_of(beat.id), resp=beat.resp,
                             txn=beat.txn))
            else:  # "r"
                if not r.can_send():
                    continue
                net.eject(node)
                r.send(RBeat(id=inner_of(beat.id), data=beat.data,
                             resp=beat.resp, last=beat.last, txn=beat.txn))

    def _send_decerr(self, mgr_idx: int, b, r, flit: Optional[Flit]):
        """Send queued DECERR beats ahead of network responses, one beat
        per channel per cycle.  Returns the local *flit*, or None when a
        DECERR beat took its channel this cycle."""
        queue = self._err_b[mgr_idx]
        if queue and b.can_send():
            b.send(queue.popleft())
            if flit is not None and flit.kind == "b":
                flit = None
        queue = self._err_r[mgr_idx]
        if queue and r.can_send():
            r.send(queue.popleft())
            if flit is not None and flit.kind == "r":
                flit = None
        return flit

    # ------------------------------------------------------------------
    # subordinate network interfaces
    # ------------------------------------------------------------------
    def _subordinate_eject(self) -> None:
        net = self.request_net
        for node, aw, w, ar, _, _, router in self._sub_ports:
            flit = router.staged["local"]
            order = self._sub_aw_order[node]
            if flit is not None:
                kind = flit.kind
                if kind == "aw":
                    if aw.can_send():
                        net.eject(node)
                        aw.send(flit.beat)
                        order.append(flit.src)
                        self._sub_w_queues[node].setdefault(flit.src, deque())
                elif kind == "w":
                    # Always absorb W flits into the per-source queue; they
                    # are replayed to the subordinate in AW order below.
                    net.eject(node)
                    self._sub_w_queues[node].setdefault(
                        flit.src, deque()
                    ).append(flit.beat)
                elif kind == "ar":
                    if ar.can_send():
                        net.eject(node)
                        ar.send(flit.beat)
            # Replay buffered W data in AW-arrival order.
            if order and w.can_send():
                queue = self._sub_w_queues[node].get(order[0])
                if queue:
                    beat = queue.popleft()
                    w.send(beat)
                    if beat.last:
                        order.popleft()

    def _subordinate_inject(self) -> None:
        net = self.response_net
        mgr_nodes = self._mgr_nodes
        manager_of = self.idmap.manager_of
        for node, _, _, _, b, r, _ in self._sub_ports:
            if b._queue:
                beat = b._queue[0]
                dest = mgr_nodes[manager_of(beat.id)]
                if net.inject(node, Flit(dest, "b", beat, node)):
                    b.recv()
            if r._queue:
                beat = r._queue[0]
                dest = mgr_nodes[manager_of(beat.id)]
                if net.inject(node, Flit(dest, "r", beat, node)):
                    r.recv()

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        return {
            **super().state_capture(),
            "request_net": self.request_net.state_capture(),
            "response_net": self.response_net.state_capture(),
        }

    def state_restore(self, state: dict) -> None:
        # Checkpoints written before the NI queued DECERR beats hold none.
        legacy = {
            key: [deque() for _ in self._mgr_nodes]
            for key in ("err_w", "err_b", "err_r")
        }
        super().state_restore({**legacy, **state})
        self.request_net.state_restore(state["request_net"])
        self.response_net.state_restore(state["response_net"])

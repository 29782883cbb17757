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
from typing import Optional, Sequence

from repro.axi.beats import ARBeat, AWBeat, BBeat, RBeat, WBeat
from repro.axi.idspace import IdMap
from repro.axi.ports import AxiBundle
from repro.interconnect.address_map import AddressMap
from repro.interconnect.arbiter import RoundRobinArbiter
from repro.sim.kernel import Component, SimulationError


@dataclass(slots=True)
class Flit:
    """One AXI beat in flight through the mesh."""

    dest: tuple[int, int]
    kind: str  # "aw" | "w" | "ar" | "b" | "r"
    beat: object
    src: tuple[int, int]


class _Router:
    """One mesh router: 5 input queues, XY routing, RR per output."""

    DIRECTIONS = ("local", "north", "south", "east", "west")

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

    def can_accept(self, direction: str) -> bool:
        return len(self.inputs[direction]) < self.depth

    def accept(self, direction: str, flit: Flit) -> None:
        if not self.can_accept(direction):
            raise SimulationError(f"router ({self.x},{self.y}) input full")
        self.inputs[direction].append(flit)

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
        """:meth:`route` with the no-request arbitrations skipped.

        Request vectors are still rebuilt per output from the live queue
        heads (an earlier output's grant may expose a new head that wants
        a later output — the reference routes it in the same cycle), but
        an output nobody requests never reaches its arbiter, which is
        bit-identical because an all-idle grant does not advance the
        round-robin pointer.
        """
        dirs = self.DIRECTIONS
        inputs = self.inputs
        staged = self.staged
        for out in dirs:
            if staged[out] is not None:
                continue
            requests = None
            for i, d in enumerate(dirs):
                queue = inputs[d]
                if queue and self._output_for(queue[0]) == out:
                    if requests is None:
                        requests = [False] * 5
                    requests[i] = True
            if requests is None:
                continue
            granted = self._arbiters[out].grant(requests)
            if granted is None:
                continue
            staged[out] = inputs[dirs[granted]].popleft()
            self.flits_routed += 1

    def busy(self) -> bool:
        """True while any flit is queued or staged in this router."""
        for queue in self.inputs.values():
            if queue:
                return True
        for flit in self.staged.values():
            if flit is not None:
                return True
        return False

    def state_capture(self) -> dict:
        return {
            "inputs": {d: deque(q) for d, q in self.inputs.items()},
            "arbiters": {
                d: a.state_capture() for d, a in self._arbiters.items()
            },
            "staged": dict(self.staged),
            "flits_routed": self.flits_routed,
        }

    def state_restore(self, state: dict) -> None:
        for direction in self.DIRECTIONS:
            self.inputs[direction] = deque(state["inputs"][direction])
            self._arbiters[direction].state_restore(
                state["arbiters"][direction]
            )
            self.staged[direction] = state["staged"][direction]
        self.flits_routed = state["flits_routed"]


class _MeshNetwork:
    """One physical network: a grid of routers moved once per cycle.

    The batched datapath keeps an *active* set of router coordinates —
    exactly those holding at least one flit — so a step visits only the
    few routers a burst is streaming through instead of scanning the
    whole (mostly empty) mesh.  Routing and link movement are per-router
    independent, so visiting the active subset in sorted order is
    bit-identical to the reference full scan.
    """

    _OPPOSITE = {"north": "south", "south": "north",
                 "east": "west", "west": "east"}
    _DELTA = {"north": (0, 1), "south": (0, -1),
              "east": (1, 0), "west": (-1, 0)}

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
        return flit

    def peek_eject(self, node: tuple[int, int]) -> Optional[Flit]:
        return self.routers[node].staged["local"]

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

    def _step_batched(self) -> None:
        active = self._active
        if not active:
            return
        routers = self.routers
        order = sorted(active)
        for node in order:
            routers[node].route_batched()
        opposite = self._OPPOSITE
        delta = self._DELTA
        idle = None
        for node in order:
            router = routers[node]
            x, y = node
            busy = False
            for out, (dx, dy) in delta.items():
                flit = router.staged[out]
                if flit is None:
                    continue
                neighbor = routers.get((x + dx, y + dy))
                if neighbor is None:  # pragma: no cover - routing bug guard
                    raise SimulationError("flit routed off the mesh edge")
                if neighbor.can_accept(opposite[out]):
                    neighbor.accept(opposite[out], flit)
                    active.add((x + dx, y + dy))
                    router.staged[out] = None
                else:
                    busy = True
            if not busy and not router.busy():
                if idle is None:
                    idle = [node]
                else:
                    idle.append(node)
        if idle is not None:
            # Re-check before pruning: a later router's link movement may
            # have pushed a flit into a router already found empty.
            for node in idle:
                if not routers[node].busy():
                    active.discard(node)

    def state_capture(self) -> dict:
        return {
            "flits": self.flits,
            "active": sorted(self._active),
            "routers": {
                node: router.state_capture()
                for node, router in self.routers.items()
            },
        }

    def state_restore(self, state: dict) -> None:
        self.flits = state["flits"]
        self._active = set(state["active"])
        for node, router_state in state["routers"].items():
            self.routers[node].state_restore(router_state)


class AxiNoc(Component):
    """AXI mesh NoC: manager and subordinate network interfaces.

    *managers* maps a node coordinate to the manager-side bundle whose
    requests enter the network there; *subordinates* maps coordinates to
    downstream bundles.  ``addr_map`` decodes to subordinate indices (in
    the iteration order of *subordinates*).
    """

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
        # repro: lint-ok[snapshot-coverage] topology wiring, immutable after build
        self._mgr_index = {node: i for i, node in enumerate(managers)}
        self._mgr_nodes = list(managers.keys())
        # Manager NI state: W routing FIFO (dest per issued AW).
        self._w_route: dict[tuple[int, int], deque[tuple[int, int]]] = {
            node: deque() for node in managers
        }
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
        for bundle in self.managers.values():
            if bundle.aw.can_recv() or bundle.w.can_recv() or bundle.ar.can_recv():
                return False
        for node, bundle in self.subordinates.items():
            if bundle.b.can_recv() or bundle.r.can_recv():
                return False
            # Buffered W data replayable right now means there is work.
            order = self._sub_aw_order[node]
            if order and bundle.w.can_send():
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
        for node, bundle in self.managers.items():
            mgr_idx = self._mgr_index[node]
            # AW: one per cycle, establishes the W route.
            if bundle.aw.can_recv():
                beat = bundle.aw.peek()
                dest = self._dest_for(beat.addr)
                if dest is None:
                    bundle.aw.recv()
                    self._w_route[node].append(node)  # error sentinel: self
                elif self.request_net.inject(
                    node, Flit(dest, "aw", self._widen(beat, mgr_idx), node)
                ):
                    bundle.aw.recv()
                    self._w_route[node].append(dest)
                    self.flits_injected += 1
            # W: follows the oldest AW's route.
            if bundle.w.can_recv() and self._w_route[node]:
                dest = self._w_route[node][0]
                beat = bundle.w.peek()
                if dest == node:  # decode-miss burst: swallow, answer DECERR
                    bundle.w.recv()
                    if beat.last:
                        self._w_route[node].popleft()
                        from repro.axi.types import Resp

                        bundle.b.send(BBeat(id=0, resp=Resp.DECERR))
                elif self.request_net.inject(node, Flit(dest, "w", beat, node)):
                    bundle.w.recv()
                    if beat.last:
                        self._w_route[node].popleft()
            # AR.
            if bundle.ar.can_recv():
                beat = bundle.ar.peek()
                dest = self._dest_for(beat.addr)
                if dest is None:
                    beat = bundle.ar.recv()
                    from repro.axi.types import Resp

                    if bundle.r.can_send():
                        bundle.r.send(
                            RBeat(id=beat.id, resp=Resp.DECERR, last=True)
                        )
                elif self.request_net.inject(
                    node, Flit(dest, "ar", self._widen(beat, mgr_idx), node)
                ):
                    bundle.ar.recv()
                    self.flits_injected += 1

    def _widen(self, beat, mgr_idx: int):
        out = beat.copy()
        out.id = self.idmap.compose(mgr_idx, beat.id)
        return out

    def _manager_eject(self) -> None:
        for node, bundle in self.managers.items():
            flit = self.response_net.peek_eject(node)
            if flit is None:
                continue
            if flit.kind == "b":
                if not bundle.b.can_send():
                    continue
                self.response_net.eject(node)
                beat = flit.beat
                bundle.b.send(
                    BBeat(id=self.idmap.inner_of(beat.id), resp=beat.resp,
                          txn=beat.txn)
                )
            else:  # "r"
                if not bundle.r.can_send():
                    continue
                self.response_net.eject(node)
                beat = flit.beat
                bundle.r.send(
                    RBeat(id=self.idmap.inner_of(beat.id), data=beat.data,
                          resp=beat.resp, last=beat.last, txn=beat.txn)
                )

    # ------------------------------------------------------------------
    # subordinate network interfaces
    # ------------------------------------------------------------------
    def _subordinate_eject(self) -> None:
        for node, bundle in self.subordinates.items():
            flit = self.request_net.peek_eject(node)
            if flit is not None:
                if flit.kind == "aw":
                    if bundle.aw.can_send():
                        self.request_net.eject(node)
                        bundle.aw.send(flit.beat)
                        self._sub_aw_order[node].append(flit.src)
                        self._sub_w_queues[node].setdefault(flit.src, deque())
                elif flit.kind == "w":
                    # Always absorb W flits into the per-source queue; they
                    # are replayed to the subordinate in AW order below.
                    self.request_net.eject(node)
                    self._sub_w_queues[node].setdefault(
                        flit.src, deque()
                    ).append(flit.beat)
                elif flit.kind == "ar":
                    if bundle.ar.can_send():
                        self.request_net.eject(node)
                        bundle.ar.send(flit.beat)
            # Replay buffered W data in AW-arrival order.
            order = self._sub_aw_order[node]
            if order and bundle.w.can_send():
                src = order[0]
                queue = self._sub_w_queues[node].get(src)
                if queue:
                    beat = queue.popleft()
                    bundle.w.send(beat)
                    if beat.last:
                        order.popleft()

    def _subordinate_inject(self) -> None:
        for node, bundle in self.subordinates.items():
            if bundle.b.can_recv():
                beat = bundle.b.peek()
                mgr = self.idmap.manager_of(beat.id)
                dest = self._mgr_nodes[mgr]
                if self.response_net.inject(node, Flit(dest, "b", beat, node)):
                    bundle.b.recv()
            if bundle.r.can_recv():
                beat = bundle.r.peek()
                mgr = self.idmap.manager_of(beat.id)
                dest = self._mgr_nodes[mgr]
                if self.response_net.inject(node, Flit(dest, "r", beat, node)):
                    bundle.r.recv()

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        return {
            "request_net": self.request_net.state_capture(),
            "response_net": self.response_net.state_capture(),
            "w_route": {n: deque(q) for n, q in self._w_route.items()},
            "sub_aw_order": {
                n: deque(q) for n, q in self._sub_aw_order.items()
            },
            "sub_w_queues": {
                n: {src: deque(q) for src, q in queues.items()}
                for n, queues in self._sub_w_queues.items()
            },
            "flits_injected": self.flits_injected,
        }

    def state_restore(self, state: dict) -> None:
        self.request_net.state_restore(state["request_net"])
        self.response_net.state_restore(state["response_net"])
        for node, queue in state["w_route"].items():
            self._w_route[node] = deque(queue)
        for node, queue in state["sub_aw_order"].items():
            self._sub_aw_order[node] = deque(queue)
        for node, queues in state["sub_w_queues"].items():
            self._sub_w_queues[node] = {
                src: deque(q) for src, q in queues.items()
            }
        self.flits_injected = state["flits_injected"]

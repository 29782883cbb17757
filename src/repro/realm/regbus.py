"""Register-bus adapter: memory-mapped access to the configuration space.

Cheshire attaches the REALM configuration registers to a Regbus crossbar
(Figure 5).  This adapter exposes the :class:`RealmRegisterFile` as a
clocked subordinate with a simple request/response channel pair, carrying
the requester's transaction ID so the bus guard can enforce ownership —
the transport-level counterpart of calling ``regfile.read/write``
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.realm.bus_guard import BusGuardError
from repro.realm.register_file import RealmRegisterFile, RegisterError
from repro.sim.channel import Channel
from repro.sim.kernel import Component, Simulator


@dataclass(frozen=True, slots=True)
class RegbusReq:
    """One register access request."""

    write: bool
    addr: int
    tid: int
    data: int = 0
    tag: int = 0  # echoed in the response for request matching


@dataclass(frozen=True, slots=True)
class RegbusRsp:
    """The matching response."""

    ok: bool
    data: int = 0
    error: str = ""
    tag: int = 0
    tid: int = 0  # requester the response belongs to


class RegbusAdapter(Component):
    """Serves one register access per cycle from the request channel."""

    _STATE_FIELDS = ("_pending", "_wait", "accesses", "errors")

    def __init__(
        self,
        sim: Simulator,
        regfile: RealmRegisterFile,
        name: str = "regbus",
        latency: int = 1,
    ) -> None:
        super().__init__(name)
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.req: Channel[RegbusReq] = Channel(sim, f"{name}.req")
        self.rsp: Channel[RegbusRsp] = Channel(sim, f"{name}.rsp")
        self.regfile = regfile
        self.latency = latency
        self._pending: Optional[RegbusReq] = None
        self._wait = 0
        self.accesses = 0
        self.errors = 0

    def tick(self, cycle: int) -> None:
        if self._pending is None:
            if not self.req.can_recv():
                return
            self._pending = self.req.recv()
            self._wait = self.latency
            return
        if self._wait > 0:
            self._wait -= 1
            return
        if not self.rsp.can_send():
            return
        request = self._pending
        self._pending = None
        self.accesses += 1
        try:
            if request.write:
                self.regfile.write(request.addr, request.data, request.tid)
                self.rsp.send(
                    RegbusRsp(ok=True, tag=request.tag, tid=request.tid)
                )
            else:
                value = self.regfile.read(request.addr, request.tid)
                self.rsp.send(
                    RegbusRsp(ok=True, data=value, tag=request.tag,
                              tid=request.tid)
                )
        except (BusGuardError, RegisterError) as exc:
            self.errors += 1
            self.rsp.send(
                RegbusRsp(ok=False, error=str(exc), tag=request.tag,
                          tid=request.tid)
            )


class RegbusRequester(Component):
    """Scripted requester for tests and boot-flow models."""

    _STATE_FIELDS = ("_queue", "_next_tag", "responses")

    def __init__(self, adapter: RegbusAdapter, tid: int,
                 name: str = "requester") -> None:
        super().__init__(name)
        self.adapter = adapter
        self.tid = tid
        self._queue: list[RegbusReq] = []
        self._next_tag = 0
        self.responses: list[RegbusRsp] = []

    def read(self, addr: int) -> int:
        tag = self._next_tag
        self._next_tag += 1
        self._queue.append(RegbusReq(False, addr, self.tid, tag=tag))
        return tag

    def write(self, addr: int, data: int) -> int:
        tag = self._next_tag
        self._next_tag += 1
        self._queue.append(RegbusReq(True, addr, self.tid, data, tag=tag))
        return tag

    @property
    def idle(self) -> bool:
        return not self._queue and len(self.responses) == self._next_tag

    def response_for(self, tag: int) -> Optional[RegbusRsp]:
        for rsp in self.responses:
            if rsp.tag == tag:
                return rsp
        return None

    def tick(self, cycle: int) -> None:
        if self._queue and self.adapter.req.can_send():
            self.adapter.req.send(self._queue.pop(0))
        # Consume only this requester's responses (the channel is shared).
        while (
            self.adapter.rsp.can_recv()
            and self.adapter.rsp.peek().tid == self.tid
        ):
            self.responses.append(self.adapter.rsp.recv())

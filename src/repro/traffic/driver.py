"""Scripted AXI manager driver.

Executes a queue of read/write operations, one outstanding transaction at a
time, and records per-operation responses and latencies.  Used directly by
tests and examples, and as the issue machinery underneath the traffic
generators.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.axi.beats import ARBeat, AWBeat, WBeat
from repro.axi.idspace import TxnCounter
from repro.axi.ports import AxiBundle
from repro.axi.types import AtomicOp, BurstType, Resp, bytes_per_beat
from repro.sim.kernel import Component


@dataclass
class Op:
    """One scripted operation and, once finished, its outcome."""

    kind: str  # "read" | "write"
    addr: int
    beats: int = 1
    size: int = 3
    burst: BurstType = BurstType.INCR
    data: Optional[bytes] = None  # write payload (beats * 2**size bytes)
    id: int = 0
    modifiable: bool = True
    atop: AtomicOp = AtomicOp.NONE
    # Results (filled in on completion).
    resp: Optional[Resp] = None
    rdata: bytes = b""
    issue_cycle: int = -1
    done_cycle: int = -1
    txn: int = -1

    @property
    def done(self) -> bool:
        return self.resp is not None

    @property
    def latency(self) -> int:
        if not self.done:
            raise RuntimeError("operation not finished")
        return self.done_cycle - self.issue_cycle


class ManagerDriver(Component):
    """Blocking scripted manager: one outstanding transaction at a time."""

    _STATE_FIELDS = (
        "_queue", "_current", "_aw_sent", "_w_index", "_r_parts", "_resp",
        "_got_b", "completed", "_cycle",
    )

    def __init__(
        self,
        port: AxiBundle,
        name: str = "driver",
        txn_counter: Optional[TxnCounter] = None,
    ) -> None:
        super().__init__(name)
        self.port = port
        self.watch(port, role="manager")
        self._txns = txn_counter or TxnCounter()
        self._queue: deque[Op] = deque()
        self._current: Optional[Op] = None
        self._aw_sent = False
        self._w_index = 0
        self._r_parts: list[bytes] = []
        self._resp = Resp.OKAY
        self._got_b = False
        self.completed: list[Op] = []
        self._cycle = 0

    # ------------------------------------------------------------------
    # scripting interface
    # ------------------------------------------------------------------
    def read(self, addr: int, beats: int = 1, size: int = 3, **kw) -> Op:
        op = Op(kind="read", addr=addr, beats=beats, size=size, **kw)
        self._queue.append(op)
        self.wake()
        return op

    def write(
        self,
        addr: int,
        data: Optional[bytes] = None,
        beats: int = 1,
        size: int = 3,
        **kw,
    ) -> Op:
        op = Op(kind="write", addr=addr, beats=beats, size=size, data=data, **kw)
        self._queue.append(op)
        self.wake()
        return op

    def atomic(
        self,
        addr: int,
        op: AtomicOp,
        operand: bytes,
        size: int = 3,
        **kw,
    ) -> Op:
        """Issue a single-beat atomic operation.

        LOAD and SWAP return the old memory value in ``rdata``.
        """
        if op == AtomicOp.NONE:
            raise ValueError("use write() for non-atomic operations")
        out = Op(kind="write", addr=addr, beats=1, size=size, data=operand,
                 atop=op, **kw)
        self._queue.append(out)
        self.wake()
        return out

    @property
    def idle(self) -> bool:
        return self._current is None and not self._queue

    @property
    def pending_ops(self) -> int:
        return len(self._queue) + (1 if self._current else 0)

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        if self._current is None:
            if not self._queue:
                return
            self._start(self._queue.popleft(), cycle)
        op = self._current
        if op.kind == "read":
            self._advance_read(op, cycle)
        else:
            self._advance_write(op, cycle)

    def is_idle(self) -> bool:
        # Scripting a new operation wakes the driver again.
        op = self._current
        if op is None:
            return not self._queue
        # Mid-operation ticks are pure polls: sleep whenever every
        # sub-action is blocked on a watched channel.
        port = self.port
        if op.kind == "read":
            if not self._aw_sent:
                return not port.ar.can_send()
            return not port.r.can_recv()
        if not self._aw_sent:
            return not port.aw.can_send()
        if self._w_index < op.beats and port.w.can_send():
            return False
        if port.b.can_recv():
            return False
        wants_r = op.atop in (AtomicOp.LOAD, AtomicOp.SWAP)
        return not (wants_r and port.r.can_recv())

    # ------------------------------------------------------------------
    # snapshot contract
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        return {**super().state_capture(), "txn_next": self._txns._next}

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self._txns._next = state["txn_next"]

    # ------------------------------------------------------------------
    def _start(self, op: Op, cycle: int) -> None:
        self._current = op
        self._aw_sent = False
        self._w_index = 0
        self._r_parts = []
        self._resp = Resp.OKAY
        self._got_b = False
        op.issue_cycle = cycle
        op.txn = self._txns.allocate()

    def _advance_read(self, op: Op, cycle: int) -> None:
        if not self._aw_sent:
            if not self.port.ar.can_send():
                return
            self.port.ar.send(
                ARBeat(
                    id=op.id,
                    addr=op.addr,
                    beats=op.beats,
                    size=op.size,
                    burst=op.burst,
                    modifiable=op.modifiable,
                    issue_cycle=cycle,
                    txn=op.txn,
                )
            )
            self._aw_sent = True
        while self.port.r.can_recv():
            beat = self.port.r.recv()
            self._r_parts.append(beat.data or b"")
            if beat.resp.is_error:
                self._resp = beat.resp
            if beat.last:
                self._finish(op, cycle)
                return

    def _advance_write(self, op: Op, cycle: int) -> None:
        nbytes = bytes_per_beat(op.size)
        if not self._aw_sent:
            if not self.port.aw.can_send():
                return
            self.port.aw.send(
                AWBeat(
                    id=op.id,
                    addr=op.addr,
                    beats=op.beats,
                    size=op.size,
                    burst=op.burst,
                    modifiable=op.modifiable,
                    atop=op.atop,
                    issue_cycle=cycle,
                    txn=op.txn,
                )
            )
            self._aw_sent = True
        # Stream write data, one beat per cycle.
        if self._w_index < op.beats and self.port.w.can_send():
            if op.data is not None:
                chunk = op.data[self._w_index * nbytes : (self._w_index + 1) * nbytes]
                chunk = chunk.ljust(nbytes, b"\0")
            else:
                chunk = None
            self.port.w.send(
                WBeat(data=chunk, last=(self._w_index == op.beats - 1), txn=op.txn)
            )
            self._w_index += 1
        if self.port.b.can_recv():
            beat = self.port.b.recv()
            self._resp = beat.resp
            self._got_b = True
        # LOAD/SWAP atomics also return the old value on the R channel.
        wants_r = op.atop in (AtomicOp.LOAD, AtomicOp.SWAP)
        if wants_r and self.port.r.can_recv():
            rbeat = self.port.r.recv()
            self._r_parts.append(rbeat.data or b"")
            if rbeat.resp.is_error:
                self._resp = rbeat.resp
        if self._got_b and (not wants_r or self._r_parts):
            self._finish(op, cycle)

    def _finish(self, op: Op, cycle: int) -> None:
        op.resp = self._resp
        op.rdata = b"".join(self._r_parts)
        op.done_cycle = cycle
        self.completed.append(op)
        self._current = None

"""Blocking in-order core model (the CVA6 stand-in).

Executes a :class:`~repro.traffic.patterns.MemoryTrace`: for each operation
it spends the trace's compute-gap cycles, issues the access, and blocks
until the response returns — the behaviour of an in-order core whose
load/store unit allows one outstanding data access, which is what makes
CVA6 so sensitive to interconnect interference in the paper's evaluation.

Metrics: total execution cycles, per-access latency list, and worst-case
access latency — the quantities plotted in Figure 6.
"""

from __future__ import annotations

from typing import Optional

from repro.axi.beats import ARBeat, AWBeat, WBeat
from repro.axi.idspace import TxnCounter
from repro.axi.ports import AxiBundle
from repro.axi.types import bytes_per_beat
from repro.sim.kernel import Component
from repro.traffic.patterns import MemoryTrace, TraceOp


class CoreModel(Component):
    """Latency-sensitive trace executor."""

    _STATE_FIELDS = (
        "_index", "_state", "_gap_left", "_napping", "_w_sent",
        "_issue_cycle", "_start_cycle", "latencies", "finish_cycle",
    )

    def __init__(
        self,
        port: AxiBundle,
        trace: MemoryTrace,
        name: str = "core",
        txn_counter: Optional[TxnCounter] = None,
    ) -> None:
        super().__init__(name)
        self.port = port
        self.watch(port, role="manager")
        self.trace = trace
        self._txns = txn_counter or TxnCounter()
        self._index = 0
        self._state = "gap"  # gap | issue | wait_w | wait_resp | done
        self._gap_left = trace.ops[0].gap if trace.ops else 0
        self._napping = False  # sleeping through a compute gap
        self._w_sent = 0
        self._issue_cycle = 0
        self._start_cycle: Optional[int] = None
        # Metrics.
        self.latencies: list[int] = []
        self.finish_cycle: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._state == "done"

    @property
    def execution_cycles(self) -> Optional[int]:
        if self.finish_cycle is None or self._start_cycle is None:
            return None
        return self.finish_cycle - self._start_cycle

    @property
    def worst_case_latency(self) -> int:
        return max(self.latencies) if self.latencies else 0

    @property
    def avg_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def progress(self) -> int:
        """Completed accesses so far."""
        return len(self.latencies)

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if self._state == "done":
            return
        self._napping = False
        if self._start_cycle is None:
            self._start_cycle = cycle
        if self._state == "gap":
            if self._gap_left > 0:
                self._gap_left -= 1
                if self._gap_left > 0 and self._can_nap():
                    # The core is blocking (no outstanding access during a
                    # compute gap), so the remaining gap ticks are pure
                    # countdowns: sleep through them and resume exactly at
                    # the cycle the naive kernel would issue.
                    self.wake_at(cycle + 1 + self._gap_left)
                    self._gap_left = 0
                    self._napping = True
                return
            self._state = "issue"
        op = self.trace.ops[self._index]
        if self._state == "issue":
            self._issue(op, cycle)
        if self._state == "wait_w":
            self._stream_w(op)
        if self._state == "wait_resp":
            self._collect(op, cycle)

    def _can_nap(self) -> bool:
        return self._sim is not None and self._sim.active_set_enabled

    def is_idle(self) -> bool:
        state = self._state
        if state == "done" or self._napping:
            return True
        # A blocking core's wait-for-response (or blocked-issue) ticks
        # are pure polls on a watched channel: sleep through them.
        port = self.port
        if state == "wait_resp":
            op = self.trace.ops[self._index]
            channel = port.r if op.kind == "read" else port.b
            return not channel.can_recv()
        if state == "issue":
            op = self.trace.ops[self._index]
            channel = port.ar if op.kind == "read" else port.aw
            return not channel.can_send()
        if state == "wait_w":
            op = self.trace.ops[self._index]
            return self._w_sent < op.beats and not port.w.can_send()
        return False  # "gap" counts down every cycle (napping handles it)

    def _issue(self, op: TraceOp, cycle: int) -> None:
        if op.kind == "read":
            if not self.port.ar.can_send():
                return
            self.port.ar.send(
                ARBeat(
                    id=0, addr=op.addr, beats=op.beats, size=op.size,
                    issue_cycle=cycle, txn=self._txns.allocate(),
                )
            )
            self._issue_cycle = cycle
            self._state = "wait_resp"
        else:
            if not self.port.aw.can_send():
                return
            self.port.aw.send(
                AWBeat(
                    id=0, addr=op.addr, beats=op.beats, size=op.size,
                    issue_cycle=cycle, txn=self._txns.allocate(),
                )
            )
            self._issue_cycle = cycle
            self._w_sent = 0
            self._state = "wait_w"

    def _stream_w(self, op: TraceOp) -> None:
        if self._w_sent < op.beats and self.port.w.can_send():
            nbytes = bytes_per_beat(op.size)
            self._w_sent += 1
            self.port.w.send(
                WBeat(data=bytes(nbytes), last=(self._w_sent == op.beats))
            )
        if self._w_sent == op.beats:
            self._state = "wait_resp"

    def _collect(self, op: TraceOp, cycle: int) -> None:
        finished = False
        if op.kind == "read":
            while self.port.r.can_recv():
                beat = self.port.r.recv()
                if beat.last:
                    finished = True
                    break
        else:
            if self.port.b.can_recv():
                self.port.b.recv()
                finished = True
        if not finished:
            return
        self.latencies.append(cycle - self._issue_cycle)
        self._index += 1
        if self._index >= len(self.trace.ops):
            self._state = "done"
            self.finish_cycle = cycle
        else:
            self._gap_left = self.trace.ops[self._index].gap
            self._state = "gap"

    # ------------------------------------------------------------------
    # snapshot contract (the trace itself is rebuilt from its spec)
    # ------------------------------------------------------------------
    def state_capture(self) -> dict:
        return {**super().state_capture(), "txn_next": self._txns._next}

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)
        self._txns._next = state["txn_next"]

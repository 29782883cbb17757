"""Isolation block: cuts a manager off from the memory system.

Sits at the ingress of the REALM unit (Figure 2).  It tracks outstanding
transactions and supports graceful cut-off: on an isolation request it
blocks *new* address beats while letting outstanding transactions (and the
write data they still owe) complete; once drained it reports isolated.
Isolation is triggered by budget depletion, intrusive reconfiguration, or
user command (Section III-A).
"""

from __future__ import annotations

from enum import Enum

from repro.sim.kernel import Stateful


class IsolationMode(Enum):
    PASS = "pass"
    DRAINING = "draining"
    ISOLATED = "isolated"


# The passes test the mode every cycle; a member lookup through the enum
# class costs several times a module-global load.
_PASS = IsolationMode.PASS
_DRAINING = IsolationMode.DRAINING
_ISOLATED = IsolationMode.ISOLATED


class IsolationStage(Stateful):
    """Ingress stage of the REALM unit pipeline."""

    _STATE_FIELDS = (
        "mode", "outstanding_reads", "outstanding_writes", "_w_bursts_owed",
        "reasons", "blocked_aw", "blocked_ar", "isolation_events",
    )

    def __init__(self, up, down, name: str = "isolate") -> None:
        self.name = name
        self.up = up  # toward the manager (AxiBundle)
        self.down = down  # toward the next stage (WireBundle)
        self.mode = IsolationMode.PASS
        self.outstanding_reads = 0
        self.outstanding_writes = 0
        # W bursts whose AW has been forwarded but whose last W beat has
        # not: this data is still allowed through while draining.
        self._w_bursts_owed = 0
        self.reasons: set[str] = set()
        # Statistics.
        self.blocked_aw = 0
        self.blocked_ar = 0
        self.isolation_events = 0

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def request_isolate(self, reason: str = "user") -> None:
        self.reasons.add(reason)
        if self.mode is _PASS:
            self.isolation_events += 1
            self.mode = _ISOLATED if self._drained else _DRAINING

    def release(self, reason: str = "user") -> None:
        self.reasons.discard(reason)
        if not self.reasons:
            self.mode = _PASS

    @property
    def isolated(self) -> bool:
        return self.mode is _ISOLATED

    @property
    def outstanding(self) -> int:
        return self.outstanding_reads + self.outstanding_writes

    @property
    def _drained(self) -> bool:
        return self.outstanding == 0 and self._w_bursts_owed == 0

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def tick_request(self, cycle: int) -> None:
        passing = self.mode is _PASS
        if passing:
            if self.up.aw.can_recv() and self.down.aw.can_send():
                beat = self.up.aw.recv()
                self.down.aw.send(beat)
                self.outstanding_writes += 1
                self._w_bursts_owed += 1
            if self.up.ar.can_recv() and self.down.ar.can_send():
                self.down.ar.send(self.up.ar.recv())
                self.outstanding_reads += 1
        else:
            if self.up.aw.can_recv():
                self.blocked_aw += 1
            if self.up.ar.can_recv():
                self.blocked_ar += 1
        # Write data of already-forwarded bursts flows in every mode.
        if (
            self._w_bursts_owed > 0
            and self.up.w.can_recv()
            and self.down.w.can_send()
        ):
            beat = self.up.w.recv()
            self.down.w.send(beat)
            if beat.last:
                self._w_bursts_owed -= 1
        if self.mode is _DRAINING and self._drained:
            self.mode = _ISOLATED

    def tick_response(self, cycle: int) -> None:
        if self.down.b.can_recv() and self.up.b.can_send():
            self.up.b.send(self.down.b.recv())
            self.outstanding_writes -= 1
        if self.down.r.can_recv() and self.up.r.can_send():
            beat = self.down.r.recv()
            self.up.r.send(beat)
            if beat.last:
                self.outstanding_reads -= 1
        if self.mode is _DRAINING and self._drained:
            self.mode = _ISOLATED

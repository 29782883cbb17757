"""Bus guard: transaction-ID-based ownership of the configuration space.

After reset the configuration space is unclaimed and every access except a
write to the guard register returns an error.  A trusted manager (in the
paper, the hardware root of trust or CVA6 early in boot) claims ownership
by writing to the guard register; the owner may later hand exclusive
read/write access to another manager by writing that manager's TID
(Section III-B).
"""

from __future__ import annotations

from typing import Optional

from repro.sim.kernel import Stateful

NO_OWNER = -1
GUARD_REGISTER_OFFSET = 0x0


class BusGuardError(Exception):
    """Raised by guarded accesses that are rejected; carries the reason."""


class BusGuard(Stateful):
    """Ownership gate in front of a register file (a simulator state
    client)."""

    _STATE_FIELDS = ("_owner", "rejected_accesses", "handovers")

    def __init__(self) -> None:
        self._owner: int = NO_OWNER
        # Statistics.
        self.rejected_accesses = 0
        self.handovers = 0

    # ------------------------------------------------------------------
    @property
    def owner(self) -> int:
        return self._owner

    @property
    def claimed(self) -> bool:
        return self._owner != NO_OWNER

    # ------------------------------------------------------------------
    def check(self, tid: int) -> None:
        """Raise :class:`BusGuardError` unless *tid* owns the space."""
        if not self.claimed:
            self.rejected_accesses += 1
            raise BusGuardError("configuration space unclaimed")
        if tid != self._owner:
            self.rejected_accesses += 1
            raise BusGuardError(
                f"TID {tid} is not the owner (owner is {self._owner})"
            )

    def write_guard(self, tid: int, value: int) -> None:
        """Claim (when unclaimed) or hand over (when owner) the space.

        * unclaimed: any manager's write claims ownership for itself;
        * owner writes *value*: ownership transfers to TID *value*;
        * non-owner writes: rejected.
        """
        if not self.claimed:
            self._owner = tid
            return
        if tid != self._owner:
            self.rejected_accesses += 1
            raise BusGuardError(
                f"TID {tid} cannot hand over; owner is {self._owner}"
            )
        if value != self._owner:
            self._owner = value
            self.handovers += 1

    def read_guard(self, tid: int) -> int:
        """The guard register reads back the current owner (or NO_OWNER);
        readable by anyone so managers can discover the owner."""
        return self._owner

"""Arbiters used by the crossbar muxes.

The paper's baseline interconnect (the PULP AXI crossbar, [19]) arbitrates
round-robin at *burst* granularity; that policy is what makes long DMA
bursts starve fine-granular core traffic and is exactly the behaviour the
REALM burst splitter restores fairness against.
"""

from __future__ import annotations

from typing import Optional, Sequence


class RoundRobinArbiter:
    """Work-conserving round-robin arbiter over *n* requesters.

    :meth:`grant` returns the index of the granted requester (or ``None``)
    and advances the pointer past it, so consecutive grants rotate among
    active requesters.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("arbiter needs at least one requester")
        self.n = n
        self._pointer = 0

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        """Pick the next active requester at or after the pointer."""
        if len(requests) != self.n:
            raise ValueError(f"expected {self.n} request lines, got {len(requests)}")
        for offset in range(self.n):
            idx = (self._pointer + offset) % self.n
            if requests[idx]:
                self._pointer = (idx + 1) % self.n
                return idx
        return None

    def grant_one(self, idx: int) -> int:
        """:meth:`grant` for a request vector in which only *idx* is set."""
        self._pointer = (idx + 1) % self.n
        return idx

    def peek(self, requests: Sequence[bool]) -> Optional[int]:
        """Like :meth:`grant` but without advancing the pointer."""
        for offset in range(self.n):
            idx = (self._pointer + offset) % self.n
            if requests[idx]:
                return idx
        return None

    def state_capture(self) -> int:
        return self._pointer

    def state_restore(self, state: int) -> None:
        self._pointer = state


class FixedPriorityArbiter:
    """Lowest index wins.  Used by tests as a contrast to round-robin."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("arbiter needs at least one requester")
        self.n = n

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        if len(requests) != self.n:
            raise ValueError(f"expected {self.n} request lines, got {len(requests)}")
        for idx, req in enumerate(requests):
            if req:
                return idx
        return None

    def peek(self, requests: Sequence[bool]) -> Optional[int]:
        return self.grant(requests)

    def state_capture(self) -> int:
        return 0

    def state_restore(self, state: int) -> None:
        pass

"""Transaction-ID space management for crossbar routing.

Real AXI crossbars widen the ID at every manager port by prefixing the
manager index; responses are routed back by inspecting that prefix and the
prefix is stripped before the beat leaves the crossbar.  The same scheme
routes B and R beats here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class IdMap:
    """Prefixes a manager index into the upper bits of a transaction ID."""

    inner_id_bits: int  # width of the manager-visible ID

    # The layout: a widened ID's manager index is ``wide_id >>
    # inner_id_bits`` and its inner ID is ``wide_id & inner_mask``.  Hot
    # paths read the two once and decode with them directly.
    @property
    def inner_mask(self) -> int:
        return (1 << self.inner_id_bits) - 1

    def compose(self, manager_index: int, inner_id: int) -> int:
        """Widened ID carrying *manager_index* above *inner_id*."""
        if inner_id < 0 or inner_id >= (1 << self.inner_id_bits):
            raise ValueError(
                f"inner id {inner_id} does not fit in {self.inner_id_bits} bits"
            )
        if manager_index < 0:
            raise ValueError(f"negative manager index {manager_index}")
        return (manager_index << self.inner_id_bits) | inner_id

    def split(self, wide_id: int) -> tuple[int, int]:
        """Return ``(manager_index, inner_id)`` from a widened ID."""
        if wide_id < 0:
            raise ValueError(f"negative id {wide_id}")
        return wide_id >> self.inner_id_bits, wide_id & self.inner_mask

    def manager_of(self, wide_id: int) -> int:
        return self.split(wide_id)[0]

    def inner_of(self, wide_id: int) -> int:
        return self.split(wide_id)[1]


class TxnCounter:
    """Monotonic transaction-tag allocator shared by traffic generators."""

    def __init__(self) -> None:
        self._next = 0

    def allocate(self) -> int:
        tag = self._next
        self._next += 1
        return tag

    @property
    def issued(self) -> int:
        return self._next

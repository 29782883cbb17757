"""Bounded ring of timestamped execution events (DESIGN.md section 15).

The journal is the event half of the flight recorder: a fixed-capacity
ring of plain tuples ``(cycle, kind, *details)`` describing what the
execution engine *did* — component wakes and sleeps, span entries and
aborts, express-route installs and cancels, checkpoint captures and
restores, fast-forward jumps.  It records execution strategy, never
simulated state: two runs that differ only in their journals produce
byte-identical reports and goldens.

The ring is bounded so an arbitrarily long run cannot exhaust memory;
when full, the oldest events are dropped and counted, and the exporter
surfaces the drop count so a truncated trace is never mistaken for a
complete one.

Event vocabulary (every event is a tuple starting ``(cycle, kind)``):

====================  =====================================================
``("wake", name, cause)``    component entered the active set; *cause* is
                             ``"channel"`` (commit wake), ``"timer"``
                             (``wake_at``), ``"hook"`` (woken from a
                             ``call_at`` hook), ``"direct"`` (an explicit
                             ``wake()`` call — an express-route boundary,
                             an API write), ``"restore"`` (a snapshot
                             restore put it back in the active set) or
                             ``"attach"`` (already active when the
                             recorder attached)
``("sleep", name)``          component declared idle and left the active
                             set, or a snapshot restore removed it
``("span", n, k)``           span replay advanced ``n`` cycles with ``k``
                             participating components
``("span_abort", cause, refuser)``  span negotiation failed; *refuser* is
                             the vetoing component's name or ``None``
``("express", action, owner)``  ExpressRoute ``"install"``/``"cancel"``
``("ckpt", action, seconds)``   snapshot ``"capture"``/``"restore"`` with
                             host seconds spent
``("ff", n)``                quiescent fast-forward skipped ``n`` cycles
====================  =====================================================
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

__all__ = ["EventJournal", "DEFAULT_CAPACITY"]

DEFAULT_CAPACITY = 65536


class EventJournal:
    """Fixed-capacity event ring with an overflow counter.

    ``append`` is the hot path: one length test and one deque append.
    The deque's own ``maxlen`` performs the eviction, so overflow costs
    no extra work beyond the counter increment.
    """

    __slots__ = ("capacity", "dropped", "_events")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("journal capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque = deque(maxlen=capacity)

    def append(self, event: tuple) -> None:
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> Iterator[tuple]:
        """Iterate the retained events, oldest first."""
        return iter(self._events)

    def drain(self) -> list:
        """Return and clear the retained events (drop count persists)."""
        out = list(self._events)
        self._events.clear()
        return out

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<EventJournal {len(self._events)}/{self.capacity}"
            f" dropped={self.dropped}>"
        )

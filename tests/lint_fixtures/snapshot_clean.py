# repro: lint-treat-as realm/fixture.py
"""snapshot-coverage fixture: fully covered state, every idiom."""

from repro.sim.kernel import Stateful


class Covered:
    def __init__(self, depth: int) -> None:
        self.depth = depth          # config from a parameter: exempt
        self.count = 0
        self.backlog = []

    def state_capture(self) -> dict:
        return {"count": self.count, "backlog": list(self.backlog)}

    def state_restore(self, state: dict) -> None:
        self.count = state["count"]
        self.backlog = list(state["backlog"])


class NameTable:
    """The getattr-over-a-name-table capture idiom is recognized."""

    _STATE_FIELDS = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def state_capture(self) -> dict:
        return {name: getattr(self, name) for name in self._STATE_FIELDS}

    def state_restore(self, state: dict) -> None:
        for name in self._STATE_FIELDS:
            setattr(self, name, state[name])


class TableOnly(Stateful):
    """A class-level _STATE_FIELDS table is the capture and the restore:
    the class takes part with no tick and no hook of its own."""

    _STATE_FIELDS = ("_queue", "served", "limit")

    def __init__(self, limit: int) -> None:
        self.limit = limit          # config, but a knob writes it below
        self._queue = []
        self.served = 0

    def set_limit(self, limit: int) -> None:
        self.limit = limit

    def serve(self) -> None:
        self._queue.pop(0)
        self.served += 1

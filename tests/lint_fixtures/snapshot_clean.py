# repro: lint-treat-as realm/fixture.py
"""snapshot-coverage fixture: fully covered state, both idioms."""


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

# repro: lint-treat-as realm/fixture.py
"""snapshot-coverage fixture: eight distinct violation shapes."""

from repro.sim.kernel import Stateful


class MissingCapture:
    """Ticks with mutable state but has no state_capture at all."""

    def __init__(self) -> None:
        self.count = 0
        self.backlog = []

    def tick(self, cycle: int) -> None:
        self.count += 1


class UncoveredAttr:
    """Has hooks, but `dropped` never appears in the capture body."""

    def __init__(self) -> None:
        self.kept = 0
        self.dropped = 0

    def state_capture(self) -> dict:
        return {"kept": self.kept}

    def state_restore(self, state: dict) -> None:
        self.kept = state["kept"]


class AsymmetricKeys:
    """Capture emits 'extra'; restore consumes 'phantom' instead."""

    def __init__(self) -> None:
        self.extra = 0

    def state_capture(self) -> dict:
        return {"extra": self.extra}

    def state_restore(self, state: dict) -> None:
        self.extra = state["phantom"]


class RestoreOnlyAttr:
    """`level` is assigned only in state_restore, and never captured."""

    def __init__(self) -> None:
        self.count = 0

    def state_capture(self) -> dict:
        return {"count": self.count}

    def state_restore(self, state: dict) -> None:
        self.count = state["count"]
        self.level = 0


class TableMissesAttr(Stateful):
    """Takes part through its table alone, which leaves out `backlog`."""

    _STATE_FIELDS = ("count",)

    def __init__(self) -> None:
        self.count = 0
        self.backlog = []


class WrittenOutsideInit:
    """`limit` starts as configuration, but a method writes it."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.count = 0

    def set_limit(self, limit: int) -> None:
        self.limit = limit

    def state_capture(self) -> dict:
        return {"count": self.count}

    def state_restore(self, state: dict) -> None:
        self.count = state["count"]


class InheritsEmptyTable(Stateful):
    """Declares no table, so the shared hooks capture nothing."""

    def __init__(self) -> None:
        self.count = 0

    def bump(self) -> None:
        self.count += 1


class KeyTwice(Stateful):
    """Its capture emits 'count' again, overwriting the table's entry."""

    _STATE_FIELDS = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def state_capture(self) -> dict:
        return {**super().state_capture(), "count": 0}

    def state_restore(self, state: dict) -> None:
        super().state_restore(state)

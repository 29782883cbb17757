# repro: lint-treat-as realm/fixture.py
"""snapshot-coverage fixture: violations silenced by reasoned
suppressions (same shapes as snapshot_bad.py)."""


# repro: lint-ok[snapshot-coverage] fixture: captured wholesale by its parent
class MissingCapture:
    def __init__(self) -> None:
        self.count = 0
        self.backlog = []

    def tick(self, cycle: int) -> None:
        self.count += 1


class UncoveredAttr:
    def __init__(self) -> None:
        self.kept = 0
        self.dropped = 0  # repro: lint-ok[snapshot-coverage] fixture: derived cache, rebuilt on restore

    def state_capture(self) -> dict:
        return {"kept": self.kept}

    def state_restore(self, state: dict) -> None:
        self.kept = state["kept"]

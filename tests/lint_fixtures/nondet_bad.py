# repro: lint-treat-as sim/fixture.py
"""nondeterminism-sources fixture: every banned entropy source."""

import os
import random
import time
from datetime import datetime


def stamp_report(report: dict) -> dict:
    report["at"] = time.time()
    report["when"] = datetime.now()
    return report


def make_seed() -> int:
    return int.from_bytes(os.urandom(4), "big")


def shuffle_points(points: list) -> list:
    random.shuffle(points)
    rng = random.Random()
    return sorted(points, key=lambda _: rng.random())


def digest_key(obj) -> int:
    return id(obj)


def walk_managers(managers: set) -> list:
    out = []
    for name in {"core", "dma"}:
        out.append(name)
    return out + [m for m in set(managers)]


def seeded_draw(seed: int) -> float:
    return random.Random(seed).random()  # repro: lint-ok[nondeterminism-sources] fixture: seeded, so it silences nothing

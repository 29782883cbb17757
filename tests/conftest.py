"""Shared fixtures for the test suite.

Importable helpers (system recipes) live in ``tests/helpers.py`` — see the
note there about why they must not live in a ``conftest.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.sim import Simulator

# Tier-1 is deterministic: every property test draws the same examples
# on every run (a seed derived from the test, no example database).
# ``pytest --hypothesis-profile=random`` draws fresh examples instead.
settings.register_profile("random", derandomize=False)
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="re-record tests/golden/*.json from the current simulation "
        "(the naive-kernel runs still assert against the fresh goldens, "
        "so cycle-identity is verified during the update)",
    )


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def naive_sim():
    """The pre-refactor tick-everything kernel, for equivalence checks."""
    return Simulator(active_set=False)

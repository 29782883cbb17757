"""Shared set-up for the benchmark harness.

Each ``bench_*.py`` regenerates one table or figure of the paper.  The
pytest-benchmark plugin times the underlying simulation; the printed rows
are the reproduction artefact (compare against the paper's tables and
figures; each bench asserts the trends they show).

Importable helpers live in ``_bench_utils.py`` (a conftest must never be
imported by name — it would shadow the test suite's conftest).

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

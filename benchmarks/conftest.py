"""Shared set-up for the benchmark harness.

Each ``bench_*.py`` with a ``test_*`` function regenerates one table or
figure of the paper (twelve in all).  The pytest-benchmark plugin times
the underlying simulation; the printed rows are the reproduction
artefact (compare against the paper's tables and figures; each bench
asserts the trends they show).

The performance datapoints are scripts with no pytest entry, each run
once: ``kernel_speed.py``, ``bench_streaming_throughput.py``,
``bench_fork_sweep.py`` and ``bench_control_overhead.py``, judged by
``check_regression.py`` where they append to a tracked history.

Importable helpers live in ``_bench_utils.py`` (a conftest must never be
imported by name — it would shadow the test suite's conftest).

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

"""Point memory follows the data it touches (DESIGN.md section 16).

Two halves: the page-on-touch :class:`BackingStore` (same read, write
and snapshot behaviour as a dense buffer, host memory only for written
pages), and the release of a finished point's system, which reference
counting must free on its own, with no garbage collection.
"""

from __future__ import annotations

import gc
import mmap
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mem import BackingStore
from repro.scenario import apply_smoke, load_file, run_campaign
from repro.sim import Simulator
from repro.sim.kernel import Stateful

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.toml"))
PAGE = mmap.PAGESIZE


# ----------------------------------------------------------------------
# backing store
# ----------------------------------------------------------------------
def test_store_reads_zero_and_round_trips_writes():
    store = BackingStore(0x1000, 0x100)
    assert store.read(0x1000, 0x100) == bytes(0x100)
    store.write(0x1010, b"\x11\x22\x33\x44")
    assert store.read(0x1010, 4) == b"\x11\x22\x33\x44"
    assert isinstance(store.read(0x1010, 4), bytes)


def test_store_write_honours_strobes():
    store = BackingStore(0, 16)
    store.write(0, bytes(range(1, 9)))
    store.write(0, b"\xaa" * 8, strb=0b1010_0101)
    assert store.read(0, 8) == b"\xaa\x02\xaa\x04\x05\xaa\x07\xaa"


def test_store_fill_and_write_run():
    store = BackingStore(0, 64)
    store.fill(8, 8, pattern=0x1A5)  # only the low byte counts
    assert store.read(0, 24) == bytes(8) + b"\xa5" * 8 + bytes(8)
    store.write_run(16, b"\x01\x02", 4)
    assert store.read(16, 10) == b"\x01\x02" * 4 + bytes(2)


@pytest.mark.parametrize("call", [
    lambda s: s.read(0x0FFF, 1),
    lambda s: s.read(0x10FC, 8),
    lambda s: s.write(0x1100, b"x"),
    lambda s: s.fill(0x10F8, 16),
], ids=["read-below", "read-across-top", "write-above", "fill-across-top"])
def test_store_rejects_out_of_window_accesses(call):
    store = BackingStore(0x1000, 0x100)
    with pytest.raises(IndexError):
        call(store)


def test_store_write_run_out_of_window_writes_nothing():
    store = BackingStore(0, 64)
    with pytest.raises(IndexError):
        store.write_run(48, b"\xff" * 8, 3)
    assert store.read(0, 64) == bytes(64)


def test_store_rejects_a_non_positive_size():
    with pytest.raises(ValueError):
        BackingStore(0, 0)


def test_store_capture_restore_round_trip():
    size = 3 * PAGE + 100  # a partial last page
    store = BackingStore(0, size)
    store.write(5, b"head")
    store.write(size - 8, b"tail-end")
    state = store.state_capture()
    assert isinstance(state["data"], bytes) and len(state["data"]) == size
    fresh = BackingStore(0, size)
    fresh.state_restore(state)
    assert fresh.state_capture() == state
    assert fresh.read(size - 8, 8) == b"tail-end"


def test_store_restore_rejects_a_size_mismatch():
    store = BackingStore(0, 2 * PAGE)
    with pytest.raises(ValueError, match="size mismatch"):
        store.state_restore({"data": bytes(PAGE)})


def test_store_restores_all_zero_pages_in_place():
    """Zero pages of a capture must also clear pages a run wrote."""
    size = 4 * PAGE
    blank = BackingStore(0, size).state_capture()
    store = BackingStore(0, size)
    store.fill(0, size, 0xEE)
    store.write(2 * PAGE + 3, b"\x00" * 4)
    store.state_restore(blank)
    assert store.read(0, size) == bytes(size)
    sparse = bytearray(size)
    sparse[PAGE + 1] = 0x5A
    store.fill(0, size, 0x11)
    store.state_restore({"data": bytes(sparse)})
    assert store.state_capture()["data"] == bytes(sparse)


_LARGE_WINDOW = """
import resource, sys
from pathlib import Path
from repro.scenario import apply_overrides, apply_smoke, expand, load_file
from repro.scenario.runner import _elaborate_point

def maxrss():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

root, size = Path(sys.argv[1]), int(sys.argv[2])
spec = apply_smoke(load_file(root / "scenarios" / "fig6a.toml"))
spec = apply_overrides(spec, {"topology.memories.dram.size": size})
before = maxrss()
system, _ = _elaborate_point(expand(spec)[0])
dram = system.memory("dram")
assert dram.store.size == size
top = dram.store.base + size - 64
drv = system.add_driver("idma")
drv.write(top, bytes(range(8)))
op = drv.read(top)
system.sim.run_until(lambda: drv.idle, max_cycles=10_000, what="idma")
assert op.rdata == bytes(range(8)), op.rdata
elaborated = maxrss() - before
blank = {"data": bytes(size)}
before = maxrss()
dram.store.state_restore(blank)
assert dram.store.read(top, 8) == bytes(8)
print(elaborated, maxrss() - before)
"""


def test_a_large_dram_window_costs_only_the_pages_it_touches():
    """A fig6a point with a 256 MiB DRAM window elaborates and moves a
    beat at the top of its window, and a blank capture restores over
    it, each for far less than 256 MiB of RSS (measured in a fresh
    interpreter, so earlier tests' peak cannot hide the growth)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", _LARGE_WINDOW, str(ROOT), str(256 << 20)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    elaborated, restored = map(float, out.stdout.split()[-2:])
    assert elaborated < 64, f"elaboration grew ru_maxrss by {elaborated} MiB"
    assert restored < 64, f"the restore grew ru_maxrss by {restored} MiB"


# ----------------------------------------------------------------------
# release of finished systems
# ----------------------------------------------------------------------
def _live_simulation_objects() -> int:
    """Live simulators and stateful simulation parts (components,
    channels, REALM stages, routers, schedules)."""
    return sum(
        isinstance(obj, (Simulator, Stateful)) for obj in gc.get_objects()
    )


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_finished_points_are_freed_without_a_collection(path):
    """Every point's system is gone once its campaign returns, on the
    scratch, fork-tree and recorded paths, with the collector off: a
    system left in a reference cycle would stay until a full collection.
    """
    spec = apply_smoke(load_file(path))
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = _live_simulation_objects()
        for options in ({}, {"fork": True}, {"record": True}):
            run_campaign(spec, **options)
            assert _live_simulation_objects() <= before, options
    finally:
        if enabled:
            gc.enable()

"""Checkpoints written by an earlier build resume identically.

``tests/checkpoints/`` holds smoke checkpoints of every shipped campaign,
written by the builds its README names.  While ``SNAPSHOT_FORMAT`` is the
one the corpus was written with, every file must resume into the
observables of an uninterrupted smoke run of the same point on this
build: a change to what a captured field means, without a format bump,
shows up here.  Every file must also capture again, right after its
restore, to its own tree: a change to the layout of a captured field
without a format bump shows up there.  Once the format is bumped, every
file must be refused with the format error.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenario import load_file
from repro.scenario.runner import _elaborate_point, run_point
from repro.scenario.spec import validate
from repro.scenario.sweep import ExpandedPoint
from repro.snapshot import (
    SNAPSHOT_FORMAT,
    SnapshotError,
    capture_simulator,
    load_checkpoint,
)

CORPUS_DIR = Path(__file__).resolve().parent / "checkpoints"
CORPUS = sorted(CORPUS_DIR.glob("*.ckpt"))
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

#: The ``SNAPSHOT_FORMAT`` of the build that wrote the corpus.
CORPUS_FORMAT = 2


def test_corpus_holds_one_checkpoint_per_campaign():
    assert len(CORPUS) == 10
    if SNAPSHOT_FORMAT == CORPUS_FORMAT:
        scenarios = {load_checkpoint(path)[0]["scenario"] for path in CORPUS}
        shipped = {load_file(path).name for path in SCENARIO_DIR.glob("*.toml")}
        assert scenarios == shipped


def _point(meta: dict) -> ExpandedPoint:
    return ExpandedPoint(
        index=meta["index"], label=meta["label"], seed=meta["seed"],
        spec=validate(meta["spec"]),
    )


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_corpus_checkpoint_resumes_like_the_uninterrupted_run(path):
    if SNAPSHOT_FORMAT != CORPUS_FORMAT:
        with pytest.raises(SnapshotError, match="format"):
            load_checkpoint(path)
        return
    meta, state = load_checkpoint(path)
    point = _point(meta)
    resumed = run_point(point, resume_state=state)
    uninterrupted = run_point(point)
    assert resumed.sim_cycles == uninterrupted.sim_cycles
    assert resumed.observables == uninterrupted.observables


def _layout(value):
    """An encoded tree with its plain dicts' entries in key order, the
    one thing a capture may reorder without changing the layout."""
    if not isinstance(value, list):
        return value
    tag = value[0]
    if tag in ("D", "OD"):
        pairs = [[_layout(k), _layout(v)] for k, v in value[1]]
        if tag == "D":
            pairs.sort(key=lambda pair: repr(pair[0]))
        return [tag, pairs]
    if tag == "X":
        return [tag, value[1], _layout(value[2])]
    if tag == "BA":
        return value
    return [tag, [_layout(v) for v in value[1]]]


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_corpus_checkpoint_captures_again_to_its_own_tree(path):
    """The cross-build layout lock: restored into a fresh build and
    captured at once, each file gives back its own tree."""
    if SNAPSHOT_FORMAT != CORPUS_FORMAT:
        pytest.skip("the resume test checks that the corpus is refused")
    meta, tree = load_checkpoint(path)
    system, _ = _elaborate_point(_point(meta))
    system.restore(tree)
    assert _layout(capture_simulator(system.sim)) == _layout(tree)

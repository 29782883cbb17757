"""Checkpoints written by an earlier build resume identically.

``tests/checkpoints/`` holds one smoke checkpoint per campaign, written
by the build its README names.  While ``SNAPSHOT_FORMAT`` is the one the
corpus was written with, every file must resume into the observables of
an uninterrupted smoke run of the same point on this build: a change to
what a captured field means, without a format bump, shows up here.  Once
the format is bumped, every file must be refused with the format error.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenario.runner import run_point
from repro.scenario.spec import validate
from repro.scenario.sweep import ExpandedPoint
from repro.snapshot import SNAPSHOT_FORMAT, SnapshotError, load_checkpoint

CORPUS_DIR = Path(__file__).resolve().parent / "checkpoints"
CORPUS = sorted(CORPUS_DIR.glob("*.ckpt"))

#: The ``SNAPSHOT_FORMAT`` of the build that wrote the corpus.
CORPUS_FORMAT = 1


def test_corpus_holds_one_checkpoint_per_campaign():
    assert len(CORPUS) == 4


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_corpus_checkpoint_resumes_like_the_uninterrupted_run(path):
    if SNAPSHOT_FORMAT != CORPUS_FORMAT:
        with pytest.raises(SnapshotError, match="format"):
            load_checkpoint(path)
        return
    meta, state = load_checkpoint(path)
    point = ExpandedPoint(
        index=meta["index"], label=meta["label"], seed=meta["seed"],
        spec=validate(meta["spec"]),
    )
    resumed = run_point(point, resume_state=state)
    uninterrupted = run_point(point)
    assert resumed.sim_cycles == uninterrupted.sim_cycles
    assert resumed.observables == uninterrupted.observables

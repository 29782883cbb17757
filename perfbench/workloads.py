"""The benchmark's workloads: which shipped campaign, how a seed applies.

Every workload is a shipped scenario file run at full length (never
``--smoke``) through the public ``repro.scenario`` API, sequentially
(``jobs=1``).  The benchmark seed reaches the program only as generated
inputs: scenario overrides applied through ``apply_overrides``.

Seed 0 keeps the shipped values.  Any other seed replaces
``[scenario].seed`` and every pinned traffic ``seed`` of a *seeded*
workload with values drawn from ``random.Random("<workload>:<seed>")``.
Two workloads are seed-invariant:

* ``stream_steady`` has no seeded traffic at all;
* ``noc_hog`` derives its core trace from ``[scenario].seed``, and
  whether the core starves behind the hog flips with that trace: the
  simulated work changes by 2x from seed to seed, so host times taken
  at different seeds would not be comparable.  Its inputs stay the
  shipped ones.

Correctness is judged against the campaign digest of the same inputs:
the stored reference when the inputs' fingerprint matches it, otherwise
a fresh run of the naive per-beat oracle (``active_set=False,
batched=False``, no fork).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # relative to the checkout root
    fork: bool = False
    seeded: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig6a", "scenarios/fig6a.toml"),
        Workload("stream_steady", "scenarios/stream_steady.toml",
                 seeded=False),
        Workload("budget_grid_fork", "scenarios/budget_grid.toml",
                 fork=True),
        Workload("noc_hog", "scenarios/noc_hog.toml", seeded=False),
    )
}


def seed_overrides(workload: Workload, spec, seed: int) -> dict:
    """Dotted-path overrides that realise benchmark *seed* on *spec*."""
    if seed == 0 or not workload.seeded:
        return {}
    rng = random.Random(f"{workload.name}:{seed}")
    overrides = {"scenario.seed": rng.randrange(1, 2**31)}
    for binding in spec.traffic:
        if binding.param("seed") is not None:
            overrides[f"traffic.{binding.manager}.seed"] = rng.randrange(
                1, 2**31
            )
    return overrides


def load_spec(api, root: Path, workload: Workload, seed: int):
    """Load the workload's scenario and apply the seed (the set-up path)."""
    spec = api.load_file(root / workload.scenario)
    overrides = seed_overrides(workload, spec, seed)
    if overrides:
        spec = api.apply_overrides(spec, overrides)
    return spec


def fingerprint(points) -> str:
    """Digest of a campaign's expanded inputs (labels + point specs)."""
    payload = json.dumps(
        [[p.label, p.spec.to_dict()] for p in points],
        sort_keys=True, default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonical(digest: dict) -> dict[str, str]:
    """Per-point canonical JSON of a ``CampaignResult.digest()``.

    Round-tripped through JSON first, so non-string keys sort the same
    way for a live digest and one loaded back from a file.
    """
    return {
        label: json.dumps(json.loads(json.dumps(obs)), sort_keys=True)
        for label, obs in digest.items()
    }


def stored_reference(workload: Workload, inputs: str):
    """The stored per-point digest for these inputs, or None."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    entry = refs.get(workload.name)
    if entry is None or entry["inputs"] != inputs:
        return None
    return canonical(entry["digest"])

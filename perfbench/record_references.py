#!/usr/bin/env python3
"""Record the reference digest of every workload at its shipped inputs.

Run from the root of a checkout::

    python3 perfbench/record_references.py [workload ...]

For each workload, the campaign runs once the way the benchmark runs it
(default kernel, fork tree where the workload forks) and once on the
naive per-beat oracle (``active_set=False, batched=False``, scratch).
The full-length ``CampaignResult.digest()`` is stored in
``perfbench/references.json`` only when the two agree; a disagreement
is an error and leaves the stored reference untouched.  The oracle can
take over ten seconds per campaign, which is why the benchmark compares
against this file instead of re-running it on every default-seed run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import REFERENCES, WORKLOADS, fingerprint, load_spec

ROOT = Path.cwd()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import repro.scenario as api

    names = argv or list(WORKLOADS)
    refs = json.loads(REFERENCES.read_text(encoding="utf-8")) \
        if REFERENCES.exists() else {}
    status = 0
    for name in names:
        workload = WORKLOADS[name]
        spec = load_spec(api, ROOT, workload, 0)
        fast = api.run_campaign(spec, fork=workload.fork).digest()
        oracle = api.run_campaign(spec, active_set=False,
                                  batched=False).digest()
        if json.dumps(fast, sort_keys=True) != json.dumps(oracle,
                                                          sort_keys=True):
            print(f"{name}: default kernel and oracle disagree; "
                  "reference not recorded", file=sys.stderr)
            status = 1
            continue
        refs[name] = {
            "scenario": workload.scenario,
            "inputs": fingerprint(api.expand(spec)),
            "digest": json.loads(json.dumps(fast)),
        }
        print(f"{name}: recorded {len(fast)} points")
    REFERENCES.write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

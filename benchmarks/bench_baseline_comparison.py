"""Ablation: AXI-REALM vs. the related-work regulators (Section II).

Compares, on the same two-manager contention scenario, what each baseline
buys you:

* **none**   — bare crossbar: collapse + vulnerable to stall DoS;
* **ABU**    — budget only: bandwidth capped but long bursts still spike
  the core's latency, and stall DoS works;
* **ABE**    — burst equalisation only: latency restored but a hog's
  bandwidth is uncapped, and stall DoS works;
* **C&F**    — write forwarding only: DoS-proof but no fairness at all;
* **REALM**  — splitting + budget + write buffer + monitoring.

The contention rows are the points of ``scenarios/baseline_shootout.toml``
(the same path ``python -m repro run`` exercises).  The stall-DoS runs
script a victim's write mid-attack, which no scenario file declares, so
each is one ``SystemBuilder`` declaration; baselines plug in via the
``regulator=`` factory hook.
"""

import pytest

from _bench_utils import SCENARIO_DIR, emit
from repro.baselines import AbeEqualizer, AbuRegulator, CutForwardUnit
from repro.realm import RegionConfig
from repro.scenario import expand, load_file, run_campaign, run_point
from repro.system import SystemBuilder
from repro.traffic import StallingWriter

MEM_SIZE = 0x40000
DMA_BUDGET = 2048
PERIOD = 1000

_BASELINES = {
    "abu": lambda up, down: AbuRegulator(up, down, budget_bytes=DMA_BUDGET,
                                         period_cycles=PERIOD),
    "abe": lambda up, down: AbeEqualizer(up, down, nominal_burst=1,
                                         max_outstanding=4),
    "cnf": lambda up, down: CutForwardUnit(up, down, depth_beats=256),
}


def _add_regulated(builder, kind, name):
    """Declare the managed aggressor port for regulator *kind*."""
    if kind == "none":
        builder.add_manager(name)
    elif kind == "realm":
        builder.add_manager(
            name, protect=True, granularity=1,
            regions=[RegionConfig(base=0, size=MEM_SIZE,
                                  budget_bytes=DMA_BUDGET,
                                  period_cycles=PERIOD)],
        )
    else:
        builder.add_manager(name, regulator=_BASELINES[kind])
    return builder


def _dos_run(kind):
    builder = SystemBuilder()
    _add_regulated(builder, kind, "attacker")
    builder.add_manager("victim", driver="victim")
    builder.add_sram("mem", base=0, size=MEM_SIZE)
    system = builder.build()
    system.attach("attacker", lambda port: StallingWriter(port, beats=16))
    victim = system.driver("victim")
    # Let the attacker's poisoned AW reach the interconnect first (through
    # whatever regulator is in front of it), then the victim writes.
    system.sim.run(20)
    op = victim.write(0x100, bytes(8))
    system.sim.run(2000)
    return op.done


REGULATORS = ("none", "abu", "abe", "cnf", "realm")


@pytest.fixture(scope="module")
def shootout_spec():
    return load_file(SCENARIO_DIR / "baseline_shootout.toml")


@pytest.fixture(scope="module")
def comparison_rows(shootout_spec):
    shootout = run_campaign(shootout_spec)
    rows = []
    for kind in REGULATORS:
        point = shootout.point(kind)
        rows.append((kind, point.perf_percent, point.worst_case_latency,
                     _dos_run(kind)))
    return rows


def test_baseline_comparison(benchmark, shootout_spec, comparison_rows):
    realm = next(p for p in expand(shootout_spec) if p.label == "realm")
    benchmark.pedantic(lambda: run_point(realm), rounds=1, iterations=1)
    lines = [
        f"{'regulator':<10} {'core perf [%]':>14} {'worst lat':>10} "
        f"{'survives stall DoS':>20}"
    ]
    for kind, perf, worst, dos in comparison_rows:
        lines.append(f"{kind:<10} {perf:>14.1f} {worst:>10d} {str(dos):>20}")
    emit("Ablation — REALM vs. ABU / ABE / C&F / none", lines)

    by_kind = {r[0]: r for r in comparison_rows}
    # Bare crossbar collapses and is DoS-vulnerable.
    assert by_kind["none"][1] < 30 and not by_kind["none"][3]
    # ABU caps bandwidth but keeps long-burst latency spikes and is
    # DoS-vulnerable.
    assert by_kind["abu"][2] > 100 and not by_kind["abu"][3]
    # ABE restores fairness/latency but cannot stop the stall DoS.
    assert by_kind["abe"][2] < 60 and not by_kind["abe"][3]
    # C&F survives the DoS but does nothing for fairness.
    assert by_kind["cnf"][3] and by_kind["cnf"][1] < 30
    # REALM does both.
    assert by_kind["realm"][3]
    assert by_kind["realm"][1] > max(by_kind["none"][1], by_kind["cnf"][1])
    assert by_kind["realm"][2] < 60

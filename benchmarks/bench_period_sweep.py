"""Ablation: reservation-period selection on an idle-heavy workload.

The M&R unit's monitoring exists to guide budget and period selection
("tracks each manager's access and interference statistics for optimal
budget and period selection").  This bench sweeps the period at a constant
bandwidth share (budget scales with period) on a *duty-cycled* core — a
CVA6 with compute phases between memory bursts, the realistic shape of the
paper's Susan workload — and shows that a constant average share delivers
stable performance for every period choice.

Because the core naps between accesses and the DMA spends most of each
period budget-stalled, this workload is the idle-heavy showcase for the
active-set kernel.  ``kernel_speed.py`` runs the same sweep (shared via
``_bench_utils.run_period_sweep``) on the naive and the active-set
kernel, checks the rows are identical and records the speedup as
``BENCH_kernel.json``; this bench times the active-set sweep only.
"""

from _bench_utils import emit, run_period_sweep


def test_period_sweep(benchmark):
    rows, _ = benchmark.pedantic(
        run_period_sweep, args=(True,), rounds=1, iterations=1
    )
    lines = [
        f"{'period':>7} {'dma budget':>11} {'perf [%]':>9} "
        f"{'worst lat':>10} {'mean lat':>9}"
    ]
    for period, budget, perf, worst, mean in rows:
        lines.append(
            f"{period:>7} {budget:>11} {perf:>9.1f} {worst:>10d} {mean:>9.1f}"
        )
    emit(
        "Ablation — reservation period at constant 12.5% DMA share "
        "(duty-cycled core)",
        lines,
    )

    perfs = [r[2] for r in rows]
    # The core stays above the unregulated level for every period choice.
    assert min(perfs) > 80
    # All configurations deliver the same *average* bandwidth share, so
    # performance varies only mildly with the period.
    assert max(perfs) - min(perfs) < 15

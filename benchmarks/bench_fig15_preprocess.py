"""Fig. 15 — preprocessing time, PanguLU vs the baseline.

The paper: PanguLU's preprocessing (2D blocking + two-layer structure +
mapping) beats SuperLU_DIST's (supernode formation + panel assembly) by
1.61× on geometric mean, up to 3.16×, while losing slightly (≈0.9×) on a
couple of large-fill matrices where building the 2D block layout is the
bottleneck.  Both preprocessing paths here are real wall-clock.
"""

from __future__ import annotations

import time

from common import banner, bench_matrices, prepared_baseline, prepared_pangulu
from repro.analysis import format_table, geometric_mean, speedup_summary
from repro.baseline import detect_supernodes, sn_partition
from repro.core import CyclicPlacement, ProcessGrid, balance_loads, build_dag
from repro.core.blocking import block_partition, choose_block_size


def _pangulu_preprocess_time(name: str) -> float:
    pg = prepared_pangulu(name)
    filled = pg.symbolic.filled
    t0 = time.perf_counter()
    bs = choose_block_size(filled.ncols, filled.nnz)
    blocks = block_partition(filled, bs)
    dag = build_dag(blocks)
    placement = CyclicPlacement(ProcessGrid.square(16))
    balance_loads(dag, placement, placement.assign(dag))
    return time.perf_counter() - t0


def _baseline_preprocess_time(name: str) -> float:
    bl = prepared_baseline(name)
    filled = bl.symbolic.filled
    t0 = time.perf_counter()
    part = detect_supernodes(filled)
    sn_partition(filled, part)
    return time.perf_counter() - t0


def test_fig15_preprocessing_time(benchmark):
    banner("Fig. 15 — preprocessing time (s), baseline vs PanguLU")
    rows = []
    speedups = {}
    for name in bench_matrices():
        t_bl = _baseline_preprocess_time(name)
        t_pg = _pangulu_preprocess_time(name)
        speedups[name] = t_bl / t_pg
        rows.append([name, t_bl, t_pg, t_bl / t_pg])
    print(format_table(
        ["matrix", "baseline (s)", "PanguLU (s)", "speedup"],
        rows,
        float_fmt="{:.4f}",
    ))
    print("\n" + speedup_summary(speedups)
          + "  (paper: geomean 1.61x, range 0.89x – 3.16x)")
    benchmark.pedantic(
        lambda: _pangulu_preprocess_time(bench_matrices()[0]),
        rounds=1,
        iterations=1,
    )
    # both paths complete for every matrix; mixed wins are expected (the
    # paper itself reports sub-1.0 ratios on Serena and Si87H76)
    assert all(v > 0 for v in speedups.values())

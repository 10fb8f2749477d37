"""Table 4 — single-process kernel time: panel factorisation vs Schur.

The paper runs both solvers on one A100 and splits the numeric time into
panel factorisation (GETRF + triangular solves) and Schur complement,
reporting a 6.54× geometric-mean speedup for PanguLU, dominated by the
Schur side (sparse kernels on original blocks vs gather→dense-GEMM→
scatter on padded panels).

Two comparisons are printed:

1. **real wall-clock** — both factorisations actually execute with NumPy
   kernels.  NumPy inverts the paper's cost ratios (padded dense panels
   run in compiled BLAS while sparse kernels pay interpreter bookkeeping),
   so the baseline wins this one; see EXPERIMENTS.md.
2. **simulated single A100** — the same task structures priced on the
   device model, i.e. the paper's actual setting.  Here the paper's
   direction must reproduce: PanguLU ahead on geometric mean, with the
   Schur side dominating the baseline's time.
"""

from __future__ import annotations

import os

from common import banner, bench_matrices, matrix, prepared_baseline, prepared_pangulu
from repro.analysis import format_table, geometric_mean
from repro.baseline import sn_factorize, sn_partition
from repro.core import factorize
from repro.core.blocking import block_partition

#: full 16-matrix numeric factorisation in Python is the slowest bench;
#: allow trimming via the standard subset variable plus a hard cap here
MAX_MATRICES = int(os.environ.get("REPRO_BENCH_TAB04_MAX", "16"))


def _pangulu_split(name: str) -> tuple[float, float]:
    pg = prepared_pangulu(name)
    # factorise a fresh copy of the blocks so the cached solver stays clean
    blocks = block_partition(pg.symbolic.filled, pg.blocks.bs)
    stats = factorize(blocks, pg.dag, collect_timings=True)
    by = stats.seconds_by_type
    panel = by.get("GETRF", 0.0) + by.get("GESSM", 0.0) + by.get("TSTRF", 0.0)
    schur = by.get("SSSSM", 0.0)
    return panel, schur


def _baseline_split(name: str) -> tuple[float, float]:
    bl = prepared_baseline(name)
    panels = sn_partition(bl.symbolic.filled, bl.partition)
    stats = sn_factorize(panels)
    return stats.seconds_panel, stats.seconds_schur


def _simulated_split(name: str) -> tuple[float, float, float, float]:
    """(panel_bl, schur_bl, panel_pg, schur_pg) on one simulated A100."""
    import numpy as np

    from common import baseline_sn_dag, prepared_pangulu
    from repro.baseline.dag import price_sn_tasks
    from repro.core.dag import TaskType
    from repro.runtime import A100_PLATFORM, simulate_pangulu

    sn = baseline_sn_dag(name)
    durations = price_sn_tasks(sn, A100_PLATFORM)
    gemm_mask = sn.dag.table.ttype == TaskType.SSSSM
    schur_bl = float(durations[gemm_mask].sum())
    panel_bl = float(durations[~gemm_mask].sum())
    pg = prepared_pangulu(name)
    sim = simulate_pangulu(pg.blocks, pg.dag, A100_PLATFORM, 1)
    by = sim.seconds_by_type()
    panel_pg = by.get("GETRF", 0.0) + by.get("GESSM", 0.0) + by.get("TSTRF", 0.0)
    schur_pg = by.get("SSSSM", 0.0)
    return panel_bl, schur_bl, panel_pg, schur_pg


def test_tab04_simulated_single_gpu(benchmark):
    banner("Table 4 (simulated A100) — kernel time split (ms)")
    rows = []
    speedups = {}
    for name in bench_matrices():
        pb, sb, pp, sp_ = _simulated_split(name)
        speedups[name] = (pb + sb) / (pp + sp_)
        rows.append([
            name, pb * 1e3, pp * 1e3, sb * 1e3, sp_ * 1e3,
            (pb + sb) * 1e3, (pp + sp_) * 1e3, speedups[name],
        ])
    print(format_table(
        ["matrix", "panel BL", "panel PG", "schur BL", "schur PG",
         "all BL", "all PG", "speedup"],
        rows,
        float_fmt="{:.3f}",
    ))
    gm = geometric_mean(list(speedups.values()))
    print(f"\ngeometric-mean PanguLU speedup (simulated A100): {gm:.2f}x "
          "(paper: 6.54x)")
    benchmark.pedantic(
        lambda: _simulated_split(bench_matrices()[0]), rounds=1, iterations=1
    )
    # the paper's single-GPU direction reproduces under the device model
    assert gm > 1.0


def test_tab04_single_process_kernel_time(benchmark):
    banner("Table 4 — real single-process kernel time split (s)")
    names = bench_matrices()[:MAX_MATRICES]
    rows = []
    speedups = {}
    for name in names:
        bp, bs = _baseline_split(name)
        pp, ps = _pangulu_split(name)
        total_b, total_p = bp + bs, pp + ps
        speedups[name] = total_b / total_p
        rows.append([name, bp, pp, bs, ps, total_b, total_p, total_b / total_p])
    print(format_table(
        ["matrix", "panel BL", "panel PG", "schur BL", "schur PG",
         "all BL", "all PG", "speedup"],
        rows,
        float_fmt="{:.3f}",
    ))
    gm = geometric_mean(list(speedups.values()))
    print(f"\ngeometric-mean PanguLU speedup: {gm:.2f}x "
          "(paper: 6.54x on an A100; CUDA/NumPy ratios differ)")
    benchmark.pedantic(
        lambda: _pangulu_split(names[0]), rounds=1, iterations=1
    )
    # both solvers compute the same factorisation; the comparison is fair
    assert all(r[5] > 0 and r[6] > 0 for r in rows)

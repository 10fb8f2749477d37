"""Extension bench — triangular solve (phase 5) on the real engines.

The paper describes the triangular solves as the final phase over the
same block layout but does not dedicate a figure to them (see its
citation [59] for the companion triangular-solve work).  This bench
exercises the *real* engine path — the solve DAG through the shared
scheduler core — measuring sequential vs threaded wall-clock and
the multi-RHS panel amortisation, then keeps the original simulated
process-count sweep as the distributed-scaling model.  Engine outputs
are asserted bit-identical along the way (each segment sums its block
products in a fixed order, so that is a guarantee, not a tolerance).
"""

from __future__ import annotations

import time

import numpy as np

from common import banner, factorized_pangulu, prepared_pangulu
from repro.analysis import format_table
from repro.core.tsolve import tsolve_lanes, tsolve_sequential
from repro.core.tsolve_dag import build_tsolve_dag
from repro.runtime import A100_PLATFORM, simulate_tsolve

MATRICES = ("ecology1", "ASIC_680k", "Si87H76")
PROCS = (1, 4, 16, 64)
NRHS = (1, 4, 16)
WORKERS = 4


def _best_s(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_tsolve_engines(benchmark):
    banner("Extension — real triangular-solve engines (phase 5)")
    rows = []
    for name in MATRICES:
        pg = factorized_pangulu(name)
        f = pg.blocks
        tdag = build_tsolve_dag(f, lambda bi, bj: 0)
        b = np.linspace(1.0, 2.0, f.n)
        x_seq, _ = tsolve_sequential(f, b, tdag=tdag)
        x_thr, _ = tsolve_lanes(f, tdag, b, n_lanes=WORKERS)
        assert np.array_equal(x_seq, x_thr), name  # bit-identical
        t_seq = _best_s(lambda: tsolve_sequential(f, b, tdag=tdag))
        t_thr = _best_s(
            lambda: tsolve_lanes(f, tdag, b, n_lanes=WORKERS)
        )
        rows.append([name, len(tdag), t_seq * 1e3, t_thr * 1e3,
                     t_seq / t_thr])
    print(format_table(
        ["matrix", "tasks", "seq (ms)", f"thr x{WORKERS} (ms)", "speedup"],
        rows,
        float_fmt="{:.3f}",
    ))

    pg = factorized_pangulu(MATRICES[0])
    tdag = build_tsolve_dag(pg.blocks, lambda bi, bj: 0)
    b = np.ones(pg.blocks.n)
    benchmark.pedantic(
        lambda: tsolve_lanes(pg.blocks, tdag, b, n_lanes=WORKERS),
        rounds=3,
        iterations=1,
    )


def test_tsolve_rhs_sweep():
    banner("Extension — multi-RHS panel amortisation (phase 5)")
    pg = factorized_pangulu(MATRICES[0])
    f = pg.blocks
    tdag = build_tsolve_dag(f, lambda bi, bj: 0)
    rows = []
    for nrhs in NRHS:
        b = np.linspace(1.0, 2.0, f.n * nrhs).reshape(f.n, nrhs) \
            if nrhs > 1 else np.linspace(1.0, 2.0, f.n)
        x, stats = tsolve_sequential(f, b, tdag=tdag)
        assert stats.nrhs == nrhs
        t = _best_s(lambda: tsolve_sequential(f, b, tdag=tdag))
        rows.append([nrhs, t * 1e3, t / nrhs * 1e3])
    print(format_table(
        ["nrhs", "solve (ms)", "per-RHS (ms)"], rows, float_fmt="{:.3f}"
    ))
    # the panel kernels amortise: 16 RHS cost far less than 16 solves
    assert rows[-1][1] < rows[0][1] * NRHS[-1], "no panel amortisation"


def test_tsolve_scaling_model():
    banner("Extension — simulated triangular-solve scaling (phase 5)")
    from repro.runtime import simulate_pangulu

    rows = []
    for name in MATRICES:
        pg = prepared_pangulu(name)
        fact_t = simulate_pangulu(
            pg.blocks, pg.dag, A100_PLATFORM, 1
        ).result.makespan
        solves = [simulate_tsolve(pg.blocks, A100_PLATFORM, p).makespan
                  for p in PROCS]
        rows.append([name, fact_t * 1e3] + [s * 1e3 for s in solves])
        # one solve is far cheaper than the factorisation it follows
        assert solves[0] < fact_t, name
    print(format_table(
        ["matrix", "factor p=1 (ms)"] + [f"solve p={p} (ms)" for p in PROCS],
        rows,
        float_fmt="{:.3f}",
    ))

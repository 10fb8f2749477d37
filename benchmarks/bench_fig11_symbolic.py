"""Fig. 11 — symbolic factorisation time, PanguLU vs the baseline.

The paper: PanguLU's symmetrised, symmetric-pruned symbolic factorisation
is 4.45× faster (geometric mean, up to 6.80×) than SuperLU_DIST's.  Here
both are real wall-clock measurements: PanguLU's column-structure merge
up the elimination tree vs the baseline's Gilbert–Peierls column DFS, on
the same reordered matrices.
"""

from __future__ import annotations

import time

from common import banner, bench_matrices, prepared_pangulu
from repro.analysis import format_table, geometric_mean, speedup_summary
from repro.baseline import symbolic_gilbert_peierls
from repro.symbolic import symbolic_symmetric


def _times(name: str) -> tuple[float, float]:
    pg = prepared_pangulu(name)
    reordered = pg._reordered
    t0 = time.perf_counter()
    symbolic_symmetric(reordered)
    t_pangulu = time.perf_counter() - t0
    t0 = time.perf_counter()
    symbolic_gilbert_peierls(reordered)
    t_baseline = time.perf_counter() - t0
    return t_baseline, t_pangulu


def test_fig11_symbolic_time(benchmark):
    banner("Fig. 11 — symbolic factorisation time (s), baseline vs PanguLU")
    rows = []
    speedups = {}
    for name in bench_matrices():
        t_bl, t_pg = _times(name)
        speedups[name] = t_bl / t_pg
        rows.append([name, t_bl, t_pg, t_bl / t_pg])
    print(format_table(
        ["matrix", "baseline (s)", "PanguLU (s)", "speedup"],
        rows,
        float_fmt="{:.4f}",
    ))
    print("\n" + speedup_summary(speedups))
    benchmark.pedantic(
        lambda: symbolic_symmetric(prepared_pangulu(bench_matrices()[0])._reordered),
        rounds=3,
        iterations=1,
    )
    # the paper's direction: PanguLU's symbolic wins on geometric mean
    assert geometric_mean(list(speedups.values())) > 1.0

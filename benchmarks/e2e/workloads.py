"""Workload definitions and seeded input generation.

A workload is one matrix regime driven through one engine.  Everything
the solver sees — the ``CSCMatrix``, the Newton-step value sets and the
right-hand sides — is generated here from ``--seed``; the solver never
sees the seed itself.

The sparsity *pattern* of a workload is fixed (generator seed 0) and
``--seed`` draws the values: the analysis phases, the task DAG and every
count then repeat exactly from seed to seed, so a run-to-run difference
in a timing is noise or a code change, never a different problem.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from repro import SolverOptions
from repro.sparse import CSCMatrix, generate

#: Newton-step value sets cycled through by the refactorize samples
N_NEWTON = 3
#: columns of the multi-RHS solve
NRHS = 16


@dataclass(frozen=True)
class Workload:
    name: str
    matrix: str
    scale: float
    smoke_scale: float
    opts: dict = field(default_factory=dict)     # SolverOptions fields

    def options(self, **extra) -> SolverOptions:
        """A fresh ``SolverOptions`` (the facade mutates its options)."""
        return SolverOptions(**{**self.opts, **extra})


# Why each exists is recorded in BENCHMARK.json and README.md.  Sizes: the
# largest at which three rounds (measure.py) of all four workloads fit the
# driver's run budget on a 2-core box — README.md, "Sizes", has the sums.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fem3d_seq", "audikw_1", 1.0, 0.17),
        Workload("grid2d_seq", "ecology1", 4.0, 0.12),
        Workload("cage_nonsym_seq", "cage12", 2.0, 0.17),
        Workload("fem3d_dist2", "audikw_1", 1.0, 0.17,
                 {"engine": "distributed", "nprocs": 2}),
    )
}


@dataclass
class Inputs:
    """One workload's generated problem plus its ``splu`` references."""

    workload: Workload
    seed: int
    a: CSCMatrix
    newton: list[CSCMatrix]       # same pattern, values perturbed ±10 %
    b: np.ndarray                 # (n,)
    b16: np.ndarray               # (n, NRHS)
    # scipy references, keyed by matrix index: -1 is ``a``, k is newton[k]
    a_sp: dict = field(default_factory=dict)
    x_ref: dict = field(default_factory=dict)
    x16_ref: dict = field(default_factory=dict)
    generate_s: float = 0.0
    splu_factor_s: float = 0.0
    splu_solve_s: float = 0.0


def with_values(a: CSCMatrix, data: np.ndarray) -> CSCMatrix:
    """``a``'s pattern with new values."""
    return CSCMatrix(a.shape, a.indptr, a.indices, data)


def make_inputs(workload: Workload, seed: int, *, smoke: bool = False) -> Inputs:
    scale = workload.smoke_scale if smoke else workload.scale
    rng = np.random.default_rng([seed, len(workload.name)])
    t0 = time.perf_counter()
    pattern = generate(workload.matrix, scale=scale, seed=0)
    generate_s = time.perf_counter() - t0
    # ±5 % on every entry keeps the generators' diagonal dominance
    a = with_values(
        pattern, pattern.data * (1.0 + 0.05 * rng.uniform(-1, 1, pattern.nnz))
    )
    newton = [
        with_values(a, a.data * (1.0 + 0.10 * rng.uniform(-1, 1, a.nnz)))
        for _ in range(N_NEWTON)
    ]
    n = a.nrows
    inp = Inputs(
        workload, seed, a, newton,
        b=rng.standard_normal(n), b16=rng.standard_normal((n, NRHS)),
        generate_s=generate_s,
    )
    for k, m in [(-1, a), *enumerate(newton)]:
        m_sp = m.to_scipy()
        t0 = time.perf_counter()
        lu = spla.splu(m_sp)
        t1 = time.perf_counter()
        inp.x_ref[k] = lu.solve(inp.b)
        t2 = time.perf_counter()
        inp.x16_ref[k] = lu.solve(inp.b16)
        inp.a_sp[k] = m_sp
        if k == -1:
            inp.splu_factor_s, inp.splu_solve_s = t1 - t0, t2 - t1
    return inp

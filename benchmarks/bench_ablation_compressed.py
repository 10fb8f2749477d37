"""Ablation — compressed low-rank blocks on vs off in the filled regime.

The low-rank overlay (``SolverOptions.compress_tol``) targets the
post-fill regime where GESSM/TSTRF panel blocks are dense in pattern
but numerically low-rank: each such panel is replaced, *for its SSSSM
consumers*, by truncated ``U @ V.T`` factors, so every Schur update it
feeds costs ``O((m+n)·rank)`` value reads instead of ``O(nnz)``, and on
the distributed engine the panel ships as ``r·(m+n)`` values instead
of the full CSC triplet.

This bench builds a matrix with genuinely low-rank block coupling (the
structure trailing dense panels have after fill), then quantifies the
claim on four axes, compression off vs on:

* **SSSSM flops** — modelled per executed task: the structural flops of
  the dense-path kernels vs the ``lr_ssssm_flops`` cost of the tasks
  that ran the low-rank update (``SSSSM/LR``);
* **value bytes** — exact CSC payload a consumer reads vs the same with
  compressed panels read from their U/V factors
  (``MemoryReport.effective_traffic_bytes``);
* **wire bytes** — real loopback-transport byte accounting of a 3-rank
  distributed factorisation;
* **accuracy** — the compressed solve must still meet the refinement
  gate (``refine_tol``), because iterative refinement recovers the
  truncated mass.

Acceptance: LR-routed SSSSM flops and effective value bytes both drop,
wire bytes drop, and the refined residual passes the gate.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from common import banner
from repro import PanguLU, SolverOptions
from repro.core import block_partition, build_dag, factorize
from repro.core.memory import memory_report
from repro.core.numeric import NumericOptions
from repro.kernels.compress import lr_ssssm_flops
from repro.runtime import LoopbackTransport, factorize_distributed
from repro.sparse import CSCMatrix
from repro.symbolic import symbolic_symmetric

COMPRESS_TOL = 1e-8
MIN_ORDER = 16
BLOCK = 32


def coupled_matrix(n=384, bs=BLOCK, rank=2, scale=0.05, seed=11):
    """Dense-ish matrix with rank-``rank`` off-diagonal block coupling."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, rank))
    v = rng.standard_normal((n, rank))
    a = scale * (u @ v.T)
    for k in range(n // bs):
        s = slice(k * bs, (k + 1) * bs)
        a[s, s] = rng.standard_normal((bs, bs)) + 6.0 * np.eye(bs)
    m = sp.csc_matrix(a)
    return a, CSCMatrix(
        (n, n), m.indptr.astype(np.int64), m.indices.astype(np.int64), m.data
    )


def modelled_ssssm_flops(bm, dag, stats) -> tuple[float, float]:
    """(structural, as-executed) SSSSM flops of one factorisation:
    ``SSSSM/LR`` tasks charged at their ``lr_ssssm_flops`` cost, the rest
    at the DAG's structural estimate."""
    structural = 0.0
    executed = 0.0
    for task in dag.tasks:
        label = stats.kernel_choices.get(task.tid, "")
        if not label.startswith("SSSSM/"):
            continue
        structural += task.flops
        if label == "SSSSM/LR":
            a = bm.compressed_block(task.bi, task.k)
            b = bm.compressed_block(task.k, task.bj)
            c = bm.block(task.bi, task.bj)
            executed += lr_ssssm_flops(
                c.nnz, a if a is not None else bm.block(task.bi, task.k),
                b if b is not None else bm.block(task.k, task.bj),
            )
        else:
            executed += task.flops
    return structural, executed


def run_once(am, compress_tol: float) -> dict:
    filled = symbolic_symmetric(am).filled
    bm = block_partition(filled, BLOCK, arena=True)
    dag = build_dag(bm)
    opts = NumericOptions(
        compress_tol=compress_tol, compress_min_order=MIN_ORDER
    )
    t0 = time.perf_counter()
    stats = factorize(bm, dag, opts)
    ms = (time.perf_counter() - t0) * 1e3
    structural, executed = modelled_ssssm_flops(bm, dag, stats)
    rep = memory_report(bm)
    comp = bm.compression_stats()
    return {
        "ms": ms,
        "blocks_compressed": comp["blocks_compressed"],
        "lr_value_bytes": comp["lr_value_bytes"],
        "ssssm_flops_structural": structural,
        "ssssm_flops_executed": executed,
        "effective_bytes": rep.effective_traffic_bytes,
        "arena_value_bytes": rep.values_bytes,
    }


def wire_bytes(am, compress_tol: float) -> float:
    filled = symbolic_symmetric(am).filled
    bm = block_partition(filled, BLOCK)
    dag = build_dag(bm)
    stats = factorize_distributed(
        bm, dag, 3, transport=LoopbackTransport(),
        options=NumericOptions(
            compress_tol=compress_tol, compress_min_order=MIN_ORDER
        ),
    )
    return stats.block_bytes_sent


def main() -> None:
    banner("compressed low-rank blocks: on vs off (filled regime)")
    a_dense, am = coupled_matrix()
    off = run_once(am, 0.0)
    on = run_once(am, COMPRESS_TOL)
    w_off = wire_bytes(am, 0.0)
    w_on = wire_bytes(am, COMPRESS_TOL)

    # end-to-end: the compressed solve must pass the refinement gate
    solver = PanguLU(am, SolverOptions(
        block_size=BLOCK, compress_tol=COMPRESS_TOL,
        compress_min_order=MIN_ORDER,
    ))
    solver.preprocess()
    fact = solver.factorize()
    b = np.linspace(1.0, 2.0, am.nrows)
    x = fact.solve(b)
    resid = float(np.linalg.norm(a_dense @ x - b) / np.linalg.norm(b))

    rows = [
        ("factorize ms", off["ms"], on["ms"]),
        ("blocks compressed", off["blocks_compressed"],
         on["blocks_compressed"]),
        ("SSSSM MFLOP (executed)", off["ssssm_flops_executed"] / 1e6,
         on["ssssm_flops_executed"] / 1e6),
        ("value KiB (effective)", off["effective_bytes"] / 1024,
         on["effective_bytes"] / 1024),
        ("wire KiB (3 ranks)", w_off / 1024, w_on / 1024),
    ]
    print(f"{'':<24}{'off':>12}{'on':>12}")
    for label, a, b_ in rows:
        print(f"{label:<24}{a:>12.2f}{b_:>12.2f}")
    print(f"\nLR value KiB: {on['lr_value_bytes'] / 1024:.2f} "
          f"(overlay beside {on['arena_value_bytes'] / 1024:.2f} KiB exact)")
    print(f"refined residual (tol {solver.options.refine_tol:.0e}): "
          f"{resid:.2e}")

    assert on["blocks_compressed"] > 0, "nothing compressed in the ablation"
    assert on["ssssm_flops_executed"] < off["ssssm_flops_executed"], \
        "LR routing did not reduce SSSSM flops"
    assert on["effective_bytes"] < off["effective_bytes"], \
        "overlay did not reduce effective value bytes"
    assert w_on < w_off, "compressed panels did not shrink wire traffic"
    assert resid <= solver.options.refine_tol * 10, \
        "compressed solve missed the refinement gate"
    print("\nall compression-ablation acceptance checks passed")


if __name__ == "__main__":
    main()

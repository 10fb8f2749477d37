"""Block Cholesky job and solver facade (SPD extension).

Reuses PanguLU's pipeline wholesale: fill-reducing ordering, symmetric
symbolic factorisation, regular 2D blocking — then factors only the
lower-triangular blocks by draining :func:`~repro.cholesky.kernels.build_llt_dag`
through the shared lane driver (:class:`LLtJob`), and solves
``L y = b`` / ``Lᵀ x = y`` over the block layout with the solve phase's
per-segment gather and LU's refinement loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.blocking import BlockMatrix, block_partition, choose_block_size
from ..core.dag import TaskDAG, TaskType
from ..core.numeric import FactorJob, NumericOptions
from ..core.solver import (
    REFINE_MAX_ITER, REFINE_TOL, checked_rhs, order_by_fill, refined_solve,
    require_at_least_one,
)
from ..core.tsolve import gather
from ..core.tsolve_dag import block_line_sources
from ..kernels.base import Workspace
from ..kernels.ssssm import ssssm_c_v1
from ..kernels.tstrf import tstrf_c_v2
from ..runtime.lanes import run_lanes
from ..runtime.scheduler import RunReport, SchedulerCore
from ..sparse.csc import CSCMatrix
from ..symbolic import SymbolicResult
from .kernels import build_llt_dag, l_inverse, potrf

__all__ = ["CholeskyOptions", "LLtJob", "PanguLLt"]


@dataclass
class CholeskyOptions:
    """Configuration of the SPD pipeline (no MC64 — SPD matrices need no
    static pivoting; symmetric permutation preserves definiteness)."""

    ordering: str = "nd"
    block_size: int | None = None

    def __post_init__(self) -> None:
        require_at_least_one(self, "block_size")


class LLtJob(FactorJob):
    """Block Cholesky as the lane driver sees it: LU's
    :class:`~repro.core.numeric.FactorJob` (slots resolved per task,
    write slot = the target block, trace labels, flop tally, a
    :class:`~repro.core.numeric.PanelCache` evicted by the reader
    counts) with the kernels of ``A = L·Lᵀ`` at the leaves — LAPACK
    POTRF, and LU's dense-mapped TSTRF and SSSSM handed ``L(k,k)⁻ᵀ`` and
    the row box images of ``L(i,k)`` and ``L(j,k)``, the latter
    transposed — the column box image of ``L(j,k)ᵀ``.  A SYRK reads
    ``(bi, k)`` and ``(bj, k)`` where LU's SSSSM reads ``(bi, k)`` and
    ``(k, bj)``."""

    family = {
        **FactorJob.family,
        TaskType.SSSSM: (None, lambda k, bi, bj: ((bi, bj), (bi, k), (bj, k)), None),
    }

    def __init__(self, f: BlockMatrix, dag: TaskDAG) -> None:
        super().__init__(f, dag, NumericOptions())

    def _resolve_calls(self) -> tuple[None, np.ndarray]:
        """Nothing to select: one kernel per task type, and every task
        but POTRF — which reads no other block — reads images."""
        return None, np.ones(len(self.tasks), dtype=bool)

    def execute(self, tid: int, ws: Workspace) -> tuple[str]:
        f, task, panels = self.f, self.tasks[tid], self.panels
        if task.ttype is TaskType.GETRF:
            potrf(f, task.k)
            return ("POTRF/LAPACK",)
        slots = self.args[tid]
        blocks = [f.blk_values[slot] for slot in slots]
        if task.ttype is TaskType.TSTRF:
            inv = panels.get((slots[0], False), lambda: l_inverse(f, task.k).T)
            tstrf_c_v2(*blocks, ws, inv=inv)
            label = "TSTRF/C_V2"
        else:
            l_jk = panels.image(slots[2], blocks[2], 0)
            ssssm_c_v1(
                *blocks, ws, a_dense=panels.image(slots[1], blocks[1], 0),
                b_dense=(l_jk.pos, l_jk.dense.T),
            )
            label = "SSSSM/C_V1"
        panels.release(slots, self.target[tid])
        return (label,)


class PanguLLt:
    """Sparse Cholesky solver ``A = L·Lᵀ`` over the regular 2D block layout.

    Requires a symmetric positive definite matrix (symmetry of values is
    the caller's contract; definiteness is verified by the factorisation,
    which raises :class:`NotPositiveDefiniteError` otherwise).
    """

    def __init__(self, a: CSCMatrix, options: CholeskyOptions | None = None) -> None:
        if a.nrows != a.ncols:
            raise ValueError("Cholesky requires a square matrix")
        a.require_finite("a")
        self.a = a
        self.options = options or CholeskyOptions()
        self.phase_seconds: dict[str, float] = {}
        self.perm: np.ndarray | None = None
        self.symbolic: SymbolicResult | None = None
        self.ordering_kept: dict | None = None
        self.blocks: BlockMatrix | None = None
        self.dag: TaskDAG | None = None
        self.flops: int = 0   # SYRK flops, the Schur work LU's SSSSM doubles
        self.numeric_stats: RunReport | None = None
        self.residual_history: list[tuple[str, float]] = []

    # ------------------------------------------------------------------
    def preprocess(self) -> BlockMatrix:
        """Ordering + symbolic + blocking of the lower triangle + DAG."""
        t0 = time.perf_counter()
        self.perm, _, self.symbolic, self.ordering_kept = order_by_fill(
            self.a, self.options.ordering, {}
        )
        lower = _lower_triangle(self.symbolic.filled)
        bs = self.options.block_size or choose_block_size(
            lower.ncols, self.symbolic.filled.nnz
        )
        self.blocks = block_partition(lower, bs)
        self.dag = build_llt_dag(self.blocks)
        self.flops = sum(t.flops for t in self.dag.tasks if t.ttype is TaskType.SSSSM)
        self.phase_seconds["preprocess"] = time.perf_counter() - t0
        return self.blocks

    def factorize(self) -> RunReport:
        """Right-looking block Cholesky in place: the DAG drained on one
        lane of the shared driver (idempotent; returns the run's report)."""
        if self.numeric_stats is None:
            if self.blocks is None:
                self.preprocess()
            t0 = time.perf_counter()
            core = SchedulerCore.from_dag(self.dag)
            self.numeric_stats = run_lanes(core, LLtJob(self.blocks, self.dag))
            self.phase_seconds["numeric"] = time.perf_counter() - t0
        return self.numeric_stats

    # ------------------------------------------------------------------
    def _apply(self, rhs: np.ndarray) -> np.ndarray:
        """``A⁻¹ rhs`` through the factors, segment by segment as LU's
        solve tasks go (:func:`~repro.core.tsolve.gather`, then the
        diagonal block's inverse): ``L y = P rhs`` gathering block row
        ``i`` of ``L``, then ``Lᵀ x = y`` gathering block column ``i``,
        every block transposed, in reverse."""
        f = self.blocks
        v = rhs[self.perm]
        for transposed, order in ((False, range(f.nb)),
                                  (True, range(f.nb - 1, -1, -1))):
            lines = block_line_sources(f, transposed=transposed)
            for i in order:
                seg = v[f.block_slice(i)]
                gather(f, i, *lines[i], v, seg, transposed=transposed)
                inv = l_inverse(f, i)
                seg[...] = (inv.T if transposed else inv) @ seg
        out = np.empty_like(v)
        out[self.perm] = v
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b``, refined by LU's loop to LU's default
        tolerance (:func:`~repro.core.solver.refined_solve`); the
        residuals it took are left on :attr:`residual_history`."""
        self.factorize()
        t0 = time.perf_counter()
        b = checked_rhs(b, self.a.nrows)
        self.residual_history = []
        x = refined_solve(
            self._apply, self.a.matvec, b, tol=REFINE_TOL,
            budget=REFINE_MAX_ITER,
            history=self.residual_history,
        )
        self.phase_seconds["solve"] = time.perf_counter() - t0
        return x

    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative residual ``‖A x − b‖₂ / ‖b‖₂``."""
        r = self.a.matvec(x) - b
        return float(np.linalg.norm(r)) / (float(np.linalg.norm(b)) or 1.0)

    def factor_error(self) -> float:
        """``‖P A Pᵀ − L Lᵀ‖∞ / ‖A‖∞`` — factorisation check."""
        self.factorize()
        l = np.tril(self.blocks.to_csc().to_dense())
        ref = self.a.permute(self.perm, self.perm).to_dense()
        return float(np.abs(ref - l @ l.T).max() / (np.abs(ref).max() or 1.0))


def _lower_triangle(m: CSCMatrix) -> CSCMatrix:
    """Lower triangle (incl. diagonal) of a CSC matrix."""
    rows, cols = m.rows_cols()
    keep = rows >= cols
    indptr = np.zeros(m.ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[keep], minlength=m.ncols), out=indptr[1:])
    return CSCMatrix(m.shape, indptr, rows[keep], m.data[keep], check=False)

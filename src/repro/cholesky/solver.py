"""Block Cholesky job and solver facade (SPD extension).

Reuses PanguLU's pipeline wholesale: fill-reducing ordering, symmetric
symbolic factorisation, regular 2D blocking — then factors only the
lower-triangular blocks by draining :func:`~repro.cholesky.kernels.build_llt_dag`
through the shared lane driver (:class:`LLtJob`), and solves
``L y = b`` / ``Lᵀ x = y`` over the block layout with the solve phase's
update kernel and LU's refinement loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.blocking import BlockMatrix, block_partition, choose_block_size
from ..core.dag import TaskDAG, TaskType
from ..core.numeric import FactorJob, NumericOptions
from ..core.solver import (
    REFINE_MAX_ITER, REFINE_TOL, fill_reducing_ordering, refined_solve,
)
from ..kernels.base import Workspace
from ..kernels.ssssm import ssssm_c_v1
from ..kernels.tsolve_kernels import upd_seg
from ..kernels.tstrf import tstrf_c_v2
from ..runtime.lanes import run_lanes
from ..runtime.scheduler import RunReport, SchedulerCore
from ..sparse.csc import CSCMatrix
from ..symbolic import SymbolicResult, symbolic_symmetric
from .kernels import build_llt_dag, l_inverse, potrf

__all__ = ["CholeskyOptions", "LLtJob", "PanguLLt"]


@dataclass
class CholeskyOptions:
    """Configuration of the SPD pipeline (no MC64 — SPD matrices need no
    static pivoting; symmetric permutation preserves definiteness)."""

    ordering: str = "nd"
    block_size: int | None = None


class LLtJob(FactorJob):
    """Block Cholesky as the lane driver sees it: LU's
    :class:`~repro.core.numeric.FactorJob` (slots resolved per task,
    write slot = the target block, trace labels, flop tally, a
    :class:`~repro.core.numeric.PanelCache` evicted by the reader
    counts) with the kernels of ``A = L·Lᵀ`` at the leaves — LAPACK
    POTRF, and LU's dense-mapped TSTRF and SSSSM handed ``L(k,k)⁻ᵀ`` and
    the images of ``L(i,k)`` / ``L(j,k)ᵀ``.  A SYRK reads ``(bi, k)`` and
    ``(bj, k)`` where LU's SSSSM reads ``(bi, k)`` and ``(k, bj)``."""

    family = {
        **FactorJob.family,
        TaskType.SSSSM: (None, lambda k, bi, bj: ((bi, bj), (bi, k), (bj, k)), None),
    }

    def __init__(self, f: BlockMatrix, dag: TaskDAG) -> None:
        super().__init__(f, dag, NumericOptions())

    def _resolve_calls(self) -> None:
        """Nothing to select: one kernel per task type."""

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
            ssssm_c_v1(
                *blocks, ws,
                a_dense=panels.get(slots[1], blocks[1].to_dense),
                b_dense=panels.get(slots[2], blocks[2].to_dense).T,
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
        self.blocks: BlockMatrix | None = None
        self.dag: TaskDAG | None = None
        self.flops: int = 0   # SYRK flops, the Schur work LU's SSSSM doubles
        self.numeric_stats: RunReport | None = None
        self.residual_history: list[tuple[str, float]] = []

    # ------------------------------------------------------------------
    def preprocess(self) -> BlockMatrix:
        """Ordering + symbolic + blocking of the lower triangle + DAG."""
        t0 = time.perf_counter()
        self.perm = fill_reducing_ordering(self.a, self.options.ordering)
        self.symbolic = symbolic_symmetric(self.a.permute(self.perm, self.perm))
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
        """``A⁻¹ rhs`` through the factors: ``L y = P rhs`` walking the
        DAG's panel tasks (``POTRF(k)`` solves segment ``k``, ``TRSM(i,k)``
        pushes it through ``L(i,k)``), then ``Lᵀ x = y`` walking them
        backwards with every block transposed."""
        f = self.blocks
        panel = [t for t in self.dag.tasks if t.ttype is not TaskType.SSSSM]
        v = rhs[self.perm]
        for transposed in (False, True):
            for t in reversed(panel) if transposed else panel:
                seg, below = v[f.block_slice(t.k)], v[f.block_slice(t.bi)]
                if t.ttype is TaskType.GETRF:
                    inv = l_inverse(f, t.k)
                    seg[...] = (inv.T if transposed else inv) @ seg
                elif transposed:
                    upd_seg(seg, f.block(t.bi, t.k), below, transposed=True)
                else:
                    upd_seg(below, f.block(t.bi, t.k), seg)
        out = np.empty_like(v)
        out[self.perm] = v
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b``, refined by LU's loop to LU's default
        tolerance (:func:`~repro.core.solver.refined_solve`); the
        residuals it took are left on :attr:`residual_history`."""
        self.factorize()
        t0 = time.perf_counter()
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.a.nrows,):
            raise ValueError(f"b has shape {b.shape}, expected ({self.a.nrows},)")
        self.residual_history = []
        x = refined_solve(
            self._apply, self.a.matvec, b, tol=REFINE_TOL,
            budget=REFINE_MAX_ITER,
            history=self.residual_history, exact=True,
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

"""Structural FLOP counts for the four kernel types.

All counts derive from the *fixed symbolic patterns* of the blocks, so they
are available before any numeric work — this is what makes the paper's
static load balancing (weights = task FLOPs, Section 4.2) and the
decision-tree kernel selection (Section 4.3) purely preprocessing-time
computations.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix

__all__ = [
    "getrf_flops",
    "gessm_flops",
    "tstrf_flops",
    "ssssm_flops_structural",
    "DiagCounts",
    "gessm_flops_from_counts",
    "tstrf_flops_from_counts",
]


class DiagCounts:
    """Per-pivot structural counts of a diagonal block's pattern:
    strict-lower nnz per column, strict-upper nnz per column, strict-upper
    nnz per row.

    ``build_dag`` creates one per elimination step and prices every task
    of that step's panel against it.
    """

    __slots__ = ("lower_col", "upper_col", "upper_row")

    def __init__(self, block: CSCMatrix) -> None:
        rows, cols = block.rows_cols()
        n = block.ncols
        upper = rows < cols
        self.lower_col = np.bincount(cols[rows > cols], minlength=n)
        self.upper_col = np.bincount(cols[upper], minlength=n)
        self.upper_row = np.bincount(rows[upper], minlength=n)

    def getrf_flops(self) -> int:
        """FLOPs of in-place block LU: per pivot ``t``, one division per
        strict-lower entry plus a multiply-add per (lower, upper) pair.

        This upper-bounds the true count (pattern positions with numeric
        zeros still count), matching how the paper derives task weights
        symbolically.
        """
        return int(
            np.sum(self.lower_col) + 2 * np.dot(self.lower_col, self.upper_row)
        )


def gessm_flops_from_counts(counts: DiagCounts, b: CSCMatrix) -> int:
    """FLOPs of ``L·X = B``: each entry ``(t, c)`` of ``B`` triggers a
    multiply-add against the strict-lower column ``t`` of the factored
    diagonal block."""
    return int(2 * np.sum(counts.lower_col[b.indices]))


def tstrf_flops_from_counts(counts: DiagCounts, b: CSCMatrix) -> int:
    """FLOPs of ``X·U = B``: one division per entry of ``B`` plus a
    multiply-add against the strict-upper row of the pivot column."""
    return int(b.nnz + 2 * np.sum(counts.upper_col[b.cols_expanded()]))


def getrf_flops(block: CSCMatrix) -> int:
    """:meth:`DiagCounts.getrf_flops` of a block's own counts."""
    return DiagCounts(block).getrf_flops()


def gessm_flops(diag: CSCMatrix, b: CSCMatrix) -> int:
    """:func:`gessm_flops_from_counts` with the counts of ``diag``."""
    return gessm_flops_from_counts(DiagCounts(diag), b)


def tstrf_flops(diag: CSCMatrix, b: CSCMatrix) -> int:
    """:func:`tstrf_flops_from_counts` with the counts of ``diag``."""
    return tstrf_flops_from_counts(DiagCounts(diag), b)


def ssssm_flops_structural(a: CSCMatrix, b: CSCMatrix) -> int:
    """FLOPs of ``C −= A·B``: ``2 Σ_t nnz(A[:,t]) · nnz(B[t,:])`` — the
    per-task weight used by both the load balancer and the decision-tree
    kernel selector."""
    b_rownnz = np.bincount(b.indices, minlength=a.ncols)
    return int(2 * np.dot(np.diff(a.indptr), b_rownnz))

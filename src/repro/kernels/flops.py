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
    "diag_counts",
    "gessm_flops_from_counts",
    "tstrf_flops_from_counts",
]


def _lower_upper_counts(
    block: CSCMatrix,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pivot structural counts of a (diagonal) block pattern.

    Returns ``(lower_col, upper_col, upper_row)``: strict-lower nnz per
    column, strict-upper nnz per column, strict-upper nnz per row.
    """
    n = block.ncols
    lower_col = np.zeros(n, dtype=np.int64)
    upper_col = np.zeros(n, dtype=np.int64)
    upper_row = np.zeros(n, dtype=np.int64)
    for j in range(n):
        rows = block.indices[block.col_slice(j)]
        pos = int(np.searchsorted(rows, j))
        has_diag = 1 if pos < rows.size and rows[pos] == j else 0
        lower_col[j] = rows.size - pos - has_diag
        upper_col[j] = pos
        np.add.at(upper_row, rows[:pos], 1)
    return lower_col, upper_col, upper_row


def getrf_flops(block: CSCMatrix) -> int:
    """FLOPs of in-place block LU: per pivot ``t``, one division per
    strict-lower entry plus a multiply-add per (lower, upper) pair.

    This upper-bounds the true count (pattern positions with numeric zeros
    still count), matching how the paper derives task weights symbolically.
    """
    lower_col, _, upper_row = _lower_upper_counts(block)
    return int(np.sum(lower_col) + 2 * np.dot(lower_col, upper_row))


def gessm_flops(diag: CSCMatrix, b: CSCMatrix) -> int:
    """FLOPs of ``L·X = B``: each entry ``(t, c)`` of ``B`` triggers a
    multiply-add against the strict-lower column ``t`` of the factored
    diagonal block."""
    lower_col, _, _ = _lower_upper_counts(diag)
    return int(2 * np.sum(lower_col[b.indices]))


def tstrf_flops(diag: CSCMatrix, b: CSCMatrix) -> int:
    """FLOPs of ``X·U = B``: one division per entry of ``B`` plus a
    multiply-add against the strict-upper row of the pivot column."""
    _, upper_col, _ = _lower_upper_counts(diag)
    return int(b.nnz + 2 * np.sum(upper_col[b.cols_expanded()]))


def ssssm_flops_structural(a: CSCMatrix, b: CSCMatrix) -> int:
    """FLOPs of ``C −= A·B``: ``2 Σ_t nnz(A[:,t]) · nnz(B[t,:])``."""
    a_colnnz = np.diff(a.indptr)
    b_rownnz = np.zeros(a.ncols, dtype=np.int64)
    np.add.at(b_rownnz, b.indices, 1)
    return int(2 * np.dot(a_colnnz, b_rownnz))


class DiagCounts:
    """Precomputed per-pivot counts of a diagonal block.

    ``build_dag`` creates one per elimination step and prices every panel
    task of that step against it, avoiding the repeated
    :func:`_lower_upper_counts` pass the one-shot helpers would perform.
    """

    __slots__ = ("lower_col", "upper_col", "upper_row")

    def __init__(self, block: CSCMatrix) -> None:
        self.lower_col, self.upper_col, self.upper_row = _lower_upper_counts(block)


def diag_counts(block: CSCMatrix) -> DiagCounts:
    """Counts of a diagonal block, reusable across its panel tasks."""
    return DiagCounts(block)


def gessm_flops_from_counts(counts: DiagCounts, b: CSCMatrix) -> int:
    """:func:`gessm_flops` with precomputed diagonal counts."""
    return int(2 * np.sum(counts.lower_col[b.indices]))


def tstrf_flops_from_counts(counts: DiagCounts, b: CSCMatrix) -> int:
    """:func:`tstrf_flops` with precomputed diagonal counts."""
    return int(b.nnz + 2 * np.sum(counts.upper_col[b.cols_expanded()]))

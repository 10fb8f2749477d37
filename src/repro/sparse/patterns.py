"""Structural (pattern-level) utilities shared across the solver phases."""

from __future__ import annotations

import numpy as np

from .csc import CSCMatrix, concat_ranges, coo_to_csc

__all__ = [
    "symmetrize_pattern",
    "adjacency",
    "adjacency_lists",
    "bandwidth",
    "is_structurally_symmetric",
    "has_full_diagonal",
    "ensure_diagonal",
    "first_free_matching",
    "run_starts",
    "sorted_unique",
    "concat_ranges",
]


def run_starts(values: np.ndarray) -> np.ndarray:
    """Boolean mask, True where ``values[k]`` differs from ``values[k - 1]``
    (and at ``k = 0``): the first entry of every run of equal values."""
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sort ``values`` **in place** and return its distinct entries.

    The sort-and-compare-neighbours core of ``np.unique`` without its
    per-call overhead — the analysis loops call this once per column or
    BFS level.
    """
    values.sort()
    return values[run_starts(values)]


def symmetrize_pattern(a: CSCMatrix) -> CSCMatrix:
    """Return the pattern of ``A + A^T`` with values from ``A`` where present.

    PanguLU symmetrises the matrix before its symmetric-pruned symbolic
    factorisation (Section 5.2); entries present only in ``A^T`` get value 0
    so the numeric phase still factorises the original values.
    """
    at = a.transpose()
    rows_a, cols_a = a.rows_cols()
    rows_t, cols_t = at.rows_cols()
    rows = np.concatenate([rows_a, rows_t])
    cols = np.concatenate([cols_a, cols_t])
    vals = np.concatenate([a.data, np.zeros(at.nnz)])
    # summing duplicates keeps A's value where both patterns have the entry
    return coo_to_csc(a.shape, rows, cols, vals)


def adjacency(a: CSCMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Undirected adjacency of the symmetrised pattern, excluding
    self-loops, as flat CSR-style arrays ``(ptr, idx)``: the neighbours of
    vertex ``v`` are ``idx[ptr[v]:ptr[v + 1]]``, sorted.  The form the
    level-synchronous traversals (BFS, nested dissection, RCM) gather from.
    """
    s = symmetrize_pattern(a)
    rows, cols = s.rows_cols()
    off_diag = rows != cols
    ptr = np.zeros(s.ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[off_diag], minlength=s.ncols), out=ptr[1:])
    return ptr, rows[off_diag]


def adjacency_lists(a: CSCMatrix) -> list[np.ndarray]:
    """:func:`adjacency` as one sorted neighbour array per vertex (views of
    one array) — what the set-based minimum-degree codes start from."""
    ptr, idx = adjacency(a)
    return np.split(idx, ptr[1:-1]) if ptr.size > 1 else []


def bandwidth(a: CSCMatrix) -> int:
    """Maximum distance of any stored entry from the diagonal."""
    if a.nnz == 0:
        return 0
    rows, cols = a.rows_cols()
    return int(np.max(np.abs(rows - cols)))


def is_structurally_symmetric(a: CSCMatrix) -> bool:
    """True when the pattern of ``A`` equals the pattern of ``A^T``."""
    at = a.transpose()
    return (
        np.array_equal(a.indptr, at.indptr)
        and np.array_equal(a.indices, at.indices)
    )


def _diagonal_present(a: CSCMatrix) -> np.ndarray:
    """Boolean mask over ``range(min(shape))``: diagonal structurally stored."""
    rows, cols = a.rows_cols()
    present = np.zeros(min(a.shape), dtype=bool)
    present[rows[rows == cols]] = True
    return present


def has_full_diagonal(a: CSCMatrix) -> bool:
    """True when every diagonal position is structurally present."""
    return bool(_diagonal_present(a).all())


def ensure_diagonal(a: CSCMatrix, value: float = 0.0) -> CSCMatrix:
    """Return a copy of ``A`` whose diagonal is structurally present.

    Missing diagonal entries are inserted with ``value``; existing entries
    are untouched.  Static-pivoting LU requires a structurally full diagonal.
    """
    miss = np.flatnonzero(~_diagonal_present(a))
    if miss.size == 0:
        return a.copy()
    rows_a, cols_a = a.rows_cols()
    rows = np.concatenate([rows_a, miss])
    cols = np.concatenate([cols_a, miss])
    vals = np.concatenate([a.data, np.full(miss.size, value)])
    return coo_to_csc(a.shape, rows, cols, vals)


def first_free_matching(a: CSCMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Greedy structural matching: the columns, in order, each take their
    first row that no earlier column took.  Returns ``(row_of_col,
    col_of_row)``, ``-1`` where unmatched.

    The scan is sequential on purpose: with a full diagonal the columns
    before ``j`` hold exactly the rows before ``j``, so the result is the
    identity — a property no order-free (array) greedy shares.
    """
    row_of_col = [-1] * a.ncols
    col_of_row = [-1] * a.nrows
    for r, j in zip(a.indices.tolist(), a.cols_expanded().tolist()):
        if row_of_col[j] < 0 and col_of_row[r] < 0:
            row_of_col[j], col_of_row[r] = r, j
    return np.array(row_of_col, dtype=np.int64), np.array(col_of_row, dtype=np.int64)

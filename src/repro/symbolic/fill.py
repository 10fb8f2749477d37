"""Symbolic factorisation — fill-pattern computation.

:func:`symbolic_symmetric` is PanguLU's path (Section 4.1/5.2): symmetrise
the pattern and compute the exact Cholesky-style fill of ``A + A^T``.  The
fill of a symmetric structure obeys

    ``struct(L_j) = A_j[> j]  ∪  ⋃_{children c of j} struct(L_c) ∖ {j}``

over the elimination tree — eliminating ``c`` connects its remaining
neighbours, and the first of them (its etree parent) inherits the rest.
:func:`~repro.symbolic.etree.column_structures` evaluates exactly that,
one array merge per column, or a slice of the child's structure where a
column continues its only child's supernode.  Each column structure is
merged into one parent only, never searched again from every later
column that reaches it: this *is* what Eisenstat–Liu symmetric pruning
achieves for symmetric structures (the pruned graph of a symmetric
factor is its elimination tree), so the result is the symmetric-pruned
fill, and the same pattern the row-subtree formulation enumerates row
by row
(``tests/reference_analysis.py`` keeps that walk as the oracle).

The unsymmetric column-DFS fill used by the SuperLU_DIST-like baseline
lives with it, in :mod:`repro.baseline.gp`.

The result carries the filled pattern ``F = pattern(L) ∪ pattern(U)`` as a
:class:`~repro.sparse.csc.CSCMatrix` whose values hold the entries of the
input ``A`` (zeros at fill positions), ready for regular 2D blocking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from ..sparse.csc import CSCMatrix, transpose_arrays
from ..sparse.patterns import concat_ranges, symmetrize_pattern
from .etree import column_structures

__all__ = [
    "SymbolicResult", "symbolic_symmetric", "envelope_profile", "entry_positions",
    "fill_in_values",
]


@dataclass(frozen=True)
class SymbolicResult:
    """Outcome of a symbolic factorisation.

    Attributes
    ----------
    filled:
        Pattern of ``L + U`` (diagonal included once) with the numeric
        values of the input matrix injected; fill-in positions hold 0.
    etree:
        Elimination-tree parent array of the symmetrised pattern.
    nnz_l, nnz_u:
        Nonzeros of the strict lower / upper triangles plus the diagonal
        counted in both (matching the paper's ``nnz(L+U)`` convention where
        ``L`` is unit-lower and ``U`` carries the diagonal).
    a_positions:
        Position in ``filled``'s arrays of every stored entry of the input
        matrix, in the input's storage order — a same-pattern matrix is
        re-injected with ``data[a_positions] = a_new.data``.
    """

    filled: CSCMatrix
    etree: np.ndarray
    nnz_l: int
    nnz_u: int
    a_positions: np.ndarray

    @property
    def nnz_lu(self) -> int:
        """Total ``nnz(L) + nnz(U)`` with ``L`` unit-diagonal implicit."""
        return self.nnz_l + self.nnz_u

    @property
    def nnz_a(self) -> int:
        """Structural nonzeros of the input matrix (stored zeros count)."""
        return int(self.a_positions.size)

    @property
    def fill_ratio(self) -> float:
        """``nnz(filled) / nnz`` of the original pattern (≥ 1)."""
        return self.filled.nnz / (self.nnz_a or 1)


def symbolic_symmetric(a: CSCMatrix, *, limit: int | None = None) -> SymbolicResult | None:
    """Exact fill pattern of the symmetrised matrix (PanguLU's symbolic).

    The column structures of ``L`` are the strict lower triangle of the
    filled pattern; ``U``'s pattern is the transpose (SciPy's compiled
    ``csr_tocsc``), and column ``j`` of the result is written as upper
    part, diagonal, lower part.  O(|L|) after the symmetrisation and the
    column sweep.

    ``limit`` caps the strict lower count: the pass returns ``None`` as
    soon as that count exceeds it (see :func:`envelope_profile` for the
    cap phase 1 uses), and otherwise the uncapped result.
    """
    if a.nrows != a.ncols:
        raise ValueError("symbolic factorisation requires a square matrix")
    n = a.ncols
    structures = column_structures(symmetrize_pattern(a), limit)
    if structures is None:
        return None
    parent, low_ptr, low_rows = structures
    nnz_strict = low_rows.size
    low_counts = np.diff(low_ptr)
    # transpose of the strict lower triangle (its int8 values are unused):
    # the entries of row i, in increasing column order, are the
    # above-diagonal part of column i
    unused = np.zeros(nnz_strict, dtype=np.int8)
    up_ptr, up_rows, _ = transpose_arrays(low_ptr, low_rows, unused, n)
    up_counts = np.diff(up_ptr)

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(up_counts + 1 + low_counts, out=indptr[1:])
    diag_at = indptr[:-1] + up_counts
    indices = np.empty(2 * nnz_strict + n, dtype=np.int64)
    indices[concat_ranges(indptr[:-1], up_counts)] = up_rows
    indices[diag_at] = np.arange(n, dtype=np.int64)
    indices[concat_ranges(diag_at + 1, low_counts)] = low_rows

    pattern = CSCMatrix((n, n), indptr, indices, check=False)
    positions = entry_positions(pattern, a)
    pattern.data[positions] = a.data
    return SymbolicResult(
        filled=pattern,
        etree=parent,
        nnz_l=nnz_strict + n,
        nnz_u=nnz_strict + n,
        a_positions=positions,
    )


def envelope_profile(a: CSCMatrix) -> int:
    """Profile of ``A + Aᵀ`` in its stored order: ``Σᵢ (i − fᵢ)``, ``fᵢ``
    the first column of row ``i`` (``i`` itself when the row has nothing
    left of the diagonal) — the strict lower entries of the envelope.

    Cholesky fill stays inside the envelope (George & Liu), so this is an
    upper bound on the strict lower count :func:`symbolic_symmetric`
    finds for this order.  O(nnz): the first neighbours of both
    triangles are two ``np.minimum.at``, with no symmetrised copy built.
    """
    n = a.ncols
    rows, cols = a.rows_cols()
    first = np.arange(n, dtype=np.int64)
    np.minimum.at(first, rows, cols)
    np.minimum.at(first, cols, rows)
    return n * (n - 1) // 2 - int(first.sum())


def entry_positions(pattern: CSCMatrix, a: CSCMatrix) -> np.ndarray:
    """Position in ``pattern``'s arrays of every stored entry of ``a``.

    One compiled merge of the sorted columns (SciPy's ``csr_plus_csr``)
    over markers — 1 for ``pattern``, 2 for ``a`` — so a merged entry
    reads 3 where ``a`` meets ``pattern``, in ``a``'s storage order, and
    2 where ``pattern`` misses it (the merge then outgrows ``pattern``).
    Raises ``ValueError`` naming the first column of ``a`` that
    ``pattern`` does not cover.
    """
    if pattern.shape != a.shape:
        raise ValueError("shape mismatch")
    ncols, nrows = pattern.ncols, pattern.nrows
    size = pattern.nnz + a.nnz
    ptr, idx = np.empty(ncols + 1, np.int64), np.empty(size, np.int64)
    marker = np.empty(size, dtype=np.int8)
    _sparsetools.csr_plus_csr(
        ncols, nrows, pattern.indptr, pattern.indices,
        np.ones(pattern.nnz, dtype=np.int8), a.indptr, a.indices,
        np.full(a.nnz, 2, dtype=np.int8), ptr, idx, marker,
    )
    if ptr[-1] > pattern.nnz:  # the merge gained entries of ``a`` alone
        first = int(np.argmax(marker[: ptr[-1]] == 2))
        j = int(np.searchsorted(ptr, first, side="right")) - 1
        raise ValueError(f"pattern does not cover column {j} of the input")
    return np.flatnonzero(marker[: ptr[-1]] == 3)


def fill_in_values(pattern: CSCMatrix, a: CSCMatrix) -> CSCMatrix:
    """Inject the values of ``a`` into (a superset) ``pattern``.

    Every stored entry of ``a`` must exist in ``pattern``; fill positions
    keep value 0.  Returns a new matrix sharing ``pattern``'s arrays shape.
    """
    positions = entry_positions(pattern, a)
    out = pattern.pattern_copy()
    out.data[positions] = a.data
    return out

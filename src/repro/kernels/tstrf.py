"""TSTRF — sparse upper-triangular solve ``X·U = B`` on a block row.

After GETRF factors the diagonal block ``D`` (upper triangle plus diagonal
= ``U``), TSTRF turns every block ``B`` in the same block *row* into the
corresponding block of ``L`` by solving ``X·U = B`` in place.

A right solve against upper-triangular ``U`` is a left solve against the
non-unit lower-triangular ``U^T``: the sparse variants transpose the block,
run a forward substitution mirror of the GESSM variants, and transpose
back; the dense-mapped C_V2 is one GEMM with the inverse of ``U``.

The five variants follow Table 1 of the paper (same addressing split as
GESSM: merge / direct / bin-search / level-scheduled rows / compiled).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..sparse.csc import CSCMatrix
from .base import (
    SingularBlockError,
    Workspace,
    csc_to_csr_arrays,
    gather_dense,
    scatter_dense,
    serial_matmul,
    solve_levels,
    split_lu,
    triangle_inverse,
)
from .plans import SolvePlan, run_tstrf_plan

__all__ = [
    "tstrf_c_v1",
    "tstrf_c_v2",
    "tstrf_g_v1",
    "tstrf_g_v2",
    "tstrf_g_v3",
    "TSTRF_VARIANTS",
]


def _upper_transposed(diag: CSCMatrix) -> CSCMatrix:
    """``U^T`` (non-unit lower triangular) of a factored diagonal block."""
    _, u = split_lu(diag)
    return u.transpose()


def _forward_solve_nonunit(
    ut: CSCMatrix, bt: CSCMatrix, *, addressing: str
) -> None:
    """In-place forward substitution ``U^T · X = B^T`` on transposed blocks.

    ``addressing`` selects how update targets are located: ``"merge"``
    (sorted-list intersection) or ``"binsearch"`` (binary search), the two
    sparse methods of Table 1.
    """
    ut_indptr, ut_indices, ut_data = ut.indptr, ut.indices, ut.data
    for c in range(bt.ncols):
        sl = bt.col_slice(c)
        rows_c = bt.indices[sl]
        vals_c = bt.data[sl]
        for p in range(rows_c.size):
            t = int(rows_c[p])
            lo, hi = int(ut_indptr[t]), int(ut_indptr[t + 1])
            urows = ut_indices[lo:hi]
            uvals = ut_data[lo:hi]
            # diagonal of U^T column t is its first entry (smallest row = t)
            if urows.size == 0 or urows[0] != t or uvals[0] == 0.0:
                raise SingularBlockError(f"zero/missing U diagonal at {t}")
            xt = vals_c[p] / uvals[0]
            vals_c[p] = xt
            if xt == 0.0 or urows.size == 1:
                continue
            l_rows = urows[1:]
            l_vals = uvals[1:]
            if addressing == "merge":
                common, pos_l, pos_c = np.intersect1d(
                    l_rows, rows_c, assume_unique=True, return_indices=True
                )
                if common.size:
                    vals_c[pos_c] -= l_vals[pos_l] * xt
            else:
                pos = np.searchsorted(rows_c, l_rows)
                valid = pos < rows_c.size
                np.minimum(pos, rows_c.size - 1, out=pos)
                valid &= rows_c[pos] == l_rows
                vals_c[pos[valid]] -= l_vals[valid] * xt


def tstrf_c_v1(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, plan: SolvePlan | None = None
) -> None:
    """Merge-addressed row solve (CPU V1): transpose, merge-forward-solve,
    transpose back — or, handed the block pair's ``plan`` (solve order,
    targets and transpose permutation precomputed), the same operations
    in the same order without the three structural passes."""
    if plan is not None:
        return run_tstrf_plan(plan, diag, b)
    ut = _upper_transposed(diag)
    bt = b.transpose()
    _forward_solve_nonunit(ut, bt, addressing="merge")
    b.data[...] = bt.transpose().data


def tstrf_c_v2(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, inv: np.ndarray | None = None
) -> None:
    """Dense-mapped solve (CPU V2, "Direct"): scatter ``B``, one GEMM
    with the dense inverse of ``U`` from the right, gather.  ``inv`` is
    that inverse when the caller holds one (as for ``gessm_c_v2``);
    building it raises on a zero or missing ``U`` diagonal, and the error
    of the result grows with ``cond(U)`` — see
    :func:`~repro.kernels.base.triangle_inverse`."""
    if inv is None:
        inv = triangle_inverse(diag, lower=False)
    w = ws.dense("a", b.shape, b.data.dtype)
    scatter_dense(b, w)
    gather_dense(b, serial_matmul(w, inv))


def tstrf_g_v1(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, plan: SolvePlan | None = None
) -> None:
    """Bin-search row solve (GPU V1, "warp-level column"); ``plan``: as
    for :func:`tstrf_c_v1`."""
    if plan is not None:
        return run_tstrf_plan(plan, diag, b)
    ut = _upper_transposed(diag)
    bt = b.transpose()
    _forward_solve_nonunit(ut, bt, addressing="binsearch")
    b.data[...] = bt.transpose().data


def tstrf_g_v2(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Level-scheduled solve (GPU V2, "un-sync warp-level row").

    Builds the level sets of the ``U^T`` solve DAG and processes levels on
    a dense panel of ``B^T``.
    """
    ut = _upper_transposed(diag)
    n = ut.ncols
    m = b.nrows
    indptr, cols, vals = csc_to_csr_arrays(ut)
    levels = solve_levels(indptr, cols, n)
    # dense panel of B^T: shape (n, m)
    w = ws.dense("a", (n, m), b.data.dtype)
    rows_b, cols_b = b.rows_cols()
    w[cols_b, rows_b] = b.data
    for lev in levels:
        for r in lev:
            r = int(r)
            sl = slice(int(indptr[r]), int(indptr[r + 1]))
            cs = cols[sl]
            vv = vals[sl]
            strict = cs < r
            if strict.any():
                w[r, :] -= vv[strict] @ w[cs[strict], :]
            dpos = int(np.searchsorted(cs, r))
            if dpos >= cs.size or cs[dpos] != r or vv[dpos] == 0.0:
                raise SingularBlockError(f"zero/missing U diagonal at {r}")
            w[r, :] /= vv[dpos]
    b.data[...] = w[cols_b, rows_b]


def tstrf_g_v3(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Compiled dense-panel solve (GPU V3): SciPy triangular solve on
    ``U^T · X^T = B^T``."""
    ut = _upper_transposed(diag)
    n = ut.ncols
    m = b.nrows
    w = ws.dense("a", (n, m), b.data.dtype)
    rows_b, cols_b = b.rows_cols()
    w[cols_b, rows_b] = b.data
    ut_csr = sp.csc_matrix(
        (ut.data, ut.indices, ut.indptr), shape=ut.shape
    ).tocsr()
    x = spla.spsolve_triangular(ut_csr, w, lower=True, unit_diagonal=False)
    b.data[...] = x[cols_b, rows_b]


TSTRF_VARIANTS = {
    "C_V1": tstrf_c_v1,
    "C_V2": tstrf_c_v2,
    "G_V1": tstrf_g_v1,
    "G_V2": tstrf_g_v2,
    "G_V3": tstrf_g_v3,
}

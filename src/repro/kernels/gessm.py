"""GESSM — sparse lower-triangular solve ``L·X = B`` on a block column.

After GETRF factors the diagonal block ``D`` (strict lower = unit-lower
``L``), GESSM turns every block ``B`` in the same block *column* into the
corresponding block of ``U`` by solving ``L·X = B`` in place.

The five variants follow Table 1 of the paper:

=======  ==========  ==========================  =============
version  addressing  parallelising method        dense mapping
=======  ==========  ==========================  =============
C_V1     Merge       column-wise                 no
C_V2     Direct      one GEMM on the inverse     yes
G_V1     Bin-search  warp-level column           no
G_V2     Bin-search  un-sync warp-level row      no
G_V3     Direct      warp-level column           yes
=======  ==========  ==========================  =============
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..sparse.csc import CSCMatrix
from .base import (
    Workspace,
    csc_to_csr_arrays,
    gather_dense,
    scatter_dense,
    serial_matmul,
    solve_levels,
    split_lu,
    triangle_inverse,
)
from .plans import SolvePlan, run_gessm_plan

__all__ = [
    "gessm_c_v1",
    "gessm_c_v2",
    "gessm_g_v1",
    "gessm_g_v2",
    "gessm_g_v3",
    "GESSM_VARIANTS",
]


def _strict_lower_cols(diag: CSCMatrix, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices/values of the strictly-lower part of column ``t`` of a
    factored diagonal block (the ``L`` multipliers of pivot ``t``)."""
    sl = diag.col_slice(t)
    rows = diag.indices[sl]
    start = int(np.searchsorted(rows, t + 1))
    return rows[start:], diag.data[sl][start:]


def gessm_c_v1(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, plan: SolvePlan | None = None
) -> None:
    """Merge-addressed column solve (CPU V1).

    Pure sparse forward substitution; update targets are located by merging
    the pivot's L-column index list with the B-column index list
    (``numpy.intersect1d`` on sorted-unique arrays) — or read from
    ``plan``, the block pair's precomputed solve order, when the caller
    holds one (same operations in the same order).
    """
    if plan is not None:
        return run_gessm_plan(plan, diag, b)
    for c in range(b.ncols):
        sl = b.col_slice(c)
        rows_c = b.indices[sl]
        vals_c = b.data[sl]
        for p in range(rows_c.size):
            xt = vals_c[p]
            if xt == 0.0:
                continue
            t = int(rows_c[p])
            l_rows, l_vals = _strict_lower_cols(diag, t)
            if l_rows.size == 0:
                continue
            common, pos_l, pos_c = np.intersect1d(
                l_rows, rows_c, assume_unique=True, return_indices=True
            )
            if common.size:
                vals_c[pos_c] -= l_vals[pos_l] * xt


def gessm_c_v2(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, inv: np.ndarray | None = None
) -> None:
    """Dense-mapped solve (CPU V2, "Direct"): scatter ``B``, one GEMM
    with the dense inverse of the unit-lower ``L``, gather.  ``inv`` is
    that inverse when the caller holds one (the factorisation's panel
    cache builds it once per diagonal block); accuracy: see
    :func:`~repro.kernels.base.triangle_inverse`."""
    if inv is None:
        inv = triangle_inverse(diag, lower=True)
    w = ws.dense("a", b.shape, b.data.dtype)
    scatter_dense(b, w)
    gather_dense(b, serial_matmul(inv, w))


def gessm_g_v1(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, plan: SolvePlan | None = None
) -> None:
    """Bin-search column solve (GPU V1, "warp-level column").

    Like :func:`gessm_c_v1` but targets are located with ``searchsorted``
    into the B column's pattern (binary search rather than a full merge) —
    cheaper when the L columns are much shorter than the B columns.
    ``plan``: as for :func:`gessm_c_v1`.
    """
    if plan is not None:
        return run_gessm_plan(plan, diag, b)
    for c in range(b.ncols):
        sl = b.col_slice(c)
        rows_c = b.indices[sl]
        vals_c = b.data[sl]
        for p in range(rows_c.size):
            xt = vals_c[p]
            if xt == 0.0:
                continue
            t = int(rows_c[p])
            l_rows, l_vals = _strict_lower_cols(diag, t)
            if l_rows.size == 0:
                continue
            pos = np.searchsorted(rows_c, l_rows)
            valid = pos < rows_c.size
            np.minimum(pos, rows_c.size - 1, out=pos)
            valid &= rows_c[pos] == l_rows
            vals_c[pos[valid]] -= l_vals[valid] * xt


def gessm_g_v2(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Level-scheduled row solve (GPU V2, "un-sync warp-level row").

    Computes the level sets of the triangular-solve DAG of ``L`` and
    processes one level at a time on a dense panel; rows inside a level
    are independent (this is the synchronisation-free row algorithm of
    SFLU applied to the solve).
    """
    n, m = b.shape
    l, _ = split_lu(diag)
    indptr, cols, vals = csc_to_csr_arrays(l)
    levels = solve_levels(indptr, cols, n)
    w = ws.dense("a", (n, m), b.data.dtype)
    scatter_dense(b, w)
    for lev in levels:
        for r in lev:
            r = int(r)
            sl = slice(int(indptr[r]), int(indptr[r + 1]))
            cs = cols[sl]
            strict = cs < r
            if strict.any():
                w[r, :] -= vals[sl][strict] @ w[cs[strict], :]
    gather_dense(b, w)


def gessm_g_v3(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Compiled dense-panel solve (GPU V3, "Direct warp-level column").

    Offloads to SciPy's compiled sparse triangular solve on a dense
    right-hand side — the analogue of handing the panel to a vendor
    library: a conversion/launch overhead up front, the highest throughput
    on large dense-ish panels.
    """
    n, m = b.shape
    l, _ = split_lu(diag)
    w = ws.dense("a", (n, m), b.data.dtype)
    scatter_dense(b, w)
    lc = sp.csr_matrix(
        (l.data, l.indices, l.indptr), shape=l.shape
    ).T.tocsr()  # CSC arrays reinterpreted then transposed -> true CSR of L
    x = spla.spsolve_triangular(lc, w, lower=True, unit_diagonal=True)
    gather_dense(b, x)


GESSM_VARIANTS = {
    "C_V1": gessm_c_v1,
    "C_V2": gessm_c_v2,
    "G_V1": gessm_g_v1,
    "G_V2": gessm_g_v2,
    "G_V3": gessm_g_v3,
}

"""GETRF — in-place sparse LU factorisation of a diagonal block.

The three variants follow Table 1 of the paper:

=======  ==========  ====================  =============
version  addressing  parallelising method  dense mapping
=======  ==========  ====================  =============
C_V1     Direct      row-wise              yes
G_V1     Bin-search  un-synchronised SFLU  no
G_V2     Direct      un-synchronised SFLU  yes
=======  ==========  ====================  =============

All variants factor the block ``A = L·U`` in place: afterwards the strict
lower triangle holds ``L`` (unit diagonal implicit) and the upper triangle
plus diagonal holds ``U``.  No pivoting — stability comes from the MC64
preprocessing (static pivoting), with an optional tiny-pivot replacement
mirroring SuperLU's GESP when ``pivot_floor > 0``.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from .base import (
    SingularBlockError,
    TargetImage,
    Workspace,
    dense_getrf,
    fix_pivot,
    gather_dense,
)
from .plans import GETRFPlan, run_getrf_plan

__all__ = ["getrf_c_v1", "getrf_g_v1", "getrf_g_v2", "GETRF_VARIANTS"]


def getrf_c_v1(
    block: CSCMatrix, ws: Workspace, *, pivot_floor: float = 0.0,
    image: TargetImage | None = None,
) -> int:
    """Dense-mapped right-looking LU (CPU V1, "Direct" + "Row" in Table 1).

    Densifies the block into a :class:`~repro.kernels.base.TargetImage`
    — or, handed the block's dense ``image`` (the one its Schur updates
    accumulated in), works on that — factors it with
    :func:`~repro.kernels.base.dense_getrf` (one LAPACK ``getrf`` where
    it pivots nowhere, else the rank-1-update loop), gathers back; the
    factored image stays in ``image``.  Wins whenever the block is not
    tiny: the O(n³/3) dense work is one BLAS call against a sparse
    loop's Python step per column.
    """
    w = (TargetImage(block, None) if image is None else image).dense
    scale = (float(np.abs(w).max()) if w.size else 0.0) or 1.0
    replaced = dense_getrf(w, pivot_floor, scale)
    gather_dense(block, w)
    return replaced


def getrf_g_v1(
    block: CSCMatrix, ws: Workspace, *, pivot_floor: float = 0.0,
    plan: GETRFPlan | None = None,
) -> int:
    """Sparse left-looking LU with bin-search addressing (GPU V1, SFLU-style).

    Processes columns left to right; each column ``j`` is updated by every
    factored column ``t`` appearing in its own pattern (``t < j``), locating
    the update targets with ``searchsorted`` into column ``j``'s index list.
    Never touches a dense workspace — the fast choice for very sparse
    blocks.  ``plan`` is the block's precomputed schedule when the caller
    holds one (same operations in the same order, addresses looked up
    once per pattern instead of once per call).
    """
    if plan is not None:
        return run_getrf_plan(plan, block, pivot_floor=pivot_floor)
    n = block.ncols
    indptr, indices, data = block.indptr, block.indices, block.data
    scale = (float(np.abs(data).max()) if data.size else 0.0) or 1.0
    replaced = 0
    for j in range(n):
        lo, hi = int(indptr[j]), int(indptr[j + 1])
        rows_j = indices[lo:hi]
        vals_j = data[lo:hi]
        diag_pos = int(np.searchsorted(rows_j, j))
        # left-looking update: for each upper entry t (< j) in this column,
        # in increasing row order, apply column t of L
        for p in range(diag_pos):
            t = int(rows_j[p])
            xt = vals_j[p]
            if xt == 0.0:
                continue
            lo_t, hi_t = int(indptr[t]), int(indptr[t + 1])
            rows_t = indices[lo_t:hi_t]
            start = int(np.searchsorted(rows_t, t + 1))
            l_rows = rows_t[start:hi_t - lo_t]
            if l_rows.size == 0:
                continue
            l_vals = data[lo_t + start : hi_t]
            pos = np.searchsorted(rows_j, l_rows)
            valid = pos < rows_j.size
            # fill closure guarantees structural targets exist; the mask
            # only guards numerically-impossible positions
            np.minimum(pos, rows_j.size - 1, out=pos)
            valid &= rows_j[pos] == l_rows
            vals_j[pos[valid]] -= l_vals[valid] * xt
        if diag_pos >= rows_j.size or rows_j[diag_pos] != j:
            raise SingularBlockError(f"missing structural pivot at column {j}")
        piv, rep = fix_pivot(float(vals_j[diag_pos]), pivot_floor, scale)
        replaced += rep
        vals_j[diag_pos] = piv
        if diag_pos + 1 < rows_j.size:
            vals_j[diag_pos + 1 :] /= piv
    return replaced


def getrf_g_v2(
    block: CSCMatrix, ws: Workspace, *, pivot_floor: float = 0.0,
    plan: GETRFPlan | None = None,
) -> int:
    """Sparse left-looking LU with a dense column workspace (GPU V2).

    Same traversal as :func:`getrf_g_v1` but each column is scattered into
    a dense vector so updates use direct addressing — the paper's "Direct"
    + "Un-sync SFLU" combination, best at medium densities.  ``plan``:
    as for :func:`getrf_g_v1`, whose arithmetic this variant shares.
    """
    if plan is not None:
        return run_getrf_plan(plan, block, pivot_floor=pivot_floor)
    n = block.ncols
    indptr, indices, data = block.indptr, block.indices, block.data
    scale = (float(np.abs(data).max()) if data.size else 0.0) or 1.0
    replaced = 0
    x = ws.vector(n, data.dtype)
    for j in range(n):
        lo, hi = int(indptr[j]), int(indptr[j + 1])
        rows_j = indices[lo:hi]
        vals_j = data[lo:hi]
        x[rows_j] = vals_j
        diag_pos = int(np.searchsorted(rows_j, j))
        for p in range(diag_pos):
            t = int(rows_j[p])
            xt = x[t]
            if xt == 0.0:
                continue
            lo_t, hi_t = int(indptr[t]), int(indptr[t + 1])
            rows_t = indices[lo_t:hi_t]
            start = int(np.searchsorted(rows_t, t + 1))
            if start < rows_t.size:
                x[rows_t[start:]] -= data[lo_t + start : hi_t] * xt
        if diag_pos >= rows_j.size or rows_j[diag_pos] != j:
            raise SingularBlockError(f"missing structural pivot at column {j}")
        piv, rep = fix_pivot(float(x[j]), pivot_floor, scale)
        replaced += rep
        x[j] = piv
        below = rows_j[diag_pos + 1 :]
        if below.size:
            x[below] /= piv
        vals_j[...] = x[rows_j]
        x[rows_j] = 0.0
    return replaced


GETRF_VARIANTS = {
    "C_V1": getrf_c_v1,
    "G_V1": getrf_g_v1,
    "G_V2": getrf_g_v2,
}

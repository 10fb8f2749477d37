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

Each addressing method is written once, for a triangular matrix ``T``
that is either the unit ``L`` or the non-unit ``Uᵀ`` of the diagonal
block (:func:`~repro.kernels.base.triangle`): :func:`panel_sweep`
(``C_V1`` / ``G_V1``), :func:`panel_levels` (``G_V2``) and
:func:`panel_compiled` (``G_V3``).  The TSTRF variants of
:mod:`repro.kernels.tstrf` are these on the pair ``(Uᵀ, Bᵀ)``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..sparse.csc import CSCMatrix
from .base import (
    SingularBlockError,
    TargetImage,
    Triangle,
    Workspace,
    locate,
    serial_matmul,
    solve_levels,
    triangle,
    triangle_inverse,
)
from .plans import SolvePlan, run_solve_plan

__all__ = [
    "gessm_c_v1",
    "gessm_c_v2",
    "gessm_g_v1",
    "gessm_g_v2",
    "gessm_g_v3",
    "GESSM_VARIANTS",
    "panel_sweep",
    "panel_levels",
    "panel_compiled",
    "panel_dense",
    "panel_inverse",
]


def _divisor(tri: Triangle, t: int):
    """The diagonal entry a non-unit triangle divides pivot ``t`` by."""
    d = tri.div[t]
    if d < 0 or tri.data[d] == 0.0:
        raise SingularBlockError(f"zero/missing U diagonal at {t}")
    return tri.data[d]


def panel_sweep(tri: Triangle, b: CSCMatrix, *, merge: bool) -> None:
    """Sparse forward substitution ``T·X = B`` in place on ``b``, column
    by column: per stored entry ``x_t`` — divided by ``T``'s diagonal
    when it has one — the strict column ``t`` of ``T`` is eliminated from
    the rest of the column.  Update targets are located by merging the
    two sorted index lists (``numpy.intersect1d``, Table 1's "Merge") or
    by binary search into the column's pattern (``searchsorted`` plus a
    validity mask, "Bin-search" — cheaper when ``T``'s columns are much
    shorter than ``B``'s)."""
    indptr, t_rows = tri.indptr, tri.indices
    t_vals = tri.data[tri.src]
    for c in range(b.ncols):
        sl = b.col_slice(c)
        rows_c = b.indices[sl]
        vals_c = b.data[sl]
        for p in range(rows_c.size):
            t = int(rows_c[p])
            xt = vals_c[p]
            if tri.div is not None:
                xt = vals_c[p] = xt / _divisor(tri, t)
            lo, hi = indptr[t], indptr[t + 1]
            if xt == 0.0 or lo == hi:
                continue
            l_rows, l_vals = t_rows[lo:hi], t_vals[lo:hi]
            if merge:
                common, pos_l, pos_c = np.intersect1d(
                    l_rows, rows_c, assume_unique=True, return_indices=True
                )
                if common.size:
                    vals_c[pos_c] -= l_vals[pos_l] * xt
            else:
                pos, valid = locate(l_rows, rows_c)
                vals_c[pos[valid]] -= l_vals[valid] * xt


def panel_levels(tri: Triangle, w: np.ndarray) -> np.ndarray:
    """Level-scheduled row solve ``T·X = W`` in place on the dense panel
    ``w`` (``tri`` built ``by_rows``): the level sets of the solve DAG,
    one level at a time; rows inside a level are independent — the
    synchronisation-free row algorithm of SFLU applied to the solve."""
    indptr, cols = tri.indptr, tri.indices
    vals = tri.data[tri.src]
    for lev in solve_levels(indptr, cols, w.shape[0]):
        for r in lev:
            r = int(r)
            lo, hi = indptr[r], indptr[r + 1]
            if hi > lo:
                w[r, :] -= vals[lo:hi] @ w[cols[lo:hi], :]
            if tri.div is not None:
                w[r, :] /= _divisor(tri, r)
    return w


def panel_compiled(tri: Triangle, w: np.ndarray) -> np.ndarray:
    """``T⁻¹·W`` by SciPy's compiled sparse triangular solve (``tri``
    built ``by_rows``) — the analogue of handing the panel to a vendor
    library: a conversion/launch overhead up front, the highest
    throughput on large dense-ish panels."""
    n = w.shape[0]
    t = sp.csr_array((tri.data[tri.src], tri.indices, tri.indptr), shape=(n, n))
    if tri.div is not None:
        # a missing diagonal is a zero one: SciPy names the singularity
        t = t + sp.diags_array(np.where(tri.div < 0, 0.0, tri.data[tri.div]))
    return spla.spsolve_triangular(t, w, lower=True, unit_diagonal=tri.div is None)


def panel_dense(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace,
    solve: Callable[[Triangle, np.ndarray], np.ndarray], *, lower: bool,
) -> None:
    """Run a dense-panel row ``solve`` for GESSM (``lower``: ``L`` on the
    panel of ``B``) or TSTRF (``Uᵀ`` on the panel of ``Bᵀ``) and gather
    the result back into ``b``'s pattern."""
    rows, cols = b.rows_cols() if lower else b.rows_cols()[::-1]
    w = ws.dense("a", (diag.ncols, b.ncols if lower else b.nrows), b.data.dtype)
    w[rows, cols] = b.data
    b.data[...] = solve(triangle(diag, lower=lower, by_rows=True), w)[rows, cols]


def gessm_c_v1(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, plan: SolvePlan | None = None
) -> None:
    """Merge-addressed column solve (CPU V1): :func:`panel_sweep` with
    merge addressing — or, handed ``plan``, the block pair's precomputed
    solve order, the same operations in the same order read from it."""
    if plan is not None:
        return run_solve_plan(plan, diag, b)
    panel_sweep(triangle(diag, lower=True), b, merge=True)


def panel_inverse(
    diag: CSCMatrix, b: CSCMatrix, *, lower: bool, inv: np.ndarray | None,
    image: TargetImage | None,
) -> None:
    """The dense-mapped solve of GESSM (``lower``: ``L⁻¹·B``, on the
    image of ``B``'s occupied columns) or TSTRF (``B·U⁻¹``, on its
    occupied rows; :func:`~repro.kernels.base.box_image`): one GEMM with
    the dense inverse of the triangle, gathered back at ``B``'s pattern.
    ``inv`` is that inverse when the caller holds one (the
    factorisation's panel cache reads it from the diagonal block's kept
    inverse); ``image`` is ``B``'s image when the caller holds it (the
    :class:`~repro.kernels.base.TargetImage` its Schur updates
    accumulated in), else one is made for the call.  The image takes
    the product: the box image of the solved panel its readers
    multiply.  Accuracy: see
    :func:`~repro.kernels.base.triangle_inverse`."""
    inv = triangle_inverse(diag, lower=lower) if inv is None else inv
    image = TargetImage(b, 1 if lower else 0) if image is None else image
    w = image.dense
    image.dense = serial_matmul(inv, w) if lower else serial_matmul(w, inv)
    image.write_to(b)


def gessm_c_v2(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, inv: np.ndarray | None = None,
    image: TargetImage | None = None,
) -> None:
    """Dense-mapped solve (CPU V2, "Direct"): one GEMM of the dense
    inverse of the unit-lower ``L`` with the image of ``B``'s occupied
    columns (:func:`panel_inverse`)."""
    panel_inverse(diag, b, lower=True, inv=inv, image=image)


def gessm_g_v1(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, plan: SolvePlan | None = None
) -> None:
    """Bin-search column solve (GPU V1, "warp-level column"):
    :func:`panel_sweep` with bin-search addressing; ``plan``: as for
    :func:`gessm_c_v1`."""
    if plan is not None:
        return run_solve_plan(plan, diag, b)
    panel_sweep(triangle(diag, lower=True), b, merge=False)


def gessm_g_v2(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Level-scheduled row solve (GPU V2, "un-sync warp-level row"):
    :func:`panel_levels` on the dense panel of ``B``."""
    panel_dense(diag, b, ws, panel_levels, lower=True)


def gessm_g_v3(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Compiled dense-panel solve (GPU V3, "Direct warp-level column"):
    :func:`panel_compiled` on the dense panel of ``B``."""
    panel_dense(diag, b, ws, panel_compiled, lower=True)


GESSM_VARIANTS = {
    "C_V1": gessm_c_v1,
    "C_V2": gessm_c_v2,
    "G_V1": gessm_g_v1,
    "G_V2": gessm_g_v2,
    "G_V3": gessm_g_v3,
}

"""SSSSM — Schur-complement update ``C ← C − A·B`` with sparse operands.

``A`` is a block of ``L`` (from TSTRF), ``B`` a block of ``U`` (from
GESSM), and ``C`` the target block whose fixed symbolic pattern is
guaranteed (by fill closure) to contain the structural product pattern.
This is where the paper's "sparse rather than dense BLAS" argument lives:
supernodal solvers gather blocks into dense panels and run GEMM including
all the padding zeros; these kernels multiply only the stored entries.

The four variants follow Table 1 of the paper:

=======  ==========  =================================  =============
version  addressing  parallelising method               dense mapping
=======  ==========  =================================  =============
C_V1     Direct      one GEMM on the occupied box of    A, B and C
                     A's rows × B's columns, subtracted
                     in place from C's dense image
C_V2     Bin-search  adaptive split-bin                 no
G_V1     Bin-search  adaptive multi-level               no
G_V2     Direct      warp-level column                  C only
=======  ==========  =================================  =============
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..sparse.csc import CSCMatrix
from .base import (
    TargetImage, Workspace, box_image, box_index, gather_dense, locate,
    scatter_dense, serial_matmul,
)
from .plans import SSSSMPlan, run_ssssm_plan

__all__ = [
    "ssssm_c_v1",
    "ssssm_c_v2",
    "ssssm_g_v1",
    "ssssm_g_v2",
    "SSSSM_VARIANTS",
]


def ssssm_c_v1(
    c: CSCMatrix, a: CSCMatrix, b: CSCMatrix, ws: Workspace, *,
    a_dense: tuple | None = None, b_dense: tuple | None = None,
    image: TargetImage | None = None,
) -> None:
    """Dense GEMM on dense-mapped operands and target (CPU V1, "Direct").

    One GEMM on the occupied box: ``A``'s occupied rows × ``B``'s
    occupied columns (:func:`~repro.kernels.base.box_image`, axis 0 and
    1).  ``a_dense`` / ``b_dense`` are those ``(pos, dense)`` images when
    the caller holds them (the factorisation's panel cache keeps each
    solved panel's :class:`~repro.kernels.base.TargetImage`, which reads
    as one), with the rows (columns) each holds as a third element
    (:attr:`TargetImage.held <repro.kernels.base.TargetImage>`) — which a
    caller that hands ``image`` must give.

    Handed ``C``'s dense ``image`` (a
    :class:`~repro.kernels.base.TargetImage`, kept by the factorisation
    from ``C``'s first update to its panel task), the product is
    subtracted from it in place on the operands' rows × columns, and
    ``C``'s values are not touched.  Without it the product is gathered
    at ``C``'s pattern through the images' ``pos`` maps and subtracted
    from ``C``'s values, so ``C`` is never densified; an entry of ``C``
    outside the box reads the sentinel zero.  Each entry of ``C`` gets
    the same products either way.  Wins when the blocks are dense
    (audikw_1-style matrices) — where supernodal dense BLAS is
    competitive.
    """
    pa, a_img = box_image(a, 0) if a_dense is None else a_dense[:2]
    pb, b_img = box_image(b, 1) if b_dense is None else b_dense[:2]
    product = serial_matmul(a_img, b_img)
    if image is None:
        rows, cols = c.rows_cols()
        c.data[...] -= product[box_index(pa, rows), box_index(pb, cols)]
        return
    ra, rb = a_dense[2], b_dense[2]
    tr, tc = image.index(ra, 0), image.index(rb, 1)
    if not (isinstance(tr, slice) or isinstance(tc, slice)):
        tr = tr[:, None]    # rows × columns, as np.ix_ without its checks
    # the operands' sentinel row and column (zero products) are left out
    image.dense[tr, tc] -= product[
        : None if ra is None else ra.size, : None if rb is None else rb.size
    ]


def ssssm_c_v2(
    c: CSCMatrix, a: CSCMatrix, b: CSCMatrix, ws: Workspace, *,
    plan: SSSSMPlan | None = None,
) -> None:
    """Bin-search scatter (CPU V2, "adaptive split-bin").

    Fully sparse: for every entry ``B[t, j]`` the column ``A[:, t]`` is
    accumulated into ``C[:, j]``, locating targets by binary search in
    ``C``'s fixed column pattern.  Cheapest at very low FLOP counts.
    ``plan`` is the block triple's flattened scatter map when the caller
    holds one: the same products subtracted in the same order, as one
    multiply and one ordered scatter.
    """
    if plan is not None:
        return run_ssssm_plan(plan, c, a, b)
    c_indptr, c_indices, c_data = c.indptr, c.indices, c.data
    a_indptr, a_indices, a_data = a.indptr, a.indices, a.data
    for j in range(b.ncols):
        slb = b.col_slice(j)
        b_rows = b.indices[slb]
        b_vals = b.data[slb]
        if b_rows.size == 0:
            continue
        lo, hi = int(c_indptr[j]), int(c_indptr[j + 1])
        rows_cj = c_indices[lo:hi]
        for p in range(b_rows.size):
            v = b_vals[p]
            if v == 0.0:
                continue
            t = int(b_rows[p])
            lo_a, hi_a = int(a_indptr[t]), int(a_indptr[t + 1])
            if lo_a == hi_a:
                continue
            av = a_data[lo_a:hi_a]
            pos, valid = locate(a_indices[lo_a:hi_a], rows_cj)
            c_data[lo + pos[valid]] -= av[valid] * v


def ssssm_g_v1(c: CSCMatrix, a: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Compiled SpGEMM + pattern merge (GPU V1, "adaptive multi-level").

    Offloads the product to SciPy's compiled sparse×sparse kernel, then
    merges the product into ``C``'s pattern with one vectorised
    ``searchsorted`` per column.  The launch/conversion overhead is the
    analogue of a GPU kernel launch; throughput dominates at high FLOPs.
    """
    asp = sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape, copy=False)
    bsp = sp.csc_matrix((b.data, b.indices, b.indptr), shape=b.shape, copy=False)
    p = (asp @ bsp).tocsc()
    p.sort_indices()
    c_indptr, c_indices, c_data = c.indptr, c.indices, c.data
    for j in range(c.ncols):
        lo_p, hi_p = int(p.indptr[j]), int(p.indptr[j + 1])
        if lo_p == hi_p:
            continue
        pv = p.data[lo_p:hi_p]
        lo, hi = int(c_indptr[j]), int(c_indptr[j + 1])
        pos, valid = locate(p.indices[lo_p:hi_p], c_indices[lo:hi])
        c_data[lo + pos[valid]] -= pv[valid]


def ssssm_g_v2(
    c: CSCMatrix, a: CSCMatrix, b: CSCMatrix, ws: Workspace, *,
    plan: SSSSMPlan | None = None,
) -> None:
    """Dense-C accumulation (GPU V2, "Direct warp-level column").

    Only the *target* is dense-mapped; the product is accumulated column
    by column with direct (dense) addressing — no searches, no full GEMM.
    Strong when ``C`` is dense but ``A``/``B`` are sparse.  ``plan``: as
    for :func:`ssssm_c_v2`, whose arithmetic this variant shares.
    """
    if plan is not None:
        return run_ssssm_plan(plan, c, a, b)
    wc = ws.dense("c", c.shape, c.data.dtype)
    scatter_dense(c, wc)
    a_indptr, a_indices, a_data = a.indptr, a.indices, a.data
    for j in range(b.ncols):
        slb = b.col_slice(j)
        b_rows = b.indices[slb]
        b_vals = b.data[slb]
        col = wc[:, j]
        for p in range(b_rows.size):
            v = b_vals[p]
            if v == 0.0:
                continue
            t = int(b_rows[p])
            lo_a, hi_a = int(a_indptr[t]), int(a_indptr[t + 1])
            if lo_a == hi_a:
                continue
            col[a_indices[lo_a:hi_a]] -= a_data[lo_a:hi_a] * v
    gather_dense(c, wc)


SSSSM_VARIANTS = {
    "C_V1": ssssm_c_v1,
    "C_V2": ssssm_c_v2,
    "G_V1": ssssm_g_v1,
    "G_V2": ssssm_g_v2,
}

"""Triangular-solve kernels — the phase-5 analogues of Table 1.

The scheduler-driven triangular solve (see :mod:`repro.core.tsolve_dag`)
executes two kernel roles over RHS *segments* of the block layout, and
this module is those two functions:

* :func:`diag_seg` — the within-block solve with one triangle of a
  factored diagonal block: ``L⁻¹`` (forward) and ``U⁻¹`` (backward) in a
  solve with ``A``, ``U⁻ᵀ`` and ``L⁻ᵀ`` in a solve with ``Aᵀ``
  (``(LU)ᵀ = Uᵀ Lᵀ``).  Each is one product with the dense inverse of
  that triangle (:func:`~repro.kernels.base.triangle_inverse`,
  SuperLU_DIST's ``DiagInv``), the only BLAS route
  ``docs/trsm_threading.md`` allows;
* :func:`upd_seg` — the off-diagonal update ``tgt −= blk · src``
  (``blkᵀ · src`` when transposed), pushing a solved segment through an
  ``L`` or a ``U`` block: a scatter over stored entries for a vector,
  one product with the block's occupied-box image for a panel.

Both accept a vector segment or a 2-D multi-RHS panel and write only
their designated output segment (``diag_seg``: second parameter,
``upd_seg``: first), the convention the ``kernel-purity`` lint rule
enforces.  Both are **stateless**: the inverse lives for one call (kept
per block it would cost +12 % peak RSS on the 2-D grid workload, and a
forked rank would lose it with every sweep anyway), and the scatter
addressing of a vector update is the column expansion the block caches
(:meth:`CSCMatrix.cols_expanded <repro.sparse.csc.CSCMatrix.cols_expanded>`),
shared with the numeric phase's dense scatter/gather.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from .base import box_image, serial_matmul, triangle_inverse

__all__ = ["diag_seg", "upd_seg"]


def diag_seg(
    diag: CSCMatrix, seg: np.ndarray, *, lower: bool, transposed: bool = False
) -> None:
    """In-place ``seg ← M · seg`` with ``M`` the inverse of the unit-lower
    ``L`` (``lower=True``) or the upper ``U`` of a factored diagonal
    block, transposed on request.  ``seg`` may be a vector or a 2-D
    multi-RHS panel (one GEMV / one single-threaded GEMM).

    The inverse is taken in float64 whatever the factor dtype — the RHS
    segments are float64, and a float32 inverse would be re-cast by every
    product.  A zero or structurally missing ``U`` diagonal raises
    :class:`~repro.kernels.base.SingularBlockError` naming the column.
    """
    inv = triangle_inverse(diag, lower=lower, dtype=np.float64)
    if transposed:
        inv = inv.T
    seg[...] = serial_matmul(inv, seg) if seg.ndim == 2 else inv @ seg


def upd_seg(
    tgt: np.ndarray, blk: CSCMatrix, src: np.ndarray, *, transposed: bool = False
) -> None:
    """``tgt −= blk @ src`` over stored entries only (vector or panel):
    the push of a solved segment through an off-diagonal block.  With
    ``transposed`` it is ``tgt −= blkᵀ @ src`` — the same entries,
    gathered by row index and scattered by column.

    A vector is one scatter of the stored products; a 2-D panel one
    product with the block's :func:`~repro.kernels.base.box_image` on
    the rows it writes (the columns, transposed), gathered through its
    ``pos`` map."""
    if src.ndim == 2:
        pos, image = box_image(blk, 1 if transposed else 0)
        image = image.astype(src.dtype, copy=False)
        prod = serial_matmul(image.T if transposed else image, src)
        tgt -= prod if pos is None else prod[pos]
        return
    into, frm = blk.indices, blk.cols_expanded()
    if transposed:
        into, frm = frm, into
    np.subtract.at(tgt, into, blk.data * src[frm])

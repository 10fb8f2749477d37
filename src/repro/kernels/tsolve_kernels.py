"""Triangular-solve kernels — the phase-5 analogues of Table 1.

The scheduler-driven triangular solve (see :mod:`repro.core.tsolve_dag`)
gathers one RHS *segment* per task, out of two kernel roles:

* :func:`diag_seg` — the within-block solve with one triangle of a
  factored diagonal block: ``L⁻¹`` (forward) and ``U⁻¹`` (backward) in a
  solve with ``A``, ``U⁻ᵀ`` and ``L⁻ᵀ`` in a solve with ``Aᵀ``
  (``(LU)ᵀ = Uᵀ Lᵀ``).  Each is one product with the dense inverse of
  that triangle (:func:`~repro.kernels.base.triangle_inverse`,
  SuperLU_DIST's ``DiagInv``), the only BLAS route
  ``docs/trsm_threading.md`` allows;
* :func:`prod_seg` — one off-diagonal block's product ``blk · src``
  (``blkᵀ · src`` when transposed) with a solved segment: one
  ``bincount`` over stored entries for a vector, one product with the
  block's occupied-box image for a panel.

Both accept a vector segment or a 2-D multi-RHS panel and write only
their designated output (``diag_seg``: second parameter, ``prod_seg``:
first), the convention the ``kernel-purity`` lint rule enforces.  Both
are **stateless**: the inverse lives for one call (kept per block it
would cost +12 % peak RSS on the 2-D grid workload, and a forked rank
would lose it with every sweep anyway), and the addressing of a vector
product is the column expansion the block caches
(:meth:`CSCMatrix.cols_expanded <repro.sparse.csc.CSCMatrix.cols_expanded>`),
shared with the numeric phase's dense scatter/gather.  A product's
numbers depend on the block and the segment only, never on which lane
or rank computes it.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from .base import box_image, serial_matmul, triangle_inverse

__all__ = ["diag_seg", "prod_seg"]


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
    inv = inv.T if transposed else inv
    seg[...] = serial_matmul(inv, seg) if seg.ndim == 2 else inv @ seg


def prod_seg(
    out: np.ndarray, blk: CSCMatrix, src: np.ndarray, *, transposed: bool = False
) -> None:
    """``out ← blk @ src`` over stored entries only (vector or panel):
    one block's share of a segment's gather.  With ``transposed`` it is
    ``out ← blkᵀ @ src`` — the same entries, gathered by row index and
    summed by column.

    A vector is one ``bincount`` of the stored products; a 2-D panel one
    product with the block's :func:`~repro.kernels.base.box_image` on
    the rows it writes (the columns, transposed), gathered through its
    ``pos`` map."""
    if src.ndim == 2:
        pos, image = box_image(blk, 1 if transposed else 0)
        image = (image.T if transposed else image).astype(src.dtype, copy=False)
        prod = serial_matmul(image, src)
        out[...] = prod if pos is None else prod[pos]
        return
    rows, cols = blk.rows_cols()
    into, frm = (cols, rows) if transposed else (rows, cols)
    out[...] = np.bincount(into, weights=blk.data * src[frm], minlength=len(out))

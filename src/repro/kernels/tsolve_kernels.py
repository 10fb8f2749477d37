"""Triangular-solve kernels — the phase-5 analogues of Table 1.

The scheduler-driven triangular solve (see :mod:`repro.core.tsolve_dag`)
gathers one RHS *segment* per task, out of two kernel roles:

* :func:`diag_seg` — the within-block solve with one triangle of a
  factored diagonal block: ``L⁻¹`` (forward) and ``U⁻¹`` (backward) in a
  solve with ``A``, ``U⁻ᵀ`` and ``L⁻ᵀ`` in a solve with ``Aᵀ``
  (``(LU)ᵀ = Uᵀ Lᵀ``).  Each is one product with a triangle of the
  block's **kept packed inverse**
  (:meth:`BlockMatrix.diag_inverse <repro.core.blocking.BlockMatrix.diag_inverse>`,
  SuperLU_DIST's ``DiagInv``): the factorisation inverted the block once,
  on the image its ``GETRF`` factored, and the solve never inverts
  anything.  One product is the only BLAS route
  ``docs/trsm_threading.md`` allows;
* :func:`prod_stack` — the products of a block row (block column,
  transposed) with its solved segments, stacked: for a vector one
  ``bincount`` over the row's stored entries, keyed by ``(position in
  the stack, row)``; for an ``(n, k)`` panel one product per block with
  its occupied-box image.

``diag_seg`` writes only its segment (its second parameter) and
``prod_stack`` returns its stack, the convention the ``kernel-purity``
lint rule enforces.  A product's numbers depend on the block and the
segment only, never on which lane or rank computes it, and a stacked
``bincount`` sums each cell over its one block's entries in their
stored order, as a per-block one would.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from .base import Workspace, box_image, serial_matmul

__all__ = ["diag_seg", "prod_stack"]


def diag_seg(
    inv: np.ndarray, seg: np.ndarray, ws: Workspace, *, lower: bool,
    transposed: bool = False,
) -> None:
    """In-place ``seg ← M · seg`` with ``M`` one triangle of ``inv``, the
    packed float64 inverse of a factored diagonal block
    (:func:`~repro.kernels.base.invert_factors`): ``L⁻¹``
    (``lower=True``) or ``U⁻¹``, transposed on request, read into the
    lane's workspace (:meth:`~repro.kernels.base.Workspace.triangle`).
    ``seg`` may be a vector or a 2-D multi-RHS panel (one GEMV / one
    single-threaded GEMM)."""
    tri = ws.triangle(inv, lower=lower)
    tri = tri.T if transposed else tri
    seg[...] = serial_matmul(tri, seg) if seg.ndim == 2 else tri @ seg


def prod_stack(
    blocks: list[CSCMatrix], starts: np.ndarray, src: np.ndarray, m: int, *,
    transposed: bool = False,
) -> np.ndarray:
    """The products ``blk @ src[start:]`` (``blkᵀ`` when ``transposed``)
    of ``blocks`` with the segments of ``src`` at ``starts``, stacked in
    the blocks' order, each of ``m`` rows.

    A vector's are one ``bincount`` over every block's stored entries:
    an entry adds into stack cell ``position·m + row`` its product with
    ``src[start + column]`` (row and column swapped when
    ``transposed``) — the blocks' own indices and cached column
    expansions, offset — so each cell sums its one block's entries in
    their stored order.  A panel's are one product per block with its
    :func:`~repro.kernels.base.box_image` on the rows it writes (the
    columns, transposed), gathered through its ``pos`` map."""
    stack = np.empty((len(blocks), m, *src.shape[1:]), dtype=src.dtype)
    if src.ndim == 2 or not blocks:
        for out, start, blk in zip(stack, starts.tolist(), blocks):
            pos, image = box_image(blk, 1 if transposed else 0)
            image = (image.T if transposed else image).astype(src.dtype, copy=False)
            prod = serial_matmul(image, src[start:start + image.shape[1]])
            out[...] = prod if pos is None else prod[pos]
        return stack
    parts = [(blk.indices, blk.cols_expanded(), blk.data) for blk in blocks]
    rows, cols, data = map(np.concatenate, zip(*parts))
    nnz = [blk.nnz for blk in blocks]
    into, frm = (cols, rows) if transposed else (rows, cols)
    into = into + np.repeat(np.arange(len(blocks)) * m, nnz)
    frm = frm + np.repeat(starts, nnz)
    return np.bincount(into, data * src[frm], stack.size).reshape(stack.shape)

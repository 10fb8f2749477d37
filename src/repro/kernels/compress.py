"""COMPRESS kernel family + low-rank SSSSM variants.

The 18th kernel family of the registry (ROADMAP item 3): transition
kernels that move a panel block between its exact CSC form and the
low-rank :class:`~repro.sparse.blockrep.CompressedBlock` overlay, plus
the SSSSM variants that consume compressed operands at
``O((m + n) · rank)`` cost instead of the sparse-product cost.

Compression targets are the GESSM/TSTRF output panels — the near-dense
separator blocks of filled matrices that Zhu & Lai and Li & Liu show
are numerically low-rank.  The compress kernels run inside the same
write-lock window as the panel kernel that produced the block, so the
RaceChecker sees a single writer; the low-rank SSSSM kernels only
*read* the overlay and scatter into the target's stored pattern
(out-of-pattern mass is dropped and recovered by iterative refinement,
exactly like the drop-tolerance semantics of the sparse kernels).

All kernels here are deterministic (the randomised SVD draws a probe
seeded from the block shape) and dtype-generic: a float32 factor block
compresses and multiplies in float32.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp

from ..sparse.blockrep import (
    CompressedBlock,
    lr_profit_cap,
    randomized_svd,
    truncated_svd,
)
from ..sparse.csc import CSCMatrix
from .base import Workspace
from .flops import ssssm_flops_structural

__all__ = [
    "CompressPolicy",
    "COMPRESS_VARIANTS",
    "LR_SSSSM_VARIANTS",
    "compress_svd_v1",
    "compress_rsvd_v1",
    "decompress_v1",
    "ssssm_lr_v1",
    "ssssm_lr_v2",
    "lr_ssssm_flops",
    "try_compress",
]


# ---------------------------------------------------------------------------
# policy


@dataclass(frozen=True)
class CompressPolicy:
    """Resolved compression settings handed to ``execute_task``.

    Built once per factorization by
    :func:`repro.core.numeric.resolve_compress` (``None`` when
    ``compress_tol == 0`` — the bit-identical default path never sees
    this object).  Frozen and picklable so distributed workers can
    reconstruct it from two scalars plus their local selector.

    ``tree`` is the ``KernelType.COMPRESS`` decision tree of the active
    selector (features: ``n`` = min block order, ``density``, ``rank``
    = profitable-rank estimate); ``None`` falls back to exact SVD.
    """

    tol: float
    min_order: int = 32
    tree: Any = field(default=None, compare=False)

    def version_for(self, feats) -> str:
        """Pick the compress-kernel version for one block's features."""
        if self.tree is None:
            return "SVD_V1"
        return self.tree.select(feats)


# ---------------------------------------------------------------------------
# COMPRESS transition kernels


def compress_svd_v1(
    blk: CSCMatrix, tol: float, max_rank: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact truncated-SVD compression of one CSC block.

    Returns ``(u, v)`` factors honouring the relative spectral bound
    ``‖blk − u vᵀ‖₂ ≤ tol · ‖blk‖₂`` with ``rank ≤ max_rank``, or
    ``None`` when no profitable rank meets the tolerance (the caller
    keeps the exact CSC form).  The dense staging array here is the
    unavoidable cost of a rank-revealing factorisation and lives only
    for the duration of the kernel.
    """
    return truncated_svd(blk.to_dense(), tol, max_rank)


def compress_rsvd_v1(
    blk: CSCMatrix, tol: float, max_rank: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Randomised-SVD compression (deterministic seeded range finder).

    Cheaper than :func:`compress_svd_v1` for large blocks with small
    profitable rank; same return contract and tolerance guarantee.
    """
    return randomized_svd(blk.to_dense(), tol, max_rank)


def decompress_v1(cb: CompressedBlock) -> np.ndarray:
    """Expand a compressed block back to a dense array.

    The *only* approved dense round-trip for a compressed block (the
    ``no-dense-roundtrip`` lint rule flags ``.dense()`` everywhere
    else).  Used by the refinement escalation path and by tests that
    check the tolerance bound.
    """
    return cb.dense()


def try_compress(
    blk: CSCMatrix, policy: CompressPolicy, feats=None
) -> CompressedBlock | None:
    """Apply ``policy`` to one exact block; ``None`` when not profitable.

    Enforces the two gates that make compression safe and worthwhile:
    the block order must reach ``min_order``, and the retained rank is
    capped at :func:`~repro.sparse.blockrep.lr_profit_cap` so the
    ``U``/``V`` payload is strictly smaller than the CSC values it
    stands in for (which is also what lets the arena pre-size its
    low-rank slab from the CSC capacity).
    """
    m, n = blk.shape
    if min(m, n) < policy.min_order:
        return None
    cap = lr_profit_cap(m, n, blk.nnz)
    if cap < 1:
        return None
    version = policy.version_for(feats) if feats is not None else "SVD_V1"
    kernel = COMPRESS_VARIANTS.get(version, compress_svd_v1)
    got = kernel(blk, policy.tol, cap)
    if got is None:
        return None
    u, v = got
    return CompressedBlock(shape=(m, n), u=u, v=v, src_nnz=blk.nnz)


# ---------------------------------------------------------------------------
# low-rank SSSSM


def lr_ssssm_flops(c_nnz: int, a, b) -> int:
    """Flop estimate for one low-rank Schur update ``C -= A @ B`` with
    at least one compressed operand — the quantity the ablation bench
    compares against
    :func:`~repro.kernels.flops.ssssm_flops_structural`."""
    a_lr = isinstance(a, CompressedBlock)
    b_lr = isinstance(b, CompressedBlock)
    if a_lr and b_lr:
        ra, rb = a.rank, b.rank
        mid = 2 * ra * rb * a.ncols  # Vaᵀ @ Ub
        left = 2 * a.nrows * ra * rb  # Ua @ mid
        return mid + left + 2 * c_nnz * rb
    if a_lr:
        return 2 * b.nnz * a.rank + 2 * c_nnz * a.rank
    if b_lr:
        return 2 * a.nnz * b.rank + 2 * c_nnz * b.rank
    return ssssm_flops_structural(a, b)


def ssssm_lr_v1(c: CSCMatrix, a, b, ws: Workspace) -> None:
    """Schur update ``C -= A @ B`` with one or two compressed operands.

    Never materialises a dense product: the update is assembled as a
    thin ``left @ right.T`` pair (``left (m, r)``, ``right (n, r)``)
    and scattered straight onto C's stored pattern via the COO index
    views — ``O((m + n) · r)`` storage, ``O(nnz(C) · r)`` scatter.
    Mass outside C's pattern is dropped (recovered by refinement).

    Handles every operand mix defensively; with two exact CSC operands
    it defers to the sparse ``ssssm_c_v2`` kernel so arbitrary callers
    cannot crash on an uncompressed pair.
    """
    a_lr = isinstance(a, CompressedBlock)
    b_lr = isinstance(b, CompressedBlock)
    if not a_lr and not b_lr:
        from .ssssm import ssssm_c_v2

        ssssm_c_v2(c, a, b, ws)
        return
    if c.nnz == 0:
        return
    if a_lr and b_lr:
        mid = a.v.T @ b.u  # (ra, rb) — the tiny core product
        left = a.u @ mid  # (m, rb)
        right = b.v  # (n, rb)
    elif a_lr:
        bsp = sp.csc_matrix((b.data, b.indices, b.indptr), shape=b.shape, copy=False)
        left = a.u  # (m, ra)
        right = bsp.T @ a.v  # (n, ra) == (Vaᵀ B)ᵀ, compiled sparse product
    else:
        asp = sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape, copy=False)
        left = asp @ b.u  # (m, rb)
        right = b.v  # (n, rb)
    if left.shape[1] == 0:
        return
    rows, cols = c.rows_cols()
    c.data[...] -= np.einsum("er,er->e", left[rows], right[cols])


def ssssm_lr_v2(c: CSCMatrix, a, b, ws: Workspace) -> None:
    """Two-compressed-operand variant.

    Same scatter contract as :func:`ssssm_lr_v1`; registered separately
    so the selector tree (and the choice histograms the benches read)
    distinguish the one-operand and two-operand regimes.
    """
    ssssm_lr_v1(c, a, b, ws)


# ---------------------------------------------------------------------------
# registry tables (imported by kernels.registry — keep import-light)

COMPRESS_VARIANTS = {
    "SVD_V1": compress_svd_v1,
    "RSVD_V1": compress_rsvd_v1,
    "EXPAND_V1": decompress_v1,
}

LR_SSSSM_VARIANTS = {
    "LR_V1": ssssm_lr_v1,
    "LR_V2": ssssm_lr_v2,
}

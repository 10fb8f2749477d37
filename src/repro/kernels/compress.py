"""The low-rank panel overlay: one compressor and one Schur update.

A finished GESSM/TSTRF output panel — the near-dense separator blocks of
filled matrices that Zhu & Lai and Li & Liu show are numerically
low-rank — is offered to :func:`try_compress`, which may give it a
truncated ``U @ V.T`` overlay
(:class:`~repro.sparse.blockrep.CompressedBlock`).  An SSSSM whose
``L(i,k)`` or ``U(k,j)`` carries an overlay then runs :func:`ssssm_lr`
at ``O((m + n) · rank)`` cost instead of the sparse-product cost.
Neither is a kernel variant the selector chooses among: whether an
operand carries an overlay is what decides.

The compressor runs inside the task of the panel kernel that produced
the block, the block's last writer by the DAG, so the block keeps a
single writer;
:func:`ssssm_lr` only *reads* the overlay and scatters into the
target's stored pattern (out-of-pattern mass is dropped and recovered
by iterative refinement, exactly like the drop-tolerance semantics of
the sparse kernels).

Both are deterministic (the randomised SVD draws a probe seeded from
the block shape) and dtype-generic: a float32 factor block compresses
and multiplies in float32.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = [
    "CompressPolicy",
    "ssssm_lr",
    "lr_ssssm_flops",
    "try_compress",
]


@dataclass(frozen=True)
class CompressPolicy:
    """Resolved compression settings of one factorisation.

    Built by :func:`repro.core.numeric.resolve_compress` (``None`` when
    ``compress_tol == 0`` — the bit-identical default path never sees
    this object).  Frozen and picklable so distributed workers receive
    it as two scalars.
    """

    tol: float
    min_order: int = 32


#: :func:`try_compress` runs the randomised range finder on blocks of at
#: least this order whose profitable rank is below :data:`RSVD_MAX_RANK`;
#: there it beats the exact SVD, elsewhere the projection step dominates
#: and the exact SVD is no worse
RSVD_MIN_ORDER = 192
RSVD_MAX_RANK = 48


def try_compress(blk: CSCMatrix, policy: CompressPolicy) -> CompressedBlock | None:
    """Apply ``policy`` to one exact block; ``None`` when not profitable.

    Enforces the two gates that make compression safe and worthwhile:
    the block order must reach ``min_order``, and the retained rank is
    capped at :func:`~repro.sparse.blockrep.lr_profit_cap` so the
    ``U``/``V`` payload is strictly smaller than the CSC values it
    stands in for.  The dense staging array is the unavoidable cost of a
    rank-revealing factorisation and lives only for this call.
    """
    m, n = blk.shape
    if min(m, n) < policy.min_order:
        return None
    cap = lr_profit_cap(m, n, blk.nnz)
    if cap < 1:
        return None
    randomised = min(m, n) >= RSVD_MIN_ORDER and cap < RSVD_MAX_RANK
    svd = randomized_svd if randomised else truncated_svd
    got = svd(blk.to_dense(), policy.tol, cap)
    if got is None:
        return None
    u, v = got
    return CompressedBlock(shape=(m, n), u=u, v=v)


def lr_ssssm_flops(c_nnz: int, a, b) -> int:
    """Flop estimate for one low-rank Schur update ``C -= A @ B`` with
    at least one compressed operand — the quantity the ablation bench
    compares against
    :func:`~repro.kernels.flops.ssssm_flops_structural`."""
    a_lr = isinstance(a, CompressedBlock)
    if a_lr and isinstance(b, CompressedBlock):
        ra, rb = a.rank, b.rank
        mid = 2 * ra * rb * a.ncols  # Vaᵀ @ Ub
        left = 2 * a.nrows * ra * rb  # Ua @ mid
        return mid + left + 2 * c_nnz * rb
    if a_lr:
        return 2 * b.nnz * a.rank + 2 * c_nnz * a.rank
    return 2 * a.nnz * b.rank + 2 * c_nnz * b.rank


def ssssm_lr(c: CSCMatrix, a, b, ws: Workspace) -> None:
    """Schur update ``C -= A @ B`` where ``A``, ``B`` or both are
    :class:`CompressedBlock` overlays (the other one its exact CSC
    block).

    Never materialises a dense product: the update is assembled as a
    thin ``left @ right.T`` pair (``left (m, r)``, ``right (n, r)``)
    and scattered straight onto C's stored pattern via the COO index
    views — ``O((m + n) · r)`` storage, ``O(nnz(C) · r)`` scatter.
    Mass outside C's pattern is dropped (recovered by refinement).
    """
    if c.nnz == 0:
        return
    a_lr = isinstance(a, CompressedBlock)
    b_lr = isinstance(b, CompressedBlock)
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

"""The one kernel the sparse Cholesky extension owns, and its task graph.

PanguLU's regular 2D layout is not LU-specific: for symmetric positive
definite systems the same two-layer structure over the *lower triangle*
of the symmetric fill supports a block Cholesky factorisation
``A = L·Lᵀ`` at half the storage and FLOPs.  (The PanguLU project itself
added an SPD path in later releases; this module reproduces the idea.)

Three kernel roles replace the four of LU, and two of them *are* LU's
dense-mapped kernels (see :class:`repro.cholesky.solver.LLtJob`):

* POTRF — in-place Cholesky of a diagonal block: :func:`potrf`, one
  LAPACK call on the dense image (the one kernel Cholesky owns);
* TRSM  — panel solve ``X·Lᵀ = B`` turning a below-diagonal block into
  its slice of ``L``: ``tstrf_c_v2`` handed ``L⁻ᵀ`` (:func:`l_inverse`);
* SYRK  — symmetric Schur update ``C −= A·Bᵀ`` (``A = L(i,k)``,
  ``B = L(j,k)``, target ``(i, j)`` with ``i ≥ j``): ``ssssm_c_v1``
  handed the image of ``A`` and the transposed image of ``B``.

:func:`build_llt_dag` lays them out as a :class:`~repro.core.dag.TaskDAG`
the shared scheduler core and lane driver run unchanged.  All kernels
write only inside the blocks' fixed symbolic patterns; the fill-closure
argument is the same as for the LU kernels.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpotrf

from ..core.blocking import BlockMatrix
from ..core.dag import EliminationBuilder, TaskDAG, TaskType
from ..kernels.base import SingularBlockError, gather_dense, triangle_inverse
from ..sparse.csc import CSCMatrix

__all__ = ["NotPositiveDefiniteError", "potrf", "l_inverse", "build_llt_dag"]


class NotPositiveDefiniteError(ArithmeticError):
    """A diagonal pivot was non-positive during POTRF, or a factored
    ``L`` has a zero diagonal entry."""


def potrf(f: BlockMatrix, k: int) -> None:
    """In-place Cholesky of diagonal block ``k`` (lower storage, float64):
    LAPACK ``dpotrf`` on the dense image; afterwards the block holds
    ``L``.  A non-positive or NaN pivot raises
    :class:`NotPositiveDefiniteError` naming block and column (from
    finite input a pivot only ever shrinks, so there is no ``+Inf`` one
    to pass LAPACK's test)."""
    block = f.block(k, k)
    # the transposed image is Fortran-ordered and its upper triangle is
    # the block's lower one: ``UᵀU`` of it is ``L Lᵀ`` with ``L = Uᵀ``
    u, info = dpotrf(block.to_dense().T, lower=False, overwrite_a=True)
    if info < 0:  # pragma: no cover - argument error, not data
        raise ValueError(f"potrf: illegal argument {-info}")
    if info:
        raise NotPositiveDefiniteError(
            f"non-positive pivot in block {k}, column {info - 1} (row "
            f"{f.block_start(k) + info - 1} of the reordered matrix; not SPD?)"
        )
    gather_dense(block, u.T)


def l_inverse(f: BlockMatrix, k: int) -> np.ndarray:
    """Dense ``L(k,k)⁻¹`` of a POTRF'd diagonal block — what TRSM and
    both solve sweeps multiply by.  A zero or missing ``L`` diagonal
    raises :class:`NotPositiveDefiniteError` naming block and column."""
    diag = f.block(k, k)
    try:
        return triangle_inverse(diag, lower=True, unit=False)
    except SingularBlockError:
        j = int(np.flatnonzero(diag.diagonal() == 0.0)[0])
        raise NotPositiveDefiniteError(
            f"zero/missing L diagonal in block {k}, column {j} "
            f"(row {f.block_start(k) + j} of the reordered matrix)"
        ) from None


def build_llt_dag(f: BlockMatrix) -> TaskDAG:
    """The task DAG of the right-looking block Cholesky of lower-stored
    ``f``, in the factor DAG's own vocabulary so the shared scheduler
    and lane driver take it as is:

    * ``GETRF(k)``      is POTRF of ``(k, k)``        ← every SYRK into it;
    * ``TSTRF(i, k)``   is TRSM of ``(i, k)``, i > k  ← POTRF(k) + every
      SYRK into it;
    * ``SSSSM(k, i, j)`` is SYRK ``C(i,j) −= L(i,k)·L(j,k)ᵀ``, i ≥ j > k
      ← TRSM(i, k) and TRSM(j, k); it exists when the product is
      structurally nonempty and lands in a stored block (the mirror part
      of the update is the symmetry saving).

    These are the edges :class:`~repro.core.dag.EliminationBuilder` wires
    (a diagonal SYRK reads ``L(i,k)`` once).  Tasks are created step by
    step, so ``tasks`` is ordered by ``k`` with POTRF first, then the
    step's TRSMs, then its SYRKs — every predecessor precedes its
    successors.  Flops are structural: per
    POTRF pivot a square root, a scale and a rank-1 update of the columns
    below; per TRSM entry a division and a multiply-add against the
    pivot column's strict-lower part; SYRK ``2 Σ_t nnz(A[:,t]) nnz(B[:,t])``.
    """
    builder = EliminationBuilder()
    for k in range(f.nb):
        diag = f.block(k, k)
        if diag is None:
            raise ValueError(f"empty diagonal block ({k},{k})")
        below = np.diff(diag.indptr) - 1   # strict-lower nnz per column of L(k,k)
        potrf_flops = np.sum(1 + below + below * (below + 1))
        builder.add(TaskType.GETRF, k, k, k, int(potrf_flops))
        rows, blocks = f.blocks_in_column(k)
        panel = [
            (int(i), blk, np.diff(blk.indptr)) for i, blk in zip(rows, blocks) if i > k
        ]
        for i, blk, _ in panel:
            trsm_flops = blk.nnz + 2 * np.sum(below[blk.cols_expanded()])
            builder.add(TaskType.TSTRF, k, i, k, int(trsm_flops), ((k, k),))
        for n, (i, _, a_colnnz) in enumerate(panel):
            for j, _, b_colnnz in panel[: n + 1]:
                syrk_flops = 2 * np.dot(a_colnnz, b_colnnz)   # 0: empty product
                if syrk_flops and f.block_slot(i, j) >= 0:
                    builder.add(TaskType.SSSSM, k, i, j, int(syrk_flops), {(i, k), (j, k)})
    return builder.dag()

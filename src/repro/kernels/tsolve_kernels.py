"""Triangular-solve kernels — the phase-5 analogues of Table 1.

The scheduler-driven triangular solve (see :mod:`repro.core.tsolve_dag`)
executes two kernel roles over RHS *segments* of the block layout:

* ``diagf_*`` / ``diagb_*`` — within-block substitutions with a factored
  diagonal block: unit-lower forward (``y ← L⁻¹ y``) and upper backward
  (``x ← U⁻¹ x``); in a transposed solve (``(LU)ᵀ = Uᵀ Lᵀ``) the same
  two tasks run :func:`solve_lower_trans_u` (``y ← U⁻ᵀ y``) and
  :func:`solve_upper_trans_l` (``x ← L⁻ᵀ x``);
* ``updf_*`` / ``updb_*`` — off-diagonal mat-vec updates
  (``tgt −= blk · src``, or ``blkᵀ · src`` with ``transposed=True``)
  over stored entries only, pushing a solved segment through an ``L``
  (forward) or ``U`` (backward) block — the other way round when
  transposed.

All of them accept a vector segment or a 2-D multi-RHS panel and write
only their designated output segment (``diagf``/``diagb``/``solve_*``:
second parameter, ``updf``/``updb``: first), the convention the
``kernel-purity`` lint rule enforces.  The scatter addressing of the
update kernels (the expanded column index of every stored entry) depends
only on the block pattern, so it can be precomputed once per block as a
:class:`SpMVPlan` and reused across every solve, every right-hand side and both directions (the
transposed update swaps the roles of ``plan.cols`` and ``blk.indices``) —
the phase-5 counterpart of the factorisation's fixed-pattern execution
plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csc import CSCMatrix

__all__ = [
    "SpMVPlan",
    "build_spmv_plan",
    "diagf_seg",
    "diagb_seg",
    "solve_lower_trans_u",
    "solve_upper_trans_l",
    "updf_seg",
    "updb_seg",
]


@dataclass(frozen=True)
class SpMVPlan:
    """Fixed-pattern scatter addressing of one off-diagonal update block.

    ``cols[e]`` is the local column of the block's ``e``-th stored entry —
    the ``np.repeat`` expansion of the CSC column pointer, hoisted out of
    the per-solve hot path.  Patterns are immutable after symbolic
    factorisation, so a plan stays valid for the life of the structure
    (including across :meth:`~repro.core.solver.Factorization.refactorize`).
    """

    cols: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.cols.nbytes)


def build_spmv_plan(blk: CSCMatrix) -> SpMVPlan:
    """Precompute the entry-to-column expansion of a block's pattern."""
    return SpMVPlan(
        cols=np.repeat(
            np.arange(blk.ncols, dtype=np.int64), np.diff(blk.indptr)
        )
    )


def diagf_seg(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← L⁻¹ y`` with the unit-lower part of a factored
    diagonal block.  ``y`` may be a vector or a 2-D multi-RHS panel."""
    n = diag.ncols
    data = diag.data
    multi = y.ndim == 2
    for j in range(n):
        yj = y[j]
        if not (yj.any() if multi else yj != 0.0):
            continue
        sl = diag.col_slice(j)
        rows = diag.indices[sl]
        start = int(np.searchsorted(rows, j + 1))
        if start < rows.size:
            if multi:
                y[rows[start:]] -= np.outer(data[sl][start:], yj)
            else:
                y[rows[start:]] -= data[sl][start:] * yj


def diagb_seg(diag: CSCMatrix, x: np.ndarray) -> None:
    """In-place ``x ← U⁻¹ x`` with the upper part (incl. diagonal) of a
    factored diagonal block.  ``x`` may be a vector or a 2-D panel."""
    n = diag.ncols
    data = diag.data
    multi = x.ndim == 2
    for j in range(n - 1, -1, -1):
        sl = diag.col_slice(j)
        rows = diag.indices[sl]
        vals = data[sl]
        dpos = int(np.searchsorted(rows, j))
        if dpos >= rows.size or rows[dpos] != j or vals[dpos] == 0.0:
            raise ZeroDivisionError(f"zero or missing U diagonal at {j}")
        x[j] /= vals[dpos]
        xj = x[j]
        if dpos > 0 and (xj.any() if multi else xj != 0.0):
            if multi:
                x[rows[:dpos]] -= np.outer(vals[:dpos], xj)
            else:
                x[rows[:dpos]] -= vals[:dpos] * xj


def solve_lower_trans_u(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← U⁻ᵀ y`` with the upper part of a factored diagonal
    block — the ``DIAG_F`` role of a transposed solve (``Uᵀ`` is non-unit
    lower triangular; forward substitution using ``U``'s columns as
    ``Uᵀ``'s rows).  ``y`` may be a vector or a 2-D panel."""
    n = diag.ncols
    data = diag.data
    for j in range(n):
        sl = diag.col_slice(j)
        rows = diag.indices[sl]
        vals = data[sl]
        dpos = int(np.searchsorted(rows, j))
        if dpos >= rows.size or rows[dpos] != j or vals[dpos] == 0.0:
            raise ZeroDivisionError(f"zero or missing U diagonal at {j}")
        if dpos > 0:
            y[j] -= vals[:dpos] @ y[rows[:dpos]]
        y[j] /= vals[dpos]


def solve_upper_trans_l(diag: CSCMatrix, x: np.ndarray) -> None:
    """In-place ``x ← L⁻ᵀ x`` with the unit-lower part of a factored
    diagonal block — the ``DIAG_B`` role of a transposed solve (``Lᵀ`` is
    unit upper triangular; backward substitution using ``L``'s columns as
    ``Lᵀ``'s rows).  ``x`` may be a vector or a 2-D panel."""
    n = diag.ncols
    data = diag.data
    for j in range(n - 1, -1, -1):
        sl = diag.col_slice(j)
        rows = diag.indices[sl]
        start = int(np.searchsorted(rows, j + 1))
        if start < rows.size:
            x[j] -= data[sl][start:] @ x[rows[start:]]


def updf_seg(
    tgt: np.ndarray,
    blk: CSCMatrix,
    src: np.ndarray,
    plan: SpMVPlan | None = None,
    *,
    transposed: bool = False,
) -> None:
    """``tgt −= blk @ src`` over stored entries only (vector or panel):
    the forward-sweep push of a solved segment through an ``L`` block.
    With ``transposed`` it is ``tgt −= blkᵀ @ src`` — the same entries
    and the same plan, gathered by row index and scattered by column."""
    cols = (
        plan.cols
        if plan is not None
        else np.repeat(np.arange(blk.ncols), np.diff(blk.indptr))
    )
    into, frm = (cols, blk.indices) if transposed else (blk.indices, cols)
    data = blk.data[:, None] if src.ndim == 2 else blk.data
    np.subtract.at(tgt, into, data * src[frm])


def updb_seg(
    tgt: np.ndarray,
    blk: CSCMatrix,
    src: np.ndarray,
    plan: SpMVPlan | None = None,
    *,
    transposed: bool = False,
) -> None:
    """``tgt −= blk @ src`` over stored entries only: the backward-sweep
    push of a solved segment through a ``U`` block.  Identical arithmetic
    to :func:`updf_seg` — kept as its own role so each task kind names
    the kernel it runs (trace categories, lint conventions)."""
    updf_seg(tgt, blk, src, plan, transposed=transposed)

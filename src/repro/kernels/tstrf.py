"""TSTRF — sparse upper-triangular solve ``X·U = B`` on a block row.

After GETRF factors the diagonal block ``D`` (upper triangle plus diagonal
= ``U``), TSTRF turns every block ``B`` in the same block *row* into the
corresponding block of ``L`` by solving ``X·U = B`` in place.

A right solve against upper-triangular ``U`` is a left solve against the
non-unit lower-triangular ``Uᵀ``: every sparse variant *is* the GESSM
variant of the same name (the shared ``panel_*`` functions of
:mod:`repro.kernels.gessm`) run on the pair ``(Uᵀ, Bᵀ)`` and written back
through the transpose; the dense-mapped C_V2 is one GEMM with the inverse
of ``U`` from the right, no transpose.

The five variants follow Table 1 of the paper (same addressing split as
GESSM: merge / direct / bin-search / level-scheduled rows / compiled).
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from .base import TargetImage, Workspace, triangle
from .gessm import panel_compiled, panel_dense, panel_inverse, panel_levels, panel_sweep
from .plans import SolvePlan, run_solve_plan

__all__ = [
    "tstrf_c_v1",
    "tstrf_c_v2",
    "tstrf_g_v1",
    "tstrf_g_v2",
    "tstrf_g_v3",
    "TSTRF_VARIANTS",
]


def _sweep_transposed(diag: CSCMatrix, b: CSCMatrix, *, merge: bool) -> None:
    """:func:`~repro.kernels.gessm.panel_sweep` of ``Uᵀ·Xᵀ = Bᵀ``:
    transpose, forward-solve, transpose back into ``b``."""
    bt = b.transpose()
    panel_sweep(triangle(diag, lower=False), bt, merge=merge)
    b.data[...] = bt.transpose().data


def tstrf_c_v1(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, plan: SolvePlan | None = None
) -> None:
    """Merge-addressed row solve (CPU V1): the merge sweep on ``(Uᵀ,
    Bᵀ)`` — or, handed the block pair's ``plan`` (solve order, targets
    and transpose permutation precomputed), the same operations in the
    same order without the structural passes."""
    if plan is not None:
        return run_solve_plan(plan, diag, b)
    _sweep_transposed(diag, b, merge=True)


def tstrf_c_v2(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, inv: np.ndarray | None = None,
    image: TargetImage | None = None,
) -> None:
    """Dense-mapped solve (CPU V2, "Direct"): one GEMM of the image of
    ``B``'s occupied rows with the dense inverse of ``U`` from the right
    (:func:`~repro.kernels.gessm.panel_inverse`); building the inverse
    raises on a zero or missing ``U`` diagonal."""
    panel_inverse(diag, b, lower=False, inv=inv, image=image)


def tstrf_g_v1(
    diag: CSCMatrix, b: CSCMatrix, ws: Workspace, *, plan: SolvePlan | None = None
) -> None:
    """Bin-search row solve (GPU V1, "warp-level column"); ``plan``: as
    for :func:`tstrf_c_v1`."""
    if plan is not None:
        return run_solve_plan(plan, diag, b)
    _sweep_transposed(diag, b, merge=False)


def tstrf_g_v2(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Level-scheduled solve (GPU V2, "un-sync warp-level row"): the
    level sets of the ``Uᵀ`` solve DAG on the dense panel of ``Bᵀ``."""
    panel_dense(diag, b, ws, panel_levels, lower=False)


def tstrf_g_v3(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Compiled dense-panel solve (GPU V3): SciPy's triangular solve of
    ``Uᵀ·Xᵀ = Bᵀ``."""
    panel_dense(diag, b, ws, panel_compiled, lower=False)


TSTRF_VARIANTS = {
    "C_V1": tstrf_c_v1,
    "C_V2": tstrf_c_v2,
    "G_V1": tstrf_g_v1,
    "G_V2": tstrf_g_v2,
    "G_V3": tstrf_g_v3,
}

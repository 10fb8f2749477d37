"""Partial factorisation and Schur complements over the block layout.

Stopping the right-looking block elimination after ``kb`` block steps
leaves the trailing blocks holding exactly the Schur complement
``S = A₂₂ − A₂₁ A₁₁⁻¹ A₁₂`` (with the leading blocks factored) — the
building block of domain-decomposition and hierarchical solvers, and a
natural capability of PanguLU's regular 2D layout: no extra data
structure is needed, the trailing sub-grid *is* the complement.
"""

from __future__ import annotations

import numpy as np

from ..runtime.scheduler import RunReport
from ..sparse.csc import CSCMatrix, coo_to_csc
from .blocking import BlockMatrix
from .dag import TaskDAG
from .numeric import NumericOptions, factorize

__all__ = ["partial_factorize", "extract_trailing"]


def partial_factorize(
    f: BlockMatrix,
    dag: TaskDAG,
    kb: int,
    options: NumericOptions | None = None,
) -> RunReport:
    """Run the block elimination for steps ``k < kb`` only, in place.

    Afterwards the leading ``kb × kb`` block grid holds its LU factors and
    panels, and every trailing block ``(i, j)`` with ``i, j ≥ kb`` holds
    the corresponding Schur-complement entries.  The steps ``k < kb`` are
    predecessor-closed (a task only depends on tasks of earlier or equal
    steps), so this is :func:`~repro.core.numeric.factorize` restricted
    to them.
    """
    if not 0 <= kb <= f.nb:
        raise ValueError(f"kb must be in [0, {f.nb}]")
    return factorize(
        f, dag, options, owned=[t.tid for t in dag.tasks if t.k < kb]
    )


def extract_trailing(f: BlockMatrix, kb: int) -> CSCMatrix:
    """Assemble the trailing sub-matrix (block rows/cols ``≥ kb``) into one
    CSC matrix — after :func:`partial_factorize` this is the Schur
    complement."""
    if not 0 <= kb <= f.nb:
        raise ValueError(f"kb must be in [0, {f.nb}]")
    offset = int(f.boundaries[kb])
    m = f.n - offset
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    for bj in range(kb, f.nb):
        brows, blocks = f.blocks_in_column(bj)
        for bi, blk in zip(brows, blocks):
            bi = int(bi)
            if bi < kb:
                continue
            r, c = blk.rows_cols()
            rows_parts.append(r + f.block_start(bi) - offset)
            cols_parts.append(c + f.block_start(bj) - offset)
            vals_parts.append(blk.data)
    if not rows_parts:
        return CSCMatrix.empty((m, m))
    return coo_to_csc(
        (m, m),
        np.concatenate(rows_parts),
        np.concatenate(cols_parts),
        np.concatenate(vals_parts),
    )

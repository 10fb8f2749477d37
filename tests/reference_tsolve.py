"""Test-only reference of the triangular solves: the k-ordered loop
sweeps with per-column substitutions, no DAG, no scheduler, no BLAS.

:func:`block_forward` walks the block columns in ascending order (solve
the diagonal block, push the segment through the ``L`` blocks below it),
:func:`block_backward` in descending order through the ``U`` blocks
above — the order the solve DAG
(:func:`repro.core.tsolve_dag.build_tsolve_dag`) chains every target
segment's writers into.  The engines solve a diagonal block by one
product with its triangle's inverse, not by substitution, so the
one-lane DAG replay must agree with
``block_backward(f, block_forward(f, b))`` to ``1e-12·‖x‖∞``
(``tests/test_lanes.py``, ``tests/test_tsolve_engines.py``), while the
engines agree with that replay bit for bit.
``solve_lower_unit`` / ``solve_upper`` are the diagonal-block
substitutions ``tests/test_numeric.py`` checks by name, ``update`` the
off-diagonal push, ``diag_solve_flops`` the per-column count the solve
DAG's vectorised diagonal-task flops must equal.  Nothing here imports a kernel from ``src/``, and
nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocking import BlockMatrix
from repro.core.tsolve import _check_rhs
from repro.sparse.csc import CSCMatrix


def solve_lower_unit(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← L⁻¹ y`` with the unit-lower part of a factored
    diagonal block.  ``y`` may be a vector or a 2-D multi-RHS panel."""
    data = diag.data
    multi = y.ndim == 2
    for j in range(diag.ncols):
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


def solve_upper(diag: CSCMatrix, x: np.ndarray) -> None:
    """In-place ``x ← U⁻¹ x`` with the upper part (incl. diagonal) of a
    factored diagonal block.  ``x`` may be a vector or a 2-D panel."""
    data = diag.data
    multi = x.ndim == 2
    for j in range(diag.ncols - 1, -1, -1):
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


def update(tgt: np.ndarray, blk: CSCMatrix, src: np.ndarray) -> None:
    """``tgt −= blk @ src`` over stored entries only (vector or panel)."""
    cols = np.repeat(np.arange(blk.ncols), np.diff(blk.indptr))
    data = blk.data[:, None] if src.ndim == 2 else blk.data
    np.subtract.at(tgt, blk.indices, data * src[cols])


def block_forward(f: BlockMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L y = b`` over the factored block matrix (vector or
    ``(n, k)`` multi-RHS array)."""
    y = _check_rhs(f.n, b)
    for k in range(f.nb):
        seg = f.block_slice(k)
        solve_lower_unit(f.block(k, k), y[seg])
        rows, blocks = f.blocks_in_column(k)
        for bi, blk in zip(rows, blocks):
            if bi > k:
                update(y[f.block_slice(int(bi))], blk, y[seg])
    return y


def block_backward(f: BlockMatrix, y: np.ndarray) -> np.ndarray:
    """Solve ``U x = y`` over the factored block matrix (vector or
    ``(n, k)`` multi-RHS array)."""
    x = _check_rhs(f.n, y)
    for k in range(f.nb - 1, -1, -1):
        seg = f.block_slice(k)
        solve_upper(f.block(k, k), x[seg])
        # propagate x_k into earlier block rows through U column k blocks
        rows, blocks = f.blocks_in_column(k)
        for bi, blk in zip(rows, blocks):
            if bi < k:
                update(x[f.block_slice(int(bi))], blk, x[seg])
    return x


def diag_solve_flops(f: BlockMatrix, k: int, *, lower: bool) -> float:
    """Flops of a substitution with one triangle of diagonal block ``k``,
    counted column by column (the loop
    ``repro.core.tsolve_dag._diag_solve_flops`` replaced)."""
    diag = f.block(k, k)
    n = diag.ncols
    strict = 0
    for j in range(n):
        rows = diag.indices[diag.col_slice(j)]
        pos = int(np.searchsorted(rows, j))
        strict += (rows.size - pos - 1) if lower else pos
    return 2.0 * strict + (0.0 if lower else n)

"""Test-only reference of the triangular solves: the k-ordered loop
sweeps, no DAG, no scheduler.

:func:`block_forward` walks the block columns in ascending order (solve
the diagonal block, push the segment through the ``L`` blocks below it),
:func:`block_backward` in descending order through the ``U`` blocks
above — the floating-point operation order the executable solve DAG
(:func:`repro.core.tsolve_dag.build_tsolve_dag`) chains every target
segment's writers into, so every engine and lane count must reproduce
``block_backward(f, block_forward(f, b))`` bit for bit
(``tests/test_lanes.py``, ``tests/test_tsolve_engines.py``).
``solve_lower_unit`` / ``solve_upper`` are the diagonal-block solves
under the names ``tests/test_numeric.py`` checks them by.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocking import BlockMatrix
from repro.core.tsolve import _check_rhs
from repro.kernels.tsolve_kernels import diagb_seg, diagf_seg, updf_seg
from repro.sparse.csc import CSCMatrix


def solve_lower_unit(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← L⁻¹ y`` with the unit-lower part of a factored
    diagonal block."""
    diagf_seg(diag, y)


def solve_upper(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← U⁻¹ y`` with the upper part (incl. diagonal) of a
    factored diagonal block."""
    diagb_seg(diag, y)


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
                updf_seg(y[f.block_slice(int(bi))], blk, y[seg])
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
                updf_seg(x[f.block_slice(int(bi))], blk, x[seg])
    return x

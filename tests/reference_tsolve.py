"""Test-only reference of the triangular solves: the k-ordered loop
sweeps with per-column substitutions, no DAG, no scheduler, no BLAS.

:func:`block_forward` walks the block columns in ascending order (solve
the diagonal block, push the segment through the ``L`` blocks below it),
:func:`block_backward` in descending order through the ``U`` blocks
above.  The solve DAG
(:func:`repro.core.tsolve_dag.build_tsolve_dag`) gathers instead — a
segment sums its block row's products in one reduction — and solves a
diagonal block by one product with its triangle's inverse, not by
substitution, so the one-lane DAG replay must agree with
``block_backward(f, block_forward(f, b))`` to ``1e-12·‖x‖∞``
(``tests/test_lanes.py``, ``tests/test_tsolve_engines.py``), while the
engines agree with that replay bit for bit.
``solve_lower_unit`` / ``solve_upper`` are the diagonal-block
substitutions ``tests/test_numeric.py`` checks by name, ``update`` the
off-diagonal push, ``diag_solve_flops`` the per-column count in the
solve DAG's diagonal-task flops, and ``build_tsolve_dag_loop`` the
per-segment pass the array-built
:func:`repro.core.tsolve_dag.build_tsolve_dag` replaced, which must
build the same tasks and edges.  Nothing here imports a kernel from ``src/``, and
nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.blocking import BlockMatrix
from repro.core.tsolve import checked_rhs
from repro.core.tsolve_dag import (
    FORWARD, TSolveDAG, TSolveTaskType, block_line_sources,
)
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
    y = checked_rhs(b, f.n, panel=True).copy()
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
    x = checked_rhs(y, f.n, panel=True).copy()
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


def build_tsolve_dag_loop(
    f: BlockMatrix, owner_of_block, *, transposed: bool = False
) -> TSolveDAG:
    """The solve DAG built segment by segment: per segment, in sweep
    order, one ``LSUM`` per other rank holding blocks of its line whose
    segment came earlier (ascending rank), then its diagonal task, which
    waits for them (and, backward, for the segment's forward task)."""
    nb = f.nb
    nnz = f.slot_structure().nnz
    lines = block_line_sources(f, transposed=transposed)
    kinds, segment, sources, slot_of, flops, out_b, owner = [], [], [], [], [], [], []
    successors: list[list[int]] = []
    n_deps: list[int] = []

    def block_owner(i: int, k: int) -> int:
        return int(owner_of_block(k, i) if transposed else owner_of_block(i, k))

    def sweep(diag_kind, lsum_kind, order, lower: bool, after=None) -> list[int]:
        diag_of = [-1] * nb
        for i in order:
            ks, slots = lines[i]
            keep = np.take(diag_of, ks) >= 0
            ks, slots = ks[keep], slots[keep]
            ranks = np.asarray([block_owner(i, k) for k in ks.tolist()], dtype=np.int64)
            p = block_owner(i, i)
            tids: list[int] = []
            for r in [*np.unique(ranks[ranks != p]).tolist(), p]:
                mine = ranks == r
                preds = [diag_of[k] for k in ks[mine].tolist()]
                fl = 2.0 * nnz[slots[mine]].sum()
                nbytes = 8.0 * f.block_order(i)
                if r == p:
                    preds += tids + ([] if after is None else [after[i]])
                    kind, fl = diag_kind, fl + diag_solve_flops(f, i, lower=lower)
                else:
                    kind, nbytes = lsum_kind, nbytes * int(mine.sum())
                tid = len(kinds)
                kinds.append(int(kind))
                segment.append(i)
                sources.append(ks[mine].astype(np.int64))
                slot_of.append(slots[mine])
                flops.append(float(fl))
                out_b.append(nbytes)
                owner.append(r)
                successors.append([])
                n_deps.append(len(preds))
                for q in preds:
                    successors[q].append(tid)
                tids.append(tid)
            diag_of[i] = tids[-1]
        return diag_of

    diag_f = sweep(TSolveTaskType.DIAG_F, TSolveTaskType.LSUM_F, range(nb),
                   not transposed)
    sweep(TSolveTaskType.DIAG_B, TSolveTaskType.LSUM_B,
          range(nb - 1, -1, -1), transposed, after=diag_f)
    entries = [
        (i if kind in FORWARD else 2 * nb - 1 - i, kind, tid)
        for tid, (kind, i) in enumerate(zip(kinds, segment))
    ]
    return TSolveDAG(
        kinds=np.asarray(kinds, dtype=np.int64),
        segment=np.asarray(segment, dtype=np.int64),
        sources=sources,
        slots=slot_of,
        flops=np.asarray(flops),
        out_bytes=np.asarray(out_b),
        n_deps=np.asarray(n_deps, dtype=np.int64),
        successors=successors,
        owner=np.asarray(owner, dtype=np.int64),
        total_flops=float(np.sum(flops)),
        entries=entries,
        transposed=transposed,
    )

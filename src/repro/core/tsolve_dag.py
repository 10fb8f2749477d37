"""Task DAG of the distributed block triangular solves (phase 5).

The paper's final phase solves ``L y = b`` and ``U x = y`` over the same
two-layer block layout and process mapping as the factorisation.  This
module builds the corresponding task graph so the engines can run it and
the simulator can price it.  It holds **one task per segment per
sweep**:

* ``DIAG_F(i)`` — ``y_i ← L_ii⁻¹ (b_i − Σ_k L(i,k)·y_k)`` over the stored
  blocks ``k < i`` of block row ``i``;
* ``DIAG_B(i)`` — the mirror, ``x_i ← U_ii⁻¹ (y_i − Σ_k U(i,k)·x_k)``
  over the blocks ``k > i`` of that row.

A diagonal task computes each block's product on its own, stacks the
products by ascending ``k`` and subtracts their sum as one reduction
(:func:`repro.core.tsolve.gather`).  The numbers in that stack do not
depend on which lane or rank computed them, so any topological
execution on any engine, lane count or rank count is *bit-identical*
to the one-lane replay.

A **transposed** solve ``Aᵀ x = b`` is the same graph over ``(LU)ᵀ =
Uᵀ Lᵀ`` (``transposed=True``): segment ``i`` gathers through block
*column* ``i``, each block transposed — ``U(k,i)ᵀ`` going forward,
``L(k,i)ᵀ`` going back.

Edges: ``DIAG_F(k) → DIAG_F(i)`` for each stored source block,
``DIAG_F(i) → DIAG_B(i)``, ``DIAG_B(k) → DIAG_B(i)``.  Every segment of
``y`` and of ``x`` therefore has exactly one writer.

On ranks (SuperLU_DIST's ``lsum``): when another rank than the diagonal
block's owner holds blocks of the row, one ``LSUM_F(i)`` / ``LSUM_B(i)``
task on that rank computes the products of its blocks and sends them,
stacked, in one message to the diagonal task, which puts each product
into the stack at its ``k``.  Each task records the source segments
whose products it computes (``sources``).  Under a single owner there is
no ``LSUM`` task and the DAG has ``2·nb`` tasks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .blocking import BlockMatrix

__all__ = ["TSolveTaskType", "TSolveDAG", "build_tsolve_dag", "block_line_sources"]


class TSolveTaskType(enum.IntEnum):
    DIAG_F = 0
    LSUM_F = 1
    DIAG_B = 2
    LSUM_B = 3


#: the forward (``y``) sweep's kinds; the others belong to the ``x`` sweep
FORWARD = (int(TSolveTaskType.DIAG_F), int(TSolveTaskType.LSUM_F))
#: the kinds whose output is a stack of products, not a segment
LSUM = (int(TSolveTaskType.LSUM_F), int(TSolveTaskType.LSUM_B))


@dataclass
class TSolveDAG:
    """Flat arrays describing the triangular-solve task graph.

    ``segment`` is the segment a task solves (``DIAG``) or sums products
    for (``LSUM``); ``sources[tid]`` the segments, ascending, whose block
    products the task computes itself.  ``transposed`` is the direction
    flag: the product with source ``k`` reads block ``(i, k)`` in a
    plain solve, block ``(k, i)`` (transposed) in a transposed one.
    ``entries`` are the ready-heap priorities: forward tasks by
    ascending segment, backward tasks by descending — the
    elimination-step priority of Section 4.4 carried over to the solve
    sweeps.
    """

    kinds: np.ndarray
    segment: np.ndarray
    sources: list[np.ndarray]
    flops: np.ndarray
    out_bytes: np.ndarray     # bytes a task's output carries to consumers
    n_deps: np.ndarray
    successors: list[list[int]]
    owner: np.ndarray
    total_flops: float
    entries: list[tuple[int, int, int]]
    transposed: bool = False

    def __len__(self) -> int:
        return len(self.kinds)

    def trace_label(self, tid: int) -> tuple[str, str]:
        """``(name, category)`` of a task in traces: ``DIAG_F(i=3)`` /
        ``LSUM_B(i=2)`` under its kind."""
        kind = TSolveTaskType(int(self.kinds[tid]))
        return f"{kind.name}(i={int(self.segment[tid])})", kind.name


def block_line_sources(
    f: BlockMatrix, *, transposed: bool = False
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per segment ``i``, ``(k, slot)`` arrays of the stored off-diagonal
    blocks of block row ``i`` — of block column ``i`` when
    ``transposed`` — by ascending ``k``, from the layer-1 arrays alone
    (a rank's :meth:`~BlockMatrix.restricted` share has them all)."""
    line, other = (
        (f.blk_colidx, f.blk_rowidx) if transposed
        else (f.blk_rowidx, f.blk_colidx)
    )
    order = np.lexsort((other, line))
    order = order[line[order] != other[order]]
    cuts = np.searchsorted(line[order], np.arange(1, f.nb))
    return [(other[slots], slots) for slots in np.split(order, cuts)]


def _diag_solve_flops(f: BlockMatrix, k: int, *, lower: bool) -> float:
    """Flops of a substitution with one triangle of diagonal block ``k``:
    a multiply-add per strict entry, plus a division per column of ``U``
    (``L`` is unit)."""
    diag = f.block(k, k)
    assert diag is not None
    rows, cols = diag.rows_cols()
    strict = np.count_nonzero(rows > cols if lower else rows < cols)
    return 2.0 * strict + (0.0 if lower else diag.ncols)


def build_tsolve_dag(
    f: BlockMatrix, owner_of_block, *, transposed: bool = False
) -> TSolveDAG:
    """Build the solve DAG; ``owner_of_block(bi, bj) -> proc`` sets task
    placement (a diagonal task on the diagonal block's owner, an
    ``LSUM`` task on the owner of the blocks it multiplies — data stays
    put, vectors and products move).  ``transposed=True`` builds the
    graph of ``Aᵀ x = b`` (block columns in place of block rows).
    """
    nb = f.nb
    nnz = f.slot_structure().nnz
    lines = block_line_sources(f, transposed=transposed)
    kinds: list[int] = []
    segment: list[int] = []
    sources: list[np.ndarray] = []
    flops: list[float] = []
    out_b: list[float] = []
    owner: list[int] = []
    successors: list[list[int]] = []
    n_deps: list[int] = []

    def block_owner(i: int, k: int) -> int:
        return int(owner_of_block(k, i) if transposed else owner_of_block(i, k))

    def sweep(diag_kind, lsum_kind, order, lower: bool, after=None) -> list[int]:
        """One sweep's tasks, segment by segment in ``order``: segment
        ``i`` gathers the blocks of its line whose segment came earlier.
        Returns each segment's diagonal task; ``after[i]`` (the forward
        ``DIAG_F(i)``) is what the backward ``DIAG_B(i)`` starts from."""
        diag_of = [-1] * nb
        for i in order:
            ks, slots = lines[i]
            keep = np.take(diag_of, ks) >= 0
            ks, slots = ks[keep], slots[keep]
            ranks = np.asarray([block_owner(i, k) for k in ks.tolist()], dtype=np.int64)
            p = block_owner(i, i)
            tids: list[int] = []
            # one LSUM per other rank holding blocks of the row, then the
            # diagonal task, which waits for them
            for r in [*np.unique(ranks[ranks != p]).tolist(), p]:
                mine = ranks == r
                preds = [diag_of[k] for k in ks[mine].tolist()]
                fl = 2.0 * nnz[slots[mine]].sum()
                nbytes = 8.0 * f.block_order(i)
                if r == p:
                    preds += tids + ([] if after is None else [after[i]])
                    kind, fl = diag_kind, fl + _diag_solve_flops(f, i, lower=lower)
                else:
                    kind, nbytes = lsum_kind, nbytes * int(mine.sum())
                tid = len(kinds)
                kinds.append(int(kind))
                segment.append(i)
                sources.append(ks[mine].astype(np.int64))
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

    # the forward diagonal solve is with L (Uᵀ when transposed), the
    # backward one with U (Lᵀ); x_i starts from y_i
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
        flops=np.asarray(flops),
        out_bytes=np.asarray(out_b),
        n_deps=np.asarray(n_deps, dtype=np.int64),
        successors=successors,
        owner=np.asarray(owner, dtype=np.int64),
        total_flops=float(np.sum(flops)),
        entries=entries,
        transposed=transposed,
    )

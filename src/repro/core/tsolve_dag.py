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
    products the task computes itself, and ``slots[tid]`` the storage
    slots of those blocks.  ``transposed`` is the direction
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
    slots: list[np.ndarray]
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


def _diag_solve_flops(f: BlockMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Per diagonal block, the flops of a substitution with its ``L``
    and with its ``U``: a multiply-add per strict entry, plus a division
    per column of ``U`` (``L`` is unit)."""
    strict = np.array([
        [np.count_nonzero(op(d.indices, d.cols_expanded())) for op in (np.greater, np.less)]
        for d in (f.block(k, k) for k in range(f.nb))
    ], dtype=float).reshape(-1, 2)
    return 2.0 * strict[:, 0], 2.0 * strict[:, 1] + np.diff(f.boundaries)


def build_tsolve_dag(
    f: BlockMatrix, owner_of_block, *, transposed: bool = False
) -> TSolveDAG:
    """Build the solve DAG; ``owner_of_block(bi, bj) -> proc`` sets task
    placement (a diagonal task on the diagonal block's owner, an
    ``LSUM`` task on the owner of the blocks it multiplies — data stays
    put, vectors and products move).  ``transposed=True`` builds the
    graph of ``Aᵀ x = b`` (block columns in place of block rows).

    Built over arrays of every stored block at once (the owner map is
    called once per block): a task is keyed by its sweep, its segment's
    place in the sweep, then the rank of an ``LSUM`` — a diagonal task
    after those of its segment — and task ids follow the keys' order.
    """
    nb = f.nb
    line, other = (
        (f.blk_colidx, f.blk_rowidx) if transposed else (f.blk_rowidx, f.blk_colidx)
    )
    rank = np.asarray([
        owner_of_block(bi, bj)
        for bi, bj in zip(f.blk_rowidx.tolist(), f.blk_colidx.tolist())
    ], dtype=np.int64)
    segs = np.arange(nb)
    diag_rank = rank[f.slots_of(segs, segs)]
    # every product: its block's slot, segment i, source k, sweep (1 back)
    slot = np.lexsort((other, line))
    slot = slot[line[slot] != other[slot]]
    i, k = line[slot], other[slot]
    back = (k > i).astype(np.int64)
    ranks = int(rank.max(initial=0)) + 2  # ranks - 1: the diagonal task

    def key(sweep, i, r):
        return ((sweep * nb + np.where(sweep, nb - 1 - i, i)) * ranks + r)

    r = rank[slot]
    keys = key(back, i, np.where(r == diag_rank[i], ranks - 1, r))
    both = np.repeat([0, 1], nb)
    diag_keys = key(both, np.tile(segs, 2), ranks - 1)
    tasks = np.unique(np.concatenate([keys, diag_keys]))
    n = tasks.size
    of = np.searchsorted(tasks, keys)               # each product's task
    diag_tid = np.searchsorted(tasks, diag_keys).reshape(2, nb)
    sweep = tasks // (nb * ranks)
    segment = np.where(sweep, nb - 1 - tasks // ranks % nb, tasks // ranks % nb)
    is_diag = tasks % ranks == ranks - 1
    kinds = 2 * sweep + ~is_diag                    # DIAG_F, LSUM_F, DIAG_B, LSUM_B
    counts = np.bincount(of, minlength=n)
    nnz = f.slot_structure().nnz[slot]
    flops = np.bincount(of, weights=2.0 * nnz, minlength=n).astype(float)
    # the forward diagonal solve is with L (Uᵀ when transposed), the
    # backward one with U (Lᵀ); x_i starts from y_i
    diag_flops = np.stack(_diag_solve_flops(f)[::-1 if transposed else 1])
    flops[is_diag] += diag_flops[sweep, segment][is_diag]
    lsum = np.flatnonzero(~is_diag)
    preds = np.concatenate([diag_tid[back, k], lsum, diag_tid[0]])
    succs = np.concatenate([of, diag_tid[sweep[lsum], segment[lsum]], diag_tid[1]])
    edges = np.lexsort((succs, preds))
    cuts = np.searchsorted(preds[edges], np.arange(1, n)).tolist()
    succ = succs[edges].tolist()
    priority = np.where(sweep, 2 * nb - 1 - segment, segment)
    by_task, task_ends = np.argsort(of, kind="stable"), np.cumsum(counts)[:-1]
    return TSolveDAG(
        kinds=kinds,
        segment=segment,
        sources=np.split(k[by_task], task_ends),
        slots=np.split(slot[by_task], task_ends),
        flops=flops,
        out_bytes=8.0 * np.diff(f.boundaries)[segment] * np.where(is_diag, 1, counts),
        n_deps=np.bincount(succs, minlength=n),
        successors=[succ[a:b] for a, b in zip([0, *cuts], [*cuts, len(succ)])],
        owner=np.where(is_diag, diag_rank[segment], tasks % ranks),
        total_flops=float(np.sum(flops)),
        entries=list(zip(priority.tolist(), kinds.tolist(), range(n))),
        transposed=transposed,
    )

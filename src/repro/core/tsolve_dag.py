"""Task DAG of the distributed block triangular solves (phase 5).

The paper's final phase solves ``L y = b`` and ``U x = y`` over the same
two-layer block layout and process mapping as the factorisation.  This
module builds the corresponding task graph so the distributed runtime can
schedule and simulate it:

* ``DIAG_F(k)`` — within-block forward solve on segment ``k``; runnable
  once every update from earlier block columns has landed.
* ``UPD_F(k, i)`` — ``y_i −= L(i,k) · y_k`` for each stored L block.
* ``DIAG_B(k)`` / ``UPD_B(k, i)`` — the mirrored backward sweep
  (``UPD_B`` pushes ``x_k`` up through ``U(i,k)``, ``i < k``).

The backward sweep chains off the forward one per segment (its first
writer of segment ``k`` waits for ``DIAG_F(k)``), so the two solves
pipeline the way the real distributed phase does.

A **transposed** solve ``Aᵀ x = b`` is the same graph over ``(LU)ᵀ =
Uᵀ Lᵀ`` (``transposed=True``): the forward sweep solves with ``Uᵀ`` and
pushes segment ``k`` through the ``U`` blocks of block *row* ``k``
(``UPD_F(k, j)``: ``y_j −= U(k,j)ᵀ · y_k``), the backward sweep solves
with ``Lᵀ`` and pushes through the ``L`` blocks of that row
(``UPD_B(k, i)``: ``x_i −= L(k,i)ᵀ · x_k``) — block rows walked where
the plain solve walks block columns, every task still on the owner of
the block it reads.

The engines (sequential / threaded / distributed / hybrid, see
:mod:`repro.core.tsolve` and :mod:`repro.runtime.engines`) and the
simulator (:func:`repro.runtime.adapters.simulate_tsolve`) share this
one graph, and it carries only the edges the sweeps need.  The writers
of every RHS segment form **one chain** of direct edges, in the order a
k-ordered loop sweep applies them:

* ``y_i``: ``UPD_F(k, i)`` by ascending ``k``, then ``DIAG_F(i)``;
* ``x_i``: ``UPD_B(k, i)`` by descending ``k``, then ``DIAG_B(i)``.
  The head of that chain waits for ``DIAG_F(i)`` and is **seeded**: it
  copies ``x_i = y_i`` before its own write (``seeds``);
* an update also waits for the diagonal solve of the segment it reads.

So every update has exactly one successor, the next writer of its
segment, and any topological execution is *bit-identical* to the
one-lane replay (the loop sweeps the tests keep as oracle,
``tests/reference_tsolve.py``, apply the same order).  A segment sent
between ranks lands before any newer write of that segment exists, so
the distributed engine installs every payload as it comes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .blocking import BlockMatrix

__all__ = ["TSolveTaskType", "TSolveDAG", "build_tsolve_dag"]


class TSolveTaskType(enum.IntEnum):
    DIAG_F = 0
    UPD_F = 1
    DIAG_B = 2
    UPD_B = 3


#: task kinds that write the forward (`y`) array; the others write the
#: backward (`x`) array
_Y_WRITERS = (int(TSolveTaskType.DIAG_F), int(TSolveTaskType.UPD_F))


@dataclass
class TSolveDAG:
    """Flat arrays describing the triangular-solve task graph.

    ``seeds`` marks the head of each ``x`` segment's writer chain, the
    task that starts the backward sweep from the forward result.
    ``transposed`` is the direction flag: an update task ``(k → tgt)``
    reads block ``(tgt, k)`` in a plain solve, block ``(k, tgt)``
    (transposed) in a transposed one.  ``entries`` are the ready-heap
    priorities: forward tasks by ascending source segment, backward
    tasks by descending — the elimination-step priority of Section 4.4
    carried over to the solve sweeps.
    """

    kinds: np.ndarray
    k_of: np.ndarray          # source segment
    target: np.ndarray        # segment written by the task
    flops: np.ndarray
    out_bytes: np.ndarray     # segment bytes carried to consumers
    n_deps: np.ndarray
    successors: list[list[int]]
    owner: np.ndarray
    total_flops: float
    entries: list[tuple[int, int, int]]
    seeds: np.ndarray
    transposed: bool = False

    def __len__(self) -> int:
        return len(self.kinds)

    def trace_label(self, tid: int) -> tuple[str, str]:
        """``(name, category)`` of a task in traces: ``DIAG_F(k=3)`` /
        ``UPD_B(9→2)`` under its kind."""
        kind = TSolveTaskType(int(self.kinds[tid]))
        k, tgt = int(self.k_of[tid]), int(self.target[tid])
        if kind in (TSolveTaskType.DIAG_F, TSolveTaskType.DIAG_B):
            return f"{kind.name}(k={k})", kind.name
        return f"{kind.name}({k}→{tgt})", kind.name


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
    placement (diag tasks on the diagonal block's owner, updates on the
    off-diagonal block's owner — data stays put, vectors move).

    Every segment's writers are chained and the head of each backward
    chain is seeded (module docstring).  ``transposed=True`` builds the
    graph of ``Aᵀ x = b`` (block rows in place of block columns).
    """
    nb = f.nb
    kinds: list[int] = []
    k_of: list[int] = []
    target: list[int] = []
    flops: list[float] = []
    out_b: list[float] = []
    owner: list[int] = []
    successors: list[list[int]] = []
    n_deps: list[int] = []

    def add(kind: TSolveTaskType, k: int, tgt: int, fl: float, p: int) -> int:
        tid = len(kinds)
        kinds.append(int(kind))
        k_of.append(k)
        target.append(tgt)
        flops.append(fl)
        out_b.append(8.0 * f.block_order(tgt))
        owner.append(p)
        successors.append([])
        n_deps.append(0)
        return tid

    def dep(pred: int, succ: int) -> None:
        successors[pred].append(succ)
        n_deps[succ] += 1

    def pushes(k: int):
        """``(target segment, flops, owner)`` of every off-diagonal block
        segment ``k`` is pushed through, by ascending target: block
        column ``k`` of ``A``, block row ``k`` when transposed."""
        if transposed:
            return [
                (bj, 2.0 * blk.nnz, owner_of_block(k, bj))
                for bj, blk in f.blocks_in_row(k)
            ]
        rows, blocks = f.blocks_in_column(k)
        return [
            (int(bi), 2.0 * blk.nnz, owner_of_block(int(bi), k))
            for bi, blk in zip(rows, blocks)
        ]

    pushed = [pushes(k) for k in range(nb)]  # both sweeps walk it
    # the writers of y_i and of x_i, in sweep order; x_i's chain is led
    # by DIAG_F(i), which its head waits for
    fwd: list[list[int]] = [[] for _ in range(nb)]
    bwd: list[list[int]] = [[] for _ in range(nb)]

    # the forward diagonal solve is with L (Uᵀ when transposed), the
    # backward one with U (Lᵀ); an update waits for the diagonal solve
    # of the segment it reads
    for k in range(nb):
        diag = add(
            TSolveTaskType.DIAG_F, k, k,
            _diag_solve_flops(f, k, lower=not transposed),
            owner_of_block(k, k),
        )
        bwd[k].append(diag)
        for tgt, fl, p in pushed[k]:
            if tgt > k:
                fwd[tgt].append(add(TSolveTaskType.UPD_F, k, tgt, fl, p))
                dep(diag, fwd[tgt][-1])
        fwd[k].append(diag)
    for k in range(nb - 1, -1, -1):
        diag = add(
            TSolveTaskType.DIAG_B, k, k,
            _diag_solve_flops(f, k, lower=transposed),
            owner_of_block(k, k),
        )
        for tgt, fl, p in pushed[k]:
            if tgt < k:
                bwd[tgt].append(add(TSolveTaskType.UPD_B, k, tgt, fl, p))
                dep(diag, bwd[tgt][-1])
        bwd[k].append(diag)

    seeds = np.zeros(len(kinds), dtype=bool)
    for chain in fwd + bwd:
        for pred, succ in zip(chain, chain[1:]):
            dep(pred, succ)
    for chain in bwd:
        seeds[chain[1]] = True

    entries = [
        (k if kind in _Y_WRITERS else 2 * nb - 1 - k, kind, tid)
        for tid, (kind, k) in enumerate(zip(kinds, k_of))
    ]
    return TSolveDAG(
        kinds=np.asarray(kinds, dtype=np.int64),
        k_of=np.asarray(k_of, dtype=np.int64),
        target=np.asarray(target, dtype=np.int64),
        flops=np.asarray(flops),
        out_bytes=np.asarray(out_b),
        n_deps=np.asarray(n_deps, dtype=np.int64),
        successors=successors,
        owner=np.asarray(owner, dtype=np.int64),
        total_flops=float(np.sum(flops)),
        entries=entries,
        seeds=seeds,
        transposed=transposed,
    )

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

The backward sweep chains off the forward one per segment (``DIAG_B(k)``
additionally waits for ``DIAG_F(k)``), so the two solves pipeline the way
the real distributed phase does.

A **transposed** solve ``Aᵀ x = b`` is the same graph over ``(LU)ᵀ =
Uᵀ Lᵀ`` (``transposed=True``): the forward sweep solves with ``Uᵀ`` and
pushes segment ``k`` through the ``U`` blocks of block *row* ``k``
(``UPD_F(k, j)``: ``y_j −= U(k,j)ᵀ · y_k``), the backward sweep solves
with ``Lᵀ`` and pushes through the ``L`` blocks of that row
(``UPD_B(k, i)``: ``x_i −= L(k,i)ᵀ · x_k``) — block rows walked where
the plain solve walks block columns, every task still on the owner of
the block it reads.

Two consumers share this graph.  The *simulator* (``runtime/adapters.py``)
prices the default build, whose dependencies capture mathematical
readiness only.  The *real engines* (sequential / threaded / distributed
/ hybrid, see :mod:`repro.core.tsolve` and :mod:`repro.runtime.engines`)
request ``executable=True``, which adds the edges actual concurrent
execution needs on top:

* the updates into each target segment are **chained** in the order a
  k-ordered loop sweep applies them (ascending source ``k`` forward,
  descending backward) — every segment then has a totally ordered writer
  sequence, making any topological execution *bit-identical* to the
  one-lane replay (the loop sweeps the tests keep as oracle,
  ``tests/reference_tsolve.py``, apply the same order);
* ``DIAG_F(i)`` precedes the first backward update into segment ``i``
  (``DIAG_F`` seeds the backward array from the forward result, so the
  seed must land before ``UPD_B`` writes accumulate on it);
* per-task write sequence numbers (``seq_y`` / ``seq_x``) record each
  writer's position in its segment's order, letting the distributed
  engine discard stale segment payloads delivered out of order.
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

    ``seq_y`` / ``seq_x`` are only populated by ``executable=True``
    builds: the position of each task in its target segment's total write
    order on the forward (``y``) and backward (``x``) arrays, −1 for
    tasks that do not write the array.  ``DIAG_F`` appears in both — it
    finishes the ``y`` segment and seeds the matching ``x`` segment.
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
    seq_y: np.ndarray | None = None
    seq_x: np.ndarray | None = None
    transposed: bool = False

    def __len__(self) -> int:
        return len(self.kinds)


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
    f: BlockMatrix, owner_of_block, *, executable: bool = False,
    transposed: bool = False,
) -> TSolveDAG:
    """Build the solve DAG; ``owner_of_block(bi, bj) -> proc`` sets task
    placement (diag tasks on the diagonal block's owner, updates on the
    off-diagonal block's owner — data stays put, vectors move).

    ``executable=True`` additionally chains same-target updates in
    ascending/descending source order, orders the backward seed, and
    fills ``seq_y``/``seq_x`` — the extra structure the real engines need
    for race-free, bit-identical concurrent execution (module docstring).
    The default build is the looser graph the simulator prices.
    ``transposed=True`` builds the graph of ``Aᵀ x = b`` (block rows in
    place of block columns).
    """
    nb = f.nb
    kinds: list[int] = []
    k_of: list[int] = []
    target: list[int] = []
    flops: list[float] = []
    out_b: list[float] = []
    owner: list[int] = []

    def add(kind: TSolveTaskType, k: int, tgt: int, fl: float, p: int) -> int:
        tid = len(kinds)
        kinds.append(int(kind))
        k_of.append(k)
        target.append(tgt)
        flops.append(fl)
        out_b.append(8.0 * f.block_order(tgt))
        owner.append(p)
        return tid

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

    diag_f: dict[int, int] = {}
    diag_b: dict[int, int] = {}
    upd_f: list[tuple[int, int, int]] = []  # (tid, k, i)
    upd_b: list[tuple[int, int, int]] = []

    # the forward diagonal solve is with L (Uᵀ when transposed), the
    # backward one with U (Lᵀ)
    for k in range(nb):
        diag_f[k] = add(
            TSolveTaskType.DIAG_F, k, k,
            _diag_solve_flops(f, k, lower=not transposed),
            owner_of_block(k, k),
        )
        for tgt, fl, p in pushed[k]:
            if tgt > k:
                upd_f.append((add(TSolveTaskType.UPD_F, k, tgt, fl, p), k, tgt))
    for k in range(nb - 1, -1, -1):
        diag_b[k] = add(
            TSolveTaskType.DIAG_B, k, k,
            _diag_solve_flops(f, k, lower=transposed),
            owner_of_block(k, k),
        )
        for tgt, fl, p in pushed[k]:
            if tgt < k:
                upd_b.append((add(TSolveTaskType.UPD_B, k, tgt, fl, p), k, tgt))

    n = len(kinds)
    n_deps = np.zeros(n, dtype=np.int64)
    successors: list[list[int]] = [[] for _ in range(n)]

    def dep(pred: int, succ: int) -> None:
        successors[pred].append(succ)
        n_deps[succ] += 1

    # forward: DIAG_F(k) <- every UPD_F(j, k); UPD_F(k, i) <- DIAG_F(k)
    for tid, k, i in upd_f:
        dep(diag_f[k], tid)
        dep(tid, diag_f[i])
    # backward mirrors, plus the forward->backward chain per segment
    for tid, k, i in upd_b:
        dep(diag_b[k], tid)
        dep(tid, diag_b[i])
    for k in range(nb):
        dep(diag_f[k], diag_b[k])

    seq_y = seq_x = None
    if executable:
        seq_y = np.full(n, -1, dtype=np.int64)
        seq_x = np.full(n, -1, dtype=np.int64)
        # forward writers of y[i]: UPD_F(k, i) ascending k (the order the
        # upd_f list already carries), then DIAG_F(i)
        fwd_chain: dict[int, list[int]] = {}
        for tid, _k, i in upd_f:
            fwd_chain.setdefault(i, []).append(tid)
        for i, chain in fwd_chain.items():
            for pos, tid in enumerate(chain):
                seq_y[tid] = pos
                if pos:
                    dep(chain[pos - 1], tid)
        for i in range(nb):
            seq_y[diag_f[i]] = len(fwd_chain.get(i, ()))
        # backward writers of x[i]: the DIAG_F(i) seed, UPD_B(k, i)
        # descending k (the upd_b list order), then DIAG_B(i)
        bwd_chain: dict[int, list[int]] = {}
        for tid, _k, i in upd_b:
            bwd_chain.setdefault(i, []).append(tid)
        for i in range(nb):
            seq_x[diag_f[i]] = 0
        for i, chain in bwd_chain.items():
            dep(diag_f[i], chain[0])  # the seed lands before updates
            for pos, tid in enumerate(chain):
                seq_x[tid] = pos + 1
                if pos:
                    dep(chain[pos - 1], tid)
        for i in range(nb):
            seq_x[diag_b[i]] = len(bwd_chain.get(i, ())) + 1

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
        n_deps=n_deps,
        successors=successors,
        owner=np.asarray(owner, dtype=np.int64),
        total_flops=float(np.sum(flops)),
        entries=entries,
        seq_y=seq_y,
        seq_x=seq_x,
        transposed=transposed,
    )

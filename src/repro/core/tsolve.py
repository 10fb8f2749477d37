"""Block triangular solves — phase 5 of PanguLU.

After numeric factorisation the block matrix holds ``L`` (strictly below
the diagonal blocks plus the unit-lower part of each diagonal block) and
``U`` (diagonal and above).  Solving ``A x = b`` finishes with
``L y = b`` (forward) and ``U x = y`` (backward); solving ``Aᵀ x = b``
with ``Uᵀ y = b`` and ``Lᵀ x = y``.  Each sweep is one task per RHS
segment (:mod:`repro.core.tsolve_dag`): the task gathers its block row
(:func:`gather` — every block's product in one
:func:`~repro.kernels.tsolve_kernels.prod_stack` call over the blocks
the solve DAG lists for the task, summed in ascending ``k``), then
applies one triangle of the diagonal block's packed inverse
(:func:`~repro.kernels.tsolve_kernels.diag_seg`), which the
factorisation kept on the block matrix
(:meth:`~repro.core.blocking.BlockMatrix.diag_inverse`): the solve
inverts nothing the factorisation already inverted.

There is one execution path, in either direction:
:func:`~repro.core.tsolve_dag.build_tsolve_dag` tasks drained through the
shared :class:`~repro.runtime.scheduler.SchedulerCore` by the one lane
driver (:func:`repro.runtime.lanes.run_lanes`), exactly like the numeric
phase.  :class:`SolveJob` is the phase's job; :func:`tsolve_lanes` runs
it in this process (:func:`tsolve_sequential` is its one-lane form, this
module's analogue of :func:`repro.core.numeric.factorize`), the rank
variant lives in :mod:`repro.runtime.distributed`, and all are dispatched
by name through :mod:`repro.runtime.engines`.  Each segment's products
are summed in a fixed order, so every engine and lane count reproduces
the one-lane replay bit for bit; that replay agrees with the k-ordered
per-column loop sweeps (a test-only oracle, ``tests/reference_tsolve.py``)
to rounding — a product with an inverse is not a substitution.
"""

from __future__ import annotations

import numpy as np

from ..kernels.base import SingularBlockError
from ..kernels.tsolve_kernels import diag_seg, prod_stack
from ..runtime.lanes import run_lanes
from ..runtime.scheduler import EventRecorder, RunReport, SchedulerCore
from ..sparse.csc import as_values
from .blocking import BlockMatrix
from .tsolve_dag import FORWARD, LSUM, TSolveDAG, build_tsolve_dag

__all__ = [
    "checked_rhs",
    "segment_products",
    "gather",
    "SolveJob",
    "tsolve_lanes",
    "tsolve_sequential",
]


def checked_rhs(b, n: int, *, panel: bool = False) -> np.ndarray:
    """``b`` as the ``float64`` right-hand side of an order-``n`` solve,
    the one check of every facade and solve engine: complex values are
    refused by name (:func:`~repro.sparse.csc.as_values`), as are a
    shape other than ``(n,)`` — or ``(n, k)``, ``k ≥ 1``, with ``panel``
    — and a non-finite entry (``ValueError`` naming the first one)."""
    b = as_values(b, np.float64)
    if b.ndim not in ((1, 2) if panel else (1,)) or b.shape[0] != n:
        expect = f"({n},) or ({n}, k)" if panel else f"({n},)"
        raise ValueError(f"b has shape {b.shape}, expected {expect}")
    if b.ndim == 2 and b.shape[1] == 0:
        raise ValueError(f"b has no right-hand-side columns (shape {b.shape})")
    bad = np.argwhere(~np.isfinite(b))
    if bad.size:
        where = ", ".join(map(str, bad[0]))
        raise ValueError(
            f"right-hand side is not finite: b[{where}] = {b[tuple(bad[0])]}"
        )
    return b


def segment_products(
    f: BlockMatrix, i: int, ks, slots, v: np.ndarray, *, transposed: bool = False
) -> np.ndarray:
    """The products of segment ``i``'s blocks — in storage ``slots`` —
    with the segments ``ks`` of ``v``, stacked in the order of ``ks``:
    ``B(i,k)·v_k``, or ``B(k,i)ᵀ·v_k`` when ``transposed`` (one
    :func:`~repro.kernels.tsolve_kernels.prod_stack` call)."""
    blocks = [f.block_at(slot) for slot in np.asarray(slots).tolist()]
    starts = f.boundaries[np.asarray(ks, dtype=np.int64)]
    return prod_stack(blocks, starts, v, f.block_order(i), transposed=transposed)


def gather(
    f: BlockMatrix, i: int, ks, slots, v: np.ndarray, seg: np.ndarray, *,
    transposed: bool = False, received=(),
) -> None:
    """``seg −= Σ_k B(i,k)·v_k`` (``B(k,i)ᵀ`` when ``transposed``) over
    the segments ``ks`` (blocks in ``slots``) and the ``(ks, stack)``
    products ``received`` from other ranks: every product goes into one
    stack at its ``k``, ascending, and the stack is summed as one
    reduction — so the result does not depend on who computed which
    product."""
    stack = segment_products(f, i, ks, slots, v, transposed=transposed)
    if received:
        ks = np.concatenate([ks, *(r for r, _ in received)])
        stack = np.concatenate([stack, *(s for _, s in received)])
        stack = stack[np.argsort(ks)]
    seg -= stack.sum(axis=0)


class SolveJob:
    """Phase 5 as the lane driver sees it (the job protocol of
    :mod:`repro.runtime.lanes`), on every engine: a task runs on the
    shared ``y``/``x`` arrays (``y`` holds ``b`` until the forward sweep
    overwrites it, segment by segment) and is traced as ``DIAG_F(i=3)``
    under its task kind.  Every segment has one writer and all its
    readers are the writer's successors, so no task takes a lock.

    ``f`` is the factored :class:`BlockMatrix` (on a distributed rank,
    its :meth:`~BlockMatrix.restricted` share).
    """

    name = "tsolve"

    def __init__(self, f, tdag: TSolveDAG, y: np.ndarray, x: np.ndarray) -> None:
        self.f = f
        self.tdag = tdag
        self.y = y
        self.x = x
        #: an LSUM task's stack of products, until its diagonal task runs
        self.partials: dict[int, np.ndarray] = {}
        self.lsums_of: dict[int, list[int]] = {}
        for tid in np.flatnonzero(np.isin(tdag.kinds, LSUM)).tolist():
            self.lsums_of.setdefault(tdag.successors[tid][0], []).append(tid)

    def execute(self, tid: int, ws) -> tuple:
        """Run one solve task.  An ``LSUM`` task stacks its products in
        :attr:`partials`; a diagonal task gathers its segment with them
        (:func:`gather`) and solves it with the triangle of its diagonal
        block's packed inverse — ``L⁻¹`` forward, ``U⁻¹`` backward, the
        other way round when transposed — writing ``y_i`` or ``x_i``.

        A zero ``U`` pivot raises :class:`SingularBlockError` naming the
        diagonal block, the column in it and the row of the reordered
        matrix.
        """
        f, tdag = self.f, self.tdag
        kind = int(tdag.kinds[tid])
        i = int(tdag.segment[tid])
        trans = tdag.transposed
        forward = kind in FORWARD
        src = self.y if forward else self.x
        if kind in LSUM:
            self.partials[tid] = segment_products(
                f, i, tdag.sources[tid], tdag.slots[tid], src, transposed=trans
            )
            return ()
        seg = f.block_slice(i)
        if not forward:
            self.x[seg] = self.y[seg]
        received = [
            (tdag.sources[lsum], self.partials.pop(lsum))
            for lsum in self.lsums_of.get(tid, ())
        ]
        gather(f, i, tdag.sources[tid], tdag.slots[tid], src, src[seg],
               transposed=trans, received=received)
        slot = f.block_slot(i, i)
        try:
            inv = f.diag_inverse(slot)
        except SingularBlockError:
            j = int(np.flatnonzero(f.block_at(slot).diagonal() == 0.0)[0])
            raise SingularBlockError(
                f"zero/missing U diagonal in block {i}, column {j} "
                f"(row {seg.start + j} of the reordered matrix)"
            ) from None
        diag_seg(inv, src[seg], ws, lower=forward != trans, transposed=trans)
        return ()

    def trace_label(self, tid: int) -> tuple[str, str]:
        return self.tdag.trace_label(tid)

    def finish(self, report: RunReport) -> None:
        """The number of right-hand sides solved at once."""
        report.nrhs = 1 if self.y.ndim == 1 else self.y.shape[1]


def tsolve_lanes(
    f: BlockMatrix,
    tdag: TSolveDAG,
    b: np.ndarray,
    *,
    n_lanes: int = 1,
    recorder: EventRecorder | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Both triangular sweeps on ``n_lanes`` lanes of this process.
    Each segment's products are summed in a fixed order, so the solution
    is bit-identical for every lane count.  ``b`` passes
    :func:`checked_rhs`.  Returns ``(x, RunReport)``."""
    y = checked_rhs(b, f.n, panel=True).copy()
    x = np.empty_like(y)
    return x, run_lanes(
        SchedulerCore.from_dag(tdag, recorder=recorder),
        SolveJob(f, tdag, y, x),
        n_lanes=n_lanes, recorder=recorder,
    )


def tsolve_sequential(
    f: BlockMatrix,
    b: np.ndarray,
    *,
    tdag: TSolveDAG | None = None,
    recorder: EventRecorder | None = None,
) -> tuple[np.ndarray, RunReport]:
    """Both triangular sweeps as a one-lane replay of the solve DAG —
    what every other lane count and engine must match bit for bit.

    ``b`` may be a vector or an ``(n, k)`` multi-RHS panel.  Pass a
    ``recorder`` for solve-task trace lanes.
    """
    if tdag is None:
        tdag = build_tsolve_dag(f, lambda bi, bj: 0)
    return tsolve_lanes(f, tdag, b, recorder=recorder)

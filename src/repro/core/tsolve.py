"""Block triangular solves — phase 5 of PanguLU.

After numeric factorisation the block matrix holds ``L`` (strictly below
the diagonal blocks plus the unit-lower part of each diagonal block) and
``U`` (diagonal and above).  Solving ``A x = b`` finishes with
``L y = b`` (forward, by block columns) and ``U x = y`` (backward);
solving ``Aᵀ x = b`` with ``Uᵀ y = b`` and ``Lᵀ x = y`` (by block rows).
Both sweeps reuse the two-layer structure with two kernels: the diagonal
block solves are one product with the dense inverse of the block's
triangle (:func:`~repro.kernels.tsolve_kernels.diag_seg`); the
off-diagonal updates are block mat-vecs over stored entries only
(:func:`~repro.kernels.tsolve_kernels.upd_seg`).

There is one execution path, in either direction:
:func:`~repro.core.tsolve_dag.build_tsolve_dag` tasks drained through the
shared :class:`~repro.runtime.scheduler.SchedulerCore` by the one lane
driver (:func:`repro.runtime.lanes.run_lanes`), exactly like the numeric
phase.  :class:`SolveJob` is the phase's job; :func:`tsolve_lanes` runs
it in this process (:func:`tsolve_sequential` is its one-lane form, this
module's analogue of :func:`repro.core.numeric.factorize`), the rank
variant lives in :mod:`repro.runtime.distributed`, and all are dispatched
by name through :mod:`repro.runtime.engines`.  Same-target updates are
chained in the DAG, so every engine and lane count reproduces the
one-lane replay bit for bit; that replay agrees with the k-ordered
per-column loop sweeps (a test-only oracle, ``tests/reference_tsolve.py``)
to rounding — a product with an inverse is not a substitution.
"""

from __future__ import annotations

import numpy as np

from ..kernels.base import SingularBlockError
from ..kernels.tsolve_kernels import diag_seg, upd_seg
from ..runtime.lanes import run_lanes
from ..runtime.scheduler import EventRecorder, RunReport, SchedulerCore
from .blocking import BlockMatrix
from .tsolve_dag import _Y_WRITERS, TSolveDAG, TSolveTaskType, build_tsolve_dag

__all__ = [
    "tsolve_write_slots",
    "execute_tsolve_task",
    "SolveJob",
    "tsolve_lanes",
    "tsolve_sequential",
]


def tsolve_write_slots(tdag: TSolveDAG, tid: int, nb: int) -> tuple[int, ...]:
    """The one write-lock slot of a task: slot ``i`` is the ``y``
    segment ``i``, slot ``nb + i`` the ``x`` segment ``i``."""
    tgt = int(tdag.target[tid])
    return (tgt if int(tdag.kinds[tid]) in _Y_WRITERS else nb + tgt,)


def execute_tsolve_task(
    f: BlockMatrix, tdag: TSolveDAG, tid: int, y: np.ndarray, x: np.ndarray
) -> None:
    """Run one solve task against the forward/backward RHS arrays.

    The per-task entry point :class:`SolveJob` calls on every engine
    (the phase-5 analogue of
    :func:`repro.core.numeric.execute_task`).  ``f`` is the factored
    :class:`BlockMatrix` (on a distributed rank, its
    :meth:`~BlockMatrix.restricted` share).  The DAG's direction flag
    picks the block an update reads (``(tgt, k)``, or ``(k, tgt)``
    transposed) and the triangle a diagonal task inverts: forward tasks
    solve with ``L``, backward tasks with ``U``, the other way round when
    transposed.  A seeded task first copies its segment of ``y`` into
    ``x``: the backward sweep starts from the forward result.

    A zero ``U`` pivot raises :class:`SingularBlockError` naming the
    diagonal block, the column in it and the row of the reordered matrix.
    """
    kind = int(tdag.kinds[tid])
    k = int(tdag.k_of[tid])
    tgt = int(tdag.target[tid])
    trans = tdag.transposed
    seg = f.block_slice(tgt)
    out = y if kind in _Y_WRITERS else x
    if tdag.seeds[tid]:
        x[seg] = y[seg]
    if kind in (TSolveTaskType.UPD_F, TSolveTaskType.UPD_B):
        blk = f.block(k, tgt) if trans else f.block(tgt, k)
        upd_seg(out[seg], blk, out[f.block_slice(k)], transposed=trans)
        return
    diag = f.block(k, k)
    try:
        diag_seg(diag, out[seg], lower=(out is y) != trans, transposed=trans)
    except SingularBlockError:
        j = int(np.flatnonzero(diag.diagonal() == 0.0)[0])
        raise SingularBlockError(
            f"zero/missing U diagonal in block {k}, column {j} "
            f"(row {seg.start + j} of the reordered matrix)"
        ) from None


def _check_rhs(n: int, b: np.ndarray) -> np.ndarray:
    y = np.array(b, dtype=np.float64)
    if y.ndim not in (1, 2) or y.shape[0] != n:
        raise ValueError(f"rhs has shape {y.shape}, expected ({n},) or ({n}, k)")
    return y


class SolveJob:
    """Phase 5 as the lane driver sees it (the job protocol of
    :mod:`repro.runtime.lanes`): a task writes RHS segment slots (``y``
    segment ``i`` is slot ``i``, ``x`` segment ``i`` slot ``nb + i``),
    runs as :func:`execute_tsolve_task` on the shared ``y``/``x`` arrays
    and is traced as ``DIAG_F(k=3)`` under its task kind.

    ``f`` is the :class:`BlockMatrix` (on a distributed rank, its
    :meth:`~BlockMatrix.restricted` share).
    """

    name = "tsolve"

    def __init__(self, f, tdag: TSolveDAG, y: np.ndarray, x: np.ndarray) -> None:
        self.f = f
        self.tdag = tdag
        self.y = y
        self.x = x
        self.n_slots = 2 * f.nb

    def write_slots(self, tid: int) -> tuple[int, ...]:
        return tsolve_write_slots(self.tdag, tid, self.f.nb)

    def execute(self, tid: int, ws) -> tuple:
        execute_tsolve_task(self.f, self.tdag, tid, self.y, self.x)
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
    The solve DAG totally orders the writers of every segment, so the
    solution is bit-identical for every lane count.  Returns
    ``(x, RunReport)``."""
    y = _check_rhs(f.n, b)
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

"""Block triangular solves — phase 5 of PanguLU.

After numeric factorisation the block matrix holds ``L`` (strictly below
the diagonal blocks plus the unit-lower part of each diagonal block) and
``U`` (diagonal and above).  Solving ``A x = b`` finishes with
``L y = b`` (forward, by block columns) and ``U x = y`` (backward).
Both sweeps reuse the two-layer structure: the diagonal block solves are
within-block sparse substitutions; the off-diagonal updates are block
mat-vecs over stored entries only.

Two execution paths share the same kernels
(:mod:`repro.kernels.tsolve_kernels`):

* the legacy **loop sweeps** :func:`block_forward` / :func:`block_backward`
  — fixed k-ascending/-descending order, no scheduler (also the transposed
  solves, which have no DAG path);
* the **scheduler path** — :func:`build_tsolve_dag(..., executable=True)
  <repro.core.tsolve_dag.build_tsolve_dag>` tasks drained through the
  shared :class:`~repro.runtime.scheduler.SchedulerCore` by the one lane
  driver (:func:`repro.runtime.lanes.run_lanes`), exactly like the
  numeric phase.  :class:`SolveJob` is the phase's job;
  :func:`tsolve_lanes` runs it in this process (:func:`tsolve_sequential`
  is its one-lane form, this module's analogue of
  :func:`repro.core.numeric.factorize`), the rank variant lives in
  :mod:`repro.runtime.distributed`, and all are dispatched by name
  through :mod:`repro.runtime.engines`.  Same-target updates are chained
  in the DAG, so every engine reproduces the loop sweeps' floating-point
  operation order bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..kernels.plans import PlanCache
from ..kernels.tsolve_kernels import (
    SpMVPlan,
    build_spmv_plan,
    diagb_seg,
    diagf_seg,
    updb_seg,
    updf_seg,
)
from ..runtime.lanes import run_lanes
from ..runtime.scheduler import EventRecorder, RunReport, SchedulerCore
from ..sparse.csc import CSCMatrix
from .blocking import BlockMatrix
from .tsolve_dag import TSolveDAG, TSolveTaskType, build_tsolve_dag

__all__ = [
    "solve_lower_unit",
    "solve_upper",
    "block_forward",
    "block_backward",
    "block_forward_trans",
    "block_backward_trans",
    "solve_lower_trans_u",
    "solve_upper_trans_l",
    "tsolve_entries",
    "tsolve_core",
    "tsolve_write_slots",
    "tsolve_task_label",
    "resolve_spmv_plan",
    "execute_tsolve_task",
    "SolveJob",
    "tsolve_lanes",
    "tsolve_sequential",
]


def solve_lower_unit(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← L⁻¹ y`` with the unit-lower part of a factored
    diagonal block (alias of :func:`repro.kernels.tsolve_kernels.diagf_seg`,
    kept under its historical name)."""
    diagf_seg(diag, y)


def solve_upper(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← U⁻¹ y`` with the upper part (incl. diagonal) of a
    factored diagonal block (alias of
    :func:`repro.kernels.tsolve_kernels.diagb_seg`)."""
    diagb_seg(diag, y)


def _block_matvec_sub(blk: CSCMatrix, x_seg: np.ndarray, y_seg: np.ndarray) -> None:
    """``y_seg -= blk @ x_seg`` over stored entries only (vector or panel)."""
    updf_seg(y_seg, blk, x_seg)


def block_forward(f: BlockMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``L y = b`` over the factored block matrix.

    ``b`` may be a vector of length ``n`` or an ``(n, k)`` array of ``k``
    right-hand sides (solved simultaneously, vectorised across columns).
    """
    y = np.asarray(b, dtype=np.float64).copy()
    if y.shape[0] != f.n or y.ndim > 2:
        raise ValueError(f"rhs has shape {y.shape}, expected ({f.n},) or ({f.n}, k)")
    for k in range(f.nb):
        seg = f.block_slice(k)
        diag = f.block(k, k)
        assert diag is not None
        solve_lower_unit(diag, y[seg])
        rows, blocks = f.blocks_in_column(k)
        for bi, blk in zip(rows, blocks):
            bi = int(bi)
            if bi <= k:
                continue
            tgt = f.block_slice(bi)
            _block_matvec_sub(blk, y[seg], y[tgt])
    return y


def block_backward(f: BlockMatrix, y: np.ndarray) -> np.ndarray:
    """Solve ``U x = y`` over the factored block matrix (vector or
    ``(n, k)`` multi-RHS array)."""
    x = np.asarray(y, dtype=np.float64).copy()
    if x.shape[0] != f.n or x.ndim > 2:
        raise ValueError(f"rhs has shape {x.shape}, expected ({f.n},) or ({f.n}, k)")
    for k in range(f.nb - 1, -1, -1):
        seg = f.block_slice(k)
        diag = f.block(k, k)
        assert diag is not None
        solve_upper(diag, x[seg])
        # propagate x_k into earlier block rows through U column k blocks
        rows, blocks = f.blocks_in_column(k)
        for bi, blk in zip(rows, blocks):
            bi = int(bi)
            if bi >= k:
                continue
            tgt = f.block_slice(bi)
            _block_matvec_sub(blk, x[seg], x[tgt])
    return x


def _block_matvec_t_sub(blk: CSCMatrix, x_seg: np.ndarray, y_seg: np.ndarray) -> None:
    """``y_seg -= blkᵀ @ x_seg`` over stored entries only."""
    cols = np.repeat(np.arange(blk.ncols), np.diff(blk.indptr))
    np.subtract.at(y_seg, cols, blk.data * x_seg[blk.indices])


def solve_lower_trans_u(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← U⁻ᵀ y`` with the upper part of a factored diagonal
    block (``Uᵀ`` is non-unit lower triangular; forward substitution using
    ``U``'s columns as ``Uᵀ``'s rows)."""
    n = diag.ncols
    data = diag.data
    for j in range(n):
        sl = diag.col_slice(j)
        rows = diag.indices[sl]
        vals = data[sl]
        dpos = int(np.searchsorted(rows, j))
        if dpos >= rows.size or rows[dpos] != j or vals[dpos] == 0.0:
            raise ZeroDivisionError(f"zero or missing U diagonal at {j}")
        if dpos > 0:
            y[j] -= vals[:dpos] @ y[rows[:dpos]]
        y[j] /= vals[dpos]


def solve_upper_trans_l(diag: CSCMatrix, y: np.ndarray) -> None:
    """In-place ``y ← L⁻ᵀ y`` with the unit-lower part of a factored
    diagonal block (``Lᵀ`` is unit upper triangular; backward
    substitution using ``L``'s columns as ``Lᵀ``'s rows)."""
    n = diag.ncols
    data = diag.data
    for j in range(n - 1, -1, -1):
        sl = diag.col_slice(j)
        rows = diag.indices[sl]
        start = int(np.searchsorted(rows, j + 1))
        if start < rows.size:
            y[j] -= data[sl][start:] @ y[rows[start:]]


def block_forward_trans(f: BlockMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``Uᵀ y = b`` over the factored block matrix (the forward
    sweep of a transposed solve ``(LU)ᵀ v = b``)."""
    y = np.asarray(b, dtype=np.float64).copy()
    if y.shape != (f.n,):
        raise ValueError(f"rhs has shape {y.shape}, expected ({f.n},)")
    for k in range(f.nb):
        seg = f.block_slice(k)
        # contributions from earlier segments through U blocks above the
        # diagonal in block column k (their transposes sit in row k of Uᵀ)
        rows, blocks = f.blocks_in_column(k)
        for bi, blk in zip(rows, blocks):
            bi = int(bi)
            if bi >= k:
                continue
            src = f.block_slice(bi)
            _block_matvec_t_sub(blk, y[src], y[seg])
        diag = f.block(k, k)
        assert diag is not None
        solve_lower_trans_u(diag, y[seg])
    return y


def block_backward_trans(f: BlockMatrix, y: np.ndarray) -> np.ndarray:
    """Solve ``Lᵀ x = y`` over the factored block matrix (the backward
    sweep of a transposed solve)."""
    x = np.asarray(y, dtype=np.float64).copy()
    if x.shape != (f.n,):
        raise ValueError(f"rhs has shape {x.shape}, expected ({f.n},)")
    for k in range(f.nb - 1, -1, -1):
        seg = f.block_slice(k)
        rows, blocks = f.blocks_in_column(k)
        for bi, blk in zip(rows, blocks):
            bi = int(bi)
            if bi <= k:
                continue
            src = f.block_slice(bi)
            _block_matvec_t_sub(blk, x[src], x[seg])
        diag = f.block(k, k)
        assert diag is not None
        solve_upper_trans_l(diag, x[seg])
    return x


# ----------------------------------------------------------------------
# the scheduler path: TSolveDAG tasks through the shared SchedulerCore
# ----------------------------------------------------------------------

_KIND_NAMES = {int(t): t.name for t in TSolveTaskType}

#: task kinds that write the forward (`y`) array / the backward (`x`) array
_Y_WRITERS = (int(TSolveTaskType.DIAG_F), int(TSolveTaskType.UPD_F))


def tsolve_task_label(tdag: TSolveDAG, tid: int) -> str:
    """Trace label of a solve task: ``DIAG_F(k=3)`` / ``UPD_B(9→2)``."""
    kind = int(tdag.kinds[tid])
    k, tgt = int(tdag.k_of[tid]), int(tdag.target[tid])
    name = _KIND_NAMES[kind]
    if kind in (TSolveTaskType.DIAG_F, TSolveTaskType.DIAG_B):
        return f"{name}(k={k})"
    return f"{name}({k}→{tgt})"


def tsolve_entries(tdag: TSolveDAG, nb: int) -> list[tuple[int, int, int]]:
    """Precomputed ready-heap entries: forward tasks by ascending source
    segment, backward tasks by descending — the elimination-step priority
    of Section 4.4 carried over to the solve sweeps."""
    entries = []
    for tid in range(len(tdag)):
        kind = int(tdag.kinds[tid])
        k = int(tdag.k_of[tid])
        prio = k if kind in _Y_WRITERS else 2 * nb - 1 - k
        entries.append((prio, kind, tid))
    return entries


def tsolve_core(
    tdag: TSolveDAG,
    nb: int,
    *,
    owned=None,
    recorder: EventRecorder | None = None,
    lane: int = 0,
) -> SchedulerCore:
    """A :class:`SchedulerCore` over the solve DAG's flat arrays."""
    return SchedulerCore(
        tsolve_entries(tdag, nb),
        [np.asarray(s, dtype=np.int64) for s in tdag.successors],
        tdag.n_deps,
        owned=owned,
        recorder=recorder,
        lane=lane,
    )


def tsolve_write_slots(tdag: TSolveDAG, tid: int, nb: int) -> tuple[int, ...]:
    """Race-checker slots a task writes: slot ``i`` is the ``y`` segment
    ``i``, slot ``nb + i`` the ``x`` segment ``i``.  ``DIAG_F`` claims
    both (it finishes ``y[i]`` and seeds ``x[i]``)."""
    kind = int(tdag.kinds[tid])
    tgt = int(tdag.target[tid])
    if kind == TSolveTaskType.DIAG_F:
        return (tgt, nb + tgt)
    if kind == TSolveTaskType.UPD_F:
        return (tgt,)
    return (nb + tgt,)


def resolve_spmv_plan(
    f, tgt: int, k: int, blk: CSCMatrix, plans: PlanCache | None
) -> SpMVPlan | None:
    """The cached scatter plan of update block ``(tgt, k)``, built on
    first use.  Keyed by storage slot like the factorisation plans —
    patterns are immutable post-symbolic, so the plan survives repeated
    solves and refactorisations."""
    if plans is None:
        return None
    return plans.get(("spmv", f.block_slot(tgt, k)), lambda: build_spmv_plan(blk))


def execute_tsolve_task(
    f,
    tdag: TSolveDAG,
    tid: int,
    y: np.ndarray,
    x: np.ndarray,
    plans: PlanCache | None = None,
) -> None:
    """Run one solve task against the forward/backward RHS arrays.

    The per-task entry point :class:`SolveJob` calls on every engine
    (the phase-5 analogue of
    :func:`repro.core.numeric.execute_task`).  ``f`` is anything exposing
    ``block_slice``/``block``/``block_order``/``block_slot`` — a
    :class:`BlockMatrix` or a distributed rank's local view.
    """
    kind = int(tdag.kinds[tid])
    k = int(tdag.k_of[tid])
    tgt = int(tdag.target[tid])
    seg = f.block_slice(tgt)
    if kind == TSolveTaskType.DIAG_F:
        diagf_seg(f.block(k, k), y[seg])
        x[seg] = y[seg]  # seed the backward sweep with the forward result
    elif kind == TSolveTaskType.DIAG_B:
        diagb_seg(f.block(k, k), x[seg])
    else:
        blk = f.block(tgt, k)
        src = f.block_slice(k)
        plan = resolve_spmv_plan(f, tgt, k, blk, plans)
        if kind == TSolveTaskType.UPD_F:
            updf_seg(y[seg], blk, y[src], plan)
        else:
            updb_seg(x[seg], blk, x[src], plan)


def _check_rhs(n: int, b: np.ndarray) -> np.ndarray:
    y = np.array(b, dtype=np.float64)
    if y.shape[0] != n or y.ndim > 2:
        raise ValueError(f"rhs has shape {y.shape}, expected ({n},) or ({n}, k)")
    return y


class SolveJob:
    """Phase 5 as the lane driver sees it (the job protocol of
    :mod:`repro.runtime.lanes`): a task writes RHS segment slots (``y``
    segment ``i`` is slot ``i``, ``x`` segment ``i`` slot ``nb + i``),
    runs as :func:`execute_tsolve_task` on the shared ``y``/``x`` arrays
    and is traced as ``DIAG_F(k=3)`` under its task kind.

    ``f`` is the :class:`BlockMatrix` or a distributed rank's local view.
    """

    name = "tsolve"

    def __init__(
        self, f, tdag: TSolveDAG, y: np.ndarray, x: np.ndarray,
        plans: PlanCache | None,
    ) -> None:
        self.f = f
        self.tdag = tdag
        self.y = y
        self.x = x
        self.plans = plans
        self.n_slots = 2 * f.nb

    def write_slots(self, tid: int) -> tuple[int, ...]:
        return tsolve_write_slots(self.tdag, tid, self.f.nb)

    def execute(self, tid: int, ws) -> tuple:
        execute_tsolve_task(self.f, self.tdag, tid, self.y, self.x, self.plans)
        return ()

    def trace_label(self, tid: int) -> tuple[str, str]:
        return (
            tsolve_task_label(self.tdag, tid),
            _KIND_NAMES[int(self.tdag.kinds[tid])],
        )

    def finish(self, report: RunReport) -> None:
        """The number of right-hand sides solved at once."""
        report.nrhs = 1 if self.y.ndim == 1 else self.y.shape[1]


def tsolve_lanes(
    f: BlockMatrix,
    tdag: TSolveDAG,
    b: np.ndarray,
    *,
    n_lanes: int = 1,
    plans: PlanCache | None = None,
    recorder: EventRecorder | None = None,
    checker=None,
) -> tuple[np.ndarray, RunReport]:
    """Both triangular sweeps on ``n_lanes`` lanes of this process.
    More than one lane needs an *executable* solve DAG; because that DAG
    totally orders the writers of every segment, the solution is
    bit-identical for every lane count.  Returns ``(x, RunReport)``."""
    if n_lanes > 1 and tdag.seq_y is None:
        raise ValueError("concurrent lanes need an executable solve DAG "
                         "(build_tsolve_dag(..., executable=True))")
    y = _check_rhs(f.n, b)
    x = np.empty_like(y)
    return x, run_lanes(
        tsolve_core(tdag, f.nb, recorder=recorder),
        SolveJob(f, tdag, y, x, plans),
        n_lanes=n_lanes, recorder=recorder, checker=checker,
    )


def tsolve_sequential(
    f: BlockMatrix,
    b: np.ndarray,
    *,
    tdag: TSolveDAG | None = None,
    plans: PlanCache | None = None,
    recorder: EventRecorder | None = None,
    checker=None,
) -> tuple[np.ndarray, RunReport]:
    """Both triangular sweeps as a one-lane replay of the solve DAG —
    the scheduler-path correctness reference (bit-identical to
    ``block_backward(f, block_forward(f, b))``).

    ``b`` may be a vector or an ``(n, k)`` multi-RHS panel.  Pass a
    ``recorder`` for solve-task trace lanes and a ``checker``
    (:class:`~repro.devtools.racecheck.RaceChecker`) to audit the
    single-writer discipline over RHS segments.
    """
    if tdag is None:
        tdag = build_tsolve_dag(f, lambda bi, bj: 0, executable=True)
    return tsolve_lanes(f, tdag, b, plans=plans, recorder=recorder, checker=checker)

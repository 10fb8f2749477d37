"""PanguLU solver facade — the five phases glued together.

``PanguLU(a).solve(b)`` runs:

1. **Reordering** — MC64 row permutation + scaling for a large diagonal
   (numerical stability under static pivoting), then a fill-reducing
   symmetric permutation (nested dissection by default, AMD/RCM/natural
   selectable), kept only if its fill stays within the envelope of the
   input order (:func:`order_by_fill`).
2. **Symbolic factorisation** — symmetric-pruned fill of the reordered
   matrix (:func:`repro.symbolic.symbolic_symmetric`), the capped pass
   that made phase 1's decision.
3. **Preprocessing** — block-size selection, regular 2D blocking into the
   two-layer sparse structure, task-DAG construction, block→rank
   placement.
4. **Numeric factorisation** — DAG replay with adaptive sparse kernels.
5. **Triangular solve** — block forward/backward substitution through the
   engine named by ``options.engine`` (the same scheduler core as the
   numeric phase), then un-permutation and un-scaling of the solution.

Every phase's wall-clock time is recorded in :attr:`PanguLU.phase_seconds`
(the quantity compared in the paper's Figs. 11 and 15).

:meth:`PanguLU.factorize` returns a :class:`Factorization` — a picklable
factor-once/solve-many handle that owns phase 5: it can be shipped to
another process and solve fresh right-hand sides there without
refactorising (the Newton-iteration workload of the paper's
introduction).  ``PanguLU.solve`` / ``solve_transposed`` / ``refactorize``
delegate to it.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from ..ordering import amd, colamd, mc64, nested_dissection, rcm
from ..runtime.scheduler import ENGINE_SHAPES, EventRecorder, RunReport
from ..sparse.csc import CSCMatrix
from ..sparse.patterns import ensure_diagonal
from ..symbolic import SymbolicResult, envelope_profile, symbolic_symmetric
from .blocking import BlockMatrix, block_partition
from .dag import TaskDAG, build_dag
# not called here: the benchmark harness wraps this module's
# ``balance_loads`` by name (benchmarks/e2e/layers.py), so it stays importable
from .mapping import balance_loads  # noqa: F401
from .numeric import NumericOptions
from .placement import PlacementPolicy, resolve_placement
from .strategy import get_blocking_strategy
from .tsolve import checked_rhs
from .tsolve_dag import build_tsolve_dag
from .verify import verify_dag

__all__ = [
    "SolverOptions", "Factorization", "PanguLU", "RefinementStalled",
    "REFINE_TOL", "REFINE_MAX_ITER", "ORDERINGS", "fill_reducing_ordering",
    "order_by_fill", "reorder_and_scale", "checked_rhs", "refined_solve",
]

#: Relative-residual target ``max_j ‖b_j − A x_j‖ / ‖b_j‖`` of the
#: refinement every solve ends with (:func:`refined_solve`): static
#: pivoting (MC64 + GESP pivot replacement) trades factorisation-time
#: stability for a possibly larger residual, and refinement sweeps
#: recover it — the recipe SuperLU_DIST applies.
REFINE_TOL = 1e-12
#: Sweep budget of that loop, and the floor of the escalation's matvec
#: budget.
REFINE_MAX_ITER = 40


class RefinementStalled(ArithmeticError):
    """Iterative refinement on approximate factors could not reach the
    requested residual tolerance.

    Raised by :meth:`Factorization.solve` on ``float32`` (or compressed)
    factors when plain refinement stops contracting *and* the GMRES-IR
    escalation also fails to reach :data:`REFINE_TOL` —
    typically a sign that the matrix is too ill-conditioned for
    single-precision factors (``κ(A) · ε₃₂ ≳ 1``).  Never raised for
    exact ``float64`` factors: they have nothing more precise to
    escalate to and return their best iterate.  The message reports the
    achieved relative residual so callers can decide whether to accept
    it or refactorise at ``factor_dtype="float64"``.

    Attributes
    ----------
    achieved:
        Best relative residual reached (max over right-hand sides).
    tol:
        The tolerance that was requested.
    iterations:
        Total refinement + escalation iterations spent.
    """

    def __init__(self, achieved: float, tol: float, iterations: int) -> None:
        self.achieved = float(achieved)
        self.tol = float(tol)
        self.iterations = int(iterations)
        super().__init__(
            f"mixed-precision refinement stalled at relative residual "
            f"{self.achieved:.3e} (tolerance {self.tol:.3e}, "
            f"{self.iterations} iterations); the matrix is likely too "
            f"ill-conditioned for float32 factors — refactorize with "
            f'factor_dtype="float64"'
        )

    def __reduce__(self):
        return (type(self), (self.achieved, self.tol, self.iterations))


def _fgmres(
    matvec,
    precond,
    r0: np.ndarray,
    tol_abs: float,
    maxiter: int,
    restart: int = 20,
) -> tuple[np.ndarray, int]:
    """Solve ``A y = r0`` by restarted FGMRES, right-preconditioned by the
    (low-precision) factor application ``precond``.

    This is the inner loop of GMRES-IR: the Krylov space is built on the
    true operator in working precision, so it converges where plain
    LU-IR with float32 factors stalls (κ(A)·ε₃₂ ≈ 1).  Returns the
    correction and the number of operator applications spent.
    """
    n = r0.size
    dt = r0.dtype
    y = np.zeros(n, dtype=dt)
    r = r0.copy()
    spent = 0
    while spent < maxiter:
        beta = float(np.linalg.norm(r))
        if beta <= tol_abs or not np.isfinite(beta):
            break
        m = min(restart, maxiter - spent)
        if m < 1:
            break
        v = np.zeros((n, m + 1), dtype=dt)
        z = np.zeros((n, m), dtype=dt)
        h = np.zeros((m + 1, m), dtype=dt)
        v[:, 0] = r / beta
        k_used = 0
        for k in range(m):
            z[:, k] = precond(v[:, k])
            w = np.asarray(matvec(z[:, k]), dtype=dt)
            spent += 1
            for i in range(k + 1):
                h[i, k] = float(v[:, i] @ w)
                w = w - h[i, k] * v[:, i]
            h[k + 1, k] = float(np.linalg.norm(w))
            k_used = k + 1
            if h[k + 1, k] <= np.finfo(dt).tiny:
                break
            v[:, k + 1] = w / h[k + 1, k]
        e1 = np.zeros(k_used + 1, dtype=dt)
        e1[0] = beta
        coef, *_ = np.linalg.lstsq(h[: k_used + 1, :k_used], e1, rcond=None)
        y = y + z[:, :k_used] @ coef
        r = r0 - np.asarray(matvec(y), dtype=dt)
        spent += 1
    return y, spent


def _perm_sign(perm: np.ndarray) -> float:
    """Sign (±1) of a permutation via cycle counting."""
    n = perm.size
    seen = np.zeros(n, dtype=bool)
    sign = 1.0
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = int(perm[j])
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _least_fill(work: CSCMatrix) -> np.ndarray:
    """``"best"``: try the serious candidates and keep the one with least
    fill — ordering cost is small next to numeric factorisation."""
    return min(
        (nested_dissection(work), amd(work)),
        key=lambda q: symbolic_symmetric(work.permute(q, q)).nnz_lu,
    )


#: The fill-reducing orderings by name — the one table every facade
#: (:class:`PanguLU`, the supernodal baseline, ``repro.cholesky``) and the
#: CLI's ``--ordering`` choices read.  The entries look the ordering
#: functions up in this module's globals *when called*, so a wrapper
#: installed on ``repro.core.solver.nested_dissection`` is what runs.
ORDERINGS = {
    "nd": lambda work: nested_dissection(work),
    "amd": lambda work: amd(work),
    "colamd": lambda work: colamd(work),
    "rcm": lambda work: rcm(work),
    "natural": lambda work: np.arange(work.ncols, dtype=np.int64),
    "best": _least_fill,
}


def fill_reducing_ordering(work: CSCMatrix, ordering: str) -> np.ndarray:
    """The symmetric permutation ``ordering`` (a key of :data:`ORDERINGS`)
    computes for ``work``."""
    if ordering not in ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    return ORDERINGS[ordering](work)


def order_by_fill(work: CSCMatrix, ordering: str, spent: dict[str, float]):
    """The symmetric order phase 1 keeps for ``work``, with its symbolic
    factorisation.  Orders as asked and runs the symbolic once, capped at
    the input order's :func:`~repro.symbolic.envelope_profile` — a bound
    on the input order's own fill.  If the cap trips, the input order has
    less fill and is kept instead, so the rule never adds fill.  Returns
    ``(perm, reordered, symbolic, kept)``: ``reordered`` is
    ``work[perm][:, perm]`` with a full diagonal, ``kept`` the record
    ``{"ordering", "nnz_lu", "envelope_nnz_lu"}`` (``None`` for the bound
    when ``"natural"`` was asked and nothing was checked).  The symbolic
    passes' seconds land in ``spent["symbolic"]``."""
    p = fill_reducing_ordering(work, ordering)
    reordered = ensure_diagonal(work.permute(p, p))
    t0, n, kept = time.perf_counter(), work.ncols, ordering
    bound = None if ordering == "natural" else envelope_profile(work)
    sym = symbolic_symmetric(reordered, limit=bound)
    if sym is None:
        p, reordered, kept = np.arange(n, dtype=np.int64), ensure_diagonal(work), "natural"
        sym = symbolic_symmetric(reordered)
    spent["symbolic"] = time.perf_counter() - t0
    envelope = None if bound is None else 2 * (bound + n)   # in nnz_lu's units
    return p, reordered, sym, {"ordering": kept, "nnz_lu": sym.nnz_lu,
                               "envelope_nnz_lu": envelope}


def reorder_and_scale(a: CSCMatrix, ordering: str, spent: dict[str, float]):
    """Phase 1 of the LU-shaped facades: MC64 row permutation + scaling,
    then :func:`order_by_fill`'s symmetric permutation and symbolic pass.
    Returns ``(row_scale, col_scale, row_perm, col_perm, reordered,
    symbolic, kept)`` with ``reordered = (Dr A Dc)[row_perm][:, col_perm]``
    — the matrix the later phases factorise."""
    res = mc64(a)
    work = a.scale(res.row_scale, res.col_scale).permute(res.row_perm, None)
    p, reordered, sym, kept = order_by_fill(work, ordering, spent)
    return res.row_scale, res.col_scale, res.row_perm[p], p, reordered, sym, kept


def require_at_least_one(options, *names: str) -> None:
    """Refuse an option field below 1 (``None`` means "choose for me")."""
    for name in names:
        value = getattr(options, name)
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def refined_solve(
    apply_fn, product, b: np.ndarray, *, tol: float, budget: int,
    history: list, exact: bool,
) -> np.ndarray:
    """One application of the factors plus the refinement the residual
    asks for — the one policy of every solve, LU and Cholesky alike.

    ``apply_fn(r)`` applies the factors (``≈ A⁻¹ r``), ``product(v)`` is
    ``A v``; ``b`` is a vector or an ``(n, k)`` panel, finite
    (:func:`checked_rhs`).

    Plain iterative refinement with the residual in ``float64``: stop
    when the relative residual (max over right-hand sides) meets ``tol``
    (:data:`REFINE_TOL` for the facades), when ``budget`` sweeps are spent
    (:data:`REFINE_MAX_ITER`; ``0`` is the bare application: no residual
    taken), or when two consecutive sweeps fail to halve it, and
    take the best iterate seen.  Short of the tolerance, ``exact``
    factors return that iterate — nothing more precise exists to correct
    it with; approximate ones escalate to a GMRES-IR inner loop (FGMRES
    on ``A`` preconditioned by ``apply_fn``) and :class:`RefinementStalled`
    is raised when that fails too.  ``history`` receives one ``(step,
    relative residual)`` pair per residual taken (the first is labelled
    ``"apply"``, or ``"decompress"`` when the caller retries with a
    non-empty history); a non-finite residual raises
    ``FloatingPointError`` quoting it.
    """
    x = apply_fn(b)
    if budget == 0:
        return x
    bden = np.atleast_1d(np.linalg.norm(b, axis=0))
    bden[bden == 0.0] = 1.0

    def residual(x: np.ndarray, step: str) -> tuple[np.ndarray, float]:
        r = b - product(x)
        worst = float(np.max(np.linalg.norm(r, axis=0) / bden))
        if not np.isfinite(worst):
            raise FloatingPointError(
                f"residual became non-finite at refinement step "
                f"{len(history)} ({step}); history so far: {history}"
            )
        history.append((step, worst))
        return r, worst

    r, worst = residual(x, "decompress" if history else "apply")
    best = (worst, x)
    spent = stall = 0
    while worst > tol and spent < budget and stall < 2:
        x = x + apply_fn(r)
        spent += 1
        prev = worst
        r, worst = residual(x, "sweep")
        # a sweep that fails to halve the residual is "stalled" —
        # more of the same will not converge
        stall = stall + 1 if worst > 0.5 * prev else 0
        if worst < best[0]:
            best = (worst, x)
    if best[0] <= tol or exact:
        return best[1]

    # GMRES-IR escalation from where the sweeps left off, one
    # correction system per unconverged RHS
    for j in np.flatnonzero(np.linalg.norm(r, axis=0) / bden > tol):
        col = np.s_[:, j] if b.ndim == 2 else np.s_[:]
        y, used = _fgmres(
            product, apply_fn, r[col], tol * bden[j], max(budget, 20)
        )
        spent += used
        x[col] += y
    r, worst = residual(x, "fgmres")
    if worst <= tol:
        return x
    raise RefinementStalled(worst, tol, spent)


@dataclass
class SolverOptions:
    """Configuration of the full pipeline.

    Attributes
    ----------
    ordering:
        Fill-reducing ordering: ``"nd"`` (METIS-role nested dissection,
        the paper's choice), ``"amd"``, ``"colamd"``, ``"rcm"``,
        ``"natural"``, or ``"best"`` (evaluate ND and AMD, keep the one
        with least fill).  MC64 permutation/scaling always runs first.
        The asked order is kept unless its fill passes the input order's
        envelope, an upper bound on the input order's own fill; then the
        input (``"natural"``) order is kept, so the rule never adds fill
        (:func:`order_by_fill`; the facade's ``ordering_kept`` records
        which order it kept, its ``nnz_lu`` and the bound).  ``"natural"``
        itself is not checked.
    blocking:
        Blocking strategy for the two-layer structure: ``"regular"``
        (uniform block size — the paper's Section 4.1 layout, default)
        or ``"irregular"`` (structure-aware variable-width boundaries
        guided by the fill pattern's relaxed supernodes — Hu et al.).
        A :class:`~repro.core.strategy.BlockingStrategy` instance is
        accepted for full control.
    block_size:
        Regular block size — or, for ``blocking="irregular"``, the block
        width cap.  ``None`` applies the order/density heuristic of
        :func:`repro.core.blocking.choose_block_size`.
    use_arena:
        Back the two-layer structure with a preallocated
        :class:`~repro.core.blocking.FactorArena` (default): one
        contiguous ``indptr``/``indices``/``data`` slab per factor sized
        during preprocessing, every block a zero-copy view — the paper's
        Section 4.2 "preallocates all block storage during
        preprocessing".  Factors and solutions are bit-identical to the
        legacy per-block layout; ``refactorize`` overwrites the value
        slab in place (no per-block allocations) and pickling a
        :class:`Factorization` ships three buffers instead of thousands.
        ``False`` selects the legacy independently-allocated blocks (the
        ablation baseline).
    numeric:
        Kernel selection and pivoting options for the numeric phase.
    nprocs:
        Rank count of the placement and of the ``"distributed"`` /
        ``"hybrid"`` engines.
    placement:
        Block→rank ownership policy: ``"cyclic"`` (the paper's regular
        2D block-cyclic grid, default), ``"cost"`` (cost-model-driven
        placement on homogeneous ranks), or a prebuilt
        :class:`~repro.core.placement.PlacementPolicy` instance — pass
        ``CostModelPlacement(nprocs, speeds=…)`` for a heterogeneous
        machine.  The policy decides which rank owns (and therefore
        factors) every block, for the distributed/hybrid engines and
        the solve DAGs alike.
    engine:
        Execution engine for the numeric phase **and** for the triangular
        solves of phase 5, resolved through the registries in
        :mod:`repro.runtime.engines`: ``"sequential"``, ``"threaded"``
        (``n_workers`` threads), ``"distributed"`` (``nprocs`` ranks
        over a message transport) or ``"hybrid"`` (``nprocs`` ranks ×
        ``n_workers`` threads per rank — HYLU-style mixed parallelism).
        ``None`` (default) picks ``"threaded"`` when ``n_workers > 1``,
        else ``"sequential"``.  Given the same factors all engines
        produce the bit-identical solution — each RHS segment's block
        products are summed in a fixed order, whoever computed them; the
        factors themselves agree across engines to rounding (the factor
        DAG does not order the Schur updates of one block).
    n_workers:
        Worker threads (lanes of :func:`repro.runtime.lanes.run_lanes`)
        for the ``"threaded"`` engine, and threads *per rank* for the
        ``"hybrid"`` engine.
    trace_events:
        Record structured scheduler events (task start/end, message
        send/recv, ready-queue depth) during the numeric phase and the
        triangular solves; after :meth:`PanguLU.factorize` the recorder
        is available as ``solver.recorder`` (solve-task lanes are
        appended to it by each :meth:`PanguLU.solve`) and can be
        serialised with :func:`repro.runtime.write_recorder_trace`.
    factor_dtype:
        Working precision of the numeric factors: ``"float64"`` (default)
        or ``"float32"``.  Single precision halves the arena ``data``
        slab, the per-block value arrays and the transport value bytes;
        accuracy is recovered by iterative refinement in ``float64``
        (residuals and corrections accumulate in double precision — the
        classic mixed-precision LU-IR recipe, mirroring the production
        solver's paired r32/r64 kernels).  Every solve ends with the
        iterative refinement of :func:`refined_solve` to
        :data:`REFINE_TOL` within :data:`REFINE_MAX_ITER` sweeps; an
        unrefined application is :meth:`Factorization.apply`.
    compress_tol, compress_min_order:
        Not fields of their own: constructor shorthands for, and
        read/write views of, ``numeric.compress_tol`` /
        ``numeric.compress_min_order`` (see :class:`NumericOptions`),
        the one place the low-rank overlay knobs are stored — it is
        what travels to the ranks.
    verify_schedule:
        Statically verify every built DAG (the factor DAG at
        preprocessing, each solve DAG on first use) with
        :func:`repro.core.verify.verify_dag` before any engine executes
        it: acyclicity, counter-equals-indegree and, on the factor DAG,
        single-writer block chains.  A violation raises
        :class:`~repro.core.verify.ScheduleViolation` with a named
        diagnostic instead of deadlocking mid-run.  Also exposed as the
        CLI ``--verify`` flag.
    """

    ordering: str = "nd"
    blocking: str = "regular"
    block_size: int | None = None
    use_arena: bool = True
    numeric: NumericOptions = field(default_factory=NumericOptions)
    nprocs: int = 1
    placement: str | PlacementPolicy = "cyclic"
    factor_dtype: str = "float64"
    n_workers: int = 1
    engine: str | None = None
    trace_events: bool = False
    verify_schedule: bool = False
    compress_tol: InitVar[float | None] = None
    compress_min_order: InitVar[int | None] = None

    def __post_init__(self, compress_tol, compress_min_order) -> None:
        require_at_least_one(self, "block_size", "nprocs", "n_workers")
        shorthands = {"compress_tol": compress_tol,
                      "compress_min_order": compress_min_order}
        shorthands = {k: v for k, v in shorthands.items() if v is not None}
        if shorthands:
            # a copy: the caller's NumericOptions may be shared
            self.numeric = replace(self.numeric, **shorthands)

    def resolved_engine(self) -> str:
        """The engine name after applying the ``None`` default rule."""
        if self.engine is not None:
            return self.engine
        return "threaded" if self.n_workers > 1 else "sequential"

    def resolved_factor_dtype(self) -> np.dtype:
        """``factor_dtype`` as a validated :class:`numpy.dtype`."""
        dt = np.dtype(self.factor_dtype)
        if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(
                f"factor_dtype must be float32 or float64, got {dt}"
            )
        return dt


def _numeric_view(name: str) -> property:
    """A ``SolverOptions`` attribute stored on ``options.numeric``."""
    return property(
        lambda self: getattr(self.numeric, name),
        lambda self, value: setattr(self.numeric, name, value),
    )


# installed after the dataclass is built: inside the class body the names
# are taken by the constructor shorthands above
SolverOptions.compress_tol = _numeric_view("compress_tol")
SolverOptions.compress_min_order = _numeric_view("compress_min_order")


class Factorization:
    """A factor-once/solve-many handle: everything phase 5 needs.

    Produced by :meth:`PanguLU.factorize`; owns the factored blocks, the
    scalings/permutations of phase 1, and the solve DAGs, and
    solves any number of right-hand sides through the engine named by
    ``options.engine`` — without touching the original :class:`PanguLU`
    (which delegates its own ``solve``/``solve_transposed``/
    ``refactorize`` here).

    On a rank engine (``"distributed"`` / ``"hybrid"``) the handle owns
    one pool of **resident ranks**
    (:class:`~repro.runtime.distributed.RankPool`), started by the
    factorisation and kept across every :meth:`solve` and
    :meth:`refactorize` — PanguLU's ``pangulu_init`` → ``gstrf`` →
    ``gstrs`` × N → ``finalize`` handle.  The factors stay on the ranks
    that computed them until something reads them: reading
    :attr:`blocks` gathers them into this process (the ranks stay up),
    and so do pickling, a switch of ``options.engine`` to a local engine
    and :meth:`close`.  :meth:`close` gathers and then stops and joins
    the ranks; the handle stays usable (a later rank-engine solve starts
    a fresh pool from the gathered factors).  Leaving a ``with`` block
    closes the handle; when it is collected, or at interpreter exit, a
    finaliser stops and joins its ranks without gathering.  A fault that
    tears the ranks down with the only copy of the factors leaves a
    handle that raises on every read or solve until :meth:`refactorize`.

    The handle is **picklable**: pickling gathers the factors and closes
    the pool, the pattern-bound execution-plan cache (which holds a lock
    and is cheap to rebuild lazily) is dropped on serialisation by
    ``BlockMatrix.__getstate__`` (which also ships the arena as three
    slabs), everything else round-trips, so a factorisation computed once
    can be shipped to worker processes that each solve their own
    right-hand sides.

    Attributes
    ----------
    solve_count, last_solve_seconds, total_solve_seconds:
        Accounting across :meth:`solve`/:meth:`solve_transposed` calls —
        ``total_solve_seconds`` accumulates (it is what
        ``PanguLU.phase_seconds["solve"]`` reports), ``last_solve_seconds``
        is the most recent call alone.
    stats, last_tsolve_stats:
        :class:`~repro.runtime.scheduler.RunReport` of the most recent
        numeric run, and of the most recent engine-driven sweep pair
        (task counts, pool shape, message bytes on the rank engines;
        after a :meth:`solve`, ``residual_history`` of its refinement).
    """

    def __init__(
        self,
        a: CSCMatrix,
        options: SolverOptions,
        *,
        row_scale: np.ndarray,
        col_scale: np.ndarray,
        row_perm: np.ndarray,
        col_perm: np.ndarray,
        symbolic: SymbolicResult,
        reordered: CSCMatrix,
        blocks: BlockMatrix,
        dag: TaskDAG,
        stats: RunReport | None,
        placement: PlacementPolicy | None = None,
        pool=None,
    ) -> None:
        from ..runtime.distributed import RankPool

        self.a = a
        self.options = options
        self.row_scale = row_scale
        self.col_scale = col_scale
        self.row_perm = row_perm
        self.col_perm = col_perm
        self.symbolic = symbolic
        self.reordered = reordered
        self._blocks = blocks  # the engines' operand; ``blocks`` reads it
        self.dag = dag
        self.stats = stats
        self.solve_count = 0
        self.last_solve_seconds = 0.0
        self.total_solve_seconds = 0.0
        self.refactorize_seconds = 0.0
        self.last_tsolve_stats: RunReport | None = None
        self.placement = placement
        # solve DAGs, keyed by engine placement (the local
        # engines share one single-owner DAG; distributed/hybrid need
        # the ownership map of their rank count) and solve direction
        self._tsolve_dags: dict = {}
        self._pool = pool or RankPool()

    @property
    def n(self) -> int:
        return self.a.nrows

    # ------------------------------------------------------------------
    # the resident ranks' lifecycle
    # ------------------------------------------------------------------
    @property
    def blocks(self) -> BlockMatrix:
        """The factored blocks, in this process: the resident ranks'
        factors are gathered first (the ranks stay up)."""
        self._pool.gather(self._blocks)
        return self._blocks

    def close(self) -> None:
        """Gather the factors, then stop and join the resident ranks (a
        no-op without them).  The handle stays usable."""
        self._pool.close(self._blocks)

    def __enter__(self) -> Factorization:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __getstate__(self) -> dict:
        self.close()
        # no rank travels; factors a fault lost stay lost in the copy
        return {**self.__dict__, "_pool": self._pool.lost}

    def __setstate__(self, state: dict) -> None:
        from ..runtime.distributed import RankPool

        self.__dict__.update(state)
        self._pool = RankPool(lost=state["_pool"])

    # ------------------------------------------------------------------
    # engine dispatch
    # ------------------------------------------------------------------
    def _engine_placement(self) -> PlacementPolicy | None:
        """The fitted placement policy for a multi-rank engine run, or
        ``None`` for the local engines (which own everything).

        Reuses the policy fitted at preprocessing when its rank count
        matches ``options.nprocs``; otherwise resolves and fits a fresh
        one (e.g. the options changed after factorisation) and caches it
        on the handle.
        """
        uses_ranks, _ = ENGINE_SHAPES.get(
            self.options.resolved_engine(), (False, False)
        )
        if not uses_ranks:
            return None
        nprocs = self.options.nprocs
        if self.placement is None or self.placement.nprocs != nprocs:
            self.placement = resolve_placement(
                self.options.placement, nprocs
            ).prepare(self.dag, self._blocks)
        return self.placement

    def _tsolve_dag(self, transposed: bool = False):
        """The solve DAG of one direction for the current
        engine (cached — patterns are immutable post-symbolic, so it
        survives repeated solves and refactorisations)."""
        placement = self._engine_placement()
        if placement is not None:
            key = (placement.name, placement.nprocs, transposed)
            owner = placement.owner
        else:
            key = ("local", 1, transposed)

            def owner(bi: int, bj: int) -> int:
                return 0

        tdag = self._tsolve_dags.get(key)
        if tdag is None:
            tdag = build_tsolve_dag(self._blocks, owner, transposed=transposed)
            if self.options.verify_schedule:
                verify_dag(tdag)
            self._tsolve_dags[key] = tdag
        return tdag

    def apply(
        self, b: np.ndarray, *, transposed: bool = False, recorder=None
    ) -> np.ndarray:
        """One pass of the permuted/scaled triangular solves: ``x`` with
        ``A x ≈ b`` (``Aᵀ x ≈ b`` when ``transposed``) up to
        static-pivoting error, vector or multi-RHS, executed by the
        engine named in the options."""
        from ..runtime.engines import get_tsolve_engine

        # Dr A Dc z = Dr b with x = Dc z, rows/cols permuted into block
        # space; transposed, Sᵀ w = Dc b with S = Dr A Dc and x = Dr w —
        # the scalings and permutations swap sides
        scale_in, perm_in, perm_out, scale_out = (
            (self.col_scale, self.col_perm, self.row_perm, self.row_scale)
            if transposed
            else (self.row_scale, self.row_perm, self.col_perm, self.col_scale)
        )
        if b.ndim == 2:
            scale_in, scale_out = scale_in[:, None], scale_out[:, None]
        c_hat = (scale_in * b)[perm_in]
        engine = get_tsolve_engine(self.options.resolved_engine())
        placement = self._engine_placement()
        if placement is None:
            self.close()  # a local engine reads the factors in this process
        z_hat, self.last_tsolve_stats = engine(
            self.blocks if placement is None else self._blocks,
            self._tsolve_dag(transposed), c_hat, self.options,
            recorder=recorder, placement=placement, pool=self._pool,
        )
        z = np.empty_like(z_hat)
        z[perm_out] = z_hat
        return scale_out * z

    # ------------------------------------------------------------------
    # solves
    # ------------------------------------------------------------------
    @property
    def factor_dtype(self) -> np.dtype:
        """Value dtype of the stored factors (``blocks.dtype``)."""
        return self._blocks.dtype

    def _account(self, t0: float) -> None:
        self.last_solve_seconds = time.perf_counter() - t0
        self.total_solve_seconds += self.last_solve_seconds
        self.solve_count += 1

    def compression_active(self) -> bool:
        """True while the factors were computed with the low-rank block
        overlay enabled (``compress_tol > 0``) — i.e. they are
        tolerance-accurate, not exact, and a refinement stall escalates.
        Judged from the options, not the overlay dict: on the distributed
        engine the compression happened on remote ranks and the master's
        overlay is empty, but the gathered factor values are approximate
        all the same."""
        return self.options.numeric.compress_tol > 0.0

    def decompress(self) -> RunReport:
        """Refinement-escalation path: disable compression, drop every
        low-rank overlay, and refactorise the current matrix exactly.
        After this the handle behaves like a compression-off
        factorisation (bit-identical factors to ``compress_tol=0``);
        the caller retries the solve against the exact factors.  The
        handle switches to its own copy of the options: the caller's
        :class:`SolverOptions` — which the facade and other solvers may
        share — keeps compressing."""
        # the constructor shorthand writes the zero into a fresh copy
        self.options = replace(self.options, compress_tol=0.0)
        return self.refactorize(self.a)  # drops the stale overlays first

    def _solve_refined(
        self, b: np.ndarray, transposed: bool, recorder, history: list
    ) -> np.ndarray:
        """:func:`refined_solve` on this handle's factors, to
        :data:`REFINE_TOL` within :data:`REFINE_MAX_ITER` sweeps.
        ``float32`` or compressed factors are the approximate ones that
        escalate; when compressed factors stall even there, the handle
        escalates once more — decompress, refactorise exactly, start
        over — before :class:`RefinementStalled` reaches the caller."""
        def apply_fn(r: np.ndarray) -> np.ndarray:
            return self.apply(r, transposed=transposed, recorder=recorder)

        def product(v: np.ndarray) -> np.ndarray:
            if transposed:
                return self.a.rmatvec(v)
            return self.a.matmat(v) if v.ndim == 2 else self.a.matvec(v)

        try:
            return refined_solve(
                apply_fn, product, b, tol=REFINE_TOL, budget=REFINE_MAX_ITER,
                history=history,
                exact=self.factor_dtype == np.float64
                and not self.compression_active(),
            )
        except RefinementStalled:
            if not self.compression_active():
                raise
        self.decompress()
        return self._solve_refined(b, transposed, recorder, history)

    def solve(
        self, b: np.ndarray, *, transposed: bool = False, recorder=None
    ) -> np.ndarray:
        """Solve ``A x = b`` — or ``Aᵀ x = b`` with ``transposed`` — for
        a vector or an ``(n, k)`` multi-RHS panel, refined to
        :data:`REFINE_TOL` (:meth:`_solve_refined`).  Pass an
        :class:`~repro.runtime.scheduler.EventRecorder` to append
        solve-task trace lanes to it.  The relative-residual history of
        the refinement is left on ``last_tsolve_stats.residual_history``.
        """
        t0 = time.perf_counter()
        b = checked_rhs(b, self.n, panel=True)
        history: list[tuple[str, float]] = []
        x = self._solve_refined(b, transposed, recorder, history)
        self.last_tsolve_stats.residual_history = history
        self._account(t0)
        return x

    def solve_transposed(self, b: np.ndarray, *, recorder=None) -> np.ndarray:
        """Solve ``Aᵀ x = b`` using the same factorisation
        (``(LU)ᵀ = Uᵀ Lᵀ`` over the block layout — no second
        factorisation): :meth:`solve` in the transposed direction."""
        return self.solve(b, transposed=True, recorder=recorder)

    # ------------------------------------------------------------------
    # refactorisation
    # ------------------------------------------------------------------
    def refactorize(self, a_new: CSCMatrix) -> RunReport:
        """Re-run only the numeric phase for a matrix with the *same
        pattern* but new values (Newton steps in circuit/device
        simulation — the workload PanguLU's introduction motivates).

        Reuses the reordering, symbolic pattern, blocking, DAG, mapping,
        execution plans **and** the solve DAGs computed for
        the original matrix; only value injection and the numeric
        factorisation are repeated.  On the arena layout
        (``options.use_arena``) the value injection is a single in-place
        overwrite of the preallocated value slab — no per-block array is
        allocated or rebound, so every block view, scatter plan and solve
        DAG survives untouched.  On a rank engine the resident ranks
        factorise in place: each is shipped only the new values of the
        blocks it owns.
        """
        if a_new.shape != self.a.shape:
            raise ValueError("refactorize requires a same-shape matrix")
        if not (
            np.array_equal(a_new.indptr, self.a.indptr)
            and np.array_equal(a_new.indices, self.a.indices)
        ):
            raise ValueError("refactorize requires the original sparsity pattern")
        a_new.require_finite("a_new")
        t0 = time.perf_counter()
        placement = self._engine_placement()
        if placement is None:
            self._pool.discard(replaced=True)
        self.a = a_new
        work = a_new.scale(self.row_scale, self.col_scale).permute(
            self.row_perm, self.col_perm
        )
        self.reordered = ensure_diagonal(work)
        from ..runtime.engines import get_engine

        # same pattern ⇒ the analysis-time map from the reordered matrix's
        # entries to filled positions still holds: one indexed store
        filled = self.symbolic.filled
        refreshed = np.zeros(filled.nnz, dtype=filled.dtype)
        refreshed[self.symbolic.a_positions] = self.reordered.data
        # stale overlays describe the previous values; the engine
        # re-compresses as it factorises
        self._blocks.clear_compressed()
        if self._blocks.arena is not None:
            self._blocks.arena.refill(refreshed)
        else:
            bs = self._blocks.bs
            plan_cache = self._blocks.plan_cache
            self._blocks = block_partition(
                CSCMatrix(
                    filled.shape, filled.indptr, filled.indices, refreshed,
                    check=False,
                ),
                self._blocks.boundaries, dtype=self._blocks.dtype,
            )
            self._blocks.bs = bs
            # same pattern ⇒ same boundaries ⇒ same storage slots: the
            # execution plans and the solve DAGs (which hold block indices,
            # not block references) built for the previous factorisation
            # stay valid
            self._blocks.plan_cache = plan_cache
        engine = get_engine(self.options.resolved_engine())
        self.stats = engine(
            self._blocks, self.dag, self.options, placement=placement,
            pool=self._pool,
        )
        self.refactorize_seconds = time.perf_counter() - t0
        return self.stats


class PanguLU:
    """Sparse direct solver for ``A x = b`` (square, structurally
    nonsingular ``A``).

    Parameters
    ----------
    a:
        The system matrix.
    options:
        Pipeline configuration; defaults reproduce the paper's setup.

    Examples
    --------
    >>> from repro.sparse import grid_laplacian_2d
    >>> import numpy as np
    >>> a = grid_laplacian_2d(16, 16)
    >>> solver = PanguLU(a)
    >>> x = solver.solve(np.ones(a.nrows))
    >>> float(np.linalg.norm(a.matvec(x) - 1.0)) < 1e-8
    True
    """

    def __init__(self, a: CSCMatrix, options: SolverOptions | None = None) -> None:
        if a.nrows != a.ncols:
            raise ValueError("PanguLU requires a square matrix")
        a.require_finite("a")
        self.a = a
        self.options = options or SolverOptions()
        self.phase_seconds: dict[str, float] = {}
        # phase products
        self.row_scale: np.ndarray | None = None
        self.col_scale: np.ndarray | None = None
        self.row_perm: np.ndarray | None = None   # combined row permutation
        self.col_perm: np.ndarray | None = None   # fill-reducing permutation
        self.symbolic: SymbolicResult | None = None
        self.ordering_kept: dict | None = None    # order_by_fill's record
        self._blocks: BlockMatrix | None = None
        self.dag: TaskDAG | None = None
        self.placement: PlacementPolicy | None = None
        self.numeric_stats: RunReport | None = None
        self.recorder = None  # EventRecorder of the last factorize, if traced
        self._factorized = False
        self._fact: Factorization | None = None

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    def reorder(self) -> CSCMatrix:
        """Phases 1 and 2: MC64 + the ordering :func:`order_by_fill` keeps,
        whose capped symbolic pass is phase 2 (timed as ``"symbolic"``);
        returns the reordered, scaled matrix the later phases factorise."""
        t0, spent = time.perf_counter(), {}
        (
            self.row_scale, self.col_scale, self.row_perm, self.col_perm,
            self._reordered, self.symbolic, self.ordering_kept,
        ) = reorder_and_scale(self.a, self.options.ordering, spent)
        self.phase_seconds["reorder"] = time.perf_counter() - t0 - spent["symbolic"]
        self.phase_seconds["symbolic"] = spent["symbolic"]
        return self._reordered

    def symbolic_factorize(self) -> SymbolicResult:
        """Phase 2: symmetric-pruned fill pattern of the reordered matrix
        — the result of :meth:`reorder`'s capped pass, which chose the
        order."""
        if self.symbolic is None:
            self.reorder()
        return self.symbolic

    def preprocess(self) -> BlockMatrix:
        """Phase 3: blocking, DAG construction, block→rank placement."""
        if self.symbolic is None:
            self.symbolic_factorize()
        t0 = time.perf_counter()
        filled = self.symbolic.filled
        strategy = get_blocking_strategy(
            self.options.blocking, block_size=self.options.block_size
        )
        self._blocks = strategy.partition(
            filled,
            arena=self.options.use_arena,
            dtype=self.options.resolved_factor_dtype(),
        )
        self.dag = build_dag(self._blocks)
        self.placement = placement = resolve_placement(
            self.options.placement, self.options.nprocs
        ).prepare(self.dag, self._blocks)
        if self.options.verify_schedule:
            verify_dag(
                self.dag, assignment=placement.assign(self.dag),
                nprocs=placement.nprocs,
            )
        self.phase_seconds["preprocess"] = time.perf_counter() - t0
        return self._blocks

    @property
    def blocks(self) -> BlockMatrix | None:
        """The blocked matrix of :meth:`preprocess`; once factorised, the
        handle's factors (read through it, so a rank engine's come home)."""
        return self._fact.blocks if self._fact is not None else self._blocks

    def factorize(self) -> Factorization:
        """Phase 4: numeric factorisation (idempotent — repeated calls
        return the same :class:`Factorization` handle).

        Dispatches to the engine named by ``options.engine`` through the
        registry in :mod:`repro.runtime.engines` — every engine drains
        the same DAG through the shared scheduler core and produces the
        same factors up to rounding.  The returned handle owns phase 5
        (and is picklable, so it can solve in other processes);
        ``solve`` / ``solve_transposed`` / ``refactorize`` on this
        object delegate to it.
        """
        if self._factorized:
            if self._fact is None:
                # blocks were factorised externally (e.g. by calling an
                # engine directly) — wrap them in a handle all the same
                self._fact = self._make_handle()
            return self._fact
        if self._blocks is None:
            self.preprocess()
        t0 = time.perf_counter()
        from ..runtime.distributed import RankPool
        from ..runtime.engines import get_engine

        engine = get_engine(self.options.resolved_engine())
        self.recorder = EventRecorder() if self.options.trace_events else None
        pool = RankPool()  # the handle's resident ranks, on a rank engine
        self.numeric_stats = engine(
            self._blocks, self.dag, self.options, recorder=self.recorder,
            placement=self.placement, pool=pool,
        )
        self.phase_seconds["numeric"] = time.perf_counter() - t0
        self._factorized = True
        self._fact = self._make_handle(pool)
        return self._fact

    def _make_handle(self, pool=None) -> Factorization:
        return Factorization(
            self.a, self.options,
            row_scale=self.row_scale, col_scale=self.col_scale,
            row_perm=self.row_perm, col_perm=self.col_perm,
            symbolic=self.symbolic, reordered=self._reordered,
            blocks=self._blocks, dag=self.dag, stats=self.numeric_stats,
            placement=self.placement, pool=pool,
        )

    @property
    def solve_count(self) -> int:
        """Solves performed against the current factorisation."""
        return self._fact.solve_count if self._fact is not None else 0

    @property
    def last_solve_seconds(self) -> float:
        """Wall-clock of the most recent solve alone
        (``phase_seconds["solve"]`` accumulates across solves)."""
        return self._fact.last_solve_seconds if self._fact is not None else 0.0

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Phase 5: solve ``A x = b``, refined to :data:`REFINE_TOL`,
        through the engine named by ``options.engine`` (delegates to the
        :class:`Factorization`).

        ``b`` may be a vector of length ``n`` or an ``(n, k)`` array of
        ``k`` simultaneous right-hand sides.
        """
        fact = self.factorize()
        x = fact.solve(b, recorder=self.recorder)
        self.phase_seconds["solve"] = fact.total_solve_seconds
        return x

    def solve_transposed(self, b: np.ndarray) -> np.ndarray:
        """Solve ``Aᵀ x = b`` using the same factorisation.

        Uses ``(LU)ᵀ = Uᵀ Lᵀ`` over the block layout — no second
        factorisation — through the same engine, panels and refinement
        as :meth:`solve`.  Needed by the 1-norm condition estimator and
        by adjoint/sensitivity computations in circuit and PDE workloads.
        """
        fact = self.factorize()
        x = fact.solve_transposed(b, recorder=self.recorder)
        self.phase_seconds["solve"] = fact.total_solve_seconds
        return x

    def slogdet(self) -> tuple[float, float]:
        """``(sign, log|det A|)`` from the factorisation (numpy.slogdet
        convention).

        Uses ``det(P₁ · Dr A Dc · P₂ᵀ) = Π diag(U)`` and corrects for the
        permutation signs and the MC64 scalings.
        """
        self.factorize()
        sign = 1.0
        logdet = 0.0
        for k in range(self.blocks.nb):
            diag = self.blocks.block(k, k)
            d = diag.diagonal()
            if np.any(d == 0.0):
                return 0.0, -np.inf
            sign *= float(np.prod(np.sign(d)))
            logdet += float(np.sum(np.log(np.abs(d))))
        sign *= _perm_sign(self.row_perm) * _perm_sign(self.col_perm)
        logdet -= float(np.sum(np.log(self.row_scale)))
        logdet -= float(np.sum(np.log(self.col_scale)))
        return sign, logdet

    def condest_1norm(self, *, max_iter: int = 8) -> float:
        """Estimate ``κ₁(A) = ‖A‖₁ · ‖A⁻¹‖₁`` (Hager's method).

        ``‖A⁻¹‖₁`` is estimated by power iteration on the signs of
        ``A⁻¹``/``A⁻ᵀ`` applications — a lower bound that is typically
        within a small factor of the truth, at the cost of a handful of
        triangular solves.
        """
        self.factorize()
        n = self.a.ncols
        norm_a = self.a.norm_1()
        x = np.full(n, 1.0 / n, dtype=np.float64)
        est = 0.0
        for _ in range(max_iter):
            y = self.solve(x)
            new_est = float(np.abs(y).sum())
            xi = np.sign(y)
            xi[xi == 0] = 1.0
            z = self.solve_transposed(xi)
            j = int(np.argmax(np.abs(z)))
            if new_est <= est or float(np.abs(z[j])) <= float(z @ x):
                est = max(est, new_est)
                break
            est = new_est
            x = np.zeros(n, dtype=np.float64)
            x[j] = 1.0
        return norm_a * est

    def refactorize(self, a_new: CSCMatrix) -> RunReport:
        """Re-run only the numeric phase for a matrix with the *same
        pattern* but new values (Newton steps in circuit/device
        simulation — the workload PanguLU's introduction motivates).

        Delegates to :meth:`Factorization.refactorize`, which reuses the
        reordering, symbolic pattern, blocking, DAG, mapping, execution
        plans and solve DAGs computed for the original matrix; only value
        injection and the numeric factorisation are repeated.
        """
        if self._fact is None:
            if self._blocks is None:
                self.preprocess()
            # value swap before the first numeric run: a handle over the
            # preprocessed blocks factorises the new values directly
            self._fact = self._make_handle()
        stats = self._fact.refactorize(a_new)
        # keep the facade's view of the phase products in step
        self.a = self._fact.a
        self._reordered = self._fact.reordered
        self.numeric_stats = stats
        self.phase_seconds["numeric"] = self._fact.refactorize_seconds
        self._factorized = True
        return stats

    def estimate(
        self,
        *,
        proc_counts: tuple[int, ...] = (1, 4, 16, 64),
        platforms: tuple | None = None,
    ) -> dict:
        """Plan a factorisation without doing the numeric work.

        Runs reordering, symbolic factorisation and preprocessing (all
        cheap relative to numeric factorisation), then reports what the
        numeric phase will look like: fill, FLOPs, storage, and predicted
        times/throughputs on the modelled platforms.  Useful for choosing
        a process count or checking that the factors fit in device memory
        before committing to the expensive phase.
        """
        from ..runtime.adapters import simulate_pangulu
        from ..runtime.machine import A100_PLATFORM, MI50_PLATFORM
        from .memory import memory_report

        if platforms is None:
            platforms = (A100_PLATFORM, MI50_PLATFORM)
        if self.blocks is None:
            self.preprocess()
        rep = memory_report(self.blocks)
        out = {
            "n": self.a.nrows,
            "nnz": self.a.nnz,
            "nnz_lu": self.symbolic.nnz_lu,
            "fill_ratio": self.symbolic.fill_ratio,
            "flops": self.dag.total_flops,
            "tasks": len(self.dag),
            "block_size": self.blocks.bs,
            "block_grid": self.blocks.nb,
            "blocking": self.options.blocking
            if isinstance(self.options.blocking, str)
            else self.options.blocking.name,
            "factor_bytes": rep.total_bytes,
            "predicted": {},
        }
        for platform in platforms:
            for p in proc_counts:
                sim = simulate_pangulu(self.blocks, self.dag, platform, p)
                out["predicted"][(platform.name, p)] = {
                    "seconds": sim.result.makespan,
                    "gflops": sim.gflops,
                    "sync_ratio": sim.result.sync_ratio(),
                }
        return out

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative residual ``‖A x − b‖₂ / ‖b‖₂``."""
        r = self.a.matvec(x) - b
        denom = float(np.linalg.norm(b)) or 1.0
        return float(np.linalg.norm(r)) / denom

    def lu_product_error(self) -> float:
        """Max-norm error ``‖(reordered A) − L·U‖∞ / ‖A‖∞`` — verifies the
        factorisation independently of any right-hand side."""
        self.factorize()
        lu = self.blocks.to_csc().to_dense()
        n = lu.shape[0]
        l = np.tril(lu, -1) + np.eye(n)
        u = np.triu(lu)
        a_re = self._reordered.to_dense()
        scale = np.abs(a_re).max() or 1.0
        return float(np.abs(a_re - l @ u).max() / scale)

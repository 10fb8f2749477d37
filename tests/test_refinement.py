"""Tests for iterative refinement behaviour and its configuration."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import PanguLU, RefinementStalled, SolverOptions
from repro.core.mapping import ProcessGrid
from repro.core.solver import REFINE_MAX_ITER, REFINE_TOL, refined_solve
from repro.core.tsolve_dag import build_tsolve_dag
from repro.kernels import SingularBlockError
from repro.runtime import engines, tsolve_distributed
from repro.runtime.transports import LoopbackTransport
from repro.sparse import CSCMatrix, generate, random_sparse


@pytest.fixture
def sweeps():
    """Calls of the sequential tsolve engine, counted at the registry
    (the entry is restored on teardown)."""
    real = engines.get_tsolve_engine("sequential")
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    engines.register_tsolve_engine("sequential")(counting)
    yield calls
    engines.register_tsolve_engine("sequential")(real)


def _ill_conditioned(n: int, decades: int, seed: int) -> CSCMatrix:
    """A dense-pattern matrix with singular values ``1 … 10^-decades``:
    in float64 its backward-error floor is ≈ ε·κ, far above
    ``REFINE_TOL``."""
    u, _, vt = np.linalg.svd(random_sparse(n, 0.08, seed=seed).to_dense())
    return CSCMatrix.from_dense((u * np.logspace(0, -decades, n)) @ vt)


class TestRefinementSteps:
    def test_zero_steps_still_accurate_on_easy_matrix(self, sweeps):
        a = random_sparse(50, 0.08, seed=1)
        s = PanguLU(a)
        b = np.ones(50)
        x = s.factorize().apply(b)
        assert s.residual_norm(x, b) < 1e-12
        # the bare apply: one sweep, no residual taken
        assert len(sweeps) == 1

    def test_refinement_reduces_residual_on_hard_matrix(self):
        a = random_sparse(60, 0.08, seed=9)
        bad = a.scale(np.logspace(-5, 5, 60), None)
        b = np.ones(60)
        fact = PanguLU(bad).factorize()
        history: list = []
        # the rows' 1e10 spread puts the residual floor above REFINE_TOL:
        # the solve escalates and raises rather than return short of it
        with pytest.raises(RefinementStalled):
            fact._solve_refined(b, False, None, history)
        rels = [rel for step, rel in history if step != "fgmres"]
        assert history[0][0] == "apply"
        # on this conditioning the sweeps genuinely help
        assert min(rels[1:]) < rels[0]

    def test_refinement_applies_to_multi_rhs(self):
        a = random_sparse(40, 0.08, seed=3)
        bad = a.scale(np.logspace(-3, 3, 40), None)
        fact = PanguLU(bad, SolverOptions()).factorize()
        B = np.eye(40)[:, :3]
        d = bad.to_dense()
        # the floor of the componentwise residual
        floor = np.finfo(float).eps * np.abs(d).sum(axis=1).max() * (
            np.abs(fact.apply(B)).max() + 1.0
        )
        # the rows' spread puts it near REFINE_TOL, so the loop is asked
        # for the floor itself (the facade refuses what it cannot reach)
        X = refined_solve(fact.apply, bad.matmat, B, tol=10 * floor,
                          budget=REFINE_MAX_ITER, history=[])
        assert np.abs(d @ X - B).max() < 1e4 * floor

    @staticmethod
    def _sabotaged(block: int = 0, column: int = 0):
        """A factorised 20×20 system (5-wide blocks) whose ``U`` pivot at
        ``column`` of diagonal block ``block`` is overwritten by zero."""
        a = random_sparse(20, 0.15, seed=4)
        s = PanguLU(a, SolverOptions(block_size=5))
        s.factorize()
        diag = s.blocks.block(block, block)
        rows = diag.indices[diag.col_slice(column)]
        diag.data[int(diag.indptr[column] + np.searchsorted(rows, column))] = 0.0
        return s

    def test_sabotaged_factors_raise_not_loop(self):
        # pathological: a zero U diagonal in the factors must raise the
        # triangular solve's explicit error, not spin in refinement
        s = self._sabotaged()
        with pytest.raises(SingularBlockError, match="U diagonal"):
            s.solve(np.ones(20))

    @pytest.mark.parametrize("transposed", [False, True])
    def test_zero_pivot_names_block_and_row(self, transposed):
        # ... and name where: the diagonal block, the column in it and
        # the row of the reordered matrix (5-wide blocks: 2·5 + 3)
        s = self._sabotaged(block=2, column=3)
        with pytest.raises(
            ArithmeticError, match=r"U diagonal in block 2, column 3 \(row 13 of"
        ):
            s.factorize().solve(np.ones((20, 2)), transposed=transposed)

    def test_zero_pivot_on_a_rank_reaches_the_caller(self):
        # a rank's error comes home as _run_ranks' RuntimeError carrying
        # the same text — at once, not as a timeout
        f = self._sabotaged(block=2, column=3).blocks
        tdag = build_tsolve_dag(f, ProcessGrid.square(2).owner)
        t0 = time.perf_counter()
        with pytest.raises(
            RuntimeError,
            match=r"rank \d: SingularBlockError.*block 2, column 3 \(row 13 of",
        ):
            tsolve_distributed(
                f, tdag, np.ones(20), 2, transport=LoopbackTransport(), timeout=30.0
            )
        assert time.perf_counter() - t0 < 10.0


class TestOnePolicy:
    """The one tolerance-driven loop every solve ends with."""

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_benign_matrix_makes_one_sweep(self, sweeps, transposed, nrhs):
        a = random_sparse(50, 0.08, seed=1)
        fact = PanguLU(a).factorize()
        b = np.random.default_rng(0).standard_normal(
            50 if nrhs == 1 else (50, nrhs)
        )
        for solves in (1, 2):
            fact.solve(b, transposed=transposed)
            assert len(sweeps) == solves  # one engine sweep per solve
            ((step, rel),) = fact.last_tsolve_stats.residual_history
            assert step == "apply" and rel <= REFINE_TOL

    def test_float64_floor_above_tol_escalates_and_raises(self, sweeps):
        """Exact float64 factors whose residual floor is above the
        tolerance: the sweeps stall, GMRES-IR is tried, and the solve
        raises — it does not return an iterate short of ``REFINE_TOL``."""
        a = _ill_conditioned(60, 12, seed=0)
        b = np.ones(60)
        fact = PanguLU(a).factorize()
        assert fact.stats.pivots_replaced == 0
        history: list = []
        with pytest.raises(RefinementStalled) as ei:
            fact._solve_refined(b, False, None, history)
        err = ei.value
        assert err.achieved > err.tol == REFINE_TOL
        assert err.pivots_replaced == 0 and "factors' precision" in str(err)
        steps = [step for step, _ in history]
        # stopped on the stall rule, long before the budget, then escalated
        assert steps[0] == "apply" and steps[-1] == "fgmres"
        assert set(steps[1:-1]) == {"sweep"} and len(steps) < 10

    @pytest.mark.parametrize("factor", [0.1, 0.01, 0.001])
    @pytest.mark.parametrize("name", ["apache2", "ecology1", "G3_circuit"])
    def test_replaced_pivots_meet_tol_or_raise(self, name, factor):
        """With the diagonal weakened, static pivoting replaces pivots of
        these matrices: their float64 factors are approximate, so the
        solve either refines to tolerance or says why it could not — it
        never returns a residual above the tolerance."""
        a = generate(name, scale=0.2)
        rows, cols = a.rows_cols()
        a.data = np.where(rows == cols, a.data * factor, a.data)
        b = np.random.default_rng(0).standard_normal(a.nrows)
        s = PanguLU(a)
        replaced = s.factorize().stats.pivots_replaced
        assert replaced > 0
        try:
            x = s.solve(b)
        except RefinementStalled as err:
            assert err.achieved > err.tol == REFINE_TOL
            assert err.pivots_replaced == replaced
            assert f"{replaced} pivots were replaced" in str(err)
            assert "float32" not in str(err)
        else:
            assert s.residual_norm(x, b) <= REFINE_TOL

    def test_budget_caps_the_sweeps(self, sweeps):
        a = _ill_conditioned(60, 16, seed=0)
        fact = PanguLU(a).factorize()
        history = []
        with pytest.raises(RefinementStalled):
            refined_solve(
                fact.apply, a.matvec, np.ones(60), tol=REFINE_TOL, budget=1,
                history=history,
            )
        # the apply and the one sweep allowed, then the escalation
        assert [step for step, _ in history] == ["apply", "sweep", "fgmres"]


class TestRefinedSolveEscalates:
    """``refined_solve`` on float64 with a deliberately poor factor
    application: the sweeps stall, and the GMRES-IR escalation either
    reaches the tolerance or raises — there is no silent return."""

    @staticmethod
    def _spd(n: int = 30) -> CSCMatrix:
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((n, n)))
        return CSCMatrix.from_dense((q * np.linspace(1.0, 3.0, n)) @ q.T)

    def test_poor_apply_recovered_by_gmres(self):
        a = self._spd()
        b = np.ones(a.nrows)
        history: list = []
        # "factors" that are the identity: A - I has norm 2, so plain
        # refinement diverges; FGMRES on A still converges
        x = refined_solve(lambda r: r.copy(), a.matvec, b, tol=REFINE_TOL,
                          budget=40, history=history)
        assert np.linalg.norm(b - a.matvec(x)) <= REFINE_TOL * np.linalg.norm(b)
        steps = [step for step, _ in history]
        assert steps[0] == "apply" and steps[-1] == "fgmres"
        assert len(steps) < 10  # the stall rule stopped the sweeps early

    def test_useless_apply_raises(self):
        a = self._spd()
        history: list = []
        with pytest.raises(RefinementStalled) as ei:
            refined_solve(lambda r: 0.0 * r, a.matvec, np.ones(a.nrows),
                          tol=REFINE_TOL, budget=40, history=history)
        assert ei.value.achieved > REFINE_TOL and history[-1][0] == "fgmres"


class TestRefinementConvergence:
    def test_converges_geometrically(self):
        """Each refinement sweep should multiply the residual by roughly
        the same contraction factor until the FP floor."""
        a = random_sparse(50, 0.08, seed=11)
        bad = a.scale(np.logspace(-4, 4, 50), None)
        fact = PanguLU(bad).factorize()
        b = np.ones(50)
        x = fact.apply(b)
        residuals = [np.linalg.norm(b - bad.matvec(x))]
        for _ in range(3):
            r = b - bad.matvec(x)
            x = x + fact.apply(r)
            residuals.append(np.linalg.norm(b - bad.matvec(x)))
        # non-increasing until the floor, which scales with the problem:
        # a residual of eps·‖A‖·‖x‖ is all float64 can resolve, and
        # successive residuals at that level differ by rounding alone
        floor = np.finfo(float).eps * bad.norm_inf() * np.abs(x).max()
        for r0, r1 in zip(residuals, residuals[1:]):
            assert r1 <= r0 * 1.5 + floor

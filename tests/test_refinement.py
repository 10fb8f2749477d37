"""Tests for iterative refinement behaviour and its configuration."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import PanguLU, SolverOptions
from repro.core.mapping import ProcessGrid
from repro.core.solver import REFINE_TOL, refined_solve
from repro.core.tsolve_dag import build_tsolve_dag
from repro.kernels import SingularBlockError
from repro.runtime import engines, tsolve_distributed
from repro.runtime.transports import LoopbackTransport
from repro.sparse import CSCMatrix, random_sparse


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
        s = PanguLU(bad)
        res = {0: s.residual_norm(s.factorize().apply(b), b),
               40: s.residual_norm(s.solve(b), b)}
        assert res[40] <= res[0] * 1.0001  # refinement never hurts
        # and on this conditioning it genuinely helps
        assert res[40] < res[0] or res[0] < 1e-12

    def test_refinement_applies_to_multi_rhs(self):
        a = random_sparse(40, 0.08, seed=3)
        bad = a.scale(np.logspace(-3, 3, 40), None)
        s = PanguLU(bad, SolverOptions())
        B = np.eye(40)[:, :3]
        X = s.solve(B)
        d = bad.to_dense()
        # componentwise residual at the refinement floor
        floor = np.finfo(float).eps * np.abs(d).sum(axis=1).max() * (
            np.abs(X).max() + 1.0
        )
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

    def test_float64_floor_above_tol_returns_best_iterate(self, sweeps):
        a = _ill_conditioned(60, 12, seed=0)
        b = np.ones(60)
        s = PanguLU(a)
        res_bare = s.residual_norm(s.factorize().apply(b), b)
        n_before = len(sweeps)
        x = s.solve(b)  # must not raise RefinementStalled
        history = s.factorize().last_tsolve_stats.residual_history
        rels = [rel for _, rel in history]
        assert min(rels) > REFINE_TOL  # the floor is above tol
        assert [step for step, _ in history] == ["apply"] + ["sweep"] * (
            len(history) - 1
        )  # exact factors: no escalation step
        # stopped on the stall rule, long before the budget
        assert len(sweeps) - n_before == len(history) < 10
        assert s.residual_norm(x, b) == pytest.approx(min(rels), rel=1e-12)
        assert s.residual_norm(x, b) <= res_bare * 1.0001  # never hurts

    def test_budget_caps_the_sweeps(self, sweeps):
        a = _ill_conditioned(60, 16, seed=0)
        fact = PanguLU(a).factorize()
        history = []
        refined_solve(
            fact.apply, a.matvec, np.ones(60), tol=REFINE_TOL, budget=1,
            history=history, exact=True,
        )
        assert len(sweeps) == 2  # the apply and the one sweep allowed
        assert len(history) == 2


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

"""Edge cases across the stack: trivial sizes, degenerate structures."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU
from repro.core import block_partition, build_dag, factorize
from repro.runtime import CPU_PLATFORM, SimSpec, simulate
from repro.sparse import CSCMatrix
from repro.symbolic import symbolic_symmetric


class TestTrivialSizes:
    def test_one_by_one(self):
        a = CSCMatrix.from_dense(np.array([[4.0]]))
        s = PanguLU(a)
        x = s.solve(np.array([8.0]))
        np.testing.assert_allclose(x, [2.0])
        sign, logdet = s.slogdet()
        assert sign == 1.0 and logdet == pytest.approx(np.log(4.0))

    def test_two_by_two_antidiagonal(self):
        a = CSCMatrix.from_dense(np.array([[0.0, 2.0], [3.0, 0.0]]))
        s = PanguLU(a)
        x = s.solve(np.array([2.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_diagonal_matrix(self):
        a = CSCMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
        s = PanguLU(a)
        x = s.solve(np.ones(4))
        np.testing.assert_allclose(x, [1.0, 0.5, 1 / 3, 0.25])

    def test_dense_matrix(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((12, 12)) + np.eye(12) * 20
        a = CSCMatrix.from_dense(d)
        s = PanguLU(a)
        b = rng.standard_normal(12)
        x = s.solve(b)
        np.testing.assert_allclose(d @ x, b, atol=1e-9)


class TestDegenerateStructures:
    def test_tridiagonal_chain(self):
        n = 30
        d = np.eye(n) * 3 + np.eye(n, k=1) * -1 + np.eye(n, k=-1) * -1
        a = CSCMatrix.from_dense(d)
        s = PanguLU(a)
        x = s.solve(np.ones(n))
        np.testing.assert_allclose(d @ x, 1.0, atol=1e-10)

    def test_arrowhead(self):
        # one dense row+column: the structure that makes blocking hard
        n = 25
        d = np.eye(n) * 5.0
        d[0, :] = 1.0
        d[:, 0] = 1.0
        d[0, 0] = n
        a = CSCMatrix.from_dense(d)
        s = PanguLU(a)
        b = np.arange(1.0, n + 1)
        x = s.solve(b)
        np.testing.assert_allclose(d @ x, b, atol=1e-9)

    def test_block_diagonal_independent(self):
        import scipy.sparse as sp

        from repro.sparse import grid_laplacian_2d

        g1 = grid_laplacian_2d(4, 4).to_scipy()
        g2 = grid_laplacian_2d(5, 5).to_scipy()
        a = CSCMatrix.from_scipy(sp.block_diag([g1, g2]))
        s = PanguLU(a)
        b = np.ones(41)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-10

    def test_permutation_matrix_times_scale(self):
        n = 9
        perm = np.roll(np.arange(n), 3)
        d = np.zeros((n, n))
        d[np.arange(n), perm] = np.arange(2.0, n + 2)
        a = CSCMatrix.from_dense(d)
        s = PanguLU(a)
        b = np.ones(n)
        x = s.solve(b)
        np.testing.assert_allclose(d @ x, b, atol=1e-12)


class TestEmptySimulation:
    def test_zero_tasks(self):
        spec = SimSpec(
            durations=np.zeros(0),
            owner=np.zeros(0, dtype=np.int64),
            out_bytes=np.zeros(0),
            n_deps=np.zeros(0, dtype=np.int64),
            successors=[],
            priority=np.zeros(0),
            nprocs=2,
        )
        res = simulate(spec, CPU_PLATFORM)
        assert res.makespan == 0.0
        assert res.total_busy == 0.0


class TestSingleBlockFactorisation:
    def test_whole_matrix_one_block(self):
        rng = np.random.default_rng(1)
        d = rng.standard_normal((20, 20)) + np.eye(20) * 30
        a = CSCMatrix.from_dense(d)
        f = symbolic_symmetric(a).filled
        bm = block_partition(f, 64)
        assert bm.nb == 1
        dag = build_dag(bm)
        assert len(dag.tasks) == 1  # just GETRF
        factorize(bm, dag)
        lu = bm.to_csc().to_dense()
        l = np.tril(lu, -1) + np.eye(20)
        u = np.triu(lu)
        np.testing.assert_allclose(l @ u, d, atol=1e-9)


class TestHostileRightHandSides:
    """A bad ``b`` or a blown-up iterate ends in a named error, never in
    a silently non-finite ``x``."""

    @pytest.mark.parametrize("factor_dtype", ["float64", "float32"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_is_rejected_up_front(self, factor_dtype, bad):
        from repro import SolverOptions
        from repro.sparse import random_sparse

        s = PanguLU(
            random_sparse(30, 0.1, seed=0), SolverOptions(factor_dtype=factor_dtype)
        )
        b = np.ones(30)
        b[7] = bad
        with pytest.raises(ValueError, match=r"not finite: b\[7\]"):
            s.solve(b)
        B = np.ones((30, 3))
        B[11, 2] = bad
        with pytest.raises(ValueError, match=r"not finite: b\[11, 2\]"):
            s.solve_transposed(B)
        assert s.solve_count == 0  # rejected before any sweep ran

    @pytest.mark.parametrize("facade", ["PanguLLt", "SuperLUBaseline"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_is_rejected_by_every_facade(self, facade, bad):
        """The baseline used to return a NaN ``x`` for a non-finite ``b``;
        every facade runs LU's check before its sweeps."""
        from repro.baseline import SuperLUBaseline
        from repro.cholesky import PanguLLt
        from repro.sparse import grid_laplacian_2d

        a = grid_laplacian_2d(6, 6)
        s = {"PanguLLt": PanguLLt, "SuperLUBaseline": SuperLUBaseline}[facade](a)
        b = np.ones(a.nrows)
        b[7] = bad
        with pytest.raises(ValueError, match=r"not finite: b\[7\]"):
            s.solve(b)
        assert "solve" not in s.phase_seconds  # rejected before any sweep

    def test_residual_turning_non_finite_raises(self):
        from repro.sparse import random_sparse

        s = PanguLU(random_sparse(30, 0.1, seed=1))
        s.factorize()
        # poison the factors after the fact: the iterate, then the
        # residual, go non-finite although A and b are clean
        s.blocks.block(0, 0).data[...] = np.nan
        with pytest.raises(ArithmeticError, match="non-finite"):
            s.solve(np.ones(30))

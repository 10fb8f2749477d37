"""Tests for the numeric factorisation driver and block triangular solves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NumericOptions, block_partition, build_dag, factorize
from repro.kernels import SelectorPolicy
from repro.sparse import grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric

from .reference_tsolve import (
    block_backward,
    block_forward,
    solve_lower_unit,
    solve_upper,
)


def _prepared(n=60, bs=16, seed=0):
    a = random_sparse(n, 0.08, seed=seed)
    f = symbolic_symmetric(a).filled
    bm = block_partition(f, bs)
    return a, bm, build_dag(bm)


def _dense_lu(d: np.ndarray) -> np.ndarray:
    d = d.copy()
    for k in range(d.shape[0]):
        d[k + 1 :, k] /= d[k, k]
        d[k + 1 :, k + 1 :] -= np.outer(d[k + 1 :, k], d[k, k + 1 :])
    return d


class TestFactorize:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_lu(self, seed):
        a, bm, dag = _prepared(seed=seed)
        ref = _dense_lu(a.to_dense())
        factorize(bm, dag)
        np.testing.assert_allclose(bm.to_csc().to_dense(), ref, atol=1e-9)

    def test_all_tasks_executed(self):
        a, bm, dag = _prepared()
        stats = factorize(bm, dag)
        assert stats.tasks_executed == len(dag.tasks)
        assert len(stats.kernel_choices) == len(dag.tasks)

    def test_fixed_policy_same_result(self):
        a, bm1, dag1 = _prepared(seed=4)
        _, bm2, dag2 = _prepared(seed=4)
        factorize(bm1, dag1)
        factorize(
            bm2, dag2, NumericOptions(selector=SelectorPolicy.fixed())
        )
        np.testing.assert_allclose(
            bm1.to_csc().to_dense(), bm2.to_csc().to_dense(), atol=1e-9
        )

    def test_version_histogram(self):
        _, bm, dag = _prepared()
        stats = factorize(bm, dag)
        hist = stats.version_histogram()
        assert sum(hist.values()) == len(dag.tasks)
        assert all("/" in k for k in hist)

    def test_collect_timings(self):
        _, bm, dag = _prepared()
        stats = factorize(bm, dag, collect_timings=True)
        assert set(stats.seconds_by_type) <= {"GETRF", "GESSM", "TSTRF", "SSSSM"}
        assert stats.seconds > 0

    def test_flops_total(self):
        _, bm, dag = _prepared()
        stats = factorize(bm, dag)
        assert stats.flops_total == dag.total_flops

    def test_block_size_one(self):
        a, bm, dag = _prepared(n=20, bs=1, seed=2)
        factorize(bm, dag)
        np.testing.assert_allclose(
            bm.to_csc().to_dense(), _dense_lu(a.to_dense()), atol=1e-9
        )

    def test_single_block(self):
        a, bm, dag = _prepared(n=20, bs=32, seed=2)
        assert bm.nb == 1
        factorize(bm, dag)
        np.testing.assert_allclose(
            bm.to_csc().to_dense(), _dense_lu(a.to_dense()), atol=1e-9
        )


class TestWithinBlockSolves:
    def test_solve_lower_unit(self):
        a, bm, dag = _prepared(n=30, bs=32, seed=1)
        factorize(bm, dag)
        diag = bm.block(0, 0)
        packed = diag.to_dense()
        l = np.tril(packed, -1) + np.eye(30)
        y = np.arange(1.0, 31.0)
        expect = np.linalg.solve(l, y)
        solve_lower_unit(diag, y)
        np.testing.assert_allclose(y, expect, atol=1e-10)

    def test_solve_upper(self):
        a, bm, dag = _prepared(n=30, bs=32, seed=1)
        factorize(bm, dag)
        diag = bm.block(0, 0)
        u = np.triu(diag.to_dense())
        y = np.arange(1.0, 31.0)
        expect = np.linalg.solve(u, y)
        solve_upper(diag, y)
        np.testing.assert_allclose(y, expect, atol=1e-8)

    def test_solve_upper_zero_diag_raises(self):
        from repro.sparse import CSCMatrix

        d = CSCMatrix.from_dense(np.array([[0.0, 1], [0, 1.0]]))
        # give position (0,0) a stored zero
        d2 = CSCMatrix(
            (2, 2), np.array([0, 1, 3]), np.array([0, 0, 1]), np.array([0.0, 1.0, 1.0])
        )
        with pytest.raises(ZeroDivisionError):
            solve_upper(d2, np.ones(2))


class TestBlockTriangularSolves:
    @pytest.mark.parametrize("bs", [7, 16, 64])
    def test_forward_backward_roundtrip(self, bs):
        a, bm, dag = _prepared(n=50, bs=bs, seed=3)
        factorize(bm, dag)
        d = a.to_dense()
        b = np.linspace(1, 2, 50)
        y = block_forward(bm, b)
        x = block_backward(bm, y)
        np.testing.assert_allclose(d @ x, b, atol=1e-8)

    def test_forward_matches_dense(self):
        a, bm, dag = _prepared(n=40, bs=8, seed=5)
        factorize(bm, dag)
        packed = bm.to_csc().to_dense()
        l = np.tril(packed, -1) + np.eye(40)
        b = np.random.default_rng(0).standard_normal(40)
        np.testing.assert_allclose(
            block_forward(bm, b), np.linalg.solve(l, b), atol=1e-9
        )

    def test_backward_matches_dense(self):
        a, bm, dag = _prepared(n=40, bs=8, seed=5)
        factorize(bm, dag)
        packed = bm.to_csc().to_dense()
        u = np.triu(packed)
        b = np.random.default_rng(1).standard_normal(40)
        np.testing.assert_allclose(
            block_backward(bm, b), np.linalg.solve(u, b), atol=1e-8
        )

    def test_shape_checks(self):
        _, bm, dag = _prepared()
        factorize(bm, dag)
        with pytest.raises(ValueError, match="shape"):
            block_forward(bm, np.zeros(3))
        with pytest.raises(ValueError, match="shape"):
            block_backward(bm, np.zeros(3))


class TestGridMatrix:
    def test_laplacian_factorisation(self):
        g = grid_laplacian_2d(9, 9)
        f = symbolic_symmetric(g).filled
        bm = block_partition(f, 16)
        dag = build_dag(bm)
        factorize(bm, dag)
        ref = _dense_lu(g.to_dense())
        np.testing.assert_allclose(bm.to_csc().to_dense(), ref, atol=1e-9)

"""Tests for the fixed-pattern re-factorisation API (circuit workload)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU
from repro.sparse import generate, random_sparse


class TestRefactorize:
    def test_same_pattern_new_values(self):
        a = random_sparse(80, 0.06, seed=1)
        s = PanguLU(a)
        b = np.ones(80)
        s.solve(b)
        a2 = a.copy()
        a2.data = a.data * 1.7
        s.refactorize(a2)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-9
        # the residual is measured against the *new* matrix
        np.testing.assert_allclose(a2.matvec(x), b, atol=1e-8)

    def test_repeated_newton_like_updates(self):
        a = generate("ASIC_680k", scale=0.15)
        s = PanguLU(a)
        b = np.ones(a.nrows)
        s.solve(b)
        rng = np.random.default_rng(3)
        for _ in range(3):
            a_it = a.copy()
            a_it.data = a.data * (1 + 0.1 * rng.standard_normal(a.nnz))
            s.refactorize(a_it)
            x = s.solve(b)
            assert s.residual_norm(x, b) < 1e-8

    def test_preserves_symbolic_objects(self):
        a = random_sparse(60, 0.07, seed=2)
        s = PanguLU(a)
        s.factorize()
        dag_before = s.dag
        sym_before = s.symbolic
        a2 = a.copy()
        a2.data = a.data + 0.01
        s.refactorize(a2)
        assert s.dag is dag_before
        assert s.symbolic is sym_before

    def test_rejects_different_pattern(self):
        a = random_sparse(40, 0.08, seed=3)
        other = random_sparse(40, 0.08, seed=4)
        s = PanguLU(a)
        s.factorize()
        with pytest.raises(ValueError, match="pattern"):
            s.refactorize(other)

    def test_rejects_different_shape(self):
        a = random_sparse(40, 0.08, seed=5)
        other = random_sparse(41, 0.08, seed=5)
        s = PanguLU(a)
        with pytest.raises(ValueError, match="shape"):
            s.refactorize(other)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values_and_keeps_the_handle(self, bad):
        a = random_sparse(40, 0.08, seed=6)
        s = PanguLU(a)
        b = np.ones(40)
        s.solve(b)
        a_bad = a.copy()
        a_bad.data[7] = bad
        row, col = int(a.indices[7]), int(a.cols_expanded()[7])
        with pytest.raises(
            ValueError, match=rf"a_new\.data\[7\] = {bad} at \({row}, {col}\)"
        ):
            s.refactorize(a_bad)
        # nothing on the handle was touched: it still solves the old matrix
        assert s.a is a
        x = s.solve(b)
        assert s.residual_norm(x, b) <= s.options.refine_tol
        np.testing.assert_allclose(a.matvec(x), b, atol=1e-8)

    def test_refactorize_before_factorize(self):
        # refactorize on a fresh solver runs the earlier phases implicitly
        # and the numeric phase once, on the new values (it used to
        # factorise the old values first)
        from repro.runtime import engines

        a = random_sparse(50, 0.08, seed=6)
        a2 = a.copy()
        a2.data = a.data * 2.0
        s = PanguLU(a)
        real = engines.get_engine("sequential")
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        engines.register_engine("sequential")(counting)
        try:
            stats = s.refactorize(a2)
        finally:
            engines.register_engine("sequential")(real)
        assert len(calls) == 1
        assert s.numeric_stats is stats is s.factorize().stats
        x = s.solve(np.ones(50))
        np.testing.assert_allclose(a2.matvec(x), 1.0, atol=1e-8)

    def test_lu_product_error_tracks_new_values(self):
        a = random_sparse(50, 0.08, seed=7)
        s = PanguLU(a)
        s.factorize()
        a2 = a.copy()
        a2.data = a.data * -0.5
        s.refactorize(a2)
        assert s.lu_product_error() < 1e-10

"""End-to-end tests for the PanguLU solver facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU, RefinementStalled, SolverOptions
from repro.core import NumericOptions
from repro.core.solver import REFINE_MAX_ITER, refined_solve
from repro.kernels import SelectorPolicy
from repro.sparse import (
    CSCMatrix,
    generate,
    grid_laplacian_2d,
    paper_matrix_names,
    random_sparse,
)


class TestSolve:
    @pytest.mark.parametrize("ordering", ["nd", "amd", "rcm", "natural"])
    def test_residual_small(self, ordering):
        a = random_sparse(120, 0.05, seed=1)
        s = PanguLU(a, SolverOptions(ordering=ordering))
        b = np.arange(1.0, 121.0)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-9

    def test_lu_product(self):
        a = random_sparse(100, 0.05, seed=2)
        s = PanguLU(a)
        s.factorize()
        assert s.lu_product_error() < 1e-10

    def test_explicit_block_size(self):
        a = random_sparse(90, 0.06, seed=3)
        s = PanguLU(a, SolverOptions(block_size=13))
        s.preprocess()
        assert s.blocks.bs == 13
        x = s.solve(np.ones(90))
        assert s.residual_norm(x, np.ones(90)) < 1e-9

    def test_fixed_kernel_policy(self):
        a = random_sparse(80, 0.06, seed=4)
        s = PanguLU(
            a,
            SolverOptions(numeric=NumericOptions(selector=SelectorPolicy.fixed())),
        )
        x = s.solve(np.ones(80))
        assert s.residual_norm(x, np.ones(80)) < 1e-9

    def test_multiple_rhs_sequential(self):
        a = random_sparse(60, 0.07, seed=5)
        s = PanguLU(a)
        for seed in range(3):
            b = np.random.default_rng(seed).standard_normal(60)
            x = s.solve(b)
            assert s.residual_norm(x, b) < 1e-9

    def test_factorize_idempotent(self):
        a = random_sparse(50, 0.08, seed=6)
        s = PanguLU(a)
        st1 = s.factorize()
        st2 = s.factorize()
        assert st1 is st2

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            PanguLU(CSCMatrix.empty((3, 4)))

    def test_rejects_bad_ordering(self):
        a = random_sparse(10, 0.2, seed=0)
        with pytest.raises(ValueError, match="ordering"):
            PanguLU(a, SolverOptions(ordering="metis")).reorder()

    def test_rhs_shape_check(self):
        a = random_sparse(10, 0.2, seed=0)
        s = PanguLU(a)
        with pytest.raises(ValueError, match="shape"):
            s.solve(np.ones(4))
        for solve in (s.solve, s.solve_transposed):
            with pytest.raises(ValueError, match="no right-hand-side columns"):
                solve(np.zeros((10, 0)))

    def test_phase_seconds_recorded(self):
        a = random_sparse(60, 0.06, seed=7)
        s = PanguLU(a)
        s.solve(np.ones(60))
        assert set(s.phase_seconds) == {
            "reorder",
            "symbolic",
            "preprocess",
            "numeric",
            "solve",
        }
        assert all(v >= 0 for v in s.phase_seconds.values())

    def test_nprocs_option_assignment(self):
        a = random_sparse(80, 0.06, seed=8)
        s = PanguLU(a, SolverOptions(nprocs=4))
        s.preprocess()
        assert s.placement.nprocs == 4
        assert s.placement.assign(s.dag).max() < 4
        # distributed mapping never changes local numeric correctness
        x = s.solve(np.ones(80))
        assert s.residual_norm(x, np.ones(80)) < 1e-9

    @pytest.mark.parametrize("placement", ["cyclic", "cost"])
    def test_preprocess_runs_no_load_balancer(self, monkeypatch, placement):
        # the engines run every task on its block's owner: phase 3 fits
        # the placement and builds no task→rank map of its own
        from repro.core import mapping, placement as placement_mod, solver

        def forbidden(*args, **kwargs):
            raise AssertionError("phase 3 ran the load balancer")

        for mod in (mapping, solver):
            monkeypatch.setattr(mod, "balance_loads", forbidden)
            monkeypatch.setattr(mod, "task_weights", forbidden, raising=False)
        fits = []
        real = placement_mod.task_weights
        monkeypatch.setattr(
            placement_mod, "task_weights",
            lambda *a, **kw: fits.append(1) or real(*a, **kw),
        )
        s = PanguLU(random_sparse(80, 0.06, seed=8),
                    SolverOptions(nprocs=2, placement=placement))
        s.preprocess()
        # the cost policy prices blocks once, while it is fitted
        assert len(fits) == (placement == "cost")
        assert not hasattr(s, "assignment")

    @pytest.mark.parametrize("field, value", [
        ("block_size", 0), ("block_size", -4),
        ("n_workers", 0), ("n_workers", -2),
        ("nprocs", 0), ("nprocs", -1),
    ])
    def test_rejects_pool_and_blocking_below_one(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} must be at least 1"):
            SolverOptions(**{field: value})

    @pytest.mark.parametrize("options, field, value", [
        ("CholeskyOptions", "block_size", 0),
        ("CholeskyOptions", "block_size", -3),
        ("BaselineOptions", "max_supernode_width", 0),
        ("BaselineOptions", "max_supernode_width", -1),
    ])
    def test_facade_options_reject_values_below_one(self, options, field, value):
        """``block_size=0`` used to fall back to the heuristic through an
        ``or``; a supernode width below 1 was taken as given."""
        from repro import baseline, cholesky

        cls = getattr(cholesky if options == "CholeskyOptions" else baseline, options)
        with pytest.raises(ValueError, match=rf"{field} must be at least 1, got {value}"):
            cls(**{field: value})


class TestPaperMatrices:
    @pytest.mark.parametrize("name", paper_matrix_names())
    def test_solves_every_analogue(self, name):
        a = generate(name, scale=0.08, seed=0)
        s = PanguLU(a)
        b = np.ones(a.nrows)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-6, name


class TestNumericalStability:
    def test_badly_scaled_matrix(self):
        # rows scaled over 12 orders of magnitude — MC64 + iterative
        # refinement must reach the floating-point backward-error floor
        # (a fixed relative tolerance is unattainable here: the residual
        # of the *exact* solution already costs eps·‖A‖·‖x‖ per row).
        a = random_sparse(60, 0.08, seed=9)
        scale = np.logspace(-6, 6, 60)
        bad = a.scale(scale, None)
        s = PanguLU(bad)
        b = np.ones(60)
        # REFINE_TOL lies below that floor: the facade refuses by name
        # rather than return short of it, and the one refinement loop,
        # asked for the floor, reaches it
        with pytest.raises(RefinementStalled):
            s.solve(b)
        fact = s.factorize()
        d = bad.to_dense()
        floor = np.finfo(float).eps * (
            np.abs(d).sum(axis=1).max() * np.linalg.norm(fact.apply(b))
            + np.linalg.norm(b)
        )
        x = refined_solve(fact.apply, bad.matvec, b,
                          tol=10 * floor / np.linalg.norm(b),
                          budget=REFINE_MAX_ITER, history=[])
        assert s.residual_norm(x, b) * np.linalg.norm(b) < 100 * floor
        # and the factorisation itself is exact to machine precision
        assert s.lu_product_error() < 1e-12

    def test_zero_diagonal_entries(self):
        # structurally missing diagonal: MC64 permutes entries onto it
        d = np.array(
            [
                [0.0, 2.0, 0.0],
                [3.0, 0.0, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )
        a = CSCMatrix.from_dense(d)
        s = PanguLU(a)
        b = np.array([1.0, 2.0, 3.0])
        x = s.solve(b)
        np.testing.assert_allclose(d @ x, b, atol=1e-10)


class TestInputValidation:
    def test_rejects_nan(self):
        a = random_sparse(20, 0.2, seed=1)
        a.data[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            PanguLU(a)

    def test_rejects_inf(self):
        a = random_sparse(20, 0.2, seed=2)
        a.data[3] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            PanguLU(a)

    def test_complex_matrix_values_are_refused(self):
        # a cast would keep the real part and solve a different system
        a = random_sparse(20, 0.2, seed=4)
        with pytest.raises(TypeError, match="complex values are not supported"):
            CSCMatrix(a.shape, a.indptr, a.indices, a.data * (1 + 2j))
        with pytest.raises(TypeError, match="complex128"):
            CSCMatrix.from_dense(np.eye(3) * 1j)
        with pytest.raises(TypeError, match="complex values are not supported"):
            a.data = a.data.astype(np.complex64)

    def test_complex_right_hand_side_is_refused(self):
        a = random_sparse(20, 0.2, seed=5)
        s = PanguLU(a)
        b = np.ones(20)
        for bad in (b * (1 + 1j), np.ones((20, 2), dtype=np.complex64)):
            with pytest.raises(TypeError, match="complex values are not supported"):
                s.solve(bad)
            with pytest.raises(TypeError, match=str(bad.dtype)):
                s.solve_transposed(bad)
        # integer and float32 input keep working
        for ok in (np.ones(20, dtype=np.int64), b.astype(np.float32)):
            np.testing.assert_allclose(a.matvec(s.solve(ok)), b, atol=1e-8)
        ints = CSCMatrix(a.shape, a.indptr, a.indices, np.arange(1, a.nnz + 1))
        assert ints.dtype == np.float64

    @pytest.mark.parametrize("facade", ["PanguLLt", "SuperLUBaseline"])
    def test_complex_right_hand_side_is_refused_by_every_facade(self, facade):
        """The Cholesky and baseline facades used to cast ``b`` to float
        and solve its real part; they refuse it by LU's rule."""
        from repro.baseline import SuperLUBaseline
        from repro.cholesky import PanguLLt

        a = grid_laplacian_2d(6, 6)  # SPD, so every facade factors it
        s = {"PanguLLt": PanguLLt, "SuperLUBaseline": SuperLUBaseline}[facade](a)
        b = np.ones(a.nrows)
        with pytest.raises(TypeError, match="complex values are not supported"):
            s.solve(b * (1 + 1j))
        with pytest.raises(TypeError, match="complex64"):
            s.solve(b.astype(np.complex64))
        np.testing.assert_allclose(
            a.matvec(s.solve(np.ones(a.nrows, dtype=np.int64))), b, atol=1e-8
        )

    def test_structurally_singular_raises(self):
        from repro.ordering import StructurallySingularError

        d = np.zeros((4, 4))
        d[:, 0] = 1.0  # only one independent column
        d[1, 1] = 0.0
        a = CSCMatrix.from_dense(d)
        with pytest.raises(StructurallySingularError):
            PanguLU(a).reorder()

    def test_baseline_rejects_nan(self):
        from repro.baseline import SuperLUBaseline

        a = random_sparse(15, 0.2, seed=3)
        a.data[1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SuperLUBaseline(a)


class TestBestOrdering:
    def test_best_picks_minimum_fill(self):
        from repro.ordering import amd, nested_dissection
        from repro.symbolic import symbolic_symmetric as sym

        a = random_sparse(70, 0.06, seed=13)
        s = PanguLU(a, SolverOptions(ordering="best"))
        s.symbolic_factorize()
        # recompute the candidates the same way the facade does
        work = a.scale(s.row_scale, s.col_scale).permute(
            np.argsort(np.argsort(s.row_perm)) * 0 + s.row_perm, None
        )
        # simpler: the chosen fill must be <= both candidates' fills on
        # the mc64-scaled matrix
        from repro.ordering import mc64

        r = mc64(a)
        base = a.scale(r.row_scale, r.col_scale).permute(r.row_perm, None)
        fills = []
        for fn in (nested_dissection, amd):
            q = fn(base)
            fills.append(sym(base.permute(q, q)).nnz_lu)
        assert s.symbolic.nnz_lu <= min(fills) + 1  # diagonal insertion slack

    def test_best_solves(self):
        a = random_sparse(50, 0.08, seed=14)
        s = PanguLU(a, SolverOptions(ordering="best"))
        x = s.solve(np.ones(50))
        assert s.residual_norm(x, np.ones(50)) < 1e-9

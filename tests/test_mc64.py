"""Tests for MC64: maximum transversal and maximum-product matching."""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from repro.ordering import StructurallySingularError, maximum_transversal, mc64
from repro.sparse import CSCMatrix, generate, random_sparse


def scipy_optimum(a: CSCMatrix) -> float:
    """Maximum of ``sum(log |a_ij|)`` over perfect matchings, by SciPy."""
    b = a.to_scipy().tocsr()
    # SciPy drops explicit zero weights, so keep every weight ≥ 1: all
    # perfect matchings shift by the same n · top
    top = np.log(np.abs(b.data).max()) + 1.0
    b.data = top - np.log(np.abs(b.data))
    rr, cc = min_weight_full_bipartite_matching(b)
    return float(a.ncols * top - b[rr, cc].sum())


class TestTransversal:
    def test_full_matching_on_dominant(self):
        a = random_sparse(50, 0.06, seed=1)
        t = maximum_transversal(a)
        assert np.array_equal(np.sort(t), np.arange(50))
        # permuted diagonal is structurally nonzero
        d = a.permute(t, None).to_dense()
        assert np.all(np.diag(d != 0))

    def test_partial_matching_on_singular(self):
        d = np.zeros((3, 3))
        d[0, 0] = d[1, 0] = d[2, 0] = 1.0  # only column 0 has entries
        t = maximum_transversal(CSCMatrix.from_dense(d))
        assert (t >= 0).sum() == 1

    def test_permutation_matrix(self):
        # identity-reversed: anti-diagonal
        d = np.fliplr(np.eye(5))
        t = maximum_transversal(CSCMatrix.from_dense(d))
        np.testing.assert_array_equal(t, [4, 3, 2, 1, 0])

    def test_needs_augmenting_paths(self):
        # cheap assignment alone fails here; augmentation must rewire
        d = np.array([[1.0, 1.0], [1.0, 0.0]])
        t = maximum_transversal(CSCMatrix.from_dense(d))
        assert np.array_equal(np.sort(t), [0, 1])
        assert t[1] == 0  # column 1 only has row 0


class TestMC64:
    @pytest.mark.parametrize("seed", range(5))
    def test_optimal_log_product(self, seed):
        a = random_sparse(60, 0.06, seed=seed)
        assert abs(mc64(a).log_product - scipy_optimum(a)) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_scaling_bounds(self, seed):
        a = random_sparse(60, 0.06, seed=seed + 100)
        r = mc64(a)
        s = a.scale(r.row_scale, r.col_scale)
        assert np.abs(s.data).max() <= 1 + 1e-9
        diag = np.abs(s.permute(r.row_perm, None).diagonal())
        np.testing.assert_allclose(diag, 1.0, atol=1e-9)

    def test_scales_positive(self):
        a = random_sparse(30, 0.1, seed=3)
        r = mc64(a)
        assert np.all(r.row_scale > 0) and np.all(r.col_scale > 0)

    def test_row_perm_is_permutation(self):
        a = random_sparse(40, 0.08, seed=4)
        r = mc64(a)
        assert np.array_equal(np.sort(r.row_perm), np.arange(40))

    def test_singular_raises(self):
        d = np.zeros((3, 3))
        d[0, 0] = d[1, 1] = 1.0
        d[2, 0] = 1.0  # row 2 shares column support with row 0 only
        d[0, 2] = 0.0  # column 2 empty
        with pytest.raises(StructurallySingularError):
            mc64(CSCMatrix.from_dense(d))

    def test_no_perfect_matching_raises(self):
        # columns 0 and 1 both only reach row 0
        d = np.array([[1.0, 1.0, 0], [0, 0, 1.0], [0, 0, 1.0]])
        with pytest.raises(StructurallySingularError):
            mc64(CSCMatrix.from_dense(d))

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            mc64(CSCMatrix.empty((2, 3)))

    def test_empty(self):
        r = mc64(CSCMatrix.empty((0, 0)))
        assert r.row_perm.size == 0

    def test_already_diagonal_dominant_identityish(self):
        # strongly dominant diagonal: MC64 should keep the diagonal matching
        d = np.diag([10.0, 20.0, 30.0]) + 0.1
        r = mc64(CSCMatrix.from_dense(d))
        np.testing.assert_array_equal(r.row_perm, [0, 1, 2])

    def test_on_paper_analogue(self):
        a = generate("cage12", scale=0.15)
        r = mc64(a)
        s = a.scale(r.row_scale, r.col_scale).permute(r.row_perm, None)
        assert np.abs(s.diagonal()).min() > 0.99


def assert_optimal(a: CSCMatrix, r) -> None:
    """The whole MC64 contract, recomputing the duals from the scalings:
    a permutation, the SciPy optimum, ``|Dr A Dc| ≤ 1`` with ``= 1`` on the
    matching, and reduced costs ``c_ij + pi_col[j] − pi_row[i]`` that are
    non-negative everywhere and zero on the matched entries."""
    n = a.ncols
    assert np.array_equal(np.sort(r.row_perm), np.arange(n))
    assert abs(r.log_product - scipy_optimum(a)) < 1e-8
    rows, cols = a.rows_cols()
    # log|a_ij| + pi_row[i] − pi_col[j] − log colmax_j  =  −(reduced cost)
    with np.errstate(divide="ignore"):
        reduced = -(
            np.log(np.abs(a.data)) + np.log(r.row_scale)[rows] + np.log(r.col_scale)[cols]
        )
    assert reduced.min() >= -1e-12
    matched = rows == r.row_perm[cols]
    assert matched.sum() == n
    np.testing.assert_allclose(reduced[matched], 0.0, atol=1e-9)
    assert np.abs(a.scale(r.row_scale, r.col_scale).data).max() <= 1 + 1e-9


def uniform_no_dominant(n: int, density: float, seed: int) -> CSCMatrix:
    """Uniform(0.5, 1.5) values on a random pattern plus a hidden random
    transversal (so a perfect matching exists) — no entry dominates its
    row or column, and the heuristic start leaves columns free."""
    rng = np.random.default_rng(seed)
    d = np.where(rng.random((n, n)) < density, rng.uniform(0.5, 1.5, (n, n)), 0.0)
    d[rng.permutation(n), np.arange(n)] = rng.uniform(0.5, 1.5, n)
    return CSCMatrix.from_dense(d)


class TestHeuristicStart:
    @pytest.mark.parametrize("seed", range(6))
    def test_non_dominant_needs_augmentation(self, seed, monkeypatch):
        a = uniform_no_dominant(70, 0.1, seed)
        pushes = []
        real_push = heapq.heappush
        monkeypatch.setattr(
            heapq, "heappush", lambda h, e: (pushes.append(e), real_push(h, e))[1]
        )
        r = mc64(a)
        assert pushes, "the heuristic start was expected to leave columns free"
        assert_optimal(a, r)

    def test_greedy_choice_is_undone(self):
        # both columns' tight edge is row 0 and the start gives it to
        # column 0; the optimum (4·3 > 5·1) needs row 0 under column 1
        a = CSCMatrix.from_dense(np.array([[5.0, 4.0], [3.0, 1.0]]))
        r = mc64(a)
        np.testing.assert_array_equal(r.row_perm, [1, 0])
        assert_optimal(a, r)

    @pytest.mark.parametrize("seed", range(4))
    def test_ties(self, seed):
        # every stored entry has magnitude 1 or 2: tight edges everywhere
        rng = np.random.default_rng(seed)
        n = 40
        d = np.where(rng.random((n, n)) < 0.15, rng.choice([1.0, -2.0, 2.0], (n, n)), 0.0)
        d[rng.permutation(n), np.arange(n)] = 1.0
        a = CSCMatrix.from_dense(d)
        assert_optimal(a, mc64(a))

    @pytest.mark.parametrize("name", ["audikw_1", "ecology1", "cage12"])
    def test_benchmark_generators_never_augment(self, name, monkeypatch):
        a = generate(name, scale=0.15)

        def no_push(heap, entry):
            raise AssertionError(f"augmenting loop entered: pushed {entry}")

        monkeypatch.setattr(heapq, "heappush", no_push)
        r = mc64(a)
        np.testing.assert_array_equal(r.row_perm, np.arange(a.ncols))
        np.testing.assert_array_equal(r.row_scale, np.ones(a.ncols))
        assert_optimal(a, r)


class TestDiagnostics:
    def test_unmatched_columns_are_counted_and_named(self):
        # columns 0, 1, 2 and 4 all live on row 0 alone: three stay free
        d = np.eye(5)
        d[:, [1, 2, 4]] = 0.0
        d[0, [1, 2, 4]] = 1.0
        with pytest.raises(StructurallySingularError, match=r"3 of 5 columns.*column 1"):
            mc64(CSCMatrix.from_dense(d))

    def test_row_of_stored_zeros_and_nans(self):
        a = CSCMatrix.from_dense(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]))
        a.data[a.indices == 1] = [0.0, np.nan, 0.0]
        with pytest.raises(StructurallySingularError, match="1 of 3 columns"):
            mc64(a)

    def test_all_zero_column_is_named(self):
        a = CSCMatrix.from_dense(np.ones((3, 3)))
        a.data[a.cols_expanded() == 2] = 0.0
        with pytest.raises(StructurallySingularError, match="column 2 has no nonzero"):
            mc64(a)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_entry_is_refused(self, bad):
        d = np.eye(3) + 0.5
        d[2, 1] = bad
        with pytest.raises(ValueError, match=r"a\[2, 1\] = -?inf") as err:
            mc64(CSCMatrix.from_dense(d))
        assert not isinstance(err.value, StructurallySingularError)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 25), st.floats(0.05, 0.4), st.integers(0, 10_000))
def test_mc64_invariants_property(n, density, seed):
    a = random_sparse(n, density, seed=seed)
    r = mc64(a)
    assert np.array_equal(np.sort(r.row_perm), np.arange(n))
    s = a.scale(r.row_scale, r.col_scale)
    assert np.abs(s.data).max() <= 1 + 1e-9
    diag = np.abs(s.permute(r.row_perm, None).diagonal())
    np.testing.assert_allclose(diag, 1.0, atol=1e-9)

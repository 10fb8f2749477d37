"""Tests for elimination trees and both symbolic factorisation paths."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline import symbolic_gilbert_peierls
from repro.sparse import CSCMatrix, grid_laplacian_2d, random_sparse
from repro.symbolic import (
    column_counts,
    elimination_tree,
    fill_in_values,
    postorder,
    symbolic_symmetric,
    tree_levels,
)


def dense_lu_pattern(d: np.ndarray) -> np.ndarray:
    """Exact structural fill of LU without pivoting (dense reference)."""
    n = d.shape[0]
    pat = d != 0
    for k in range(n):
        assert pat[k, k], "reference requires a structurally full diagonal"
        rows = np.flatnonzero(pat[k + 1 :, k]) + k + 1
        cols = np.flatnonzero(pat[k, k + 1 :]) + k + 1
        pat[np.ix_(rows, cols)] = True
    return pat


def pattern_mask(m: CSCMatrix) -> np.ndarray:
    out = np.zeros(m.shape, dtype=bool)
    r, c = m.rows_cols()
    out[r, c] = True
    return out


class TestEtree:
    def test_chain_matrix(self):
        # tridiagonal → etree is a path
        d = np.eye(5) + np.eye(5, k=1) + np.eye(5, k=-1)
        par = elimination_tree(CSCMatrix.from_dense(d))
        np.testing.assert_array_equal(par, [1, 2, 3, 4, -1])

    def test_diagonal_matrix_is_forest_of_roots(self):
        par = elimination_tree(CSCMatrix.eye(4))
        np.testing.assert_array_equal(par, [-1, -1, -1, -1])

    def test_parent_exceeds_child(self):
        a = random_sparse(50, 0.06, seed=2)
        par = elimination_tree(a)
        for v, p in enumerate(par):
            assert p == -1 or p > v

    def test_postorder_children_before_parents(self):
        a = random_sparse(40, 0.08, seed=3)
        par = elimination_tree(a)
        post = postorder(par)
        pos = np.empty(40, dtype=int)
        pos[post] = np.arange(40)
        for v, p in enumerate(par):
            if p >= 0:
                assert pos[v] < pos[p]

    def test_postorder_is_permutation(self):
        a = random_sparse(33, 0.1, seed=4)
        post = postorder(elimination_tree(a))
        assert np.array_equal(np.sort(post), np.arange(33))

    def test_tree_levels(self):
        par = np.array([1, 2, -1])
        np.testing.assert_array_equal(tree_levels(par), [2, 1, 0])

    def test_column_counts_match_fill(self):
        g = grid_laplacian_2d(7, 7)
        cc = column_counts(g)
        filled = symbolic_symmetric(g).filled
        mask = pattern_mask(filled)
        lower = np.tril(mask)
        np.testing.assert_array_equal(cc, lower.sum(axis=0))


class TestSymmetricFill:
    @pytest.mark.parametrize("seed", range(4))
    def test_superset_of_exact_fill(self, seed):
        a = random_sparse(45, 0.06, seed=seed)
        sym = symbolic_symmetric(a)
        exact = dense_lu_pattern(a.to_dense())
        assert np.all(pattern_mask(sym.filled) >= exact)

    def test_exact_on_symmetric_pattern(self):
        g = grid_laplacian_2d(8, 8)
        sym = symbolic_symmetric(g)
        exact = dense_lu_pattern(g.to_dense())
        np.testing.assert_array_equal(pattern_mask(sym.filled), exact)

    def test_values_injected(self):
        a = random_sparse(30, 0.08, seed=9)
        sym = symbolic_symmetric(a)
        np.testing.assert_allclose(sym.filled.to_dense(), a.to_dense())

    def test_nnz_accounting(self):
        g = grid_laplacian_2d(6, 6)
        sym = symbolic_symmetric(g)
        mask = pattern_mask(sym.filled)
        strict_lower = np.tril(mask, -1).sum()
        assert sym.nnz_l == strict_lower + 36
        assert sym.nnz_u == strict_lower + 36  # symmetric pattern

    def test_fill_ratio_at_least_one(self):
        a = random_sparse(30, 0.05, seed=1)
        assert symbolic_symmetric(a).fill_ratio >= 1.0

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            symbolic_symmetric(CSCMatrix.empty((2, 3)))


class TestGilbertPeierls:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("prune", [True, False])
    def test_matches_dense_reference(self, seed, prune):
        a = random_sparse(45, 0.06, seed=seed)
        gp = symbolic_gilbert_peierls(a, prune=prune)
        np.testing.assert_array_equal(
            pattern_mask(gp.filled), dense_lu_pattern(a.to_dense())
        )

    def test_pruning_does_not_change_pattern(self):
        a = random_sparse(60, 0.05, seed=11)
        g1 = symbolic_gilbert_peierls(a, prune=True)
        g2 = symbolic_gilbert_peierls(a, prune=False)
        assert g1.filled.nnz == g2.filled.nnz
        assert np.array_equal(g1.filled.indices, g2.filled.indices)

    def test_subset_of_symmetric_fill(self):
        a = random_sparse(40, 0.07, seed=12)
        gp = symbolic_gilbert_peierls(a)
        sym = symbolic_symmetric(a)
        assert np.all(pattern_mask(sym.filled) >= pattern_mask(gp.filled))

    def test_values_injected(self):
        a = random_sparse(25, 0.1, seed=13)
        gp = symbolic_gilbert_peierls(a)
        np.testing.assert_allclose(gp.filled.to_dense(), a.to_dense())

    def test_nnz_counts(self):
        a = random_sparse(30, 0.08, seed=14)
        gp = symbolic_gilbert_peierls(a)
        mask = pattern_mask(gp.filled)
        assert gp.nnz_l == np.tril(mask).sum()
        assert gp.nnz_u == np.triu(mask).sum()


class TestFillInValues:
    def test_missing_entry_raises(self):
        pattern = CSCMatrix.eye(3)
        a = CSCMatrix.from_dense(np.array([[1.0, 2.0, 0], [0, 1, 0], [0, 0, 1.0]]))
        with pytest.raises(ValueError, match="cover"):
            fill_in_values(pattern, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            fill_in_values(CSCMatrix.eye(3), CSCMatrix.eye(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 30), st.floats(0.03, 0.25), st.integers(0, 10_000))
def test_gp_equals_dense_reference_property(n, density, seed):
    a = random_sparse(n, density, seed=seed)
    gp = symbolic_gilbert_peierls(a)
    np.testing.assert_array_equal(
        pattern_mask(gp.filled), dense_lu_pattern(a.to_dense())
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 30), st.floats(0.03, 0.25), st.integers(0, 10_000))
def test_symmetric_fill_closure_property(n, density, seed):
    """The fill pattern must be closed under (r,t),(t,c) → (r,c), t < min —
    the invariant every kernel's bin-search addressing relies on."""
    a = random_sparse(n, density, seed=seed)
    mask = pattern_mask(symbolic_symmetric(a).filled)
    for t in range(n):
        rows = np.flatnonzero(mask[t + 1 :, t]) + t + 1
        cols = np.flatnonzero(mask[t, t + 1 :]) + t + 1
        assert mask[np.ix_(rows, cols)].all()


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 35), st.floats(0.03, 0.3), st.integers(0, 10_000))
def test_etree_properties(n, density, seed):
    """Elimination-tree invariants on arbitrary matrices: parents come
    after children, postorder is a valid topological order, and levels
    decrease from child to parent by exactly one."""
    a = random_sparse(n, density, seed=seed)
    par = elimination_tree(a)
    assert par.shape == (n,)
    for v, p in enumerate(par):
        assert p == -1 or p > v
    post = postorder(par)
    assert np.array_equal(np.sort(post), np.arange(n))
    depth = tree_levels(par)
    for v, p in enumerate(par):
        if p >= 0:
            assert depth[v] == depth[p] + 1
        else:
            assert depth[v] == 0

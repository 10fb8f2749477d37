"""Tests for structural pattern utilities."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    CSCMatrix,
    adjacency_lists,
    bandwidth,
    ensure_diagonal,
    has_full_diagonal,
    is_structurally_symmetric,
    random_sparse,
    symmetrize_pattern,
)


class TestSymmetrize:
    def test_pattern_is_union(self):
        a = random_sparse(40, 0.05, seed=3)
        s = symmetrize_pattern(a)
        da = a.to_dense() != 0
        ds = np.zeros_like(da)
        r, c = s.rows_cols()
        ds[r, c] = True
        np.testing.assert_array_equal(ds, da | da.T)

    def test_values_preserved(self):
        a = random_sparse(40, 0.05, seed=4)
        s = symmetrize_pattern(a)
        np.testing.assert_allclose(s.to_dense(), a.to_dense())

    def test_result_symmetric(self):
        a = random_sparse(25, 0.08, seed=5)
        assert is_structurally_symmetric(symmetrize_pattern(a))


class TestDiagonal:
    def test_has_full_diagonal(self):
        assert has_full_diagonal(CSCMatrix.eye(4))
        d = np.eye(4)
        d[2, 2] = 0
        assert not has_full_diagonal(CSCMatrix.from_dense(d))

    def test_ensure_diagonal_inserts_zeros(self):
        d = np.zeros((3, 3))
        d[0, 1] = 5.0
        a = CSCMatrix.from_dense(d)
        out = ensure_diagonal(a)
        assert has_full_diagonal(out)
        np.testing.assert_allclose(out.to_dense(), d)  # values unchanged

    def test_ensure_diagonal_noop_when_full(self):
        a = random_sparse(10, 0.1, seed=0)
        out = ensure_diagonal(a)
        assert out.nnz == a.nnz


class TestMisc:
    def test_bandwidth(self):
        d = np.eye(5)
        d[0, 4] = 1
        assert bandwidth(CSCMatrix.from_dense(d)) == 4
        assert bandwidth(CSCMatrix.empty((3, 3))) == 0

    def test_adjacency_excludes_self_loops(self):
        a = random_sparse(20, 0.1, seed=1)
        adj = adjacency_lists(a)
        for v, nbrs in enumerate(adj):
            assert v not in nbrs
            assert np.all(np.diff(nbrs) > 0)

    def test_adjacency_symmetric(self):
        a = random_sparse(20, 0.1, seed=2)
        adj = adjacency_lists(a)
        for v, nbrs in enumerate(adj):
            for w in nbrs:
                assert v in adj[int(w)]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.floats(0.02, 0.3), st.integers(0, 10_000))
def test_symmetrize_idempotent(n, density, seed):
    a = random_sparse(n, density, seed=seed)
    s1 = symmetrize_pattern(a)
    s2 = symmetrize_pattern(s1)
    assert np.array_equal(s1.indptr, s2.indptr)
    assert np.array_equal(s1.indices, s2.indices)

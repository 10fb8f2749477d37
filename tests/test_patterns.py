"""Tests for structural pattern utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import (
    CSCMatrix,
    bandwidth,
    ensure_diagonal,
    has_full_diagonal,
    is_structurally_symmetric,
    random_sparse,
    symmetrize_pattern,
)
from repro.sparse.patterns import adjacency


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


    def test_negative_zeros(self):
        # stored −0.0 at (0, 0), (1, 0) and (2, 1); (1, 2) holds 5.0
        a = CSCMatrix((3, 3), np.array([0, 2, 3, 4]), np.array([0, 1, 2, 1]),
                      np.array([-0.0, -0.0, -0.0, 5.0]))
        s = symmetrize_pattern(a)
        assert s.dtype == np.float64
        assert s.indptr.tolist() == [0, 2, 4, 5]
        assert s.indices.tolist() == [0, 1, 0, 2, 1]
        assert s.data.tolist() == [0.0, 0.0, 0.0, 0.0, 5.0]
        # (1, 0) is A's alone and keeps −0.0; (0, 0) and (2, 1), which Aᵀ
        # has too, read +0.0; (0, 1) comes from Aᵀ alone
        np.testing.assert_array_equal(np.signbit(s.data), [False, True, False, False, False])

    def test_float32_and_empty(self):
        a = random_sparse(30, 0.1, seed=6)
        np.testing.assert_array_equal(symmetrize_pattern(a.astype(np.float32)).data,
                                      symmetrize_pattern(a).data.astype(np.float32))
        s = symmetrize_pattern(CSCMatrix.empty((4, 4)))
        assert s.nnz == 0 and s.indptr.tolist() == [0] * 5

    def test_rejects_a_rectangular_matrix(self):
        with pytest.raises(ValueError, match="square"):
            symmetrize_pattern(CSCMatrix.empty((3, 4)))


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
        ptr, idx = adjacency(a)
        adj = np.split(idx, ptr[1:-1])
        for v, nbrs in enumerate(adj):
            assert v not in nbrs
            assert np.all(np.diff(nbrs) > 0)

    def test_adjacency_symmetric(self):
        a = random_sparse(20, 0.1, seed=2)
        ptr, idx = adjacency(a)
        adj = np.split(idx, ptr[1:-1])
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

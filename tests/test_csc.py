"""Unit and property tests for the CSC container."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparse import CSCMatrix, coo_to_csc, generate, random_sparse


def random_dense(rng: np.random.Generator, n: int, m: int, density: float) -> np.ndarray:
    d = rng.standard_normal((n, m))
    d[rng.random((n, m)) > density] = 0.0
    return d


# ---------------------------------------------------------------------------
# construction & validation
# ---------------------------------------------------------------------------

class TestConstruction:
    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        d = random_dense(rng, 13, 9, 0.3)
        m = CSCMatrix.from_dense(d)
        assert m.shape == (13, 9)
        np.testing.assert_array_equal(m.to_dense(), d)

    def test_eye(self):
        m = CSCMatrix.eye(5)
        np.testing.assert_array_equal(m.to_dense(), np.eye(5))
        assert m.nnz == 5

    def test_empty(self):
        m = CSCMatrix.empty((4, 6))
        assert m.nnz == 0
        np.testing.assert_array_equal(m.to_dense(), np.zeros((4, 6)))

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            CSCMatrix((2, 2), np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_validation_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSCMatrix(
                (2, 2), np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 2.0])
            )

    def test_validation_rejects_row_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CSCMatrix((2, 2), np.array([0, 1, 1]), np.array([5]), np.array([1.0]))

    def test_validation_rejects_unsorted_rows(self):
        with pytest.raises(ValueError, match="sorted"):
            CSCMatrix(
                (3, 1), np.array([0, 2]), np.array([2, 0]), np.array([1.0, 2.0])
            )

    def test_data_mismatch(self):
        with pytest.raises(ValueError, match="data"):
            CSCMatrix((2, 1), np.array([0, 1]), np.array([0]), np.array([1.0, 2.0]))

    def test_pattern_only_lazy_data(self):
        m = CSCMatrix((2, 1), np.array([0, 1]), np.array([0]))
        assert m.nnz == 1
        np.testing.assert_array_equal(m.data, [0.0])

    def test_from_scipy(self):
        import scipy.sparse as sp

        s = sp.random(10, 10, density=0.3, random_state=0, format="csc")
        m = CSCMatrix.from_scipy(s)
        np.testing.assert_allclose(m.to_dense(), s.toarray())


class TestCooAssembly:
    def test_duplicates_summed(self):
        m = coo_to_csc((2, 2), [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0])
        np.testing.assert_array_equal(m.to_dense(), [[3.0, 0.0], [0.0, 5.0]])

    def test_duplicates_rejected_when_disallowed(self):
        with pytest.raises(ValueError, match="duplicate"):
            coo_to_csc((2, 2), [0, 0], [0, 0], [1.0, 2.0], sum_duplicates=False)

    def test_default_values_are_ones(self):
        m = coo_to_csc((2, 2), [0, 1], [1, 0])
        np.testing.assert_array_equal(m.to_dense(), [[0, 1], [1, 0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            coo_to_csc((2, 2), [3], [0], [1.0])
        with pytest.raises(ValueError):
            coo_to_csc((2, 2), [0], [-1], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            coo_to_csc((2, 2), [0, 1], [0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# products vs per-entry accumulation
# ---------------------------------------------------------------------------

def accumulated_product(a: CSCMatrix, x: np.ndarray, transposed: bool) -> np.ndarray:
    """``A @ x`` (``Aᵀ @ x``) one stored entry at a time in storage order,
    every output row summed from zero in float64."""
    x = np.asarray(x, dtype=np.float64)
    y = np.zeros(((a.ncols if transposed else a.nrows), *x.shape[1:]))
    for j in range(a.ncols):
        for p in range(a.indptr[j], a.indptr[j + 1]):
            i, v = int(a.indices[p]), float(a.data[p])
            if transposed:
                y[j] += v * x[i]
            else:
                y[i] += v * x[j]
    return y


def product_cases() -> list:
    rng = np.random.default_rng(7)
    d = random_dense(rng, 40, 30, 0.2)
    d[:, [0, 11, 29]] = 0.0                           # empty columns
    d[[3, 17], :] = 0.0                               # and empty rows
    cases = {
        "rect-empty-cols": CSCMatrix.from_dense(d),
        "random-f64": random_sparse(120, 0.05, seed=3),
        "random-f32": random_sparse(120, 0.05, seed=4).astype(np.float32),
        "ecology1": generate("ecology1", scale=0.1, seed=0),
        "audikw_1-f32": generate("audikw_1", scale=0.1, seed=0).astype(np.float32),
    }
    return [pytest.param(a, id=name) for name, a in cases.items()]


@pytest.mark.parametrize("a", product_cases())
@pytest.mark.parametrize("k", [None, 16])
def test_products_match_per_entry_accumulation(a, k):
    rng = np.random.default_rng(a.nnz)
    shape = (lambda n: (n,)) if k is None else (lambda n: (n, k))
    x, xt = rng.standard_normal(shape(a.ncols)), rng.standard_normal(shape(a.nrows))
    got = a.matvec(x) if k is None else a.matmat(x)
    assert got.dtype == np.float64
    assert np.array_equal(got, accumulated_product(a, x, transposed=False))
    assert np.array_equal(a.rmatvec(xt), accumulated_product(a, xt, transposed=True))


def test_products_take_strided_operands_and_check_shapes():
    a = random_sparse(50, 0.1, seed=5)
    x = np.random.default_rng(0).standard_normal((a.ncols, 32))[:, ::2]   # not contiguous
    assert np.array_equal(a.matmat(x), accumulated_product(a, x, transposed=False))
    assert np.array_equal(a.rmatvec(x), accumulated_product(a, x, transposed=True))
    assert np.array_equal(a.matvec(x[:, 3]), a.matmat(x)[:, 3])
    for call, bad in ((a.matvec, np.zeros((50, 2))), (a.matmat, np.zeros(50)),
                      (a.matmat, np.zeros((49, 2))), (a.rmatvec, np.zeros((50, 2, 2)))):
        with pytest.raises(ValueError, match="shape"):
            call(bad)


def test_matmat_allocates_no_nnz_by_k_temporary():
    # nnz ≈ 40 000, k = 16: an (nnz, k) float64 temporary is 5 MB against
    # a 64 KB result
    a = random_sparse(500, 0.16, seed=1)
    x = np.random.default_rng(1).standard_normal((a.ncols, 16))
    tracemalloc.start()
    try:
        y = a.matmat(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * y.nbytes + 65536 < a.nnz * x.shape[1] * 8


def test_sparsetools_entry_points_the_package_calls():
    """Every private ``scipy.sparse._sparsetools`` routine ``repro`` calls,
    by name, on one 3×3 example: a SciPy release that moves or changes one
    fails here, not deep inside a pipeline."""
    from scipy.sparse import _sparsetools as st

    i64, f64 = (lambda v: np.array(v, dtype=np.int64)), (lambda v: np.array(v, dtype=np.float64))
    # A = [[1, 0, 2], [0, 3, 0], [4, 5, 6]] by rows (CSR) and by columns (CSC)
    ptr, idx, val = i64([0, 2, 3, 6]), i64([0, 2, 1, 0, 1, 2]), f64([1, 2, 3, 4, 5, 6])
    c_ptr, c_idx, c_val = np.empty(4, np.int64), np.empty(6, np.int64), np.empty(6)
    st.csr_tocsc(3, 3, ptr, idx, val, c_ptr, c_idx, c_val)
    assert c_ptr.tolist() == [0, 2, 4, 6] and c_idx.tolist() == [0, 2, 1, 2, 0, 2]
    assert c_val.tolist() == [1, 4, 3, 5, 2, 6]

    # marker merge of A (1) and the pattern of Aᵀ (2), the CSC arrays read by rows
    s_ptr, s_idx, mark = np.empty(4, np.int64), np.empty(12, np.int64), np.empty(12, np.int8)
    st.csr_plus_csr(3, 3, ptr, idx, np.ones(6, np.int8), c_ptr, c_idx, np.full(6, 2, np.int8),
                    s_ptr, s_idx, mark)
    assert s_ptr.tolist() == [0, 2, 4, 7]
    assert s_idx[:7].tolist() == [0, 2, 1, 2, 0, 1, 2]
    assert mark[:7].tolist() == [3, 3, 3, 2, 3, 1, 3]

    u_idx, u_val = i64([2, 0, 2, 1, 2, 0]), f64([10, 20, 30, 40, 50, 60])
    st.csr_sort_indices(3, c_ptr, u_idx, u_val)
    assert u_idx.tolist() == [0, 2, 1, 2, 0, 2] and u_val.tolist() == [20, 10, 40, 30, 60, 50]

    x, xs = f64([1, 2, 3]), f64([[1, 0], [2, 1], [3, 0]])
    for matvec, matvecs, want, wants in (
        (st.csc_matvec, st.csc_matvecs, [7, 6, 32], [[7, 0], [6, 3], [32, 5]]),       # A @ x
        (st.csr_matvec, st.csr_matvecs, [13, 21, 20], [[13, 0], [21, 3], [20, 0]]),   # Aᵀ @ x
    ):
        y, ys = np.zeros(3), np.zeros((3, 2))
        matvec(3, 3, c_ptr, c_idx, c_val, x, y)
        matvecs(3, 3, 2, c_ptr, c_idx, c_val, xs, ys)
        assert y.tolist() == want and ys.tolist() == wants


# ---------------------------------------------------------------------------
# operations vs dense reference
# ---------------------------------------------------------------------------

class TestOps:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.d = random_dense(self.rng, 17, 17, 0.25)
        self.m = CSCMatrix.from_dense(self.d)

    def test_transpose(self):
        np.testing.assert_array_equal(self.m.transpose().to_dense(), self.d.T)

    def test_transpose_involution(self):
        t2 = self.m.transpose().transpose()
        assert t2 == self.m

    def test_permute_rows_cols(self):
        p = self.rng.permutation(17)
        q = self.rng.permutation(17)
        np.testing.assert_array_equal(
            self.m.permute(p, q).to_dense(), self.d[np.ix_(p, q)]
        )

    def test_permute_identity(self):
        np.testing.assert_array_equal(self.m.permute(None, None).to_dense(), self.d)

    def test_diagonal(self):
        np.testing.assert_array_equal(self.m.diagonal(), np.diag(self.d))

    def test_scale(self):
        r = self.rng.random(17) + 0.5
        c = self.rng.random(17) + 0.5
        expect = np.diag(r) @ self.d @ np.diag(c)
        np.testing.assert_allclose(self.m.scale(r, c).to_dense(), expect)

    def test_matvec(self):
        x = self.rng.standard_normal(17)
        np.testing.assert_allclose(self.m.matvec(x), self.d @ x)

    def test_matvec_shape_check(self):
        with pytest.raises(ValueError, match="shape"):
            self.m.matvec(np.zeros(5))

    def test_extract_submatrix(self):
        rows = np.array([1, 4, 9, 13])
        cols = [0, 5, 6]
        sub = self.m.extract_submatrix(rows, cols)
        np.testing.assert_array_equal(sub.to_dense(), self.d[np.ix_(rows, cols)])

    def test_col_access(self):
        rows, vals = self.m.col(3)
        dense_col = self.d[:, 3]
        np.testing.assert_array_equal(dense_col[rows], vals)
        assert np.all(np.diff(rows) > 0)

    def test_copy_is_deep(self):
        c = self.m.copy()
        c.data[:] = 0
        assert self.m.data.any()

    def test_density(self):
        assert self.m.density == self.m.nnz / (17 * 17)

    def test_equality(self):
        assert self.m == self.m.copy()
        other = self.m.copy()
        other.data[0] += 1
        assert not (self.m == other)


# ---------------------------------------------------------------------------
# property-based tests
# ---------------------------------------------------------------------------

@st.composite
def sparse_matrices(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 24))
    seed = draw(st.integers(0, 2**31 - 1))
    density = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, m))
    d[rng.random((n, m)) > density] = 0.0
    return d


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_dense_roundtrip_property(d):
    m = CSCMatrix.from_dense(d)
    np.testing.assert_array_equal(m.to_dense(), d)
    # invariants hold
    m._validate()
    assert m.nnz == np.count_nonzero(d)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices())
def test_transpose_property(d):
    m = CSCMatrix.from_dense(d)
    np.testing.assert_array_equal(m.transpose().to_dense(), d.T)
    m.transpose()._validate()


@settings(max_examples=40, deadline=None)
@given(sparse_matrices(), st.integers(0, 2**31 - 1))
def test_permute_property(d, seed):
    rng = np.random.default_rng(seed)
    p = rng.permutation(d.shape[0])
    q = rng.permutation(d.shape[1])
    m = CSCMatrix.from_dense(d)
    out = m.permute(p, q)
    out._validate()
    np.testing.assert_array_equal(out.to_dense(), d[np.ix_(p, q)])
    # the inverse permutations undo it exactly
    assert out.permute(np.argsort(p), np.argsort(q)) == m


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 40), st.floats(0.01, 0.3), st.integers(0, 10_000))
def test_random_sparse_is_diagonally_dominant(n, density, seed):
    a = random_sparse(n, density, seed=seed)
    d = a.to_dense()
    diag = np.abs(np.diag(d))
    offsum = np.sum(np.abs(d), axis=1) - diag
    assert np.all(diag > offsum)

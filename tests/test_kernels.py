"""Tests for the 22 sparse kernel variants against dense references.

The block fixtures come from a real symbolic factorisation, so their
patterns satisfy the fill-closure property the kernels assume.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs

from repro import PanguLU
from repro.kernels import (
    GESSM_VARIANTS,
    GETRF_VARIANTS,
    SSSSM_VARIANTS,
    TSTRF_VARIANTS,
    KernelType,
    SingularBlockError,
    Workspace,
    diag_seg,
    gessm_flops,
    getrf_flops,
    kernel_names,
    ssssm_flops_structural,
    tstrf_flops,
)
from repro.kernels.base import (
    GETRF_SERIAL_ORDER,
    SERIAL_GEMM_WORK,
    box_image,
    dense_getrf,
    inverse_triangle,
    invert_factors,
    serial_matmul,
    triangle,
    triangle_inverse,
)
from repro.kernels.plans import PLANNABLE_VERSIONS, build_solve_plan
from repro.kernels.registry import get_kernel, is_gpu_version
from repro.sparse import CSCMatrix, generate, random_sparse
from repro.symbolic import symbolic_symmetric

from .reference_numeric import PANEL_ORACLE, dense_getrf_loop, split_lu


@pytest.fixture
def ws():
    return Workspace()


def _blocks(seed: int, n: int = 70, split: int = 35):
    a = random_sparse(n, 0.07, seed=seed)
    f = symbolic_symmetric(a).filled
    top = np.arange(split)
    bot = np.arange(split, n)
    d = f.extract_submatrix(top, range(split))
    b = f.extract_submatrix(top, range(split, n))
    r = f.extract_submatrix(bot, range(split))
    c = f.extract_submatrix(bot, range(split, n))
    return d, b, r, c


def _dense_lu(d: np.ndarray) -> np.ndarray:
    d = d.copy()
    for k in range(d.shape[0]):
        d[k + 1 :, k] /= d[k, k]
        d[k + 1 :, k + 1 :] -= np.outer(d[k + 1 :, k], d[k, k + 1 :])
    return d


class TestRegistry:
    def test_seventeen_kernels(self):
        """Table 1's variants and nothing else: the low-rank update is
        not a selectable variant."""
        assert len(kernel_names()) == 17

    def test_counts_per_type(self):
        counts = {}
        for ktype, _ in kernel_names():
            counts[ktype] = counts.get(ktype, 0) + 1
        assert counts == {
            KernelType.GETRF: 3,
            KernelType.GESSM: 5,
            KernelType.TSTRF: 5,
            KernelType.SSSSM: 4,
        }

    def test_get_kernel_error(self):
        with pytest.raises(KeyError, match="valid"):
            get_kernel(KernelType.GETRF, "G_V9")

    def test_gpu_classification(self):
        assert is_gpu_version("G_V1")
        assert not is_gpu_version("C_V2")


class TestGETRF:
    @pytest.mark.parametrize("version", list(GETRF_VARIANTS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense(self, version, seed, ws):
        d, _, _, _ = _blocks(seed)
        ref = _dense_lu(d.to_dense())
        blk = d.copy()
        GETRF_VARIANTS[version](blk, ws)
        np.testing.assert_allclose(blk.to_dense(), ref, atol=1e-10)

    @pytest.mark.parametrize("version", list(GETRF_VARIANTS))
    def test_zero_pivot_raises(self, version, ws):
        dense = np.array([[0.0, 1.0], [1.0, 1.0]])
        blk = CSCMatrix.from_dense(np.array([[1.0, 1.0], [1.0, 1.0]]))
        blk.data[...] = CSCMatrix.from_dense(dense + np.eye(2) * 1e-300).data * 0
        # simplest: a block whose (0,0) value is exactly zero
        blk = CSCMatrix(
            (2, 2),
            np.array([0, 2, 4]),
            np.array([0, 1, 0, 1]),
            np.array([0.0, 1.0, 1.0, 1.0]),
        )
        with pytest.raises(SingularBlockError):
            GETRF_VARIANTS[version](blk, ws)

    @pytest.mark.parametrize("version", list(GETRF_VARIANTS))
    def test_pivot_floor_rescues(self, version, ws):
        blk = CSCMatrix(
            (2, 2),
            np.array([0, 2, 4]),
            np.array([0, 1, 0, 1]),
            np.array([0.0, 1.0, 1.0, 1.0]),
        )
        GETRF_VARIANTS[version](blk, ws, pivot_floor=1e-10)
        d = blk.to_dense()
        assert d[0, 0] != 0.0

    def test_variants_agree_exactly(self, ws):
        d, _, _, _ = _blocks(5)
        results = []
        for fn in GETRF_VARIANTS.values():
            blk = d.copy()
            fn(blk, ws)
            results.append(blk.to_dense())
        for r in results[1:]:
            np.testing.assert_allclose(r, results[0], atol=1e-12)

    # dense_getrf: LAPACK getrf where it pivots nowhere, else the loop
    @staticmethod
    def _dominant(n: int, dtype=np.float64) -> np.ndarray:
        """Column diagonally dominant: partial pivoting swaps no row."""
        a = np.random.default_rng(n).standard_normal((n, n))
        a += np.diag(np.abs(a).sum(axis=0) + 1.0)
        return a.astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 2, 47, 104])
    def test_lapack_result_is_kept_and_matches_the_loop(self, n, dtype):
        a = self._dominant(n, dtype)
        (getrf,) = get_lapack_funcs(("getrf",), (a,))
        lu, ipiv, info = getrf(a)
        assert info == 0 and np.array_equal(ipiv, np.arange(n))
        w, ref = a.copy(), a.copy()
        assert dense_getrf(w, 1e-12, 1.0) == 0
        assert w.dtype == lu.dtype == dtype
        np.testing.assert_array_equal(w, lu)
        assert dense_getrf_loop(ref, 1e-12, 1.0) == 0
        # the two differ by rounding only: 1e-12 in float64, a few
        # hundred ulps of float32
        tol = 1e-12 if dtype == np.float64 else 1e-5
        assert np.abs(w - ref).max() <= tol * np.abs(ref).max()

    def test_a_row_swap_takes_the_loop(self):
        a = np.array([[1.0, 1.0], [3.0, 4.0]])
        w, ref = a.copy(), a.copy()
        assert dense_getrf(w, 1e-12, 4.0) == dense_getrf_loop(ref, 1e-12, 4.0) == 0
        np.testing.assert_array_equal(w, ref)

    def test_a_pivot_under_the_floor_takes_the_loop(self):
        # row and column 4 decoupled: U[4,4] is exactly the tiny entry and
        # nothing below it competes, so getrf succeeds without a swap
        a = self._dominant(10)
        a[4, :] = a[:, 4] = 0.0
        a[4, 4] = 1e-20
        (getrf,) = get_lapack_funcs(("getrf",), (a,))
        _, ipiv, info = getrf(a)
        assert info == 0 and np.array_equal(ipiv, np.arange(10))
        scale = float(np.abs(a).max())
        w, ref = a.copy(), a.copy()
        assert dense_getrf(w, 1e-12, scale) == dense_getrf_loop(ref, 1e-12, scale) == 1
        np.testing.assert_array_equal(w, ref)

    def test_a_zero_pivot_without_floor_raises_from_the_loop(self):
        with pytest.raises(SingularBlockError):
            dense_getrf(np.array([[0.0, 1.0], [0.0, 1.0]]), 0.0, 1.0)

    def test_above_the_serial_order_takes_the_loop(self, monkeypatch):
        import repro.kernels.base as base

        def no_lapack(*args):
            raise AssertionError("getrf called above GETRF_SERIAL_ORDER")

        monkeypatch.setattr(base, "get_lapack_funcs", no_lapack)
        a = self._dominant(GETRF_SERIAL_ORDER + 1)
        w, ref = a.copy(), a.copy()
        assert dense_getrf(w, 1e-12, 1.0) == dense_getrf_loop(ref, 1e-12, 1.0)
        np.testing.assert_array_equal(w, ref)

    def test_blocks_refused_by_lapack_still_factor_and_solve(self, monkeypatch):
        # nlpkkt80's saddle-point blocks make partial pivoting swap on some
        # diagonal blocks; those take the loop, the others keep getrf
        import repro.kernels.base as base

        swapped = []
        real = base.get_lapack_funcs

        def spy(names, arrays):
            funcs = real(names, arrays)
            if names != ("getrf",):
                return funcs

            def getrf(a):
                lu, ipiv, info = funcs[0](a)
                swapped.append(not np.array_equal(ipiv, np.arange(a.shape[0])))
                return lu, ipiv, info

            return (getrf,)

        monkeypatch.setattr(base, "get_lapack_funcs", spy)
        a = generate("nlpkkt80", scale=0.3)
        solver = PanguLU(a)
        b = np.sin(np.arange(a.nrows) * 0.1)
        x = solver.solve(b)
        assert any(swapped) and not all(swapped)
        assert solver.residual_norm(x, b) < 1e-9


class TestGESSM:
    @pytest.mark.parametrize("version", list(GESSM_VARIANTS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense(self, version, seed, ws):
        d, b, _, _ = _blocks(seed)
        dfac = d.copy()
        GETRF_VARIANTS["C_V1"](dfac, ws)
        ref_lu = dfac.to_dense()
        l = np.tril(ref_lu, -1) + np.eye(d.ncols)
        expect = np.linalg.solve(l, b.to_dense())
        blk = b.copy()
        GESSM_VARIANTS[version](dfac, blk, ws)
        np.testing.assert_allclose(blk.to_dense(), expect, atol=1e-10)

    def test_empty_rhs(self, ws):
        d, _, _, _ = _blocks(3)
        dfac = d.copy()
        GETRF_VARIANTS["C_V1"](dfac, ws)
        empty = CSCMatrix.empty((d.nrows, 4))
        for fn in GESSM_VARIANTS.values():
            fn(dfac, empty, ws)  # must not crash
        assert empty.nnz == 0


class TestTSTRF:
    @pytest.mark.parametrize("version", list(TSTRF_VARIANTS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense(self, version, seed, ws):
        d, _, r, _ = _blocks(seed)
        dfac = d.copy()
        GETRF_VARIANTS["C_V1"](dfac, ws)
        u = np.triu(dfac.to_dense())
        expect = np.linalg.solve(u.T, r.to_dense().T).T
        blk = r.copy()
        TSTRF_VARIANTS[version](dfac, blk, ws)
        np.testing.assert_allclose(blk.to_dense(), expect, atol=1e-9)

    def test_empty_rhs(self, ws):
        d, _, _, _ = _blocks(3)
        dfac = d.copy()
        GETRF_VARIANTS["C_V1"](dfac, ws)
        empty = CSCMatrix.empty((4, d.ncols))
        for fn in TSTRF_VARIANTS.values():
            fn(dfac, empty, ws)
        assert empty.nnz == 0


class TestSSSSM:
    @pytest.mark.parametrize("version", list(SSSSM_VARIANTS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense(self, version, seed, ws):
        d, b, r, c = _blocks(seed)
        dfac = d.copy()
        GETRF_VARIANTS["C_V1"](dfac, ws)
        lblk = r.copy()
        TSTRF_VARIANTS["C_V2"](dfac, lblk, ws)
        ublk = b.copy()
        GESSM_VARIANTS["C_V2"](dfac, ublk, ws)
        expect = c.to_dense() - lblk.to_dense() @ ublk.to_dense()
        blk = c.copy()
        SSSSM_VARIANTS[version](blk, lblk, ublk, ws)
        np.testing.assert_allclose(blk.to_dense(), expect, atol=1e-10)

    @pytest.mark.parametrize("version", list(SSSSM_VARIANTS))
    def test_empty_operands_noop(self, version, ws):
        c = CSCMatrix.from_dense(np.ones((3, 3)))
        a_empty = CSCMatrix.empty((3, 3))
        b_empty = CSCMatrix.empty((3, 3))
        before = c.to_dense().copy()
        SSSSM_VARIANTS[version](c, a_empty, b_empty, ws)
        np.testing.assert_array_equal(c.to_dense(), before)


def _factored(seed: int, split: int = 35, dtype=np.float64):
    """``(D, B, R, C)`` of :func:`_blocks` with ``D`` factored and ``B`` /
    ``R`` solved by the merge variants — fill-closed operands in ``dtype``."""
    ws = Workspace()
    d, b, r, c = (m.astype(dtype) for m in _blocks(seed, split=split))
    GETRF_VARIANTS["G_V1"](d, ws)
    GESSM_VARIANTS["C_V1"](d, b, ws)
    TSTRF_VARIANTS["C_V1"](d, r, ws)
    return d, b, r, c


def _without(block: CSCMatrix, *, rows=(), cols=(), entries=()) -> CSCMatrix:
    """``block`` with whole rows / columns, or single ``(row, column)``
    entries, emptied (values and pattern)."""
    dense = block.to_dense()
    keep = _mask(block)
    keep[list(rows), :] = False
    keep[:, list(cols)] = False
    for entry in entries:
        keep[entry] = False
    out = CSCMatrix.from_dense(np.where(keep, 1.0, 0.0)).astype(block.dtype)
    r, c = out.rows_cols()
    out.data[...] = dense[r, c]
    return out


def _replaced_pivot_block() -> CSCMatrix:
    """A factored diagonal block whose ``(0, 0)`` pivot GESP replaced
    (``cond(U) > 1e8``)."""
    d = _blocks(4)[0]
    d.data[d.indptr[0]] = 0.0
    assert GETRF_VARIANTS["C_V1"](d, Workspace(), pivot_floor=1e-12) == 1
    return d


def _graded_block() -> CSCMatrix:
    """A factored diagonal block with the columns of ``U`` graded over
    ``1e10`` (``cond(U) ≈ 1e10``)."""
    d = _factored(5)[0]
    rows, cols = d.rows_cols()
    upper = rows <= cols
    d.data[upper] *= np.logspace(0, -10, d.ncols)[cols[upper]]
    return d


class TestDenseMapped:
    """The "Direct" variants are one GEMM on dense images; the sparse
    variants of the same family are their oracle."""

    #: random / rectangular-edge / float32 operand sets
    CASES = {
        "random": dict(seed=0),
        "rectangular": dict(seed=1, split=45),
        "float32": dict(seed=2, dtype=np.float32),
    }

    @staticmethod
    def _assert_close(got: CSCMatrix, ref: CSCMatrix) -> None:
        tol = 1e-12 if ref.dtype == np.float64 else 1e-4
        assert got.dtype == ref.dtype
        assert np.abs(got.data - ref.data).max() <= tol * np.abs(ref.data).max()

    @pytest.mark.parametrize("case", CASES)
    def test_gessm_agrees_with_merge_variant(self, case, ws):
        d, _, _, _ = _factored(**self.CASES[case])
        # an unsolved B, two of its columns emptied (a column of L⁻¹·B
        # depends on that column of B alone, so closure holds)
        b = _without(
            _blocks(self.CASES[case]["seed"], split=d.ncols)[1].astype(d.dtype),
            cols=(0, 3),
        )
        ref, got = b.copy(), b.copy()
        GESSM_VARIANTS["C_V1"](d, ref, ws)
        GESSM_VARIANTS["C_V2"](d, got, ws)
        self._assert_close(got, ref)

    @pytest.mark.parametrize("case", CASES)
    def test_tstrf_agrees_with_merge_variant(self, case, ws):
        d, _, _, _ = _factored(**self.CASES[case])
        r = _without(
            _blocks(self.CASES[case]["seed"], split=d.ncols)[2].astype(d.dtype),
            rows=(1, 2),
        )
        ref, got = r.copy(), r.copy()
        TSTRF_VARIANTS["C_V1"](d, ref, ws)
        TSTRF_VARIANTS["C_V2"](d, got, ws)
        self._assert_close(got, ref)

    @pytest.mark.parametrize("case", CASES)
    def test_ssssm_agrees_with_binsearch_variant(self, case, ws):
        _, b, r, c = _factored(**self.CASES[case])
        r = _without(r, cols=(4,))     # an empty column of A
        ref, got = c.copy(), c.copy()
        SSSSM_VARIANTS["C_V2"](ref, r, b, ws)
        SSSSM_VARIANTS["C_V1"](got, r, b, ws)
        self._assert_close(got, ref)

    def test_images_from_the_caller_give_the_same_bits(self, ws):
        """What the panel cache hands in is what the kernel would build."""
        d, b, r, c = _factored(3)
        for lower, fn, blk in (
            (True, GESSM_VARIANTS["C_V2"], b), (False, TSTRF_VARIANTS["C_V2"], r)
        ):
            alone, handed, kept = blk.copy(), blk.copy(), blk.copy()
            fn(d, alone, ws)
            fn(d, handed, ws, inv=triangle_inverse(d, lower=lower))
            # the panel cache's: a triangle of the block's packed inverse
            fn(d, kept, ws, inv=inverse_triangle(_packed(d), lower=lower))
            assert np.array_equal(alone.data, handed.data)
            assert np.array_equal(alone.data, kept.data)
        alone, handed = c.copy(), c.copy()
        SSSSM_VARIANTS["C_V1"](alone, r, b, ws)
        SSSSM_VARIANTS["C_V1"](
            handed, r, b, ws, a_dense=box_image(r, 0), b_dense=box_image(b, 1)
        )
        assert np.array_equal(alone.data, handed.data)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_serial_matmul_slabs_equal_one_gemm(self, dtype):
        """Above the single-thread GEMM size the product is computed in
        column slabs; same values, same dtype, strided operands included."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((120, 130)).astype(dtype)
        big = rng.standard_normal((140, 150)).astype(dtype)
        b = big[:130, :110]                        # a view, as ws.dense hands out
        assert a.shape[0] * b.shape[1] * a.shape[1] > 3 * SERIAL_GEMM_WORK
        got = serial_matmul(a, b)
        assert got.dtype == dtype and got.shape == (120, 110)
        np.testing.assert_allclose(
            got, a @ b, rtol=0, atol=200 * np.finfo(dtype).eps * np.abs(a @ b).max()
        )
        small = serial_matmul(a[:8, :8], b[:8, :8])
        assert np.array_equal(small, a[:8, :8] @ b[:8, :8])

    @pytest.mark.parametrize("missing", [False, True])
    def test_zero_or_missing_u_diagonal_names_the_column(self, missing, ws):
        dense = np.array([[2.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 3.0]])
        pattern = np.ones((3, 3))
        pattern[1, 1] = 0.0 if missing else 1.0    # no slot / a stored zero
        diag = CSCMatrix.from_dense(pattern)
        diag.data[...] = dense[diag.rows_cols()]
        blk = CSCMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(SingularBlockError, match="U diagonal at 1"):
            TSTRF_VARIANTS["C_V2"](diag, blk, ws)
        with pytest.raises(SingularBlockError, match="U diagonal at 1"):
            triangle_inverse(diag, lower=False)

    def _assert_within_cond_bound(self, d: CSCMatrix, r: CSCMatrix, ws) -> float:
        """``B·U⁻¹`` against substitution: the inverse form's forward error
        grows with ``cond(U)``, so that is what bounds the difference.
        Returns ``cond(U)``."""
        ref, got = r.copy(), r.copy()
        TSTRF_VARIANTS["C_V1"](d, ref, ws)
        TSTRF_VARIANTS["C_V2"](d, got, ws)
        cond = np.linalg.cond(np.triu(d.to_dense()))
        bound = 8 * d.ncols * np.finfo(float).eps * cond * np.abs(ref.data).max()
        assert np.abs(got.data - ref.data).max() <= bound
        return cond

    def test_replaced_pivot_block_agrees_within_cond_bound(self, ws):
        d = _replaced_pivot_block()
        assert self._assert_within_cond_bound(d, _blocks(4)[2], ws) > 1e8

    def test_ill_conditioned_block_agrees_within_cond_bound(self, ws):
        cond = self._assert_within_cond_bound(_graded_block(), _blocks(5)[2], ws)
        assert 1e9 < cond < 1e11


def _packed(d: CSCMatrix) -> np.ndarray:
    """The packed float64 inverse a block matrix keeps for ``d``
    (:meth:`~repro.core.blocking.BlockMatrix.diag_inverse`)."""
    return invert_factors(d.to_dense().astype(np.float64))


class TestDiagSeg:
    """The solve phase's diagonal kernel: ``L⁻¹``, ``U⁻¹``, ``U⁻ᵀ``, ``L⁻ᵀ``
    are one triangle each of the block's packed float64 inverse, against
    ``numpy.linalg.solve`` on the dense triangle within the envelope
    :class:`TestDenseMapped` holds the inverse form to."""

    ROLES = [(True, False), (False, False), (False, True), (True, True)]

    @staticmethod
    def _check(d: CSCMatrix, lower: bool, transposed: bool, nrhs: int) -> float:
        """Solve in place into a *view* of a larger array (what ``y[seg]``
        is) and compare; returns the triangle's condition number."""
        n = d.ncols
        packed = d.to_dense().astype(np.float64)
        tri = np.tril(packed, -1) + np.eye(n) if lower else np.triu(packed)
        tri = tri.T if transposed else tri
        rng = np.random.default_rng(n + nrhs)
        host = rng.standard_normal(n + 9 if nrhs == 1 else (n + 9, nrhs))
        before, values = host.copy(), d.data.copy()
        diag_seg(_packed(d), host[4:4 + n], Workspace(), lower=lower,
                 transposed=transposed)
        ref = np.linalg.solve(tri, before[4:4 + n])
        cond = np.linalg.cond(tri)
        bound = 8 * n * np.finfo(float).eps * cond * np.abs(ref).max()
        assert np.abs(host[4:4 + n] - ref).max() <= bound
        assert np.array_equal(host[:4], before[:4])
        assert np.array_equal(host[4 + n:], before[4 + n:])
        assert d.data.dtype == values.dtype and np.array_equal(d.data, values)
        return cond

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("nrhs", [1, 3])
    @pytest.mark.parametrize("lower,transposed", ROLES)
    def test_four_roles_against_dense_solve(self, lower, transposed, nrhs, dtype):
        d, _, _, _ = _factored(6, dtype=dtype)
        self._check(d, lower, transposed, nrhs)

    @pytest.mark.parametrize("lower,transposed", ROLES)
    def test_replaced_pivot_block_within_cond_bound(self, lower, transposed):
        cond = self._check(_replaced_pivot_block(), lower, transposed, 3)
        assert lower or cond > 1e8

    @pytest.mark.parametrize("lower,transposed", ROLES)
    def test_ill_conditioned_block_within_cond_bound(self, lower, transposed):
        cond = self._check(_graded_block(), lower, transposed, 1)
        assert lower or 1e9 < cond < 1e11

    @pytest.mark.parametrize("transposed", [False, True])
    def test_zero_u_diagonal_raises_and_leaves_the_segment(self, transposed):
        d, _, _, _ = _factored(6)
        d.data[d.indptr[2] + int(np.searchsorted(d.indices[d.col_slice(2)], 2))] = 0.0
        seg = np.ones(d.ncols)
        with pytest.raises(SingularBlockError, match="U diagonal at 2"):
            diag_seg(_packed(d), seg, Workspace(), lower=False,
                     transposed=transposed)
        assert np.array_equal(seg, np.ones(d.ncols))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_packed_inverse_holds_both_triangle_inverses(self, dtype):
        """``L⁻¹`` strictly below the diagonal, ``U⁻¹`` on and above it, in
        float64 whatever the factor dtype: each triangle bit for bit what
        its own ``trtri`` gives on the float64 values, and so is the
        workspace's copy of it."""
        d, _, _, _ = _factored(6, dtype=dtype)
        wide = CSCMatrix(d.shape, d.indptr, d.indices, d.data.astype(np.float64))
        packed, ws = _packed(d), Workspace()
        assert packed.dtype == np.float64
        for lower in (True, False):
            alone = triangle_inverse(wide, lower=lower)
            assert np.array_equal(inverse_triangle(packed, lower=lower), alone)
            assert np.array_equal(ws.triangle(packed, lower=lower), alone)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("unit", [True, False])
    def test_inverse_triangle_equals_the_tril_triu_construction(self, dtype, lower, unit):
        """The masked copy into an identity gives the bits of ``np.tril``
        / ``np.triu`` with ``fill_diagonal`` on a unit diagonal — fresh,
        and in a kept buffer refilled with other values in between."""
        rng = np.random.default_rng(5)
        inv, other = (rng.standard_normal((7, 7)).astype(dtype) for _ in range(2))
        old = np.tril(inv, -1 if unit else 0) if lower else np.triu(inv)
        if unit:
            np.fill_diagonal(old, 1.0)
        fresh = inverse_triangle(inv, lower=lower, unit=unit)
        assert fresh.dtype == dtype and fresh.flags.c_contiguous
        assert fresh.tobytes() == old.tobytes()
        out = np.eye(7, dtype=dtype)
        inverse_triangle(other, lower=lower, unit=unit, out=out)
        assert inverse_triangle(inv, lower=lower, unit=unit, out=out) is out
        assert out.tobytes() == old.tobytes()
        if dtype == np.float64 and unit == lower:
            ws = Workspace()
            ws.triangle(other, lower=lower)
            assert ws.triangle(inv, lower=lower).tobytes() == old.tobytes()


class TestSplitLU:
    def test_split_reassembles(self, ws):
        d, _, _, _ = _blocks(4)
        dfac = d.copy()
        GETRF_VARIANTS["C_V1"](dfac, ws)
        l, u = split_lu(dfac)
        packed = dfac.to_dense()
        np.testing.assert_allclose(
            l.to_dense(), np.tril(packed, -1) + np.eye(d.ncols)
        )
        np.testing.assert_allclose(u.to_dense(), np.triu(packed))


def _panel_case(kind: str, dtype=np.float64, n: int = 60, split: int = 38):
    """``(D, B, R)`` cut from the symbolic fill of a random, banded or
    fully dense matrix — ``D`` factored, ``B`` / ``R`` unsolved, ragged
    (``n - split`` wide against a diagonal block of order ``split``) and
    with one empty column of ``B`` / ``Bᵀ``."""
    rng = np.random.default_rng(11)
    if kind == "random":
        a = random_sparse(n, 0.08, seed=3)
    else:
        dense = rng.standard_normal((n, n))
        if kind == "banded":
            i, j = np.indices((n, n))
            dense[np.abs(i - j) > 4] = 0.0
        dense[np.arange(n), np.arange(n)] = n
        a = CSCMatrix.from_dense(dense)
    f = symbolic_symmetric(a).filled
    top, bot = np.arange(split), np.arange(split, n)
    d = f.extract_submatrix(top, range(split)).astype(dtype)
    b = f.extract_submatrix(top, range(split, n)).astype(dtype)
    r = f.extract_submatrix(bot, range(split)).astype(dtype)
    GETRF_VARIANTS["C_V1"](d, Workspace())
    return d, _without(b, cols=(1,)), _without(r, rows=(1,))


PANEL_FAMILIES = (KernelType.GESSM, KernelType.TSTRF)


class TestPanelSolvesWrittenOnce:
    """TSTRF is GESSM on ``(Uᵀ, Bᵀ)``: the shared sweeps reproduce the
    per-family loops they replaced (``tests/reference_numeric.py``)."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", ["random", "banded", "dense"])
    @pytest.mark.parametrize("ktype", PANEL_FAMILIES)
    @pytest.mark.parametrize("version", ["C_V1", "G_V1", "G_V2"])
    def test_bit_identical_to_the_hand_written_loop(
        self, version, ktype, kind, dtype, ws
    ):
        d, b, r = _panel_case(kind, dtype)
        blk = b if ktype is KernelType.GESSM else r
        swept = blk if ktype is KernelType.GESSM else blk.transpose()
        assert blk.nnz and np.diff(swept.indptr).min() == 0  # an empty column
        ref, before = blk.copy(), d.data.copy()
        PANEL_ORACLE[ktype, version](d, ref, ws)
        runs = [{}]
        if version in PLANNABLE_VERSIONS[ktype]:
            plan = build_solve_plan(d, blk, lower=ktype is KernelType.GESSM)
            runs.append({"plan": plan})
        for handed in runs:
            got = blk.copy()
            get_kernel(ktype, version)(d, got, ws, **handed)
            assert got.dtype == dtype
            assert np.array_equal(got.data, ref.data), handed.keys()
        assert np.array_equal(d.data, before)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", ["random", "banded", "dense"])
    @pytest.mark.parametrize("ktype", PANEL_FAMILIES)
    @pytest.mark.parametrize("version", ["C_V2", "G_V3"])
    def test_direct_variants_within_their_parents_tolerance(
        self, version, ktype, kind, dtype, ws
    ):
        d, b, r = _panel_case(kind, dtype)
        blk = b if ktype is KernelType.GESSM else r
        ref, got = blk.copy(), blk.copy()
        PANEL_ORACLE[ktype, "C_V1"](d, ref, ws)
        get_kernel(ktype, version)(d, got, ws)
        TestDenseMapped._assert_close(got, ref)


def _u_diagonal_broken(how: str) -> tuple[CSCMatrix, CSCMatrix]:
    """The dense case of :func:`_panel_case` with ``U(2, 2)`` exactly
    zero or structurally missing, and its ``R`` panel."""
    d, _, r = _panel_case("dense")
    if how == "zero":
        d.data[d.indptr[2] + 2] = 0.0
        return d, r
    return _without(d, entries=[(2, 2)]), r


class TestBrokenUDiagonal:
    """A missing or zero ``U`` diagonal is a named error wherever a
    non-unit triangle divides: the sweep, the level-set loop, plan build
    (missing) and plan run (zero)."""

    @pytest.mark.parametrize("how", ["zero", "missing"])
    @pytest.mark.parametrize("version", ["C_V1", "G_V1", "G_V2"])
    def test_sweeps_and_level_loop_name_the_column(self, version, how, ws):
        d, r = _u_diagonal_broken(how)
        before = r.data.copy()
        with pytest.raises(SingularBlockError, match="zero/missing U diagonal at 2"):
            TSTRF_VARIANTS[version](d, r, ws)
        assert np.array_equal(r.data, before)

    def test_plan_build_refuses_a_missing_diagonal(self):
        d, r = _u_diagonal_broken("missing")
        with pytest.raises(SingularBlockError, match="zero/missing U diagonal at 2"):
            build_solve_plan(d, r, lower=False)
        # the unit triangle never looks at it
        build_solve_plan(d, r.transpose(), lower=True)

    @pytest.mark.parametrize("version", ["C_V1", "G_V1"])
    def test_plan_run_refuses_a_zero_diagonal(self, version, ws):
        d, r = _u_diagonal_broken("zero")
        plan = build_solve_plan(d, r, lower=False)
        with pytest.raises(SingularBlockError, match=r"zero/missing U diagonal \(step 2\)"):
            TSTRF_VARIANTS[version](d, r, ws, plan=plan)


class TestTriangle:
    """The one accessor against ``split_lu``: same entries, same order,
    and the block's own values behind them."""

    @staticmethod
    def _strict(m: CSCMatrix):
        off = m.indices != m.cols_expanded()
        return np.diff(np.concatenate([[0], np.cumsum(off)[m.indptr[1:] - 1]])), off

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("kind", ["random", "banded", "dense"])
    def test_matches_split_lu(self, kind, dtype):
        d = _panel_case(kind, dtype)[0]
        l, u = split_lu(d)
        # the matrix whose CSC columns the accessor must list, per
        # (lower, by_rows): L, Lᵀ, Uᵀ, U
        expect = {
            (True, False): l, (True, True): l.transpose(),
            (False, False): u.transpose(), (False, True): u,
        }
        for (lower, by_rows), m in expect.items():
            tri = triangle(d, lower=lower, by_rows=by_rows)
            counts, off = self._strict(m)
            assert tri.data is d.data
            assert np.array_equal(np.diff(tri.indptr), counts)
            assert np.array_equal(tri.indices, m.indices[off])
            assert np.array_equal(d.data[tri.src], m.data[off])
            if lower:
                assert tri.div is None
            else:
                assert np.array_equal(d.data[tri.div], m.data[~off])

    def test_missing_diagonal_is_minus_one(self):
        d, _ = _u_diagonal_broken("missing")
        div = triangle(d, lower=False).div
        assert div[2] == -1 and (np.delete(div, 2) >= 0).all()


def _mask(m: CSCMatrix) -> np.ndarray:
    """Structural pattern mask (fill slots count even when their value is 0)."""
    out = np.zeros(m.shape, dtype=bool)
    r, c = m.rows_cols()
    out[r, c] = True
    return out


class TestFlopCounters:
    def test_getrf_flops_brute_force(self):
        d, _, _, _ = _blocks(6, n=30, split=15)
        dense = _mask(d)
        n = dense.shape[0]
        expect = 0
        for t in range(n):
            low = int(dense[t + 1 :, t].sum())
            up = int(dense[t, t + 1 :].sum())
            expect += low + 2 * low * up
        assert getrf_flops(d) == expect

    def test_gessm_flops_brute_force(self):
        d, b, _, _ = _blocks(6, n=30, split=15)
        dd = _mask(d)
        db = _mask(b)
        expect = 0
        for t in range(dd.shape[0]):
            low = int(dd[t + 1 :, t].sum())
            expect += 2 * low * int(db[t, :].sum())
        assert gessm_flops(d, b) == expect

    def test_tstrf_flops_brute_force(self):
        d, _, r, _ = _blocks(6, n=30, split=15)
        dd = _mask(d)
        dr = _mask(r)
        expect = int(dr.sum())
        for c in range(dd.shape[1]):
            up = int(dd[:c, c].sum())
            expect += 2 * up * int(dr[:, c].sum())
        assert tstrf_flops(d, r) == expect

    def test_ssssm_flops_brute_force(self):
        d, b, r, _ = _blocks(6, n=30, split=15)
        da = _mask(r)
        db = _mask(b)
        expect = 0
        for t in range(da.shape[1]):
            expect += 2 * int(da[:, t].sum()) * int(db[t, :].sum())
        assert ssssm_flops_structural(r, b) == expect


class TestWorkspace:
    def test_dense_grows_and_zeroes(self):
        ws = Workspace()
        a = ws.dense("a", (3, 4))
        a[...] = 7
        b = ws.dense("a", (2, 2))
        assert b.shape == (2, 2)
        np.testing.assert_array_equal(b, 0)

    def test_buffers_independent(self):
        ws = Workspace()
        a = ws.dense("a", (2, 2))
        c = ws.dense("c", (2, 2))
        a[...] = 1
        np.testing.assert_array_equal(c, 0)

    def test_vector(self):
        ws = Workspace()
        v = ws.vector(5)
        v[...] = 3
        v2 = ws.vector(3)
        np.testing.assert_array_equal(v2, 0)

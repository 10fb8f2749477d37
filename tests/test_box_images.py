"""Occupied-box images (`repro.kernels.base.box_image`).

The dense-mapped variants multiply a block's occupied rows or columns
only, addressed through a ``pos`` map whose unoccupied entries read a
sentinel zero row or column.  Asserted here: the box path agrees with
the whole-block path (``BOX_OCCUPANCY = 0`` forces it) to a few ulp,
never writes outside the box's product, takes the whole block from
half occupancy on, keeps the panel cache smaller, and serves the
Cholesky SYRK and the multi-RHS solve product.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels.base as base
from repro import PanguLU
from repro.cholesky import CholeskyOptions, PanguLLt
from repro.kernels import GESSM_VARIANTS, SSSSM_VARIANTS, TSTRF_VARIANTS, Workspace
from repro.kernels.base import BOX_OCCUPANCY, box_image
from repro.kernels.ssssm import ssssm_c_v1
from repro.kernels.tsolve_kernels import prod_stack
from repro.sparse import CSCMatrix, generate, grid_laplacian_2d

ULP4 = 4 * np.finfo(np.float64).eps


def _block(rng, shape, *, rows=None, cols=None, density=0.5, dtype=np.float64):
    """A random block whose entries lie in ``rows`` × ``cols`` only."""
    d = rng.standard_normal(shape) * (rng.random(shape) < density)
    if rows is not None:
        d[np.setdiff1d(np.arange(shape[0]), rows), :] = 0.0
    if cols is not None:
        d[:, np.setdiff1d(np.arange(shape[1]), cols)] = 0.0
    return CSCMatrix.from_dense(d.astype(dtype))


def _diag(rng, n):
    """A factored diagonal block: unit-lower ``L`` and ``U`` well apart."""
    d = rng.standard_normal((n, n)) * 0.1 + np.eye(n) * n
    return CSCMatrix.from_dense(d)


def _close(got, ref):
    scale = max(np.abs(ref).max(), 1.0)
    assert np.abs(got - ref).max() <= ULP4 * scale


class TestBoxImage:
    def test_rows_and_columns_map_into_the_image(self):
        rng = np.random.default_rng(0)
        blk = _block(rng, (20, 12), rows=[3, 7, 11], cols=[0, 5], density=1.0)
        for axis, occupied in ((0, [3, 7, 11]), (1, [0, 5])):
            pos, dense = box_image(blk, axis)
            k = len(occupied)
            assert dense.shape[axis] == k + 1
            assert np.array_equal(pos[occupied], np.arange(k))
            assert np.all(np.delete(pos, occupied) == k)
            assert not dense.take(k, axis=axis).any()      # the sentinel
            image = dense.take(pos, axis=axis)
            assert np.array_equal(image, blk.to_dense())

    @pytest.mark.parametrize("axis", [0, 1])
    def test_half_occupied_takes_the_whole_block(self, axis):
        assert BOX_OCCUPANCY == 0.5
        rng = np.random.default_rng(1)
        half = {"rows" if axis == 0 else "cols": [0, 2, 4, 6]}
        less = {"rows" if axis == 0 else "cols": [0, 2, 4]}
        pos, dense = box_image(_block(rng, (8, 8), density=1.0, **half), axis)
        assert pos is None and dense.shape == (8, 8)
        pos, dense = box_image(_block(rng, (8, 8), density=1.0, **less), axis)
        assert pos is not None and dense.shape[axis] == 4

    def test_empty_block_is_one_sentinel(self):
        blk = CSCMatrix.from_dense(np.zeros((6, 5)))
        pos, dense = box_image(blk, 0)
        assert dense.shape == (1, 5) and not dense.any() and not pos.any()


class TestKernelsOnTheBox:
    SEEDS = range(6)

    def _ssssm_operands(self, seed, *, a_rows=None, b_cols=None):
        rng = np.random.default_rng(seed)
        m, k, n = 48, 40, 44
        a_rows = rng.choice(m, 9, replace=False) if a_rows is None else a_rows
        b_cols = rng.choice(n, 7, replace=False) if b_cols is None else b_cols
        a = _block(rng, (m, k), rows=a_rows)
        b = _block(rng, (k, n), cols=b_cols)
        c = _block(rng, (m, n), density=0.6)
        return c, a, b, a_rows, b_cols

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ssssm_agrees_with_the_whole_block(self, seed, monkeypatch):
        c, a, b, _, _ = self._ssssm_operands(seed)
        box, full = c.copy(), c.copy()
        ssssm_c_v1(box, a, b, Workspace())
        monkeypatch.setattr(base, "BOX_OCCUPANCY", 0.0)
        ssssm_c_v1(full, a, b, Workspace())
        _close(box.data, full.data)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_panel_solves_agree_with_the_whole_block(self, seed, monkeypatch):
        rng = np.random.default_rng(100 + seed)
        n = 40
        diag = _diag(rng, n)
        g = _block(rng, (n, 50), cols=rng.choice(50, 8, replace=False))
        t = _block(rng, (50, n), rows=rng.choice(50, 8, replace=False))
        got = {"GESSM": g.copy(), "TSTRF": t.copy()}
        GESSM_VARIANTS["C_V2"](diag, got["GESSM"], Workspace())
        TSTRF_VARIANTS["C_V2"](diag, got["TSTRF"], Workspace())
        monkeypatch.setattr(base, "BOX_OCCUPANCY", 0.0)
        ref = {"GESSM": g.copy(), "TSTRF": t.copy()}
        GESSM_VARIANTS["C_V2"](diag, ref["GESSM"], Workspace())
        TSTRF_VARIANTS["C_V2"](diag, ref["TSTRF"], Workspace())
        for family in got:
            _close(got[family].data, ref[family].data)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_entries_outside_the_box_are_untouched(self, seed):
        c, a, b, a_rows, b_cols = self._ssssm_operands(seed)
        out = c.copy()
        ssssm_c_v1(out, a, b, Workspace())
        rows, cols = c.rows_cols()
        outside = ~(np.isin(rows, a_rows) & np.isin(cols, b_cols))
        assert outside.any() and (~outside).any()
        assert np.array_equal(out.data[outside], c.data[outside])
        expect = c.data - (a.to_dense() @ b.to_dense())[rows, cols]
        _close(out.data, expect)

    @pytest.mark.parametrize("empty", ["a", "b"])
    def test_an_empty_operand_is_a_no_op(self, empty):
        c, a, b, _, _ = self._ssssm_operands(3)
        if empty == "a":
            a = CSCMatrix.from_dense(np.zeros(a.shape))
        else:
            b = CSCMatrix.from_dense(np.zeros(b.shape))
        out = c.copy()
        SSSSM_VARIANTS["C_V1"](out, a, b, Workspace())
        assert np.array_equal(out.data, c.data)


def test_panel_cache_shrinks_and_factors_stay_put(monkeypatch):
    """The benchmark's 2-D grid: the box images peak lower than the
    whole-block images did, and the factors move by rounding only."""
    a = generate("ecology1", scale=4.0, seed=0)
    box = PanguLU(a).factorize()
    monkeypatch.setattr(base, "BOX_OCCUPANCY", 0.0)
    full = PanguLU(a).factorize()
    assert 0 < box.stats.panel_cache_peak_bytes < full.stats.panel_cache_peak_bytes
    got, ref = box.blocks.to_csc().data, full.blocks.to_csc().data
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestCholeskyOnTheBox:
    def test_syrk_takes_the_transposed_row_image(self):
        rng = np.random.default_rng(5)
        l_ik = _block(rng, (30, 20), rows=[1, 8, 13, 22])
        l_jk = _block(rng, (30, 20), rows=[0, 8, 29])
        target = CSCMatrix.from_dense(np.tril(rng.standard_normal((30, 30))))
        pos, image = box_image(l_jk, 0)
        assert pos is not None
        out = target.copy()
        ssssm_c_v1(out, l_ik, l_jk, Workspace(),
                   a_dense=box_image(l_ik, 0), b_dense=(pos, image.T))
        rows, cols = target.rows_cols()
        expect = target.data - (l_ik.to_dense() @ l_jk.to_dense().T)[rows, cols]
        _close(out.data, expect)

    def test_grid_factor_matches_whole_block_images(self, monkeypatch):
        a = grid_laplacian_2d(24, 24)
        box = PanguLLt(a, CholeskyOptions(block_size=32))
        box.factorize()
        f = box.blocks
        assert any(
            box_image(blk, 0)[0] is not None
            for k in range(f.nb) for i, blk in zip(*f.blocks_in_column(k)) if i > k
        )
        monkeypatch.setattr(base, "BOX_OCCUPANCY", 0.0)
        full = PanguLLt(a, CholeskyOptions(block_size=32))
        full.factorize()
        got, ref = f.to_csc().data, full.blocks.to_csc().data
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        b = np.ones(a.nrows)
        assert box.residual_norm(box.solve(b), b) < 1e-12


class TestMultiRhsUpdate:
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("occupied", [5, None])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_panel_matches_the_vector_path_column_by_column(
        self, transposed, occupied, dtype
    ):
        rng = np.random.default_rng(11)
        m, n = 40, 36
        lines = None if occupied is None else rng.choice(
            n if transposed else m, occupied, replace=False
        )
        blk = _block(rng, (m, n), dtype=dtype, density=0.3,
                     **{("cols" if transposed else "rows"): lines})
        src = rng.standard_normal((m if transposed else n, 16))
        out = n if transposed else m
        start = np.zeros(1, dtype=np.int64)
        (panel,) = prod_stack([blk], start, src, out, transposed=transposed)
        for j in range(16):
            (col,) = prod_stack([blk], start, src[:, j].copy(), out,
                                transposed=transposed)
            _close(panel[:, j], col)
        if lines is not None:
            untouched = np.setdiff1d(np.arange(panel.shape[0]), lines)
            assert not panel[untouched].any()

    @pytest.mark.parametrize("transposed", [False, True])
    def test_a_stack_is_its_blocks_products_bit_for_bit(self, transposed):
        """Several blocks at their own offsets into the source, in one
        ``bincount``: each row of the stack is that block's product alone."""
        rng = np.random.default_rng(12)
        blocks = [_block(rng, (8, 8), density=0.4) for _ in range(3)]
        starts = np.array([16, 0, 8])
        v = rng.standard_normal(24)
        stack = prod_stack(blocks, starts, v, 8, transposed=transposed)
        for row, blk, start in zip(stack, blocks, starts.tolist()):
            (alone,) = prod_stack([blk], np.zeros(1, np.int64), v[start:start + 8], 8,
                                  transposed=transposed)
            assert np.array_equal(row, alone)

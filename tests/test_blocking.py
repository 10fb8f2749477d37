"""Tests for regular 2D blocking and the two-layer structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PanguLU, SolverOptions
from repro.core import (
    block_partition,
    block_size_decision,
    boundaries_from_block_size,
    choose_block_size,
)
from repro.core.blocking import KERNEL_ORDER, MIN_BLOCK_COLUMNS
from repro.core.verify import verify_dag
from repro.kernels.base import GETRF_SERIAL_ORDER
from repro.sparse import CSCMatrix, generate, grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric


class TestChooseBlockSize:
    def test_positive(self):
        assert choose_block_size(1000, 50_000) > 0

    def test_rejects_nonpositive_order(self):
        with pytest.raises(ValueError):
            choose_block_size(0, 10)

    def test_sparser_matrices_get_coarser_grids(self):
        dense_bs = choose_block_size(4000, 2_000_000)
        sparse_bs = choose_block_size(4000, 10_000)
        assert sparse_bs >= dense_bs

    def test_enough_parallelism(self):
        # a mid-size matrix must yield a grid with many block columns
        bs = choose_block_size(2000, 400_000)
        assert 2000 // bs >= 16


class TestBlockSizeDecision:
    def test_matches_choose_block_size(self):
        for n, nnz in ((1000, 50_000), (49, 1000), (10_000, 10)):
            d = block_size_decision(n, nnz)
            assert d.bs == choose_block_size(n, nnz)

    def test_unclamped_decision(self):
        # n=1024 with 40 filled entries per column, under KERNEL_ORDER:
        # the sparse regime keeps the sqrt grid, nb=32, bs_raw=32 inside
        # [8, 128], and no dense floor
        d = block_size_decision(1024, 40 * 1024)
        assert not d.size_clamped
        assert d.bs_floor == 0
        assert d.bs == d.bs_raw == 32
        assert d.nb == d.nb_grid == d.nb_sqrt == 32

    def test_min_clamp_edge(self):
        # n=49 dense: grid 7, bs_raw=7, one below the default min of 8
        d = block_size_decision(49, 1000)
        assert d.bs_raw == 7
        assert d.bs == 8
        assert d.size_clamped

    def test_at_min_is_not_clamped(self):
        # bs_raw exactly at min_bs: the clamp edge itself does not fire
        d = block_size_decision(64, 2000)
        assert d.bs_raw == 8
        assert d.bs == 8
        assert not d.size_clamped

    def test_max_clamp_edge(self):
        # huge, nearly-empty matrix: coarsening drives the grid to the
        # floor of 4 and bs_raw far past the default max, GETRF_SERIAL_ORDER
        d = block_size_decision(10_000, 10)
        assert d.nb == 4
        assert d.bs_raw == 2500
        assert d.max_bs == GETRF_SERIAL_ORDER == 128
        assert d.bs == 128
        assert d.size_clamped

    def test_max_clamp_respects_override(self):
        d = block_size_decision(10_000, 10, max_bs=4096)
        assert d.bs == d.bs_raw == 2500
        assert not d.size_clamped

    def test_grid_clamp(self):
        # sqrt(100_000) ≈ 316 exceeds the 128-column grid ceiling
        d = block_size_decision(100_000, 50_000_000)
        assert d.nb_sqrt > 128
        assert d.nb_grid == 128
        assert d.grid_clamped

    def test_coarsening_recorded(self):
        d = block_size_decision(4000, 10_000)
        assert d.nb < d.nb_grid
        assert d.avg_block_nnz == pytest.approx(10_000 / d.nb**2)

    def test_dense_regime_floor(self):
        # ≥ KERNEL_ORDER filled entries per column raise the sqrt grid's
        # order (ceil(4000 / 63) = 64) to KERNEL_ORDER
        d = block_size_decision(4000, KERNEL_ORDER * 4000)
        assert d.bs_raw > -(-4000 // d.nb)
        assert d.bs_floor == d.bs == KERNEL_ORDER
        # one entry per column fewer and the sqrt grid stands
        d = block_size_decision(4000, KERNEL_ORDER * 4000 - 1)
        assert d.bs_floor == 0
        assert d.bs == -(-4000 // d.nb) == 64

    def test_dense_floor_keeps_sixteen_block_columns(self):
        # n=640 fully dense: KERNEL_ORDER would leave under 7 block
        # columns; the floor stops at ceil(640 / 16) = 40
        d = block_size_decision(640, 640 * 640)
        assert d.bs_floor == d.bs == 40
        assert -(-640 // d.bs) >= MIN_BLOCK_COLUMNS

    @pytest.mark.parametrize(
        "n, nnz", [(10_000, 10), (100_000, 50_000_000), (40_000, 40_000),
                   (500_000, 10**9), (3000, 9_000_000)],
    )
    def test_no_default_order_above_getrf_serial_order(self, n, nnz):
        assert choose_block_size(n, nnz) <= GETRF_SERIAL_ORDER == 128


class TestBenchmarkMatrixOrders:
    """The default order of the benchmark's three matrices (the
    ``benchmarks/e2e`` workloads): the filled-dense two take kernel-sized
    blocks, the 2D grid keeps its sqrt grid."""

    @staticmethod
    def _preprocessed(name, scale):
        s = PanguLU(generate(name, scale=scale, seed=0), SolverOptions())
        s.preprocess()
        return s

    @pytest.mark.parametrize("name, scale", [("audikw_1", 1.0), ("cage12", 2.0)])
    def test_filled_dense_matrices_get_kernel_sized_blocks(self, name, scale):
        s = self._preprocessed(name, scale)
        assert 88 <= s.blocks.bs <= 112
        verify_dag(s.dag)

    def test_grid2d_keeps_its_sqrt_grid(self):
        assert self._preprocessed("ecology1", 4.0).blocks.bs == 104


class TestPartition:
    def _blocked(self, n=60, bs=16, seed=0):
        a = random_sparse(n, 0.08, seed=seed)
        f = symbolic_symmetric(a).filled
        return f, block_partition(f, bs)

    def test_roundtrip(self):
        f, bm = self._blocked()
        np.testing.assert_allclose(bm.to_csc().to_dense(), f.to_dense())

    def test_block_count_and_nnz_conserved(self):
        f, bm = self._blocked()
        assert sum(b.nnz for b in bm.blk_values) == f.nnz
        assert bm.num_blocks == len(bm.blk_values)

    def test_block_shapes(self):
        f, bm = self._blocked(n=50, bs=16)
        assert bm.nb == 4
        assert bm.block_order(0) == 16
        assert bm.block_order(3) == 2  # 50 - 3*16

    def test_block_lookup(self):
        f, bm = self._blocked()
        for bj in range(bm.nb):
            rows, blocks = bm.blocks_in_column(bj)
            for bi, blk in zip(rows, blocks):
                assert bm.block(int(bi), bj) is blk
        # an absent block returns None
        dense_mask = np.zeros((bm.nb, bm.nb), dtype=bool)
        for bj in range(bm.nb):
            rows, _ = bm.blocks_in_column(bj)
            dense_mask[rows, bj] = True
        absent = np.argwhere(~dense_mask)
        for bi, bj in absent[:3]:
            assert bm.block(int(bi), int(bj)) is None

    def test_local_patterns_sorted(self):
        _, bm = self._blocked()
        for blk in bm.blk_values:
            blk._validate()

    def test_blocks_in_row(self):
        f, bm = self._blocked()
        for bi in range(bm.nb):
            for bj, blk in bm.blocks_in_row(bi):
                assert bm.block(bi, bj) is blk

    def test_rejects_bad_inputs(self):
        a = random_sparse(10, 0.2, seed=1)
        with pytest.raises(ValueError, match="positive"):
            block_partition(a, 0)
        with pytest.raises(ValueError, match="square"):
            block_partition(CSCMatrix.empty((3, 4)), 2)

    def test_nnz_stats(self):
        _, bm = self._blocked()
        stats = bm.nnz_stats()
        assert stats["num_blocks"] == bm.num_blocks
        assert stats["nnz_total"] == sum(b.nnz for b in bm.blk_values)


class TestRestricted:
    """A distributed rank's share of the matrix is a ``BlockMatrix``."""

    def _blocked(self, *, arena=True):
        # banded fill: 10 of the 4 × 4 grid's blocks are stored
        f = symbolic_symmetric(grid_laplacian_2d(8, 8)).filled
        return block_partition(f, 16, arena=arena)

    @staticmethod
    def _coords(bm):
        return [
            (int(bi), bj)
            for bj in range(bm.nb) for bi in bm.blocks_in_column(bj)[0]
        ]

    @pytest.mark.parametrize("arena", [True, False])
    def test_unheld_stored_block_is_a_protocol_error(self, arena):
        bm = self._blocked(arena=arena)
        coords = self._coords(bm)
        assert len(coords) == bm.num_blocks > bm.nb   # some off-diagonal
        rank = bm.restricted(range(0, bm.num_blocks, 2))
        for slot, (bi, bj) in enumerate(coords):
            assert rank.block_slot(bi, bj) == slot    # real slots
            if slot % 2 == 0:
                assert rank.block(bi, bj) is bm.block(bi, bj)
            else:
                with pytest.raises(RuntimeError, match=rf"\({bi},{bj}\).*neither owns"):
                    rank.block(bi, bj)
        absent = next(
            (bi, bj) for bi in range(bm.nb) for bj in range(bm.nb)
            if bm.block_slot(bi, bj) < 0
        )
        assert rank.block(*absent) is None            # structurally absent
        # a received block becomes readable; the parent never notices
        bi, bj = coords[1]
        src = bm.block(bi, bj)
        got = rank.install(bi, bj, src.indptr, src.indices, src.data.copy())
        assert rank.block(bi, bj) is got and got.shape == src.shape
        assert np.shares_memory(got.indices, src.indices)
        assert bm.block(bi, bj) is src

    def test_shares_the_structure_and_no_cache(self):
        from repro.core.numeric import NumericOptions, resolve_plan_cache

        bm = self._blocked()
        plans = resolve_plan_cache(bm, NumericOptions())
        bi, bj = self._coords(bm)[0]
        bm.set_compressed(bi, bj, np.ones((16, 1)), np.ones((16, 1)))
        rank = bm.restricted([0, 1])
        assert rank.owned == {0, 1} and bm.owned is None
        for name in ("blk_colptr", "blk_rowidx", "boundaries", "arena"):
            assert getattr(rank, name) is getattr(bm, name)
        assert (rank.n, rank.bs, rank.nb, rank.num_blocks) == (
            bm.n, bm.bs, bm.nb, bm.num_blocks
        )
        assert rank.plan_cache is None and bm.plan_cache is plans
        assert rank.lr_overlay == {} and rank.lr_overlay is not bm.lr_overlay
        assert resolve_plan_cache(rank, NumericOptions()) is not plans
        rank.set_compressed(bi, bj, np.ones((16, 2)), np.ones((16, 2)))
        assert bm.compressed_block(bi, bj).rank == 1

    def test_compression_stats_count_owned_overlays(self):
        bm = self._blocked()
        coords = self._coords(bm)
        rank = bm.restricted([0])
        u, v = np.ones((16, 1)), np.ones((16, 1))
        mine = rank.set_compressed(*coords[0], u, v)
        rank.set_compressed(*coords[1], u, v)   # a received "lr" panel
        assert rank.compressed_block(*coords[1]) is not None
        bm.set_compressed(*coords[0], u, v)
        assert rank.compression_stats() == {
            "blocks_compressed": 1,
            "lr_value_bytes": mine.value_nbytes,
            "compressed_csc_bytes": bm.block(*coords[0]).value_nbytes,
        }
        assert rank.compression_stats() == bm.compression_stats()
        rank.clear_compressed()
        assert rank.compression_stats()["blocks_compressed"] == 0
        assert bm.compression_stats()["blocks_compressed"] == 1

    def test_pickled_share_stays_a_share(self):
        import pickle

        rank = self._blocked().restricted([0, 2])
        back = pickle.loads(pickle.dumps(rank))
        assert back.owned == {0, 2}
        assert [b is not None for b in back.blk_values[:4]] == [True, False, True, False]
        np.testing.assert_array_equal(back.blk_values[2].data, rank.blk_values[2].data)


class TestBoundaryPartition:
    """Partitioning from an explicit boundary array (the strategy seam)."""

    def _filled(self, n=50, seed=0, density=0.08):
        a = random_sparse(n, density, seed=seed)
        return symbolic_symmetric(a).filled

    def test_scalar_and_equispaced_boundaries_bit_identical(self):
        f = self._filled(n=50)
        bm_scalar = block_partition(f, 16)
        bm_bounds = block_partition(f, boundaries_from_block_size(50, 16))
        assert bm_scalar.bs == bm_bounds.bs == 16
        np.testing.assert_array_equal(bm_scalar.blk_colptr, bm_bounds.blk_colptr)
        np.testing.assert_array_equal(bm_scalar.blk_rowidx, bm_bounds.blk_rowidx)
        for a_blk, b_blk in zip(bm_scalar.blk_values, bm_bounds.blk_values):
            assert a_blk.shape == b_blk.shape
            np.testing.assert_array_equal(a_blk.indptr, b_blk.indptr)
            np.testing.assert_array_equal(a_blk.indices, b_blk.indices)
            np.testing.assert_array_equal(a_blk.data, b_blk.data)

    def test_indivisible_spacing(self):
        # n = 50 not divisible by the 16-wide spacing: ragged last block
        f = self._filled(n=50)
        bm = block_partition(f, np.array([0, 16, 32, 48, 50]))
        assert bm.nb == 4
        assert bm.block_order(3) == 2
        assert bm.block_start(3) == 48
        np.testing.assert_allclose(bm.to_csc().to_dense(), f.to_dense())

    def test_irregular_boundaries_roundtrip(self):
        f = self._filled(n=60)
        bm = block_partition(f, np.array([0, 7, 9, 30, 31, 55, 60]))
        assert bm.nb == 6
        assert [bm.block_order(b) for b in range(6)] == [7, 2, 21, 1, 24, 5]
        assert bm.bs == 24  # nominal size = widest extent
        assert not bm.is_regular
        assert sum(b.nnz for b in bm.blk_values) == f.nnz
        np.testing.assert_allclose(bm.to_csc().to_dense(), f.to_dense())

    def test_single_column_blocks(self):
        # every block one column wide: the scalar-LU degenerate layout
        n = 12
        f = self._filled(n=n, density=0.2)
        bm = block_partition(f, np.arange(n + 1))
        assert bm.nb == n
        assert bm.max_block_order == 1
        assert all(blk.shape == (1, 1) for blk in bm.blk_values)
        np.testing.assert_allclose(bm.to_csc().to_dense(), f.to_dense())

    def test_empty_trailing_block(self):
        # trailing block column whose only entry is its diagonal — every
        # off-diagonal block in the last block row/column is absent from
        # layer 1 (empty blocks are never stored)
        n = 10
        eye_tail = np.zeros((n, n))
        eye_tail[: n - 2, : n - 2] = random_sparse(
            n - 2, 0.4, seed=1
        ).to_dense()
        np.fill_diagonal(eye_tail, np.arange(1.0, n + 1))
        f = CSCMatrix.from_dense(eye_tail)
        bm = block_partition(f, np.array([0, 4, 8, n]))
        last = bm.nb - 1
        rows, _ = bm.blocks_in_column(last)
        assert list(rows) == [last]  # only the diagonal block is stored
        np.testing.assert_allclose(bm.to_csc().to_dense(), eye_tail)

    def test_arena_matches_per_block_on_irregular(self):
        f = self._filled(n=60)
        bounds = np.array([0, 7, 9, 30, 31, 55, 60])
        bm = block_partition(f, bounds)
        bm_arena = block_partition(f, bounds, arena=True)
        assert bm_arena.arena is not None
        for a_blk, b_blk in zip(bm.blk_values, bm_arena.blk_values):
            assert a_blk.shape == b_blk.shape
            np.testing.assert_array_equal(a_blk.indptr, b_blk.indptr)
            np.testing.assert_array_equal(a_blk.indices, b_blk.indices)
            np.testing.assert_array_equal(a_blk.data, b_blk.data)

    def test_rejects_bad_boundaries(self):
        f = self._filled(n=20)
        with pytest.raises(ValueError, match="strictly increasing"):
            block_partition(f, np.array([0, 10, 10, 20]))
        with pytest.raises(ValueError, match="from 0 to n"):
            block_partition(f, np.array([0, 10, 19]))
        with pytest.raises(ValueError, match="from 0 to n"):
            block_partition(f, np.array([1, 10, 20]))
        with pytest.raises(ValueError, match="length >= 2"):
            block_partition(f, np.array([20]))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(5, 40),
    st.integers(2, 20),
    st.floats(0.05, 0.3),
    st.integers(0, 10_000),
)
def test_partition_roundtrip_property(n, bs, density, seed):
    a = random_sparse(n, density, seed=seed)
    bm = block_partition(a, bs)
    np.testing.assert_allclose(bm.to_csc().to_dense(), a.to_dense())
    assert bm.nb == -(-n // bs)

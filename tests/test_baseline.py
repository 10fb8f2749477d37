"""Tests for the SuperLU_DIST-role supernodal baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU
from repro.baseline import (
    BaselineOptions,
    SuperLUBaseline,
    build_sn_dag,
    detect_supernodes,
    simulate_superlu,
    sn_factorize,
    sn_partition,
    supernode_size_histogram,
    symbolic_gilbert_peierls,
)
from repro.runtime import A100_PLATFORM
from repro.sparse import generate, random_sparse


def _filled(n=70, seed=0):
    a = random_sparse(n, 0.07, seed=seed)
    return a, symbolic_gilbert_peierls(a).filled


class TestDetection:
    def test_boundaries_partition_columns(self):
        _, f = _filled()
        part = detect_supernodes(f)
        b = part.boundaries
        assert b[0] == 0 and b[-1] == f.ncols
        assert np.all(np.diff(b) >= 1)

    def test_width_cap_respected(self):
        _, f = _filled()
        part = detect_supernodes(f, max_width=8)
        assert part.widths().max() <= 8

    def test_padding_at_least_actual(self):
        _, f = _filled()
        part = detect_supernodes(f)
        assert part.nnz_padded >= part.nnz_actual
        assert part.padding_ratio >= 1.0

    def test_relaxation_trades_padding_for_width(self):
        _, f = _filled()
        tight = detect_supernodes(f, relax_pad=0.0, relax_small=1)
        loose = detect_supernodes(f, relax_pad=1.0, relax_small=8)
        assert loose.n_supernodes <= tight.n_supernodes
        assert loose.nnz_padded >= tight.nnz_padded

    def test_supernode_of_column(self):
        _, f = _filled()
        part = detect_supernodes(f)
        s = part.supernode_of_column()
        for k in range(part.n_supernodes):
            cols = np.flatnonzero(s == k)
            assert cols.min() == part.boundaries[k]
            assert cols.max() == part.boundaries[k + 1] - 1

    def test_histogram_counts_all(self):
        _, f = _filled()
        part = detect_supernodes(f)
        hist = supernode_size_histogram(part)
        assert hist.sum() == part.n_supernodes

    def test_fem_supernodes_wider_than_circuit(self):
        """Fig. 3's point: FEM matrices form fat supernodes, circuit-like
        matrices stay thin."""
        fem = generate("audikw_1", scale=0.12)
        cir = generate("ASIC_680k", scale=0.25)
        pf = detect_supernodes(symbolic_gilbert_peierls(PanguLU(fem).reorder()).filled)
        pc = detect_supernodes(symbolic_gilbert_peierls(PanguLU(cir).reorder()).filled)
        assert pf.widths().mean() > pc.widths().mean()


class TestSupernodalNumeric:
    def test_matches_dense_lu(self):
        a, f = _filled(seed=2)
        part = detect_supernodes(f)
        m = sn_partition(f, part)
        sn_factorize(m)
        d = a.to_dense()
        for k in range(d.shape[0]):
            d[k + 1 :, k] /= d[k, k]
            d[k + 1 :, k + 1 :] -= np.outer(d[k + 1 :, k], d[k, k + 1 :])
        np.testing.assert_allclose(m.to_dense(), d, atol=1e-9)

    def test_partition_roundtrip(self):
        a, f = _filled(seed=3)
        part = detect_supernodes(f)
        m = sn_partition(f, part)
        np.testing.assert_allclose(m.to_dense(), f.to_dense())

    def test_stats_recorded(self):
        _, f = _filled(seed=4)
        part = detect_supernodes(f)
        m = sn_partition(f, part)
        stats = sn_factorize(m)
        assert stats.panel_flops > 0
        assert stats.schur_flops == sum(g.flops for g in stats.gemms)
        for g in stats.gemms:
            assert 0 < g.density_a <= 1
            assert 0 < g.density_c <= 1

    def test_static_pivot_replacement_is_the_kernels_rule(self):
        """The baseline's diagonal LU is the loop of ``getrf_c_v1``: the
        same pivots fall under ``pivot_floor``, the same factors come
        out, and without a floor the zero pivot raises."""
        from repro.baseline.supernodal import SupernodalMatrix
        from repro.kernels import Workspace, getrf_c_v1
        from repro.kernels.base import SingularBlockError
        from repro.sparse import CSCMatrix

        d = np.random.default_rng(6).standard_normal((9, 9)) + 4.0 * np.eye(9)
        d[0, 0] = 1e-15                # under the floor from the start
        d[4, :4] = d[4, 5:] = 0.0      # row 4 untouched by the elimination,
        d[4, 4] = 0.0                  # so its pivot is an exact zero

        def one_supernode():
            return SupernodalMatrix(
                n=9, boundaries=np.array([0, 9]), dense={(0, 0): d.copy()},
                pattern_nnz={(0, 0): 81},
            )

        block = CSCMatrix(            # the full pattern, zeros stored
            (9, 9), np.arange(0, 82, 9), np.tile(np.arange(9), 9), d.T.ravel().copy()
        )
        m = one_supernode()
        stats = sn_factorize(m, pivot_floor=1e-12)
        assert stats.pivots_replaced == 2
        assert stats.pivots_replaced == getrf_c_v1(block, Workspace(), pivot_floor=1e-12)
        np.testing.assert_array_equal(m.dense[(0, 0)], block.to_dense())
        with pytest.raises(SingularBlockError):
            sn_factorize(one_supernode(), pivot_floor=0.0)

    def test_gemm_dense_flops_exceed_structural_need(self):
        """The dense GEMMs pay for padding — their FLOPs must exceed the
        structural FLOPs PanguLU spends on the same matrix."""
        a = random_sparse(80, 0.05, seed=5)
        bl = SuperLUBaseline(a)
        bl.factorize()
        s = PanguLU(a)
        s.preprocess()
        total_dense = bl.numeric_stats.panel_flops + bl.numeric_stats.schur_flops
        assert total_dense > s.dag.total_flops


class TestBaselineSolver:
    @pytest.mark.parametrize("seed", range(3))
    def test_residual(self, seed):
        a = random_sparse(70, 0.06, seed=seed)
        bl = SuperLUBaseline(a)
        b = np.arange(1.0, 71.0)
        x = bl.solve(b)
        assert bl.residual_norm(x, b) < 1e-9

    def test_agrees_with_pangulu(self):
        a = random_sparse(90, 0.05, seed=7)
        b = np.ones(90)
        x_bl = SuperLUBaseline(a).solve(b)
        x_pg = PanguLU(a).solve(b)
        np.testing.assert_allclose(x_bl, x_pg, atol=1e-7)

    def test_phase_seconds(self):
        a = random_sparse(50, 0.08, seed=8)
        bl = SuperLUBaseline(a)
        bl.solve(np.ones(50))
        assert set(bl.phase_seconds) == {
            "reorder", "symbolic", "preprocess", "numeric", "solve",
        }

    def test_paper_analogue(self):
        a = generate("CoupCons3D", scale=0.12)
        bl = SuperLUBaseline(a)
        b = np.ones(a.nrows)
        x = bl.solve(b)
        assert bl.residual_norm(x, b) < 1e-8


class TestBaselineDAG:
    def _fixture(self, seed=0):
        a = random_sparse(80, 0.06, seed=seed)
        bl = SuperLUBaseline(a, BaselineOptions(max_supernode_width=8))
        bl.preprocess()
        return bl

    def test_levels_monotone_along_deps(self):
        bl = self._fixture()
        sn = build_sn_dag(bl.panels, bl.partition)
        for tid in range(len(sn)):
            for s in sn.dag.successors[tid]:
                # inter-step dependencies go to a >= level
                assert sn.levels[s] >= sn.levels[tid]

    def test_dep_counts_consistent(self):
        bl = self._fixture(1)
        sn = build_sn_dag(bl.panels, bl.partition)
        indeg = np.zeros(len(sn), dtype=int)
        for tid in range(len(sn)):
            for s in sn.dag.successors[tid]:
                indeg[s] += 1
        np.testing.assert_array_equal(indeg, sn.dag.n_deps)

    def test_simulation_completes_both_schedules(self):
        bl = self._fixture(2)
        for schedule in ("levelset", "syncfree"):
            res, dag = simulate_superlu(
                bl.panels, bl.partition, A100_PLATFORM, 8, schedule=schedule
            )
            assert res.makespan > 0

    def test_levelset_not_faster_than_syncfree(self):
        bl = self._fixture(3)
        ls, dag = simulate_superlu(
            bl.panels, bl.partition, A100_PLATFORM, 8, schedule="levelset"
        )
        sf, _ = simulate_superlu(
            bl.panels, bl.partition, A100_PLATFORM, 8, schedule="syncfree", dag=dag
        )
        assert ls.makespan >= sf.makespan - 1e-12

    def test_pangulu_beats_baseline_on_irregular_matrix(self):
        """The headline claim at reduced scale: on a circuit-like matrix
        PanguLU's simulated factorisation is faster than the baseline's."""
        from repro.runtime import simulate_pangulu

        a = generate("ASIC_680k", scale=0.25)
        bl = SuperLUBaseline(a)
        bl.preprocess()
        res_bl, _ = simulate_superlu(bl.panels, bl.partition, A100_PLATFORM, 8)
        s = PanguLU(a)
        s.preprocess()
        res_pg = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 8)
        assert res_pg.result.makespan < res_bl.makespan

"""Tests for the SPD block Cholesky extension: a DAG builder and one
kernel on the LU machinery (lane driver, dense-mapped panel kernels,
solve update kernel, refinement loop)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU
from repro.baseline import BaselineOptions, SuperLUBaseline
from repro.cholesky import (
    CholeskyOptions,
    LLtJob,
    NotPositiveDefiniteError,
    PanguLLt,
    build_llt_dag,
    potrf,
)
from repro.cholesky.kernels import l_inverse
from repro.cholesky.solver import _lower_triangle
from repro.core import block_partition
from repro.core.dag import TaskType
from repro.core.solver import ORDERINGS, REFINE_TOL, SolverOptions
from repro.kernels import Workspace
from repro.kernels.base import box_image, triangle_inverse
from repro.kernels.ssssm import ssssm_c_v1
from repro.kernels.tstrf import tstrf_c_v2
from repro.runtime.lanes import run_lanes
from repro.runtime.scheduler import SchedulerCore
from repro.sparse import CSCMatrix, generate, grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric

SPD_GENERATORS = ["audikw_1", "ldoor", "apache2", "Serena", "ecology1", "G3_circuit"]


def spd_random(n: int, seed: int) -> CSCMatrix:
    """A random sparse SPD matrix: symmetrised dominant random."""
    a = random_sparse(n, 0.06, seed=seed, symmetric_pattern=True)
    d = a.to_dense()
    d = (d + d.T) / 2.0
    d += np.eye(n) * (np.abs(d).sum(axis=1).max())
    return CSCMatrix.from_dense(d)


def two_by_two(seed=0, n=60, split=30):
    """Lower-stored filled SPD matrix as a 2 × 2 block structure, plus
    the dense lower triangle it was cut from."""
    low = _lower_triangle(symbolic_symmetric(spd_random(n, seed)).filled)
    return block_partition(low, split), low.to_dense()


def old_syrk_flops(f) -> int:
    """``PanguLLt.flops`` as the deleted block loop counted it: for every
    step ``k`` and panel pair ``i ≥ j`` with intersecting column supports
    and a stored target, ``2 Σ_t nnz(A[:,t]) nnz(B[:,t])``."""
    total = 0
    for k in range(f.nb):
        rows, blocks = f.blocks_in_column(k)
        panel = [(int(i), blk) for i, blk in zip(rows, blocks) if i > k]
        for n, (i, a) in enumerate(panel):
            for j, b in panel[: n + 1]:
                ca, cb = np.diff(a.indptr), np.diff(b.indptr)
                if np.any((ca > 0) & (cb > 0)) and f.block(i, j) is not None:
                    total += int(2 * np.dot(ca, cb))
    return total


class TestKernels:
    def test_potrf_matches_numpy(self):
        f, low = two_by_two()
        d = low[:30, :30]
        potrf(f, 0)
        ref = np.linalg.cholesky(d + np.tril(d, -1).T)
        np.testing.assert_allclose(f.block(0, 0).to_dense(), ref, atol=1e-9)

    def test_potrf_rejects_indefinite(self):
        blk = CSCMatrix.from_dense(np.array([[4.0, 0.0], [1.0, -1.0]]))
        f = block_partition(blk, 2)
        with pytest.raises(NotPositiveDefiniteError, match="block 0, column 1"):
            potrf(f, 0)
        np.testing.assert_array_equal(f.block(0, 0).to_dense(), blk.to_dense())

    def test_trsm_matches_dense(self):
        """TRSM is LU's ``tstrf_c_v2`` handed ``L⁻ᵀ``."""
        f, low = two_by_two(seed=1)
        potrf(f, 0)
        l_full = f.block(0, 0).to_dense()
        expect = np.linalg.solve(l_full, low[30:, :30].T).T  # X L^T = B
        tstrf_c_v2(f.block(0, 0), f.block(1, 0), Workspace(), inv=l_inverse(f, 0).T)
        np.testing.assert_allclose(f.block(1, 0).to_dense(), expect, atol=1e-8)

    def test_syrk_matches_dense(self):
        """SYRK is LU's ``ssssm_c_v1`` handed the row box image of ``A``
        and, transposed, of ``B``."""
        f, low = two_by_two(seed=2)
        ws = Workspace()
        potrf(f, 0)
        lblk, target = f.block(1, 0), f.block(1, 1)
        tstrf_c_v2(f.block(0, 0), lblk, ws, inv=l_inverse(f, 0).T)
        ld = lblk.to_dense()
        pos, image = box_image(lblk, 0)
        ssssm_c_v1(target, lblk, lblk, ws, a_dense=(pos, image), b_dense=(pos, image.T))
        # only the lower part is stored; compare there
        rr, cc = target.rows_cols()
        np.testing.assert_allclose(
            target.to_dense()[rr, cc], (low[30:, 30:] - ld @ ld.T)[rr, cc], atol=1e-8
        )

    def test_flop_counters_positive(self):
        f, _ = two_by_two(seed=3)
        dag = build_llt_dag(f)
        assert [t.ttype for t in dag.tasks] == [
            TaskType.GETRF, TaskType.TSTRF, TaskType.SSSSM, TaskType.GETRF
        ]
        assert all(t.flops > 0 for t in dag.tasks)
        assert dag.total_flops == sum(t.flops for t in dag.tasks)

    def test_nonunit_lower_triangle_inverse(self):
        f, _ = two_by_two(seed=4)
        potrf(f, 0)
        d = f.block(0, 0)
        inv = triangle_inverse(d, lower=True, unit=False)
        np.testing.assert_allclose(
            inv, np.linalg.inv(np.tril(d.to_dense())), rtol=1e-12, atol=1e-14
        )
        np.testing.assert_array_equal(inv, l_inverse(f, 0))
        # the default is still LU's unit-lower L
        unit = np.tril(d.to_dense(), -1) + np.eye(d.ncols)
        np.testing.assert_allclose(
            triangle_inverse(d, lower=True), np.linalg.inv(unit), atol=1e-12
        )


class TestJob:
    """The Cholesky factorisation as a job of the shared lane driver."""

    @pytest.mark.parametrize("name", SPD_GENERATORS)
    def test_every_stored_block_has_one_panel_task(self, name):
        s = PanguLLt(generate(name, scale=0.1))
        s.preprocess()
        assert len(s.dag.panel_of_block) == s.blocks.num_blocks

    @pytest.mark.parametrize("name", SPD_GENERATORS)
    def test_dag_verifies(self, name):
        """The DAG the lane driver takes: every edge runs forward in
        task order (acyclic), every counter equals its task's in-degree,
        and each block's writers form one chain: every SYRK into a block
        precedes the next one, in step order, and the last precedes the
        block's panel task (one writer per block by the DAG)."""
        s = PanguLLt(generate(name, scale=0.1))
        s.preprocess()
        dag = s.dag
        in_degree = [0] * len(dag)
        for t in dag.tasks:
            assert all(t.tid < u < len(dag) for u in t.successors), t
            for u in t.successors:
                in_degree[u] += 1
        assert [t.n_deps for t in dag.tasks] == in_degree
        last: dict[tuple[int, int], object] = {}
        for t in dag.tasks:
            prev = last.get((t.bi, t.bj))
            if prev is not None:
                assert prev.ttype == TaskType.SSSSM and prev.k < t.k, (prev, t)
                assert t.tid in prev.successors, (prev, t)
            last[(t.bi, t.bj)] = t
        assert {b: t.tid for b, t in last.items()} == dag.panel_of_block

    @pytest.mark.parametrize("name", ["apache2", "audikw_1"])
    def test_syrk_flops_equal_the_block_loops(self, name):
        s = PanguLLt(generate(name, scale=0.15))
        s.preprocess()
        assert s.flops == old_syrk_flops(s.blocks) > 0

    @pytest.mark.parametrize("name", ["audikw_1", "G3_circuit"])
    def test_two_lanes_race_free_and_agree(self, name):
        a = generate(name, scale=0.12)
        one = PanguLLt(a)
        report = one.factorize()
        assert report.engine == "sequential"
        assert report.tasks_executed == len(one.dag)
        assert report.flops_total == one.dag.total_flops
        assert report.panel_cache_peak_bytes > 0
        two = PanguLLt(a)
        two.preprocess()
        job = LLtJob(two.blocks, two.dag)
        run_lanes(SchedulerCore.from_dag(two.dag), job, n_lanes=2)
        assert len(job.panels) == 0   # every image evicted by its last reader
        # the DAG runs the SYRKs into one target in step order on any lane
        np.testing.assert_array_equal(
            one.blocks.to_csc().to_dense(), two.blocks.to_csc().to_dense()
        )

    def test_factorize_is_idempotent(self):
        s = PanguLLt(spd_random(50, 5))
        report = s.factorize()
        before = s.blocks.to_csc().to_dense()
        assert s.factorize() is report is s.numeric_stats
        np.testing.assert_array_equal(s.blocks.to_csc().to_dense(), before)
        assert set(report.version_histogram()) == {
            "POTRF/LAPACK", "TSTRF/C_V2", "SSSSM/C_V1"
        }


class TestSolver:
    @pytest.mark.parametrize("ordering", ["nd", "amd", "natural"])
    def test_laplacian(self, ordering):
        a = grid_laplacian_2d(11, 11)
        s = PanguLLt(a, CholeskyOptions(ordering=ordering))
        b = np.arange(1.0, 122.0)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_random_spd(self, seed):
        a = spd_random(70, seed)
        s = PanguLLt(a)
        b = np.random.default_rng(seed).standard_normal(70)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-10
        assert s.factor_error() < 1e-10

    @pytest.mark.parametrize("name", ["audikw_1", "ldoor", "apache2", "Serena"])
    def test_spd_paper_analogues(self, name):
        a = generate(name, scale=0.1)
        s = PanguLLt(a)
        b = np.ones(a.nrows)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-9
        assert s.factor_error() < 1e-10

    def test_matches_lu_solution(self):
        a = spd_random(60, 7)
        b = np.ones(60)
        x_chol = PanguLLt(a).solve(b)
        x_lu = PanguLU(a).solve(b)
        np.testing.assert_allclose(x_chol, x_lu, atol=1e-8)

    def test_half_the_flops_of_lu(self):
        a = generate("apache2", scale=0.15)
        chol = PanguLLt(a)
        chol.factorize()
        lu = PanguLU(a)
        lu.preprocess()
        # Schur work roughly halves (plus panel savings); generous bound
        assert chol.flops < 0.75 * lu.dag.total_flops

    def test_rejects_indefinite(self):
        a = random_sparse(30, 0.1, seed=9)  # unsymmetric, not SPD
        d = a.to_dense()
        d = (d + d.T) / 2 - np.eye(30) * 100  # negative definite shift
        with pytest.raises(NotPositiveDefiniteError, match=r"block 0, column 0 \(row 0 "):
            PanguLLt(CSCMatrix.from_dense(d)).factorize()

    def test_indefinite_names_the_failing_column(self):
        """LAPACK's ``info`` becomes the column in the block, plus the
        block index and the row of the reordered matrix."""
        d = spd_random(40, 2).to_dense()
        d[25, 25] = -1.0
        s = PanguLLt(CSCMatrix.from_dense(d),
                     CholeskyOptions(ordering="natural", block_size=10))
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"block 2, column 5 \(row 25 of the reordered"):
            s.factorize()

    def test_rejects_rectangular_and_nan(self):
        with pytest.raises(ValueError, match="square"):
            PanguLLt(CSCMatrix.empty((2, 3)))
        a = spd_random(10, 1)
        a.data[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            PanguLLt(a)

    def test_explicit_block_size(self):
        a = spd_random(50, 3)
        s = PanguLLt(a, CholeskyOptions(block_size=8))
        s.preprocess()
        assert s.blocks.bs == 8
        x = s.solve(np.ones(50))
        assert s.residual_norm(x, np.ones(50)) < 1e-10

    # at scale 0.2 the lower triangle's half of the filled count sits
    # under KERNEL_ORDER per column while the full count is over it
    @pytest.mark.parametrize("scale", [1.0, 0.2])
    def test_default_order_matches_lu(self, scale):
        """The order comes from the full filled count, as in ``PanguLU``,
        not from the stored lower triangle's half of it: one matrix lands
        in one density regime in both solvers."""
        a = generate("audikw_1", scale=scale)
        chol = PanguLLt(a)
        chol.preprocess()
        lu = PanguLU(a)
        lu.preprocess()
        assert chol.blocks.bs == lu.blocks.bs

    def test_options_have_no_refinement_knob(self):
        assert [f for f in CholeskyOptions.__dataclass_fields__] == [
            "ordering", "block_size"
        ]


class TestSharedRefinement:
    """``PanguLLt.solve`` runs LU's refinement loop, so it inherits the
    right-hand-side check, the residual history and the non-finite-residual
    error (the two defects PR 18 fixed for LU)."""

    def test_leaves_a_residual_history(self):
        s = PanguLLt(generate("ecology1", scale=0.12))
        b = np.ones(s.a.nrows)
        x = s.solve(b)
        steps = [step for step, _ in s.residual_history]
        assert steps[0] == "apply" and set(steps[1:]) <= {"sweep"}
        assert s.residual_history[-1][1] <= REFINE_TOL
        assert s.residual_norm(x, b) <= 1e-12
        s.solve(2 * b)
        assert [step for step, _ in s.residual_history][0] == "apply"  # not appended

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rhs_is_named(self, bad):
        s = PanguLLt(spd_random(30, 1))
        b = np.ones(30)
        b[7] = bad
        with pytest.raises(ValueError, match=r"b\[7\]"):
            s.solve(b)

    def test_rhs_shape_check(self):
        s = PanguLLt(spd_random(20, 1))
        with pytest.raises(ValueError, match="shape"):
            s.solve(np.ones(21))

    def test_nonfinite_residual_raises(self):
        s = PanguLLt(spd_random(40, 3), CholeskyOptions(block_size=10))
        s.factorize()
        s.blocks.block(2, 0).data[0] = np.nan   # a corrupted factor
        with pytest.raises(FloatingPointError, match="non-finite"):
            s.solve(np.ones(40))

    def test_zero_l_diagonal_in_solve_is_named(self):
        s = PanguLLt(spd_random(40, 4),
                     CholeskyOptions(ordering="natural", block_size=10))
        s.factorize()
        diag = s.blocks.block(1, 1)
        diag.data[diag.indptr[3]] = 0.0   # lower storage: the column's first entry
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"zero/missing L diagonal in block 1, column 3 \(row 13 "):
            s.solve(np.ones(40))

    def test_zero_l_diagonal_in_trsm_is_named(self):
        f, _ = two_by_two(seed=5)
        dag = build_llt_dag(f)
        job, ws = LLtJob(f, dag), Workspace()
        job.execute(0, ws)                       # POTRF(0)
        f.block(0, 0).data[f.block(0, 0).indptr[4]] = 0.0
        with pytest.raises(NotPositiveDefiniteError, match="block 0, column 4"):
            job.execute(1, ws)                   # TRSM(1, 0)


class TestOnePhaseOne:
    """The ordering dispatch lives once, in ``repro.core.solver``."""

    @pytest.mark.parametrize("ordering", sorted(ORDERINGS))
    def test_every_facade_takes_every_ordering(self, ordering):
        a = spd_random(40, 6)
        b = np.ones(40)
        for solver in (
            PanguLU(a, SolverOptions(ordering=ordering)),
            SuperLUBaseline(a, BaselineOptions(ordering=ordering)),
            PanguLLt(a, CholeskyOptions(ordering=ordering)),
        ):
            assert solver.residual_norm(solver.solve(b), b) < 1e-9

    def test_baseline_reorders_exactly_like_pangulu(self):
        a = generate("cage12", scale=0.12)
        lu, base = PanguLU(a), SuperLUBaseline(a)
        assert lu.reorder() == base.reorder()
        for attr in ("row_scale", "col_scale", "row_perm", "col_perm"):
            np.testing.assert_array_equal(getattr(lu, attr), getattr(base, attr))

    def test_unknown_ordering_is_one_message(self):
        a = spd_random(10, 0)
        for solver in (
            PanguLU(a, SolverOptions(ordering="metis")),
            SuperLUBaseline(a, BaselineOptions(ordering="metis")),
            PanguLLt(a, CholeskyOptions(ordering="metis")),
        ):
            with pytest.raises(ValueError, match="unknown ordering 'metis'"):
                solver.preprocess()

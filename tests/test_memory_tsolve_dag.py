"""Tests for memory accounting and the triangular-solve task DAG."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU, SolverOptions
from repro.core import (
    CyclicPlacement,
    ProcessGrid,
    TSolveTaskType,
    build_tsolve_dag,
    memory_report,
    per_process_bytes,
)
from repro.runtime import A100_PLATFORM, simulate_tsolve
from repro.sparse import generate, random_sparse

from .reference_tsolve import diag_solve_flops


@pytest.fixture(scope="module")
def prepared():
    a = random_sparse(120, 0.05, seed=4)
    s = PanguLU(a, SolverOptions(block_size=16))
    s.preprocess()
    return s


class TestMemoryReport:
    def test_totals_consistent(self, prepared):
        rep = memory_report(prepared.blocks)
        assert rep.total_bytes == (
            rep.values_bytes
            + rep.layer2_index_bytes
            + rep.layer1_index_bytes
            + rep.plan_bytes
            + rep.arena_refill_bytes
        )
        nnz = sum(b.nnz for b in prepared.blocks.blk_values)
        assert rep.values_bytes == nnz * 8

    def test_layer1_overhead_insignificant(self, prepared):
        """The paper's claim: the block-level arrays add no significant
        overhead.  Pin it below 5% of total storage."""
        rep = memory_report(prepared.blocks)
        assert rep.layer1_overhead < 0.05

    def test_dense_ratio_above_one_for_sparse(self):
        # a genuinely sparse factor (grid Laplacian): storing blocks dense
        # would cost several times the two-layer sparse storage
        a = generate("ecology1", scale=0.25)
        s = PanguLU(a)
        s.preprocess()
        rep = memory_report(s.blocks)
        assert rep.dense_ratio > 1.5

    def test_per_process_bytes_sum(self, prepared):
        grid = ProcessGrid.square(4)
        with pytest.raises(TypeError, match=r"CyclicPlacement\(grid\)"):
            per_process_bytes(prepared.blocks, grid)
        pp = per_process_bytes(prepared.blocks, CyclicPlacement(grid))
        total = sum(
            b.nnz * 16 + (b.ncols + 1) * 8 for b in prepared.blocks.blk_values
        )
        assert pp.sum() == total
        assert pp.shape == (4,)


class TestTSolveDAG:
    def test_task_counts(self, prepared):
        f = prepared.blocks
        grid = ProcessGrid.square(4)
        dag = build_tsolve_dag(f, grid.owner)
        kinds = dag.kinds
        n_diag = (kinds == int(TSolveTaskType.DIAG_F)).sum()
        assert n_diag == f.nb
        assert (kinds == int(TSolveTaskType.DIAG_B)).sum() == f.nb
        # one forward update per strictly-lower stored block
        lower_blocks = sum(
            1
            for bj in range(f.nb)
            for bi in f.blocks_in_column(bj)[0]
            if int(bi) > bj
        )
        assert (kinds == int(TSolveTaskType.UPD_F)).sum() == lower_blocks

    def test_acyclic_and_executable(self, prepared):
        f = prepared.blocks
        dag = build_tsolve_dag(f, ProcessGrid.square(2).owner)
        indeg = dag.n_deps.copy()
        stack = [t for t in range(len(dag)) if indeg[t] == 0]
        seen = 0
        while stack:
            t = stack.pop()
            seen += 1
            for s in dag.successors[t]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    stack.append(s)
        assert seen == len(dag)

    def test_forward_before_backward(self, prepared):
        """DIAG_B(k) transitively depends on DIAG_F(k)."""
        f = prepared.blocks
        dag = build_tsolve_dag(f, ProcessGrid.square(1).owner)
        for k in range(f.nb):
            fwd = int(np.flatnonzero(
                (dag.kinds == int(TSolveTaskType.DIAG_F)) & (dag.k_of == k)
            )[0])
            bwd = int(np.flatnonzero(
                (dag.kinds == int(TSolveTaskType.DIAG_B)) & (dag.k_of == k)
            )[0])
            reached, stack = {fwd}, [fwd]
            while stack:
                for s in dag.successors[stack.pop()]:
                    if s not in reached:
                        reached.add(s)
                        stack.append(s)
            assert bwd in reached

    @pytest.mark.parametrize("transposed", [False, True])
    def test_updates_feed_only_the_next_writer(self, prepared, transposed):
        """Every update has exactly one successor, a writer of the same
        segment in the same sweep; each x chain has one seeded head."""
        dag = build_tsolve_dag(prepared.blocks, ProcessGrid.square(2).owner,
                               transposed=transposed)
        for tid in np.flatnonzero(
            (dag.kinds == int(TSolveTaskType.UPD_F))
            | (dag.kinds == int(TSolveTaskType.UPD_B))
        ):
            (nxt,) = dag.successors[tid]
            assert dag.target[nxt] == dag.target[tid]
            assert dag.kinds[nxt] in (dag.kinds[tid], dag.kinds[tid] - 1)
        seeded = dag.target[dag.seeds]
        assert sorted(seeded) == list(range(prepared.blocks.nb))
        assert set(dag.kinds[dag.seeds]) <= {
            int(TSolveTaskType.UPD_B), int(TSolveTaskType.DIAG_B)}

    @pytest.mark.parametrize("name", ["audikw_1", "G3_circuit", "cage12", "ASIC_680k"])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_diag_flops_match_the_column_loop(self, name, transposed):
        """The vectorised diagonal-task flops equal the per-column count
        they replaced, so ``flops`` / ``total_flops`` are unchanged."""
        s = PanguLU(generate(name, scale=0.15))
        f = s.preprocess()
        dag = build_tsolve_dag(f, lambda bi, bj: 0, transposed=transposed)
        for kind, lower in ((TSolveTaskType.DIAG_F, not transposed),
                            (TSolveTaskType.DIAG_B, transposed)):
            tids = np.flatnonzero(dag.kinds == int(kind))
            expect = [diag_solve_flops(f, int(k), lower=lower) for k in dag.k_of[tids]]
            assert dag.flops[tids].tolist() == expect
        off_diag = sum(
            2.0 * blk.nnz
            for bj in range(f.nb)
            for bi, blk in zip(*f.blocks_in_column(bj))
            if int(bi) != bj
        )
        diag = sum(
            diag_solve_flops(f, k, lower=lower)
            for k in range(f.nb) for lower in (True, False)
        )
        assert dag.total_flops == off_diag + diag

    def test_simulation_completes(self, prepared):
        for p in (1, 4, 16):
            res = simulate_tsolve(prepared.blocks, A100_PLATFORM, p)
            assert res.makespan > 0

    def test_single_proc_no_sync(self, prepared):
        res = simulate_tsolve(prepared.blocks, A100_PLATFORM, 1)
        assert res.mean_sync == pytest.approx(0.0)


class TestFacadeThreading:
    def test_n_workers_option(self):
        a = generate("G3_circuit", scale=0.12)
        b = np.ones(a.nrows)
        x1 = PanguLU(a, SolverOptions(n_workers=1)).solve(b)
        x4 = PanguLU(a, SolverOptions(n_workers=4)).solve(b)
        np.testing.assert_allclose(x1, x4, atol=1e-9)

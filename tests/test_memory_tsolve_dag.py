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

from .reference_tsolve import build_tsolve_dag_loop, diag_solve_flops


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
        """On four ranks: one diagonal task per segment and sweep, and the
        forward tasks multiply each strictly-lower stored block once."""
        f = prepared.blocks
        grid = ProcessGrid.square(4)
        dag = build_tsolve_dag(f, grid.owner)
        kinds = dag.kinds
        n_diag = (kinds == int(TSolveTaskType.DIAG_F)).sum()
        assert n_diag == f.nb
        assert (kinds == int(TSolveTaskType.DIAG_B)).sum() == f.nb
        lower_blocks = sum(
            1
            for bj in range(f.nb)
            for bi in f.blocks_in_column(bj)[0]
            if int(bi) > bj
        )
        forward = np.flatnonzero(
            (kinds == int(TSolveTaskType.DIAG_F))
            | (kinds == int(TSolveTaskType.LSUM_F))
        )
        assert sum(len(dag.sources[t]) for t in forward) == lower_blocks
        assert (kinds == int(TSolveTaskType.LSUM_F)).sum() > 0

    @pytest.mark.parametrize("transposed", [False, True])
    def test_local_dag_is_two_tasks_per_segment(self, prepared, transposed):
        """One owner: ``2·nb`` tasks, no LSUM, and each diagonal task
        waits for exactly the distinct source segments of its row (plus
        ``y_i`` going back)."""
        f = prepared.blocks
        dag = build_tsolve_dag(f, lambda bi, bj: 0, transposed=transposed)
        assert len(dag) == 2 * f.nb
        assert set(dag.kinds.tolist()) == {
            int(TSolveTaskType.DIAG_F), int(TSolveTaskType.DIAG_B)}
        for tid in range(len(dag)):
            i = int(dag.segment[tid])
            line = (
                f.blocks_in_column(i)[0] if transposed
                else [bj for bj, _ in f.blocks_in_row(i)]
            )
            forward = dag.kinds[tid] == int(TSolveTaskType.DIAG_F)
            ks = sorted({int(k) for k in line if (k < i if forward else k > i)})
            assert dag.sources[tid].tolist() == ks
            assert dag.n_deps[tid] == len(ks) + (not forward)

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_acyclic_and_executable(self, prepared, nprocs, transposed):
        """Each counter is its task's in-degree, and a Kahn pass over
        the counters reaches every task."""
        f = prepared.blocks
        dag = build_tsolve_dag(f, ProcessGrid.square(nprocs).owner,
                               transposed=transposed)
        indeg = np.zeros(len(dag), dtype=np.int64)
        for outs in dag.successors:
            np.add.at(indeg, np.asarray(outs, dtype=np.int64), 1)
        np.testing.assert_array_equal(dag.n_deps, indeg)
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
                (dag.kinds == int(TSolveTaskType.DIAG_F)) & (dag.segment == k)
            )[0])
            bwd = int(np.flatnonzero(
                (dag.kinds == int(TSolveTaskType.DIAG_B)) & (dag.segment == k)
            )[0])
            reached, stack = {fwd}, [fwd]
            while stack:
                for s in dag.successors[stack.pop()]:
                    if s not in reached:
                        reached.add(s)
                        stack.append(s)
            assert bwd in reached

    @pytest.mark.parametrize("transposed", [False, True])
    def test_lsums_feed_only_their_diagonal_task(self, prepared, transposed):
        """Every LSUM task has exactly one successor, the diagonal task of
        its segment in its sweep, on another rank; every segment of y and
        of x has exactly one writer."""
        dag = build_tsolve_dag(prepared.blocks, ProcessGrid.square(4).owner,
                               transposed=transposed)
        lsums = np.flatnonzero(
            (dag.kinds == int(TSolveTaskType.LSUM_F))
            | (dag.kinds == int(TSolveTaskType.LSUM_B))
        )
        assert lsums.size
        for tid in lsums:
            (nxt,) = dag.successors[tid]
            assert dag.segment[nxt] == dag.segment[tid]
            assert dag.kinds[nxt] == dag.kinds[tid] - 1
            assert dag.owner[nxt] != dag.owner[tid]
        diag = np.setdiff1d(np.arange(len(dag)), lsums)
        writes = sorted(zip(dag.kinds[diag].tolist(), dag.segment[diag].tolist()))
        assert len(set(writes)) == len(writes) == 2 * prepared.blocks.nb

    @pytest.mark.parametrize("name", ["audikw_1", "G3_circuit", "cage12", "ASIC_680k"])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_diag_flops_match_the_column_loop(self, name, transposed):
        """A diagonal task's flops are the per-column substitution count
        plus two per stored entry of the blocks it multiplies, so
        ``total_flops`` counts every entry of the factors once per sweep
        it serves."""
        s = PanguLU(generate(name, scale=0.15))
        f = s.preprocess()
        dag = build_tsolve_dag(f, lambda bi, bj: 0, transposed=transposed)
        for kind, lower in ((TSolveTaskType.DIAG_F, not transposed),
                            (TSolveTaskType.DIAG_B, transposed)):
            tids = np.flatnonzero(dag.kinds == int(kind))
            expect = [
                diag_solve_flops(f, int(i), lower=lower) + sum(
                    2.0 * (f.block(int(k), int(i)) if transposed
                           else f.block(int(i), int(k))).nnz
                    for k in dag.sources[t]
                )
                for t, i in zip(tids, dag.segment[tids])
            ]
            assert dag.flops[tids].tolist() == pytest.approx(expect, rel=1e-15)
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

    @pytest.mark.parametrize("name", ["ecology1", "audikw_1", "cage12", "nlpkkt80"])
    @pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_array_build_equals_the_per_segment_pass(self, name, nprocs, transposed):
        """``build_tsolve_dag`` (array operations over every stored block)
        builds the tasks, numbers, sources and their slots, flops, bytes, owners, edges
        — successor lists in the same order — and priorities of the
        per-segment pass it replaced, exactly."""
        f = PanguLU(generate(name, scale=0.3)).preprocess()
        owner = CyclicPlacement(nprocs).owner if nprocs > 1 else (lambda bi, bj: 0)
        got = build_tsolve_dag(f, owner, transposed=transposed)
        ref = build_tsolve_dag_loop(f, owner, transposed=transposed)
        for name_ in ("kinds", "segment", "flops", "out_bytes", "n_deps", "owner"):
            a, b = getattr(got, name_), getattr(ref, name_)
            assert a.dtype == b.dtype and np.array_equal(a, b), name_
        assert len(got.sources) == len(ref.sources)
        for lists in ((got.sources, ref.sources), (got.slots, ref.slots)):
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(*lists))
        assert got.successors == ref.successors
        assert got.entries == ref.entries and got.total_flops == ref.total_flops

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
        assert np.array_equal(x1, x4)

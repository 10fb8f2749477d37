"""Tests for platform models, kernel cost models and the simulation bridge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TaskType, block_partition, build_dag
from repro.runtime import (
    A100_PLATFORM,
    MI50_PLATFORM,
    SimTask,
    best_version,
    extract_sim_tasks,
    kernel_time,
    price_tasks,
    simulate_pangulu,
)
from repro.sparse import random_sparse
from repro.symbolic import symbolic_symmetric


def _task(ttype=TaskType.SSSSM, flops=10_000, nnz=200, rows=64, cols=64, inner=64):
    return SimTask(
        tid=0,
        ttype=ttype,
        k=0,
        bi=1,
        bj=1,
        flops=flops,
        dense_flops=2.0 * rows * cols * inner,
        nnz_a=nnz,
        nnz_b=nnz,
        nnz_target=nnz,
        rows=rows,
        cols=cols,
        inner=inner,
        out_bytes=12.0 * nnz,
    )


class TestKernelTime:
    def test_positive_and_finite(self):
        for ttype in TaskType:
            t = _task(ttype=ttype)
            for platform in (A100_PLATFORM, MI50_PLATFORM):
                v, cost = best_version(t, platform)
                assert np.isfinite(cost) and cost > 0

    def test_more_flops_costs_more(self):
        t1 = _task(flops=1_000)
        t2 = _task(flops=1_000_000_000)
        assert kernel_time(t2, "C_V2", A100_PLATFORM) > kernel_time(
            t1, "C_V2", A100_PLATFORM
        )

    def test_gpu_launch_overhead_dominates_tiny_tasks(self):
        tiny = _task(flops=10, nnz=4, rows=8, cols=8, inner=8)
        # on tiny tasks the CPU sparse kernel beats any GPU variant
        v, _ = best_version(tiny, A100_PLATFORM)
        assert v.startswith("C_")

    def test_gpu_wins_huge_sparse_tasks(self):
        huge = _task(flops=10**9, nnz=10**6, rows=512, cols=512, inner=512)
        v, _ = best_version(huge, A100_PLATFORM)
        assert v.startswith("G_")

    def test_mi50_slower_than_a100(self):
        t = _task(flops=10**8, nnz=10**5)
        assert kernel_time(t, "G_V1", MI50_PLATFORM) > kernel_time(
            t, "G_V1", A100_PLATFORM
        )

    def test_best_version_is_minimum(self):
        from repro.kernels import KERNEL_REGISTRY, KernelType

        t = _task(ttype=TaskType.GESSM, flops=50_000, nnz=3_000)
        v, cost = best_version(t, A100_PLATFORM)
        for version in KERNEL_REGISTRY[KernelType.GESSM]:
            assert cost <= kernel_time(t, version, A100_PLATFORM) + 1e-15


class TestExtraction:
    def _fixture(self):
        a = random_sparse(60, 0.08, seed=0)
        f = symbolic_symmetric(a).filled
        bm = block_partition(f, 12)
        return bm, build_dag(bm)

    def test_one_record_per_task(self):
        bm, dag = self._fixture()
        sts = extract_sim_tasks(bm, dag)
        assert len(sts) == len(dag.tasks)
        for st, t in zip(sts, dag.tasks):
            assert st.tid == t.tid
            assert st.flops == t.flops
            assert st.nnz_target > 0
            assert st.dense_flops >= 0

    def test_dense_flops_exceed_structural(self):
        bm, dag = self._fixture()
        for st in extract_sim_tasks(bm, dag):
            if st.ttype == TaskType.SSSSM:
                assert st.dense_flops >= st.flops

    def test_price_tasks_adaptive_at_most_fixed(self):
        bm, dag = self._fixture()
        sts = extract_sim_tasks(bm, dag)
        ad, _ = price_tasks(sts, A100_PLATFORM, adaptive=True)
        fx, _ = price_tasks(sts, A100_PLATFORM, adaptive=False)
        assert np.all(ad <= fx + 1e-15)


class TestSimulatePanguLU:
    def _fixture(self):
        a = random_sparse(100, 0.06, seed=1)
        f = symbolic_symmetric(a).filled
        bm = block_partition(f, 10)
        return bm, build_dag(bm)

    def test_single_proc_no_sync_messages(self):
        bm, dag = self._fixture()
        sim = simulate_pangulu(bm, dag, A100_PLATFORM, 1)
        assert sim.result.messages == 0
        assert sim.result.mean_sync == pytest.approx(0.0)

    def test_syncfree_not_slower_than_levelset(self):
        bm, dag = self._fixture()
        sf = simulate_pangulu(bm, dag, A100_PLATFORM, 8, schedule="syncfree")
        ls = simulate_pangulu(bm, dag, A100_PLATFORM, 8, schedule="levelset")
        assert sf.result.makespan <= ls.result.makespan + 1e-12

    def test_adaptive_not_slower_than_fixed(self):
        bm, dag = self._fixture()
        ad = simulate_pangulu(bm, dag, A100_PLATFORM, 8, adaptive_kernels=True)
        fx = simulate_pangulu(bm, dag, A100_PLATFORM, 8, adaptive_kernels=False)
        assert ad.result.makespan <= fx.result.makespan + 1e-12

    def test_makespan_at_least_critical_path_time(self):
        bm, dag = self._fixture()
        sim = simulate_pangulu(bm, dag, A100_PLATFORM, 128)
        # the simulated makespan can never beat the duration-weighted
        # longest chain lower bound... use a weaker bound: max task time
        durations = sim.result.end_times - sim.result.start_times
        assert sim.result.makespan >= durations.max() - 1e-15

    def test_seconds_by_type(self):
        bm, dag = self._fixture()
        sim = simulate_pangulu(bm, dag, A100_PLATFORM, 4)
        by_type = sim.seconds_by_type()
        assert set(by_type) <= {"GETRF", "GESSM", "TSTRF", "SSSSM"}
        assert sum(by_type.values()) == pytest.approx(sim.result.total_busy)

    def test_gflops_positive(self):
        bm, dag = self._fixture()
        sim = simulate_pangulu(bm, dag, A100_PLATFORM, 4)
        assert sim.gflops > 0

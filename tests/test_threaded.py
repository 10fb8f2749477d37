"""Tests for the real threaded synchronisation-free executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.sparse import generate, random_sparse
from repro.symbolic import symbolic_symmetric


def _prepared(n=90, bs=12, seed=0):
    a = random_sparse(n, 0.06, seed=seed)
    f = symbolic_symmetric(a).filled
    bm = block_partition(f, bs)
    return a, bm, build_dag(bm)


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_matches_sequential(self, workers):
        a, bm_seq, dag_seq = _prepared(seed=workers)
        _, bm_thr, dag_thr = _prepared(seed=workers)
        factorize(bm_seq, dag_seq)
        stats = factorize(bm_thr, dag_thr, n_lanes=workers)
        assert stats.tasks_executed == len(dag_thr.tasks)
        np.testing.assert_array_equal(
            bm_thr.to_csc().to_dense(), bm_seq.to_csc().to_dense()
        )

    def test_on_paper_analogue(self):
        a = generate("G3_circuit", scale=0.15)
        from repro import PanguLU

        s1, s2 = PanguLU(a), PanguLU(a)
        s1.preprocess()
        s2.preprocess()
        factorize(s1.blocks, s1.dag)
        factorize(s2.blocks, s2.dag, n_lanes=4)
        np.testing.assert_array_equal(
            s2.blocks.to_csc().to_dense(), s1.blocks.to_csc().to_dense()
        )


class TestProtocol:
    def test_rejects_zero_workers(self):
        _, bm, dag = _prepared()
        with pytest.raises(ValueError, match="at least one lane"):
            factorize(bm, dag, n_lanes=0)

    def test_error_propagates(self):
        _, bm, dag = _prepared()
        # poison a diagonal block so GETRF hits an exact zero pivot
        diag = bm.block(0, 0)
        diag.data[...] = 0.0
        from repro.core import NumericOptions
        from repro.kernels.base import SingularBlockError

        with pytest.raises(SingularBlockError):
            factorize(
                bm, dag, NumericOptions(pivot_floor=0.0), n_lanes=3
            )

    @staticmethod
    def _injected_failure(monkeypatch, ktype, versions):
        from repro.kernels.registry import KERNEL_REGISTRY

        class _Boom(RuntimeError):
            pass

        def boom(*args, **kwargs):
            raise _Boom("injected kernel failure")

        for version in versions or list(KERNEL_REGISTRY[ktype]):
            monkeypatch.setitem(KERNEL_REGISTRY[ktype], version, boom)
        return _Boom

    def test_kernel_exception_propagates_and_quiesces(self, monkeypatch):
        # a kernel that raises mid-DAG must surface the *original*
        # exception to the caller with every worker quiesced first —
        # the lane driver joins the pool before re-raising, so this
        # test deadlocks (and times out) if quiescing is broken
        import threading

        from repro.kernels.registry import KernelType

        boom = self._injected_failure(monkeypatch, KernelType.SSSSM, None)
        _, bm, dag = _prepared(n=120, bs=10, seed=3)
        threads_before = threading.active_count()
        with pytest.raises(boom, match="injected kernel failure"):
            factorize(bm, dag, n_lanes=4)
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_plannable_kernel_is_run_through_the_registry(
        self, monkeypatch, n_workers
    ):
        # a patched registry entry must be what runs even where the
        # variant would be handed a plan: a fixed policy sends every
        # diagonal block to GETRF/G_V2, which is plannable, and every
        # factorisation has a plan cache
        from repro import PanguLU, SolverOptions
        from repro.core import NumericOptions
        from repro.kernels.registry import KernelType
        from repro.kernels.selector import SelectorPolicy
        from repro.sparse import generate

        solver = PanguLU(
            generate("ecology1", scale=0.2, seed=0), SolverOptions(block_size=40)
        )
        solver.preprocess()
        selector = SelectorPolicy.fixed({
            KernelType.GETRF: "G_V2",
            KernelType.GESSM: "G_V1",
            KernelType.TSTRF: "G_V1",
            KernelType.SSSSM: "C_V2",
        })
        boom = self._injected_failure(monkeypatch, KernelType.GETRF, ["G_V2"])
        with pytest.raises(boom, match="injected kernel failure"):
            factorize(
                solver.blocks, solver.dag, NumericOptions(selector=selector),
                n_lanes=n_workers,
            )

    def test_records_kernel_choices(self):
        _, bm, dag = _prepared()
        stats = factorize(bm, dag, n_lanes=2)
        assert len(stats.kernel_choices) == len(dag.tasks)

    def test_parallelism_observed(self):
        # with several workers the ready queue must have held >1 task at
        # some point for a DAG with real fan-out
        _, bm, dag = _prepared(n=120, bs=10, seed=3)
        stats = factorize(bm, dag, n_lanes=4)
        assert stats.max_ready_depth >= 2

"""Tests for fixed-pattern execution plans (:mod:`repro.kernels.plans`).

The load-bearing property: a variant handed its plan must be
**bit-identical** to the same variant running its own loop — same
products, same order, same masking.  The reference is
``tests/reference_numeric.replay_unplanned``: every task through
``execute_task(..., plans=None, panels=None)``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    NumericOptions,
    block_partition,
    build_dag,
    factorize,
    memory_report,
)
from repro.kernels import (
    KERNEL_REGISTRY,
    PLANNABLE_VERSIONS,
    KernelType,
    PlanCache,
    SelectorPolicy,
)
from repro.sparse import CSCMatrix, random_sparse
from repro.symbolic import symbolic_symmetric

from .reference_numeric import replay_unplanned


def _prepared(n=80, bs=12, seed=0, density=0.07):
    a = random_sparse(n, density, seed=seed)
    f = symbolic_symmetric(a).filled
    bm = block_partition(f, bs)
    return a, bm, build_dag(bm)


def _factor_dense(bm, dag, **kw):
    stats = factorize(bm, dag, NumericOptions(**kw))
    return bm.to_csc().to_dense(), stats


def _reference_dense(bm, dag, **kw):
    choices = replay_unplanned(bm, dag, NumericOptions(**kw))
    assert len(choices) == len(dag.tasks)
    return bm.to_csc().to_dense()


class TestPlannableRegistry:
    def test_plannable_versions_exist(self):
        for ktype, versions in PLANNABLE_VERSIONS.items():
            for v in versions:
                assert "plan" in inspect.signature(KERNEL_REGISTRY[ktype][v]).parameters

    def test_dense_variants_not_plannable(self):
        # dense-mapped variants use different summation orders — a plan
        # claiming to reproduce them bit-for-bit would be a lie: exactly
        # the listed variants take a plan
        for ktype, variants in KERNEL_REGISTRY.items():
            for v, kernel in variants.items():
                takes_plan = "plan" in inspect.signature(kernel).parameters
                assert takes_plan == (v in PLANNABLE_VERSIONS.get(ktype, ())), (ktype, v)
        assert "C_V1" not in PLANNABLE_VERSIONS[KernelType.SSSSM]
        assert "C_V1" not in PLANNABLE_VERSIONS[KernelType.GETRF]


class TestBitIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_fixed_policy_bit_identical(self, seed):
        # fixed policy selects plannable versions for all four roles, so
        # every task runs planned — the strongest exercise of the maps
        _, bm1, dag1 = _prepared(seed=seed)
        _, bm2, dag2 = _prepared(seed=seed)
        d1, s1 = _factor_dense(bm1, dag1, selector=SelectorPolicy.fixed())
        d2 = _reference_dense(bm2, dag2, selector=SelectorPolicy.fixed())
        assert s1.planned_tasks == len(dag1.tasks)
        assert np.array_equal(d1, d2)

    @pytest.mark.parametrize("seed", range(4))
    def test_default_policy_bit_identical(self, seed):
        _, bm1, dag1 = _prepared(seed=seed, n=100, bs=10)
        _, bm2, dag2 = _prepared(seed=seed, n=100, bs=10)
        d1, _ = _factor_dense(bm1, dag1)
        d2 = _reference_dense(bm2, dag2)
        assert np.array_equal(d1, d2)

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        bs=st.sampled_from([6, 10, 16]),
    )
    @settings(max_examples=10, deadline=None)
    def test_property_random_block_matrices(self, seed, bs):
        _, bm1, dag1 = _prepared(n=60, bs=bs, seed=seed, density=0.08)
        _, bm2, dag2 = _prepared(n=60, bs=bs, seed=seed, density=0.08)
        d1, _ = _factor_dense(bm1, dag1, selector=SelectorPolicy.fixed())
        d2 = _reference_dense(bm2, dag2, selector=SelectorPolicy.fixed())
        assert np.array_equal(d1, d2)


class TestPlanCacheBehaviour:
    def test_cache_attached_to_block_matrix(self):
        _, bm, dag = _prepared()
        assert bm.plan_cache is None
        factorize(bm, dag, NumericOptions(selector=SelectorPolicy.fixed()))
        assert isinstance(bm.plan_cache, PlanCache)
        assert len(bm.plan_cache) > 0
        assert bm.plan_cache.nbytes > 0

    def test_plans_disabled_leaves_no_cache(self):
        # ``plans=None`` is the one way to run unplanned: nothing is
        # built, nothing is attached to the structure
        _, bm, dag = _prepared()
        replay_unplanned(bm, dag, NumericOptions(selector=SelectorPolicy.fixed()))
        assert bm.plan_cache is None
        assert memory_report(bm).plan_bytes == 0

    def test_refactorize_reuses_cache(self):
        from repro import PanguLU

        a = random_sparse(120, 0.05, seed=7)
        solver = PanguLU(a)
        solver.factorize()
        cache = solver.blocks.plan_cache
        assert cache is not None
        built = len(cache)
        a2 = CSCMatrix(
            a.shape, a.indptr.copy(), a.indices.copy(), a.data * 1.5
        )
        solver.refactorize(a2)
        # same pattern ⇒ same slots ⇒ zero rebuilds on the second pass
        assert solver.blocks.plan_cache is cache
        assert len(cache) == built
        x = solver.solve(np.ones(120))
        assert np.linalg.norm(a2.matvec(x) - 1.0) < 1e-8

    def test_ssssm_entry_limit_falls_back(self):
        _, bm1, dag1 = _prepared(seed=3)
        _, bm2, dag2 = _prepared(seed=3)
        d1, s1 = _factor_dense(bm1, dag1, selector=SelectorPolicy.fixed())
        # a zero entry budget declines every SSSSM plan (memory valve):
        # those tasks run C_V2's own loop, the solves/GETRF still get
        # their plans, and the result is unchanged
        d2, s2 = _factor_dense(
            bm2, dag2, selector=SelectorPolicy.fixed(), plan_entry_limit=0
        )
        assert s1.planned_tasks == len(dag1.tasks)
        assert 0 < s2.planned_tasks < s1.planned_tasks
        assert s2.kernel_choices == s1.kernel_choices
        assert np.array_equal(d1, d2)

    def test_cache_get_caches_none(self):
        cache = PlanCache()
        calls = []

        def builder():
            calls.append(1)
            return None

        assert cache.get("k", builder) is None
        assert cache.get("k", builder) is None
        assert len(calls) == 1


class TestMemoryAccounting:
    def test_plan_bytes_in_report(self):
        _, bm, dag = _prepared()
        rep0 = memory_report(bm)
        assert rep0.plan_bytes == 0
        factorize(bm, dag, NumericOptions(selector=SelectorPolicy.fixed()))
        rep1 = memory_report(bm)
        assert rep1.plan_bytes > 0
        assert rep1.plan_bytes == bm.plan_cache.nbytes
        assert rep1.total_bytes == rep0.total_bytes + rep1.plan_bytes

    def test_stats_report_plan_bytes(self):
        _, bm, dag = _prepared()
        stats = factorize(bm, dag, NumericOptions(selector=SelectorPolicy.fixed()))
        assert stats.plan_bytes == bm.plan_cache.nbytes


class TestThreadedAndPartial:
    def test_threaded_planned_matches_sequential(self):
        _, bm1, dag1 = _prepared(n=90, bs=12, seed=5)
        _, bm2, dag2 = _prepared(n=90, bs=12, seed=5)
        factorize(bm1, dag1, NumericOptions(selector=SelectorPolicy.fixed()))
        tstats = factorize(
            bm2, dag2, NumericOptions(selector=SelectorPolicy.fixed()),
            n_lanes=4,
        )
        assert tstats.planned_tasks > 0
        np.testing.assert_allclose(
            bm2.to_csc().to_dense(), bm1.to_csc().to_dense(), atol=1e-9
        )

    def test_partial_factorize_planned_bit_identical(self):
        from repro.core import partial_factorize

        _, bm1, dag1 = _prepared(seed=6)
        _, bm2, dag2 = _prepared(seed=6)
        kb = bm1.nb // 2
        s1 = partial_factorize(
            bm1, dag1, kb, NumericOptions(selector=SelectorPolicy.fixed())
        )
        replay_unplanned(
            bm2, dag2, NumericOptions(selector=SelectorPolicy.fixed()),
            tids=[t.tid for t in dag2.tasks if t.k < kb],
        )
        assert s1.planned_tasks > 0
        assert np.array_equal(
            bm1.to_csc().to_dense(), bm2.to_csc().to_dense()
        )

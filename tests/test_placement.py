"""Tests of the pluggable placement layer (`repro.core.placement`) and
the hybrid distributed×threaded engine.

The default :class:`CyclicPlacement` must be bit-identical to the
historical ``ProcessGrid.owner`` rule on every layer that consumes it;
:class:`CostModelPlacement` must be deterministic and, on a speed-skewed
platform, strictly beat the cyclic map on speed-scaled load imbalance
and on simulated makespan.  The hybrid engine (each rank driving a
thread pool over the shared scheduler core) must match the other
engines: bit-identical triangular solves, allclose factors.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import (
    ProcessGrid,
    balance_loads,
    block_partition,
    build_dag,
    factorize,
    load_imbalance,
    task_weights,
)
from repro.core.placement import (
    CostModelPlacement,
    CyclicPlacement,
    PlacementPolicy,
    available_placements,
    get_placement,
    resolve_placement,
)
from repro.core.solver import PanguLU, SolverOptions
from repro.core.tsolve import tsolve_sequential
from repro.core.tsolve_dag import build_tsolve_dag
from repro.core.verify import ScheduleViolation, verify_dag
from repro.runtime import (
    CPU_PLATFORM,
    factorize_distributed,
    simulate_pangulu,
    simulate_tsolve,
    tsolve_distributed,
)
from repro.runtime.transports import LoopbackTransport
from repro.sparse import grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric

#: two fast ranks, two at 40% speed — the ≥2× skew the acceptance
#: criterion names
SKEWED_SPEEDS = (1.0, 1.0, 0.4, 0.4)


def _prepared(n=80, bs=12, seed=0):
    a = random_sparse(n, 0.06, seed=seed)
    f = symbolic_symmetric(a).filled
    bm = block_partition(f, bs)
    return bm, build_dag(bm)


def _factored(n=72, bs=13, seed=0):
    bm, dag = _prepared(n, bs, seed)
    factorize(bm, dag)
    return bm


# ----------------------------------------------------------------------
# ProcessGrid.square regression: non-perfect-square counts
# ----------------------------------------------------------------------

class TestSquareGrid:
    def test_non_perfect_square_counts(self):
        # the isqrt-based search must find exact factorisations, not
        # degenerate to 1×n whenever n has no integer root
        assert ProcessGrid.square(12) == ProcessGrid(3, 4)
        assert ProcessGrid.square(18) == ProcessGrid(3, 6)
        assert ProcessGrid.square(24) == ProcessGrid(4, 6)
        assert ProcessGrid.square(48) == ProcessGrid(6, 8)

    def test_perfect_squares(self):
        for root in (1, 2, 3, 7, 10):
            assert ProcessGrid.square(root * root) == ProcessGrid(root, root)

    def test_primes_degenerate_to_row(self):
        for p in (2, 3, 13, 97):
            assert ProcessGrid.square(p) == ProcessGrid(1, p)

    def test_large_perfect_square_isqrt_edge(self):
        # float sqrt of (10**8)**2 can land below the true root; isqrt
        # must not, so the square factorisation is found exactly
        n = 10**8
        assert ProcessGrid.square(n * n) == ProcessGrid(n, n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            ProcessGrid.square(0)
        with pytest.raises(ValueError, match="positive"):
            ProcessGrid.square(-4)

    def test_every_count_covered_exactly(self):
        for n in range(1, 65):
            g = ProcessGrid.square(n)
            assert g.p * g.q == n and g.p <= g.q


# ----------------------------------------------------------------------
# CyclicPlacement ≡ the historical grid rule
# ----------------------------------------------------------------------

class TestCyclicPlacement:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 6, 12])
    def test_owner_matches_grid(self, nprocs):
        grid = ProcessGrid.square(nprocs)
        place = CyclicPlacement(grid)
        for bi in range(10):
            for bj in range(10):
                assert place.owner(bi, bj) == grid.owner(bi, bj)

    def test_int_constructor_squares(self):
        assert CyclicPlacement(6).grid == ProcessGrid.square(6)
        assert CyclicPlacement(6).nprocs == 6

    def test_assign_matches_assign_tasks(self):
        # the rule the deleted ``mapping.assign_tasks`` wrapper applied:
        # every task on the block-cyclic owner of its target block
        _, dag = _prepared()
        grid = ProcessGrid.square(4)
        np.testing.assert_array_equal(
            CyclicPlacement(grid).assign(dag),
            [grid.owner(t.bi, t.bj) for t in dag.tasks],
        )

    def test_prepare_is_noop_returning_self(self):
        p = CyclicPlacement(2)
        assert p.prepare(None, None) is p


# ----------------------------------------------------------------------
# registry / resolution
# ----------------------------------------------------------------------

class TestRegistry:
    def test_available(self):
        assert available_placements() == ["cost", "cyclic"]

    def test_get_by_name(self):
        assert isinstance(get_placement("cyclic", 4), CyclicPlacement)
        assert isinstance(get_placement("cost", 4), CostModelPlacement)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown placement"):
            get_placement("round-robin", 4)

    def test_resolve_passes_instances_through(self):
        p = CyclicPlacement(4)
        assert resolve_placement(p, 4) is p

    def test_resolve_rejects_rank_mismatch(self):
        with pytest.raises(ValueError, match="built for 4"):
            resolve_placement(CyclicPlacement(4), 6)

    def test_speed_validation(self):
        with pytest.raises(ValueError, match="rank speeds"):
            get_placement("cost", 4, speeds=(1.0, 2.0))  # wrong length
        with pytest.raises(ValueError, match="positive"):
            get_placement("cost", 2, speeds=(1.0, 0.0))

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError, match="at least one rank"):
            CostModelPlacement(0)


# ----------------------------------------------------------------------
# CostModelPlacement
# ----------------------------------------------------------------------

class TestCostModelPlacement:
    def test_deterministic(self):
        bm, dag = _prepared(seed=3)
        a = CostModelPlacement(4, SKEWED_SPEEDS).prepare(dag, bm)
        b = CostModelPlacement(4, SKEWED_SPEEDS).prepare(dag, bm)
        assert a._owners == b._owners
        np.testing.assert_array_equal(a.assign(dag), b.assign(dag))

    def test_owners_in_range(self):
        bm, dag = _prepared()
        place = CostModelPlacement(3).prepare(dag, bm)
        asg = place.assign(dag)
        assert asg.min() >= 0 and asg.max() < 3

    def test_unseen_blocks_fall_back_to_cyclic(self):
        bm, dag = _prepared()
        place = CostModelPlacement(4).prepare(dag, bm)
        fallback = CyclicPlacement(4)
        # a block index far outside the structure was never costed
        assert place.owner(10**6, 10**6) == fallback.owner(10**6, 10**6)

    def test_prepare_needs_something_to_cost(self):
        with pytest.raises(ValueError, match="DAG or a blocked"):
            CostModelPlacement(2).prepare()

    def test_blocks_only_prepare_covers_solve_path(self):
        bm = _factored()
        place = CostModelPlacement(3).prepare(blocks=bm)
        for bj in range(bm.nb):
            rows, _ = bm.blocks_in_column(bj)
            for bi in rows:
                assert 0 <= place.owner(int(bi), bj) < 3

    def test_fast_ranks_carry_more_weight(self):
        bm, dag = _prepared(seed=5)
        w = task_weights(dag, bm)
        place = CostModelPlacement(4, SKEWED_SPEEDS).prepare(dag, bm)
        loads = np.zeros(4)
        np.add.at(loads, place.assign(dag), w)
        # the two fast ranks together absorb more weight than the two
        # slow ones — the whole point of speed-aware placement
        assert loads[:2].sum() > loads[2:].sum()

    def test_beats_cyclic_imbalance_on_skewed_platform(self):
        bm, dag = _prepared(seed=7)
        w = task_weights(dag, bm)
        cyc = CyclicPlacement(4).assign(dag)
        cost = CostModelPlacement(4, SKEWED_SPEEDS).prepare(dag, bm).assign(dag)
        imb_cyc = load_imbalance(dag, cyc, 4, weights=w, speeds=SKEWED_SPEEDS)
        imb_cost = load_imbalance(dag, cost, 4, weights=w, speeds=SKEWED_SPEEDS)
        assert imb_cost < imb_cyc

    def test_reduces_simulated_makespan_on_skewed_platform(self):
        """The ISSUE's acceptance criterion: on a ≥2× speed-skew
        platform the cost-model placement beats cyclic end-to-end in
        the event simulation, not just on the static metric."""
        bm, dag = _prepared(n=120, bs=14, seed=2)
        platform = dataclasses.replace(
            CPU_PLATFORM, rank_speeds=SKEWED_SPEEDS
        )
        mk_cyc = simulate_pangulu(
            bm, dag, platform, 4, placement="cyclic"
        ).result.makespan
        mk_cost = simulate_pangulu(
            bm, dag, platform, 4, placement="cost"
        ).result.makespan
        assert mk_cost < mk_cyc

    def test_homogeneous_default_unchanged(self):
        """Without rank_speeds the adapter's default path is the
        historical one: cyclic placement, raw-flops balancing."""
        bm, dag = _prepared(seed=4)
        sim = simulate_pangulu(bm, dag, CPU_PLATFORM, 4)
        place = CyclicPlacement(4)
        expected = balance_loads(dag, place, place.assign(dag))
        np.testing.assert_array_equal(sim.assignment, expected)

    def test_tsolve_simulation_accepts_placement(self):
        bm = _factored()
        platform = dataclasses.replace(
            CPU_PLATFORM, rank_speeds=SKEWED_SPEEDS
        )
        res = simulate_tsolve(bm, platform, 4, placement="cost")
        assert res.makespan > 0.0


# ----------------------------------------------------------------------
# speed-aware balancing and metric
# ----------------------------------------------------------------------

class TestSpeedAwareBalancing:
    def test_balancer_deterministic_under_speeds(self):
        _, dag = _prepared(seed=9)
        place = CyclicPlacement(4, SKEWED_SPEEDS)
        a = balance_loads(dag, place, speeds=SKEWED_SPEEDS)
        b = balance_loads(dag, place, speeds=SKEWED_SPEEDS)
        np.testing.assert_array_equal(a, b)

    def test_balancer_improves_skewed_cyclic(self):
        _, dag = _prepared(seed=9)
        place = CyclicPlacement(4, SKEWED_SPEEDS)
        before = place.assign(dag)
        after = balance_loads(dag, place, before, speeds=SKEWED_SPEEDS)
        imb_b = load_imbalance(dag, before, 4, speeds=SKEWED_SPEEDS)
        imb_a = load_imbalance(dag, after, 4, speeds=SKEWED_SPEEDS)
        assert imb_a < imb_b  # strict: cyclic ignores the skew entirely

    def test_homogeneous_speeds_bit_identical_to_none(self):
        _, dag = _prepared(seed=6)
        place = CyclicPlacement(4)
        np.testing.assert_array_equal(
            balance_loads(dag, place),
            balance_loads(dag, place, speeds=(1.0,) * 4),
        )

    def test_metric_scales_by_speed(self):
        _, dag = _prepared()
        n = len(dag.tasks)
        asg = np.zeros(n, dtype=np.int64)
        # all work on rank 0; making rank 0 twice as fast halves its
        # time, but the mean drops too — ratio must follow the loads
        imb_slow = load_imbalance(dag, asg, 2, speeds=(0.5, 1.0))
        imb_fast = load_imbalance(dag, asg, 2, speeds=(2.0, 1.0))
        assert imb_slow == imb_fast == pytest.approx(2.0)

    def test_speed_length_checked(self):
        _, dag = _prepared()
        with pytest.raises(ValueError, match="rank speeds"):
            load_imbalance(
                dag, np.zeros(len(dag.tasks), dtype=np.int64), 4,
                speeds=(1.0, 2.0),
            )


# ----------------------------------------------------------------------
# ownership verification
# ----------------------------------------------------------------------

class TestOwnershipVerification:
    def test_accepts_any_consistent_map(self):
        bm, dag = _prepared()
        for place in (
            CyclicPlacement(4),
            CostModelPlacement(4, SKEWED_SPEEDS).prepare(dag, bm),
        ):
            report = verify_dag(dag, assignment=place.assign(dag), nprocs=4)
            assert report.n_tasks == len(dag.tasks)

    def test_rejects_split_ownership(self):
        _, dag = _prepared()
        asg = CyclicPlacement(4).assign(dag)
        # move exactly one task of a multi-task block to another rank
        targets = {}
        split = None
        for t in dag.tasks:
            if (t.bi, t.bj) in targets:
                split = t.tid
                break
            targets[(t.bi, t.bj)] = t.tid
        assert split is not None
        asg[split] = (asg[split] + 1) % 4
        with pytest.raises(ScheduleViolation) as exc:
            verify_dag(dag, assignment=asg, nprocs=4)
        assert exc.value.code == "split-ownership"

    def test_balanced_task_map_is_simulator_only(self):
        """The engines run every task on its block's owner; the load
        balancer migrates single tasks, which splits a block's writers
        across ranks — fine for the simulator, not executable."""
        bm, dag = _prepared()
        place = CyclicPlacement(2)
        verify_dag(dag, assignment=place.assign(dag), nprocs=2)
        balanced = balance_loads(
            dag, place, place.assign(dag), weights=task_weights(dag, bm)
        )
        with pytest.raises(ScheduleViolation) as exc:
            verify_dag(dag, assignment=balanced, nprocs=2)
        assert exc.value.code == "split-ownership"

    def test_rejects_out_of_range_rank(self):
        _, dag = _prepared()
        asg = CyclicPlacement(4).assign(dag)
        asg[0] = 7
        with pytest.raises(ScheduleViolation, match="outside the valid"):
            verify_dag(dag, assignment=asg, nprocs=4)

    def test_rejects_wrong_length(self):
        _, dag = _prepared()
        with pytest.raises(ScheduleViolation, match="entries"):
            verify_dag(dag, assignment=np.zeros(3, dtype=np.int64))


# ----------------------------------------------------------------------
# the real engines honour the placement
# ----------------------------------------------------------------------

class TestEnginesHonourPlacement:
    def test_distributed_factor_with_cost_placement(self):
        bm_ref, dag_ref = _prepared(seed=8)
        factorize(bm_ref, dag_ref)
        bm, dag = _prepared(seed=8)
        place = CostModelPlacement(3, (1.0, 1.0, 0.5)).prepare(dag, bm)
        stats = factorize_distributed(
            bm, dag, 3, transport=LoopbackTransport(), placement=place
        )
        np.testing.assert_allclose(
            bm.to_csc().to_dense(), bm_ref.to_csc().to_dense(), atol=1e-10
        )
        assert sum(stats.tasks_per_proc) == len(dag.tasks)

    def test_distributed_rejects_rank_mismatch(self):
        bm, dag = _prepared(seed=8)
        with pytest.raises(ValueError, match="built for"):
            factorize_distributed(
                bm, dag, 4,
                transport=LoopbackTransport(),
                placement=CyclicPlacement(2),
            )

    def test_distributed_tsolve_with_cost_placement(self):
        f = _factored(seed=4)
        b = np.ones(f.n)
        ref, _ = tsolve_sequential(f, b)
        place = CostModelPlacement(3).prepare(blocks=f)
        tdag = build_tsolve_dag(f, place.owner)
        x, stats = tsolve_distributed(
            f, tdag, b, 3,
            transport=LoopbackTransport(), placement=place,
        )
        assert np.array_equal(x, ref)
        assert stats.tasks_executed == len(tdag)

    def test_solver_facade_cost_placement_end_to_end(self):
        a = grid_laplacian_2d(9, 9)
        b = np.ones(a.nrows)
        x_ref = PanguLU(a, SolverOptions(engine="sequential")).solve(b)
        s = PanguLU(a, SolverOptions(
            engine="distributed", nprocs=3,
            placement=CostModelPlacement(3, speeds=(1.0, 1.0, 0.5)),
            verify_schedule=True,
        ))
        x = s.solve(b)
        assert s.placement is not None and s.placement.name == "cost"
        # the map the registry's speed-aware "cost" policy builds
        ref = get_placement("cost", 3, speeds=(1.0, 1.0, 0.5))
        np.testing.assert_array_equal(
            s.placement.assign(s.dag), ref.prepare(s.dag, s.blocks).assign(s.dag)
        )
        np.testing.assert_allclose(x, x_ref, atol=1e-10)


# ----------------------------------------------------------------------
# the hybrid engine: ranks × threads over the shared scheduler core
# ----------------------------------------------------------------------

class TestHybridEngine:
    def test_single_rank_single_thread_bit_identical(self):
        bm_ref, dag_ref = _prepared(seed=1)
        factorize(bm_ref, dag_ref)
        bm, dag = _prepared(seed=1)
        factorize_distributed(
            bm, dag, 1, transport=LoopbackTransport(), n_threads=1
        )
        assert np.array_equal(
            bm.to_csc().to_dense(), bm_ref.to_csc().to_dense()
        )

    @pytest.mark.parametrize("nprocs,n_threads", [(1, 3), (2, 2), (3, 2)])
    def test_factor_matches_sequential(self, nprocs, n_threads):
        bm_ref, dag_ref = _prepared(seed=2)
        factorize(bm_ref, dag_ref)
        bm, dag = _prepared(seed=2)
        stats = factorize_distributed(
            bm, dag, nprocs,
            transport=LoopbackTransport(), n_threads=n_threads,
        )
        np.testing.assert_allclose(
            bm.to_csc().to_dense(), bm_ref.to_csc().to_dense(), atol=1e-10
        )
        assert sum(stats.tasks_per_proc) == len(dag.tasks)

    def test_factor_passes_race_checker(self):
        """Three threads per rank complete every task exactly once (the
        rank cores' guards run on every completion)."""
        bm, dag = _prepared(seed=3)
        stats = factorize_distributed(
            bm, dag, 2,
            transport=LoopbackTransport(), n_threads=3,
        )
        assert sum(stats.tasks_per_proc) == len(dag.tasks)

    def test_rejects_zero_threads(self):
        bm, dag = _prepared(seed=3)
        with pytest.raises(ValueError, match="thread"):
            factorize_distributed(bm, dag, 2, n_threads=0)

    @pytest.mark.parametrize("nrhs", [1, 2])
    def test_tsolve_bit_identical(self, nrhs):
        f = _factored(seed=5)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(f.n if nrhs == 1 else (f.n, nrhs))
        ref, _ = tsolve_sequential(f, b)
        tdag = build_tsolve_dag(
            f, CyclicPlacement(2).owner
        )
        x, stats = tsolve_distributed(
            f, tdag, b, 2,
            transport=LoopbackTransport(), n_threads=3,
        )
        assert np.array_equal(x, ref)
        assert stats.engine == "hybrid"
        assert stats.tasks_executed == len(tdag)

    def test_facade_hybrid_end_to_end(self):
        a = grid_laplacian_2d(9, 9)
        b = np.ones(a.nrows)
        x_ref = PanguLU(a, SolverOptions(engine="sequential")).solve(b)
        s = PanguLU(a, SolverOptions(
            engine="hybrid", nprocs=2, n_workers=2,
        ))
        x = s.solve(b)
        np.testing.assert_allclose(x, x_ref, atol=1e-10)
        fact = s.factorize()
        assert fact.last_tsolve_stats.engine == "hybrid"

    def test_facade_hybrid_with_cost_placement(self):
        a = grid_laplacian_2d(8, 8)
        b = np.ones(a.nrows)
        x_ref = PanguLU(a, SolverOptions(engine="sequential")).solve(b)
        s = PanguLU(a, SolverOptions(
            engine="hybrid", nprocs=2, n_workers=2, placement="cost",
            verify_schedule=True,
        ))
        np.testing.assert_allclose(s.solve(b), x_ref, atol=1e-10)


# ----------------------------------------------------------------------
# policy ABC contract
# ----------------------------------------------------------------------

class TestPolicyContract:
    def test_custom_policy_plugs_in(self):
        """Any single-writer-consistent owner map works end to end —
        the layer is genuinely pluggable, not a two-entry enum."""

        class RowPlacement(PlacementPolicy):
            name = "rows"

            def owner(self, bi, bj):
                return bi % self.nprocs

        bm_ref, dag_ref = _prepared(seed=6)
        factorize(bm_ref, dag_ref)
        bm, dag = _prepared(seed=6)
        place = RowPlacement(3)
        verify_dag(dag, assignment=place.assign(dag), nprocs=3)
        factorize_distributed(
            bm, dag, 3, transport=LoopbackTransport(), placement=place
        )
        np.testing.assert_allclose(
            bm.to_csc().to_dense(), bm_ref.to_csc().to_dense(), atol=1e-10
        )

    def test_abstract_owner_required(self):
        with pytest.raises(TypeError):
            PlacementPolicy(2)  # abstract

"""Tests for the 2D block-cyclic mapping and static load balancing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CyclicPlacement,
    ProcessGrid,
    balance_loads,
    block_partition,
    build_dag,
    load_imbalance,
    task_weights,
)
from repro.sparse import random_sparse
from repro.symbolic import symbolic_symmetric


def _dag(n=80, bs=10, seed=0):
    a = random_sparse(n, 0.06, seed=seed)
    f = symbolic_symmetric(a).filled
    bm = block_partition(f, bs)
    return bm, build_dag(bm)


class TestProcessGrid:
    def test_square_factorisation(self):
        assert ProcessGrid.square(1) == ProcessGrid(1, 1)
        assert ProcessGrid.square(4) == ProcessGrid(2, 2)
        assert ProcessGrid.square(6) == ProcessGrid(2, 3)
        assert ProcessGrid.square(7) == ProcessGrid(1, 7)
        assert ProcessGrid.square(128) == ProcessGrid(8, 16)

    def test_nprocs(self):
        assert ProcessGrid(3, 4).nprocs == 12

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ProcessGrid.square(0)

    def test_block_cyclic_owner(self):
        g = ProcessGrid(2, 2)
        assert g.owner(0, 0) == 0
        assert g.owner(0, 1) == 1
        assert g.owner(1, 0) == 2
        assert g.owner(1, 1) == 3
        assert g.owner(2, 2) == 0  # cycles


class TestAssignment:
    def test_assignment_matches_owner(self):
        _, dag = _dag()
        grid = CyclicPlacement(ProcessGrid.square(4))
        asg = grid.assign(dag)
        for t, p in zip(dag.tasks, asg):
            assert p == grid.owner(t.bi, t.bj)

    def test_assignment_in_range(self):
        _, dag = _dag()
        asg = CyclicPlacement(ProcessGrid.square(6)).assign(dag)
        assert asg.min() >= 0 and asg.max() < 6


class TestBalancing:
    def test_no_change_single_proc(self):
        _, dag = _dag()
        grid = CyclicPlacement(ProcessGrid.square(1))
        asg = balance_loads(dag, grid)
        assert np.all(asg == 0)

    def test_imbalance_not_worse(self):
        _, dag = _dag(seed=3)
        grid = CyclicPlacement(ProcessGrid.square(4))
        before = grid.assign(dag)
        after = balance_loads(dag, grid, before)
        imb_before = load_imbalance(dag, before, 4)
        imb_after = load_imbalance(dag, after, 4)
        assert imb_after <= imb_before + 1e-9

    def test_swaps_preserve_task_partition(self):
        _, dag = _dag(seed=5)
        grid = CyclicPlacement(ProcessGrid.square(4))
        after = balance_loads(dag, grid)
        assert after.shape == (len(dag.tasks),)
        assert after.min() >= 0 and after.max() < 4

    def test_input_not_mutated(self):
        _, dag = _dag(seed=7)
        grid = CyclicPlacement(ProcessGrid.square(4))
        before = grid.assign(dag)
        snapshot = before.copy()
        balance_loads(dag, grid, before)
        np.testing.assert_array_equal(before, snapshot)

    def test_multiple_rounds_allowed(self):
        _, dag = _dag(seed=9)
        grid = CyclicPlacement(ProcessGrid.square(4))
        a1 = balance_loads(dag, grid, max_rounds=1)
        a3 = balance_loads(dag, grid, max_rounds=3)
        assert load_imbalance(dag, a3, 4) <= load_imbalance(dag, a1, 4) + 1e-9


class TestImbalanceMetric:
    def test_perfect_balance(self):
        _, dag = _dag()
        n = len(dag.tasks)
        # everything on one proc of one → 1.0
        assert load_imbalance(dag, np.zeros(n, dtype=np.int64), 1) == 1.0

    def test_all_on_one_of_two(self):
        _, dag = _dag()
        n = len(dag.tasks)
        imb = load_imbalance(dag, np.zeros(n, dtype=np.int64), 2)
        assert imb == pytest.approx(2.0)

    def test_explicit_weights(self):
        _, dag = _dag()
        n = len(dag.tasks)
        assignment = np.arange(n, dtype=np.int64) % 2
        uniform = np.ones(n)
        # with uniform weights the metric is a pure task count ratio
        expected = 2 * max(np.bincount(assignment, minlength=2)) / n
        assert load_imbalance(
            dag, assignment, 2, weights=uniform
        ) == pytest.approx(expected)


class TestTaskWeights:
    def test_every_task_visible(self):
        # zero-flop tasks must still carry weight: a pure-FLOP balancer
        # treats them as free and the imbalance metric under-reports
        bm, dag = _dag()
        w = task_weights(dag, bm)
        assert w.shape == (len(dag.tasks),)
        assert np.all(w >= 1.0)

    def test_floor_is_block_traffic(self):
        bm, dag = _dag()
        w = task_weights(dag, bm)
        flops = np.asarray([t.flops for t in dag.tasks], dtype=np.float64)
        assert np.all(w >= flops)
        for i, t in enumerate(dag.tasks):
            blk = bm.block(t.bi, t.bj)
            assert w[i] >= 2.0 * blk.nnz

    def test_without_structure_unit_floor(self):
        _, dag = _dag()
        w = task_weights(dag)
        flops = np.asarray([t.flops for t in dag.tasks], dtype=np.float64)
        np.testing.assert_array_equal(w, np.maximum(flops, 1.0))

    def test_balancer_accepts_weights(self):
        bm, dag = _dag()
        grid = CyclicPlacement(ProcessGrid.square(4))
        w = task_weights(dag, bm)
        a0 = grid.assign(dag)
        a1 = balance_loads(dag, grid, a0, weights=w)
        before = load_imbalance(dag, a0, 4, weights=w)
        after = load_imbalance(dag, a1, 4, weights=w)
        assert after <= before + 1e-9

    def test_bare_process_grid_is_refused(self):
        # a grid is the P × Q shape inside CyclicPlacement, not an owner
        # map: every function that takes one takes a PlacementPolicy
        _, dag = _dag()
        grid = ProcessGrid.square(4)
        with pytest.raises(TypeError, match=r"CyclicPlacement\(grid\)"):
            balance_loads(dag, grid)
        with pytest.raises(TypeError, match="got ProcessGrid"):
            balance_loads(dag, grid, CyclicPlacement(grid).assign(dag))

    def test_weights_length_checked(self):
        _, dag = _dag()
        grid = CyclicPlacement(ProcessGrid.square(4))
        with pytest.raises(ValueError, match="one entry per task"):
            balance_loads(dag, grid, weights=np.ones(3))

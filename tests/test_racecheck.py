"""Tests of the counter protocol's race checks, which every run performs.

:meth:`SchedulerCore.complete` refuses a second completion of a task
before any counter moves, and refuses a counter below zero;
:meth:`SchedulerCore.check`, which ends every ``run_lanes`` call, names
any owned task that never completed.  Together they make "every task
completes exactly once" hold on every engine — a duplicate message
delivered by the loopback transport (``FaultPlan.duplicate_from``) is the
receiving rank's error, not silent corruption.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.core.dag import TaskDAG
from repro.core.solver import PanguLU, SolverOptions
from repro.runtime import factorize_distributed
from repro.runtime.scheduler import CounterUnderflowError, SchedulerCore
from repro.runtime.transports import FaultPlan, LoopbackTransport
from repro.sparse import grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric


def _prepared(n=80, bs=12, seed=0):
    a = random_sparse(n, 0.06, seed=seed)
    f = symbolic_symmetric(a).filled
    bm = block_partition(f, bs)
    return bm, build_dag(bm)


class _Stub:
    def __init__(self, tid, k, ttype, successors, n_deps):
        self.tid, self.k, self.ttype = tid, k, ttype
        self.successors, self.n_deps = successors, n_deps


def _stub_dag(tasks):
    return TaskDAG(tasks, {}, 0)


def _chain(n):
    return _stub_dag([
        _Stub(i, i, 0, [i + 1] if i + 1 < n else [], 0 if i == 0 else 1)
        for i in range(n)
    ])


def _join(lane=0):
    """Three tasks, ``0 → 2 ← 1``: task 2 waits on two predecessors."""
    return SchedulerCore(
        [(0, 0, 0), (0, 0, 1), (1, 0, 2)], [[2], [2], []],
        np.array([0, 0, 2]), lane=lane,
    )


# ----------------------------------------------------------------------
# exactly once, no re-issue, nothing dropped — on every core
# ----------------------------------------------------------------------

class TestRaceChecker:
    """The checks ``SchedulerCore`` runs on every completion and at the
    end of every drain."""

    def test_duplicate_completion(self):
        core = _join(lane=3)
        assert core.pop() == 0
        core.complete(0)
        counters, ready = core.counters.copy(), list(core.ready)
        with pytest.raises(CounterUnderflowError) as exc:
            core.complete(0)  # would release task 2 before task 1 ran
        msg = str(exc.value)
        assert "task 0 completed twice" in msg and "lane 3" in msg
        # the refused call moved nothing
        np.testing.assert_array_equal(core.counters, counters)
        assert core.ready == ready and core.executed == 1

    def test_reissue_detection(self):
        core = _join()
        core.complete(core.pop())
        with pytest.raises(CounterUnderflowError):
            core.complete(0)
        # task 2 becomes ready once, when its last predecessor completes
        assert [core.pop(), core.pop()] == [1, None]
        core.complete(1)
        assert [core.pop(), core.pop()] == [2, None]
        core.complete(2)
        core.check("unit")

    def test_final_check_reports_dropped_completion(self):
        core = SchedulerCore.from_dag(_chain(2))
        assert core.pop() == 0
        # never complete it: the completion message was "dropped"
        with pytest.raises(RuntimeError, match=r"task 0 \(counter=0"):
            core.check("drop")

    def test_final_check_reports_missing_owned_tasks(self):
        core = SchedulerCore.from_dag(_chain(3))
        core.complete(core.pop())  # t0 done, t1 and t2 never run
        with pytest.raises(RuntimeError, match="executed 1 of 3") as exc:
            core.check("stuck")
        assert "task 1 (counter=0" in str(exc.value)
        assert "task 2 (counter=1" in str(exc.value)

    def test_final_check_clean_after_full_drain(self):
        core = SchedulerCore.from_dag(_chain(4))
        while (tid := core.pop()) is not None:
            core.complete(tid)
        core.check("unit")  # no violation
        assert core.done()


# ----------------------------------------------------------------------
# the counter underflow guard (SchedulerCore.complete)
# ----------------------------------------------------------------------

class TestCounterUnderflow:
    def test_duplicate_completion_raises_diagnostic(self):
        core = SchedulerCore.from_dag(_chain(2))
        core.complete(0)
        with pytest.raises(CounterUnderflowError) as exc:
            core.complete(0)  # refused before t1's counter reaches −1
        msg = str(exc.value)
        assert "task 0 completed twice (lane 0)" in msg
        assert "duplicate message delivery or double execution" in msg
        assert core.counters.tolist() == [0, 0]

    def test_counter_below_in_degree_raises_diagnostic(self):
        # a corrupted DAG: task 1 claims no predecessor but has one
        core = SchedulerCore([(0, 0, 0), (1, 0, 1)], [[1], []], np.zeros(2))
        with pytest.raises(CounterUnderflowError) as exc:
            core.complete(0)
        msg = str(exc.value)
        assert "completion of task 0" in msg
        assert "task 1" in msg and "-1" in msg
        assert "corrupted DAG" in msg

    def test_legitimate_completions_never_trip_it(self):
        core = SchedulerCore.from_dag(_chain(5))
        while (tid := core.pop()) is not None:
            core.complete(tid)
        core.check("unit")
        assert np.all(core.counters == 0)


class TestPlumbing:
    """No option turns the checks on: the facade runs them on every
    engine."""

    @pytest.mark.parametrize("engine", ["sequential", "threaded"])
    def test_solver_validate_concurrency_end_to_end(self, engine, monkeypatch):
        with pytest.raises(TypeError):
            SolverOptions(validate_concurrency=True)  # no switch to set
        a = grid_laplacian_2d(12, 12)
        opts = SolverOptions(engine=engine, n_workers=3)
        b = np.ones(a.nrows)
        x = PanguLU(a, opts).solve(b)
        assert float(np.linalg.norm(a.matvec(x) - b)) < 1e-8

        # the same facade path refuses a task that runs twice
        from_dag = SchedulerCore.from_dag.__func__

        def doubled(cls, dag, **kw):
            core = from_dag(cls, dag, **kw)
            heapq.heappush(core.ready, core.ready[0])
            return core

        monkeypatch.setattr(SchedulerCore, "from_dag", classmethod(doubled))
        with pytest.raises(CounterUnderflowError, match="completed twice"):
            PanguLU(a, opts).solve(b)


def test_threaded_clean_run_with_real_locks_and_checker():
    bm, dag = _prepared(seed=1)
    ref, _ = _prepared(seed=1)
    factorize(ref, build_dag(ref))
    stats = factorize(bm, dag, n_lanes=4)
    assert stats.tasks_executed == len(dag.tasks)
    np.testing.assert_array_equal(
        bm.to_csc().to_dense(), ref.to_csc().to_dense()
    )


# ----------------------------------------------------------------------
# duplicate message delivery under the loopback transport
# ----------------------------------------------------------------------

def test_faultplan_duplicate_from_delivers_twice():
    t = LoopbackTransport(faults=FaultPlan(duplicate_from=frozenset({0})))

    def target(rank, endpoint):
        if rank == 0:
            endpoint.send(1, "blk")
            endpoint.post_result(("done", rank))
        else:
            msgs = [endpoint.recv(), endpoint.recv()]
            endpoint.post_result(("got", msgs))

    t.start(2, target, lambda rank: ())
    results = [t.get_result(10.0) for _ in range(2)]
    t.join()
    got = next(r for r in results if r[0] == "got")
    assert got[1] == ["blk", "blk"]


def _duplicated_run(seed=2):
    bm, dag = _prepared(seed=seed)
    transport = LoopbackTransport(
        faults=FaultPlan(duplicate_from=frozenset({0, 1}))
    )
    with pytest.raises(RuntimeError) as exc:
        factorize_distributed(bm, dag, 2, transport=transport, timeout=30.0)
    return str(exc.value)


def test_distributed_detector_catches_duplicate_delivery():
    msg = _duplicated_run()
    assert "completed twice" in msg       # the core's verdict
    assert "rank" in msg                  # with rank provenance
    assert "duplicate message" in msg


def test_distributed_duplicate_delivery_trips_underflow_without_checker():
    # the rank posts the core's own exception, type included
    assert "CounterUnderflowError" in _duplicated_run()


def test_distributed_clean_run_under_validation():
    bm, dag = _prepared(seed=3)
    ref, _ = _prepared(seed=3)
    factorize(ref, build_dag(ref))
    stats = factorize_distributed(bm, dag, 3, transport=LoopbackTransport())
    assert sum(stats.tasks_per_proc) == len(dag.tasks)
    np.testing.assert_array_equal(
        bm.to_csc().to_dense(), ref.to_csc().to_dense()
    )

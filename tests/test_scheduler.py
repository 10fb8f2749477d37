"""Unit tests for the shared scheduler core and the event recorder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.core.dag import TaskDAG
from repro.runtime import EventRecorder, RunReport, SchedulerCore, ready_entry
from repro.sparse import random_sparse
from repro.symbolic import symbolic_symmetric


def _prepared(n=80, bs=12, seed=0):
    a = random_sparse(n, 0.06, seed=seed)
    f = symbolic_symmetric(a).filled
    bm = block_partition(f, bs)
    return bm, build_dag(bm)


class _Stub:
    """Minimal task shape for hand-built DAG tests."""

    def __init__(self, tid, k, ttype, successors, n_deps):
        self.tid, self.k, self.ttype = tid, k, ttype
        self.successors, self.n_deps = successors, n_deps


def _stub_dag(tasks):
    return TaskDAG(tasks, {}, 0)


def _chain(n):
    """t0 → t1 → … → t(n−1)."""
    return _stub_dag([
        _Stub(i, i, 0, [i + 1] if i + 1 < n else [], 0 if i == 0 else 1)
        for i in range(n)
    ])


class TestSchedulerCore:
    def test_drains_in_priority_order(self):
        # two roots at steps 3 and 1: the step-1 task must pop first
        dag = _stub_dag([
            _Stub(0, 3, 0, [], 0),
            _Stub(1, 1, 0, [], 0),
        ])
        core = SchedulerCore.from_dag(dag)
        assert core.pop() == 1
        assert core.pop() == 0
        assert core.pop() is None

    def test_kernel_class_breaks_step_ties(self):
        # same k: GETRF (class 0) before SSSSM (class 3)
        dag = _stub_dag([
            _Stub(0, 0, 3, [], 0),
            _Stub(1, 0, 0, [], 0),
        ])
        core = SchedulerCore.from_dag(dag)
        assert core.pop() == 1

    def test_complete_releases_successors(self):
        core = SchedulerCore.from_dag(_chain(3))
        assert core.pop() == 0
        assert core.pop() is None        # t1 not released yet
        assert core.complete(0) == 1     # exactly one newly ready
        assert core.pop() == 1
        core.complete(1)
        assert core.pop() == 2
        core.complete(2)
        assert core.done()
        core.check()                     # no deadlock

    def test_deadlock_detected(self):
        core = SchedulerCore.from_dag(_chain(2))
        core.pop()                       # popped but never completed
        with pytest.raises(RuntimeError, match="deadlock"):
            core.check("unit")

    def test_check_names_the_blocked_frontier(self):
        # chain of 3; t0 completes, t1 pops but never completes — t1 is
        # stuck ready (counter 0) and t2 is waiting on it (counter 1)
        core = SchedulerCore.from_dag(_chain(3), lane=4)
        assert core.pop() == 0
        core.complete(0)
        assert core.pop() == 1           # popped, never completed
        assert core.blocked_frontier() == [(1, 0), (2, 1)]
        with pytest.raises(RuntimeError) as exc:
            core.check("threaded")
        msg = str(exc.value)
        assert "threaded deadlock: executed 1 of 3 tasks" in msg
        assert "task 1 (counter=0, lane 4)" in msg
        assert "task 2 (counter=1, lane 4)" in msg
        assert "counter=0 = ready but never scheduled" in msg

    def test_frontier_is_capped_and_counts_overflow(self):
        # twelve independent roots, none executed: the frontier lists
        # the first eight and the message counts the remainder
        dag = _stub_dag([_Stub(i, i, 0, [], 0) for i in range(12)])
        core = SchedulerCore.from_dag(dag)
        assert len(core.blocked_frontier()) == 8
        assert core.blocked_frontier(limit=3) == [(0, 0), (1, 0), (2, 0)]
        with pytest.raises(RuntimeError, match=r"… 4 more"):
            core.check("unit")

    def test_frontier_respects_ownership(self):
        # rank owns 1 and 3 of a 4-chain; only owned pending tasks show
        core = SchedulerCore.from_dag(_chain(4), owned=[1, 3])
        core.complete(0)                 # remote predecessor message
        assert core.blocked_frontier() == [(1, 0), (3, 1)]
        assert core.pop() == 1
        core.complete(1)
        assert core.blocked_frontier() == [(3, 1)]

    def test_owned_subset_counts_only_local_work(self):
        # chain of 4; this "rank" owns tasks 1 and 3
        core = SchedulerCore.from_dag(_chain(4), owned=[1, 3])
        assert core.n_owned == 2
        assert core.pop() is None        # t1 blocked on remote t0
        core.complete(0)                 # remote predecessor message
        assert core.remaining == 2       # remote work doesn't count
        assert core.pop() == 1
        core.complete(1)
        core.complete(2)                 # remote again
        assert core.pop() == 3
        core.complete(3)
        assert core.done()
        core.check()

    def test_owned_core_keeps_only_owned_successors(self):
        # a rank never touches a counter it does not own: the foreign
        # successors are dropped when the core is built
        core = SchedulerCore.from_dag(_chain(4), owned=[1, 3])
        assert core.successors == [[1], [], [3], []]
        assert isinstance(core.counters, np.ndarray)
        assert core.counters.tolist() == [0, 1, 1, 1]
        assert core.complete(0) == 1
        assert core.complete(1) == 0     # its successor is another rank's
        assert core.counters.tolist() == [0, 0, 1, 1]

    def test_vectorised_decrement_matches_full_run(self):
        bm, dag = _prepared()
        core = SchedulerCore.from_dag(dag)
        order = []
        while (tid := core.pop()) is not None:
            order.append(tid)
            core.complete(tid)
        core.check()
        assert sorted(order) == list(range(len(dag.tasks)))
        # priority invariant: a task never runs before a same-heap entry
        # that was ready strictly earlier with a smaller key — spot-check
        # the first popped task is a minimal root
        roots = dag.roots()
        entries = {ready_entry(dag.tasks[t], t): t for t in roots}
        assert order[0] == entries[min(entries)]

    def test_max_ready_depth_tracked(self):
        bm, dag = _prepared()
        core = SchedulerCore.from_dag(dag)
        while (tid := core.pop()) is not None:
            core.complete(tid)
        assert core.max_ready_depth >= 1


class TestRunReport:
    def test_merge(self):
        total = RunReport(n_workers=2, n_procs=3, nrhs=4, seconds=1.0)
        w1 = RunReport(messages_sent=2, bytes_sent=80, max_ready_depth=3,
                       seconds_by_type={"GETRF": 0.5}, flops_total=10,
                       blocks_compressed=1, lr_value_bytes=64, plan_bytes=8)
        w2 = RunReport(messages_sent=1, bytes_sent=16, max_ready_depth=5,
                       seconds_by_type={"GETRF": 0.25, "SSSSM": 1.0},
                       flops_total=5, n_workers=7, n_procs=7, nrhs=7,
                       seconds=7.0)
        w1.count(0, "getrf/a", 1, True)
        w2.count(1, "ssssm/b", 0, False)
        w2.count(2)                      # a solve task: no kernel label
        total.merge(w1)
        total.merge(w2)
        assert total.tasks_executed == 3
        assert total.pivots_replaced == 1
        assert total.planned_tasks == 1
        assert total.kernel_choices == {0: "getrf/a", 1: "ssssm/b"}
        # messages and bytes merge like every other counter
        assert (total.messages_sent, total.bytes_sent) == (3, 96)
        assert total.block_bytes_sent == total.seg_bytes_sent == 96
        assert total.seconds_by_type == {"GETRF": 0.75, "SSSSM": 1.0}
        assert total.max_ready_depth == 5
        assert (total.flops_total, total.plan_bytes) == (15, 8)
        assert (total.blocks_compressed, total.lr_value_bytes) == (1, 64)
        # the pool shape and wall-clock belong to whoever launched the run
        assert (total.n_workers, total.n_procs, total.nrhs) == (2, 3, 4)
        assert total.seconds == 1.0

    @pytest.mark.parametrize("n_workers,tasks_per_proc,engine", [
        (1, [], "sequential"), (3, [], "threaded"),
        (1, [4, 5], "distributed"), (2, [4, 5], "hybrid"),
    ])
    def test_engine_label_follows_the_pool_shape(
        self, n_workers, tasks_per_proc, engine
    ):
        report = RunReport(n_workers=n_workers, tasks_per_proc=tasks_per_proc)
        assert report.engine == engine


class TestEventRecorder:
    def test_empty_recorder_is_truthy(self):
        # engines gate hot-path timing on `if recorder:` — an armed but
        # still-empty recorder must not read as "no recorder"
        assert bool(EventRecorder())
        assert len(EventRecorder()) == 0

    def test_sequential_run_records_every_task(self):
        bm, dag = _prepared(seed=2)
        rec = EventRecorder()
        stats = factorize(bm, dag, recorder=rec)
        assert len(rec.task_events) == stats.tasks_executed
        assert len(rec.depth_events) == stats.tasks_executed
        assert all(e.t1 >= e.t0 for e in rec.task_events)
        cats = {e.cat for e in rec.task_events}
        assert "GETRF" in cats

    def test_merge_and_pickle(self):
        import pickle

        a, b = EventRecorder(), EventRecorder()
        a.task(0, "x", "GETRF", 0.0, 1.0, tid=0)
        b.send(1, 0, 5, 128)
        b.recv(0, 1, 5, 128)
        a.merge(pickle.loads(pickle.dumps(b)))
        assert len(a.task_events) == 1
        assert len(a.message_events) == 2


class TestEnginesAgree:
    """The acceptance cross-check: every registered engine produces the
    sequential factors through the one shared scheduler core."""

    def test_all_engines_match_sequential(self):
        from repro.runtime import get_engine
        from repro import SolverOptions

        bm_ref, dag_ref = _prepared(seed=5)
        factorize(bm_ref, dag_ref)
        ref = bm_ref.to_csc().to_dense()
        for name in ("sequential", "threaded", "distributed"):
            bm, dag = _prepared(seed=5)
            opts = SolverOptions(n_workers=3, nprocs=2)
            stats = get_engine(name)(bm, dag, opts)
            np.testing.assert_array_equal(
                bm.to_csc().to_dense(), ref, err_msg=name
            )
            assert stats.tasks_executed == len(dag.tasks), name

    def test_unknown_engine_rejected(self):
        from repro.runtime import get_engine

        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("warp-drive")

"""Tests of the runtime race / invariant detector (`repro.devtools.racecheck`).

The detector must (a) stay silent on correct runs of every engine, and
(b) catch deliberately injected protocol violations — a double writer
under the threaded engine (per-block locks disabled), duplicate message
delivery under the loopback transport (``FaultPlan.duplicate_from``),
and dropped completions — reporting *which* tasks and workers collided.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.core.dag import Task, TaskDAG, TaskType
from repro.core.solver import PanguLU, SolverOptions
from repro.kernels.registry import KERNEL_REGISTRY, KernelType
from repro.devtools.racecheck import (
    CheckedSchedulerCore,
    ConcurrencyViolation,
    RaceChecker,
    validation_enabled,
)
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


# ----------------------------------------------------------------------
# RaceChecker unit behaviour
# ----------------------------------------------------------------------

class TestRaceChecker:
    def test_double_writer_names_both_parties(self):
        c = RaceChecker(label="unit")
        c.begin_write(slot=7, tid=3, worker=0)
        with pytest.raises(ConcurrencyViolation) as exc:
            c.begin_write(slot=7, tid=5, worker=2)
        msg = str(exc.value)
        assert "slot 7" in msg
        assert "task 5" in msg and "worker 2" in msg  # the intruder
        assert "task 3" in msg and "worker 0" in msg  # the holder
        assert c.violations  # kept for post-mortems

    def test_distinct_slots_do_not_collide(self):
        c = RaceChecker()
        c.begin_write(1, tid=0, worker=0)
        c.begin_write(2, tid=1, worker=1)
        c.end_write(1, tid=0, worker=0)
        c.end_write(2, tid=1, worker=1)
        c.begin_write(1, tid=2, worker=1)  # slot free again
        c.end_write(1, tid=2, worker=1)

    def test_unbalanced_release(self):
        c = RaceChecker()
        with pytest.raises(ConcurrencyViolation, match="unbalanced"):
            c.end_write(4, tid=0, worker=0)

    def test_duplicate_completion(self):
        c = RaceChecker()
        c.on_complete(9, worker=1)
        with pytest.raises(ConcurrencyViolation) as exc:
            c.on_complete(9, worker=3)
        assert "completed twice" in str(exc.value)
        assert "worker 1" in str(exc.value) and "worker 3" in str(exc.value)

    def test_reissue_detection(self):
        c = RaceChecker()
        c.on_pop(2, worker=0)
        with pytest.raises(ConcurrencyViolation, match="issued twice"):
            c.on_pop(2, worker=1)
        c2 = RaceChecker()
        c2.on_pop(4, worker=0)
        c2.on_complete(4, worker=0)
        with pytest.raises(ConcurrencyViolation, match="re-issued finished"):
            c2.on_pop(4, worker=1)

    def test_final_check_reports_dropped_completion(self):
        checker = RaceChecker(label="drop")
        core = CheckedSchedulerCore.from_dag(_chain(2), checker=checker)
        tid = core.pop()
        assert tid == 0
        # never complete it: the completion message was "dropped"
        with pytest.raises(ConcurrencyViolation, match="never completed"):
            checker.final_check(core)

    def test_final_check_reports_missing_owned_tasks(self):
        checker = RaceChecker(label="stuck")
        core = CheckedSchedulerCore.from_dag(_chain(3), checker=checker)
        core.complete(core.pop())  # t0 done, t1 and t2 never run
        with pytest.raises(ConcurrencyViolation, match="of 3 owned"):
            checker.final_check(core)

    def test_final_check_clean_after_full_drain(self):
        checker = RaceChecker()
        core = CheckedSchedulerCore.from_dag(_chain(4), checker=checker)
        while (tid := core.pop()) is not None:
            core.complete(tid)
        checker.final_check(core)  # no violation
        assert checker.violations == []


# ----------------------------------------------------------------------
# the always-on counter underflow guard (SchedulerCore.complete)
# ----------------------------------------------------------------------

class TestCounterUnderflow:
    def test_duplicate_completion_raises_diagnostic(self):
        core = SchedulerCore.from_dag(_chain(2))
        core.complete(0)
        with pytest.raises(CounterUnderflowError) as exc:
            core.complete(0)  # t1's counter would go to −1
        msg = str(exc.value)
        assert "completion of task 0" in msg
        assert "task 1" in msg and "-1" in msg
        assert "more than once" in msg

    def test_legitimate_completions_never_trip_it(self):
        core = SchedulerCore.from_dag(_chain(5))
        while (tid := core.pop()) is not None:
            core.complete(tid)
        core.check("unit")
        assert np.all(core.counters == 0)


# ----------------------------------------------------------------------
# injected double writer under the threaded engine
# ----------------------------------------------------------------------

class _NoopLock:
    """A 'lock' that serialises nothing — simulates broken per-block
    locking so two workers write the same block concurrently."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_threaded_detector_catches_double_writer(monkeypatch):
    from repro.core.dag import TaskDAG
    from repro.devtools import racecheck

    bm, _ = _prepared()
    # two independent root tasks targeting the SAME block (0, 0)
    dag = TaskDAG([
        Task(0, TaskType.GETRF, 0, 0, 0, flops=1),
        Task(1, TaskType.GETRF, 0, 0, 0, flops=1),
    ], {}, 2)

    collided = threading.Event()

    class SignallingChecker(RaceChecker):
        def begin_write(self, slot, tid, worker):
            try:
                super().begin_write(slot, tid, worker)
            except ConcurrencyViolation:
                collided.set()  # release the first writer
                raise

    def fake_getrf(a, ws, **kwargs):
        # hold the block until the second writer collides (bounded wait
        # so a regression fails the test instead of hanging it)
        collided.wait(timeout=10)
        return 0

    monkeypatch.setattr("repro.runtime.lanes._make_slot_locks",
                        lambda n: [_NoopLock() for _ in range(n)])
    # the job reaches a kernel through its registry entry, nothing else
    for version in KERNEL_REGISTRY[KernelType.GETRF]:
        monkeypatch.setitem(KERNEL_REGISTRY[KernelType.GETRF], version, fake_getrf)

    with pytest.raises(ConcurrencyViolation) as exc:
        factorize(
            bm, dag, n_lanes=2, checker=SignallingChecker(label="threaded")
        )
    msg = str(exc.value)
    assert "double writer" in msg
    assert "task 0" in msg and "task 1" in msg  # both tasks named
    assert collided.is_set()

    # the hybrid configuration runs the same lanes behind the same lock
    # seam: one rank, two compute threads, the rank's own checker
    collided.clear()
    monkeypatch.setattr(racecheck, "RaceChecker", SignallingChecker)
    with pytest.raises(RuntimeError, match="rank 0.*double writer") as exc:
        factorize_distributed(
            bm, dag, 1, transport=LoopbackTransport(), n_threads=2,
            validate=True, timeout=30.0,
        )
    assert "task 0" in str(exc.value) and "task 1" in str(exc.value)
    assert collided.is_set()


def test_threaded_clean_run_with_real_locks_and_checker():
    bm, dag = _prepared(seed=1)
    ref, _ = _prepared(seed=1)
    factorize(ref, build_dag(ref))
    checker = RaceChecker(label="threaded")
    stats = factorize(bm, dag, n_lanes=4, checker=checker)
    assert stats.tasks_executed == len(dag.tasks)
    assert checker.violations == []
    np.testing.assert_allclose(
        bm.to_csc().to_dense(), ref.to_csc().to_dense(), atol=1e-10
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


def test_distributed_detector_catches_duplicate_delivery():
    bm, dag = _prepared(seed=2)
    transport = LoopbackTransport(
        faults=FaultPlan(duplicate_from=frozenset({0, 1}))
    )
    with pytest.raises(RuntimeError) as exc:
        factorize_distributed(
            bm, dag, 2, transport=transport, validate=True, timeout=30.0
        )
    msg = str(exc.value)
    assert "completed twice" in msg       # the checker's verdict
    assert "rank" in msg                  # with rank provenance
    assert "duplicate message" in msg


def test_distributed_duplicate_delivery_trips_underflow_without_checker():
    # even with validation off, the always-on counter guard (or the
    # teardown path) refuses to deliver a silently corrupted result
    bm, dag = _prepared(seed=2)
    transport = LoopbackTransport(
        faults=FaultPlan(duplicate_from=frozenset({0, 1}))
    )
    with pytest.raises(RuntimeError):
        factorize_distributed(
            bm, dag, 2, transport=transport, timeout=30.0
        )


def test_distributed_clean_run_under_validation():
    bm, dag = _prepared(seed=3)
    ref, _ = _prepared(seed=3)
    factorize(ref, build_dag(ref))
    stats = factorize_distributed(
        bm, dag, 3, transport=LoopbackTransport(), validate=True
    )
    assert sum(stats.tasks_per_proc) == len(dag.tasks)
    np.testing.assert_allclose(
        bm.to_csc().to_dense(), ref.to_csc().to_dense(), atol=1e-10
    )


# ----------------------------------------------------------------------
# option / environment plumbing
# ----------------------------------------------------------------------

class TestPlumbing:
    def test_validation_enabled_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert not validation_enabled()
        assert not validation_enabled(SolverOptions())
        assert validation_enabled(SolverOptions(validate_concurrency=True))
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert validation_enabled()
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert not validation_enabled()

    def test_sequential_factorize_accepts_checker(self):
        bm, dag = _prepared(seed=4)
        checker = RaceChecker(label="sequential")
        factorize(bm, dag, checker=checker)
        assert checker.violations == []

    @pytest.mark.parametrize("engine", ["sequential", "threaded"])
    def test_solver_validate_concurrency_end_to_end(self, engine):
        a = grid_laplacian_2d(12, 12)
        solver = PanguLU(
            a,
            SolverOptions(
                engine=engine, n_workers=3, validate_concurrency=True
            ),
        )
        b = np.ones(a.nrows)
        x = solver.solve(b)
        assert float(np.linalg.norm(a.matvec(x) - b)) < 1e-8

    def test_env_var_drives_engines(self, monkeypatch):
        calls = []
        import repro.runtime.engines as engines_mod
        from repro.devtools import racecheck

        orig = racecheck.RaceChecker

        class Spy(orig):
            def __init__(self, *a, **kw):
                calls.append(kw.get("label"))
                super().__init__(*a, **kw)

        monkeypatch.setattr(racecheck, "RaceChecker", Spy)
        monkeypatch.setenv("REPRO_CHECK", "1")
        bm, dag = _prepared(seed=5)
        engine = engines_mod.get_engine("threaded")

        class _Opts:
            numeric = None
            n_workers = 2
            validate_concurrency = False

        engine(bm, dag, _Opts())
        assert calls == ["threaded"]

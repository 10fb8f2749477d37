"""Resident ranks (`repro.runtime.distributed.RankPool`): a handle on a
rank engine forks its ranks once, at ``factorize``, and keeps the factors
on them across solves and refactorisations.

Every lifecycle path — ``close()``, ``with`` exit, garbage collection,
interpreter exit, a SIGKILLed master — leaves no rank process or thread
behind, and a fault in the *second* command of a live pool (a solve after
the factorisation) is a named ``RuntimeError`` within the timeout, never
a hang.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro import PanguLU, SolverOptions
from repro.core import block_partition, build_dag
from repro.core.placement import CyclicPlacement
from repro.core.tsolve import tsolve_sequential
from repro.core.tsolve_dag import build_tsolve_dag
from repro.runtime import (
    FaultPlan,
    LoopbackTransport,
    RankPool,
    factorize_distributed,
    tsolve_distributed,
)
from repro.sparse import grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric

SRC = Path(__file__).resolve().parents[1] / "src"


def _prepared(seed=0):
    a = random_sparse(80, 0.06, seed=seed)
    bm = block_partition(symbolic_symmetric(a).filled, 12)
    return bm, build_dag(bm)


def _running(pid: int) -> bool:
    """``pid`` exists and is not a zombie (an exited rank that a
    re-parenting init has not reaped yet is gone all the same)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in ("Z", "X")


def _wait_gone(pids, seconds: float) -> list[int]:
    """The pids still running after up to ``seconds``."""
    deadline = time.monotonic() + seconds
    while (alive := [p for p in pids if _running(p)]) and time.monotonic() < deadline:
        time.sleep(0.05)
    return alive


def _rank_handle(engine="distributed", **kw):
    a = grid_laplacian_2d(12, 12)
    b = np.linspace(1.0, 2.0, a.nrows)
    solver = PanguLU(a, SolverOptions(engine=engine, nprocs=2, **kw))
    return solver, solver.factorize(), b


# ----------------------------------------------------------------------
# one fork per factorisation; factors home only when read
# ----------------------------------------------------------------------

def test_solves_and_refactorisations_reuse_the_ranks():
    solver, fact, b = _rank_handle()
    pids = fact._pool.transport.pids
    x = fact.solve(b)
    fact.refactorize(solver.a)
    fact.solve_transposed(b)
    fact.solve(np.column_stack([b, b]))
    assert fact._pool.transport.pids == pids
    assert np.array_equal(fact.solve(b), x)
    assert solver.residual_norm(x, b) < 1e-12
    fact.close()


def test_ranks_solve_bit_identically_to_the_replay_of_gathered_factors():
    """The resident ranks' solve is the one-lane replay on the same
    factors, and the gathered factors are the one-shot path's to rounding."""
    bm, dag = _prepared(seed=3)
    one_shot, _ = _prepared(seed=3)
    factorize_distributed(one_shot, dag, 3, transport=LoopbackTransport())
    pool = RankPool()
    factorize_distributed(bm, dag, 3, pool=pool)
    tdag = build_tsolve_dag(bm, CyclicPlacement(3).owner)
    b = np.random.default_rng(1).standard_normal((bm.n, 2))
    x, report = tsolve_distributed(bm, tdag, b, 3, pool=pool)
    assert report.engine == "distributed" and report.tasks_executed == len(tdag)
    pool.close(bm)
    ref, _ = tsolve_sequential(bm, b)
    assert np.array_equal(x, ref)
    np.testing.assert_array_equal(
        bm.to_csc().to_dense(), one_shot.to_csc().to_dense()
    )


def test_refactorize_ships_values_to_the_open_pool():
    a = grid_laplacian_2d(10, 10)
    b = np.ones(a.nrows)
    fact = PanguLU(a, SolverOptions(engine="hybrid", nprocs=2, n_workers=2)).factorize()
    a2 = a.scale(np.linspace(1.0, 2.0, a.nrows), np.ones(a.ncols))
    fact.refactorize(a2)
    x = fact.solve(b)
    assert np.abs(a2.matvec(x) - b).max() < 1e-10
    with fact:
        pass
    seq = PanguLU(a).factorize()  # the same analysis, refactorised in place
    seq.refactorize(a2)
    np.testing.assert_array_equal(
        fact.blocks.to_csc().to_dense(), seq.blocks.to_csc().to_dense()
    )


def test_pickling_gathers_and_drops_the_pool():
    solver, fact, b = _rank_handle()
    x = fact.solve(b)
    clone = pickle.loads(pickle.dumps(fact))
    assert not fact._pool.is_open and not multiprocessing.active_children()
    clone.options.engine = "sequential"
    assert np.array_equal(clone.solve(b), x)
    assert solver.lu_product_error() < 1e-12


def test_reading_blocks_gathers_and_keeps_the_ranks():
    solver, fact, _ = _rank_handle()
    seq = PanguLU(solver.a).factorize()  # the same analysis, one lane
    np.testing.assert_array_equal(
        solver.blocks.to_csc().to_dense(), seq.blocks.to_csc().to_dense()
    )
    assert fact._pool.is_open
    assert solver.lu_product_error() < 1e-12
    fact.close()


# ----------------------------------------------------------------------
# lifecycle: no rank outlives its handle
# ----------------------------------------------------------------------

def test_close_stops_the_ranks_and_the_handle_stays_usable():
    solver, fact, b = _rank_handle()
    pids = fact._pool.transport.pids
    x = fact.solve(b)
    fact.close()
    assert not multiprocessing.active_children()
    assert _wait_gone(pids, 2.0) == []
    assert np.array_equal(fact.solve(b), x)  # a fresh pool from the gathered factors
    fact.close()


def test_with_exit_stops_the_ranks():
    _, fact, b = _rank_handle(engine="hybrid", n_workers=2)
    with fact:
        fact.solve(b)
        pids = fact._pool.transport.pids
    assert not multiprocessing.active_children()
    assert _wait_gone(pids, 2.0) == []


def test_collected_handle_stops_its_ranks():
    solver, fact, b = _rank_handle()
    fact.solve(b)
    pids = fact._pool.transport.pids
    del solver, fact
    gc.collect()
    assert not multiprocessing.active_children()
    assert _wait_gone(pids, 2.0) == []


def test_loopback_pool_threads_end_on_close():
    bm, dag = _prepared()
    transport = LoopbackTransport()
    pool = RankPool()
    factorize_distributed(bm, dag, 3, transport=transport, pool=pool)
    assert all(th.is_alive() for th in transport.threads)
    pool.close(bm)
    assert not any(th.is_alive() for th in transport.threads)


def _master(body: str) -> subprocess.Popen:
    """A master process that factorises on 2 ranks, prints their pids,
    then runs ``body``."""
    code = textwrap.dedent("""
        import sys, time
        import numpy as np
        from repro import PanguLU, SolverOptions
        from repro.sparse import grid_laplacian_2d
        fact = PanguLU(grid_laplacian_2d(10, 10),
                       SolverOptions(engine="distributed", nprocs=2)).factorize()
        print(*fact._pool.transport.pids, flush=True)
    """) + textwrap.dedent(body)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env,
    )


def test_interpreter_exit_stops_the_ranks():
    master = _master("")
    pids = [int(p) for p in master.stdout.readline().split()]
    assert master.wait(timeout=60) == 0 and len(pids) == 2
    master.stdout.close()
    assert _wait_gone(pids, 2.0) == []


def test_sigkilled_master_leaves_no_rank():
    master = _master("time.sleep(60)")
    try:
        pids = [int(p) for p in master.stdout.readline().split()]
        assert len(pids) == 2 and all(_running(p) for p in pids)
    finally:
        master.send_signal(signal.SIGKILL)
        master.wait(timeout=10)
        master.stdout.close()
    assert _wait_gone(pids, 2.0) == []


# ----------------------------------------------------------------------
# faults in the second command of a live pool
# ----------------------------------------------------------------------

SOLVE_FAULTS = {
    "dead": (FaultPlan(dead_ranks=frozenset({1}), from_command=1),
             r"distributed tsolve timed out.*ranks no longer alive: \[1\]"),
    "raise": (FaultPlan(fail_after={0: 1}, from_command=1),
              r"rank 0: InjectedFault.*\(distributed tsolve\)"),
    "drop": (FaultPlan(drop_from=frozenset({0}), from_command=1),
             r"distributed tsolve timed out.*ranks no longer alive: \[\]"),
}


@pytest.mark.parametrize("fault", SOLVE_FAULTS)
def test_fault_in_a_solve_after_factorize_is_named(fault):
    plan, message = SOLVE_FAULTS[fault]
    bm, dag = _prepared(seed=4)
    transport = LoopbackTransport(faults=plan)
    pool = RankPool()
    factorize_distributed(bm, dag, 3, transport=transport, pool=pool)
    tdag = build_tsolve_dag(bm, CyclicPlacement(3).owner)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=message):
        tsolve_distributed(bm, tdag, np.ones(bm.n), 3, transport=transport,
                           pool=pool, timeout=1.0)
    assert time.perf_counter() - t0 < 10.0
    assert not pool.is_open
    assert not any(th.is_alive() for th in transport.threads)
    # the factors went down with the ranks: no silent solve on stale values
    with pytest.raises(RuntimeError, match="refactorize first"):
        tsolve_distributed(bm, tdag, np.ones(bm.n), 3, pool=pool)


def test_sigkilled_rank_between_commands_is_named():
    _, fact, b = _rank_handle()
    pids = fact._pool.transport.pids
    os.kill(pids[1], signal.SIGKILL)
    t0 = time.perf_counter()
    with pytest.raises(
        RuntimeError, match=r"distributed tsolve timed out.*\[1\], exit codes \{1: -9\}"
    ):
        fact.solve(b)
    assert time.perf_counter() - t0 < 10.0
    assert not multiprocessing.active_children()
    with pytest.raises(RuntimeError, match="refactorize first"):
        fact.solve(b)
    fact.refactorize(fact.a)  # fresh ranks, fresh factors
    assert np.abs(fact.a.matvec(fact.solve(b)) - b).max() < 1e-10
    fact.close()


def test_fault_inside_with_raises_the_fault_alone():
    """Leaving ``with`` after a fault lost the factors raises nothing of
    its own; the handle, and a pickled copy, refuse to read or solve."""
    _, fact, b = _rank_handle()
    with pytest.raises(RuntimeError, match=r"distributed tsolve timed out.*\[0\]"):
        with fact:
            os.kill(fact._pool.transport.pids[0], signal.SIGKILL)
            fact.solve(b)
    assert not multiprocessing.active_children()
    clone = pickle.loads(pickle.dumps(fact))
    for handle in (fact, clone):
        with pytest.raises(RuntimeError, match="refactorize first"):
            handle.blocks
        with pytest.raises(RuntimeError, match="refactorize first"):
            handle.solve(b)

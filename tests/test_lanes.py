"""The engine matrix of the one lane driver (`repro.runtime.lanes`).

Every engine is a configuration of ``run_lanes`` — lanes × ranks — so one
table covers them all:

    {1 lane, 3 lanes, 2 ranks × 1, 2 ranks × 2 over loopback}
  × {factor, tsolve}
  × {clean, validate, fail_after, dead_ranks, delay+stagger}

(the three fault scenarios need a transport, so they apply to the rank
configurations only; ``validate`` is the clean run preceded by the static
``verify_dag`` checks that ``SolverOptions.verify_schedule`` turns on,
with the ownership map on the rank configurations).  One-lane factors under the fixed (sparse-variant)
selector are pinned bit-for-bit to the values the hand-written sequential
loop produced before the fold; the default path calls BLAS, whose last
bits depend on the kernel OpenBLAS dispatches for the CPU, so it is held
to ``1e-12·max|LU|`` of the pinned factors; the other configurations
agree to rounding.  Every solve — engine, lane count, fault scenario — is
bit-identical to the one-lane DAG replay (same kernels, same inputs,
writer chains in the DAG), and that replay agrees with the per-column
loop sweeps of ``tests/reference_tsolve.py`` to ``1e-12·‖x‖∞`` (the
engines solve a diagonal block by a product with its inverse, the oracle
by substitution).
"""

from __future__ import annotations

import hashlib
import heapq
import pickle
import re
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import (
    NumericOptions,
    TaskDAG,
    block_partition,
    build_dag,
    factorize,
)
from repro.core.numeric import FactorJob
from repro.core.placement import CyclicPlacement
from repro.core.tsolve import SolveJob, tsolve_lanes, tsolve_sequential
from repro.core.tsolve_dag import build_tsolve_dag
from repro.core.verify import verify_dag
from repro.kernels.selector import SelectorPolicy
from repro.runtime import (
    EventRecorder,
    RunReport,
    factorize_distributed,
    tsolve_distributed,
)
from repro.runtime.lanes import run_lanes
from repro.runtime.scheduler import CounterUnderflowError, SchedulerCore
from repro.runtime.transports import FaultPlan, LoopbackTransport
from repro.sparse import grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric

from .reference_tsolve import block_backward, block_forward

#: generator matrix → (builder, block size, sha256 of the value slab as
#: the pre-fold sequential loop factored it under ``SelectorPolicy.fixed()``)
MATRICES = {
    "grid2d_9x9": (
        lambda: grid_laplacian_2d(9, 9), 10,
        "7b49ca83f2e37235f2bdd90cd6d80a548262dda1adea786680142c247472568a",
    ),
    "random_80": (
        lambda: random_sparse(80, 0.06, seed=0), 12,
        "6dd5b2de5f0a4d19c29c18d9e2e70b26c7cb5c3c5c10268be6c88b1593c2b06f",
    ),
}
#: kernel labels the default trees / the fixed ablation selector choose on
#: ``random_80`` — the same on every engine
DEFAULT_LABELS = {
    "GETRF/C_V1", "GETRF/G_V1", "GESSM/C_V2", "TSTRF/C_V2", "SSSSM/C_V1",
}
FIXED_LABELS = {"GETRF/G_V1", "GESSM/G_V1", "TSTRF/G_V1", "SSSSM/C_V2"}


@dataclass(frozen=True)
class Config:
    ranks: int      # 0: in-process, no endpoint
    lanes: int


CONFIGS = {
    "1-lane": Config(0, 1),
    "3-lanes": Config(0, 3),
    "2x1": Config(2, 1),
    "2x2": Config(2, 2),
}
FAULTS = {
    "clean": None,
    "validate": None,
    "fail_after": FaultPlan(fail_after={0: 2}),
    "dead_ranks": FaultPlan(dead_ranks=frozenset({1})),
    "delay+stagger": FaultPlan(delay_seconds=0.002, stagger=True),
}
CELLS = [
    (config, phase, scenario)
    for config, cfg in CONFIGS.items()
    for phase in ("factor", "tsolve")
    for scenario in FAULTS
    if cfg.ranks or scenario in ("clean", "validate")
]


def _prepared(name="random_80"):
    build, bs, _ = MATRICES[name]
    bm = block_partition(symbolic_symmetric(build()).filled, bs)
    return bm, build_dag(bm)


def _slab_sha(bm) -> str:
    h = hashlib.sha256()
    for blk in bm.blk_values:
        h.update(np.ascontiguousarray(blk.data).tobytes())
    return h.hexdigest()


def _pinned(name="random_80"):
    """``name`` factored under the fixed selector, its SHA checked."""
    bm, dag = _prepared(name)
    factorize(bm, dag, NumericOptions(selector=SelectorPolicy.fixed()))
    assert _slab_sha(bm) == MATRICES[name][2]
    return bm.to_csc().to_dense()


def _assert_near_pinned(bm, pinned) -> None:
    assert np.abs(bm.to_csc().to_dense() - pinned).max() <= (
        1e-12 * np.abs(pinned).max()
    )


def _verify(cfg: Config, dag) -> None:
    """The static checks of the ``validate`` scenario: counters, cycles,
    writer chains and, for a factor DAG on ranks, the ownership map the
    run will use."""
    if cfg.ranks and isinstance(dag, TaskDAG):
        report = verify_dag(dag, assignment=CyclicPlacement(cfg.ranks).assign(dag),
                            nprocs=cfg.ranks)
    else:
        report = verify_dag(dag)
    assert report.n_tasks == len(dag)


def _run_factor(cfg: Config, bm, dag, *, scenario="clean", options=None,
                recorder=None, timeout=30.0):
    if scenario == "validate":
        _verify(cfg, dag)
    if not cfg.ranks:
        return factorize(bm, dag, options, n_lanes=cfg.lanes, recorder=recorder)
    return factorize_distributed(
        bm, dag, cfg.ranks, options=options, n_threads=cfg.lanes,
        transport=LoopbackTransport(faults=FAULTS[scenario]),
        recorder=recorder, timeout=timeout,
    )


def _run_tsolve(cfg: Config, f, b, *, scenario="clean", timeout=30.0):
    owner = CyclicPlacement(cfg.ranks).owner if cfg.ranks else lambda bi, bj: 0
    tdag = build_tsolve_dag(f, owner)
    if scenario == "validate":
        _verify(cfg, tdag)
    if not cfg.ranks:
        return tsolve_lanes(f, tdag, b, n_lanes=cfg.lanes)
    return tsolve_distributed(
        f, tdag, b, cfg.ranks, n_threads=cfg.lanes,
        transport=LoopbackTransport(faults=FAULTS[scenario]), timeout=timeout,
    )


@pytest.fixture(scope="module")
def factored():
    """Sequentially factored ``random_80`` — the reference of every cell."""
    bm, dag = _prepared()
    factorize(bm, dag)
    return bm


def _replay(f, b) -> np.ndarray:
    """The one-lane DAG replay every configuration must match bit for
    bit, itself held to the loop-sweep oracle at ``1e-12·‖x‖∞``."""
    x, _ = tsolve_sequential(f, b)
    ref = block_backward(f, block_forward(f, b))
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    return x


#: the engine name of each configuration's pool shape
ENGINE_OF = {
    "1-lane": "sequential", "3-lanes": "threaded",
    "2x1": "distributed", "2x2": "hybrid",
}


def _check_report(report, config: str) -> None:
    """Every cell returns the one report type, filled the same way."""
    cfg = CONFIGS[config]
    assert type(report) is RunReport
    assert report.tasks_executed > 0 and report.max_ready_depth >= 1
    assert (report.n_procs, report.n_workers) == (max(1, cfg.ranks), cfg.lanes)
    assert report.engine == ENGINE_OF[config]
    assert report.seconds > 0.0
    if cfg.ranks:
        assert sum(report.tasks_per_proc) == report.tasks_executed
        assert report.messages_sent > 0 and report.bytes_sent > 0
    else:
        assert report.tasks_per_proc == []
        assert report.messages_sent == 0 and report.bytes_sent == 0
    assert report.block_bytes_sent == report.seg_bytes_sent == report.bytes_sent
    assert pickle.loads(pickle.dumps(report)) == report


def _expect_failure(scenario: str, run) -> None:
    if scenario == "fail_after":
        with pytest.raises(RuntimeError, match=r"rank 0.*injected fault"):
            run(30.0)
        return
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"timed out.*\[1\]"):
        run(1.0)
    assert time.perf_counter() - t0 < 10.0   # bounded, not a hang


@pytest.mark.parametrize("config,phase,scenario", CELLS)
def test_engine_matrix(config, phase, scenario, factored):
    cfg = CONFIGS[config]
    failing = scenario in ("fail_after", "dead_ranks")
    if phase == "factor":
        bm, dag = _prepared()
        if failing:
            _expect_failure(scenario, lambda timeout: _run_factor(
                cfg, bm, dag, scenario=scenario, timeout=timeout))
            return
        stats = _run_factor(cfg, bm, dag, scenario=scenario)
        assert stats.tasks_executed == len(dag)
        _check_report(stats, config)
        if config == "1-lane":
            _assert_near_pinned(bm, _pinned())
        np.testing.assert_allclose(
            bm.to_csc().to_dense(), factored.to_csc().to_dense(), atol=1e-9
        )
    else:
        b = np.random.default_rng(3).standard_normal((factored.n, 2))
        if failing:
            _expect_failure(scenario, lambda timeout: _run_tsolve(
                cfg, factored, b, scenario=scenario, timeout=timeout))
            return
        x, stats = _run_tsolve(cfg, factored, b, scenario=scenario)
        assert np.array_equal(x, _replay(factored, b))
        assert stats.nrhs == 2 and stats.kernel_choices == {}
        _check_report(stats, config)


@pytest.mark.parametrize("name", MATRICES)
def test_sequential_factors_pinned(name):
    pinned = _pinned(name)
    bm, dag = _prepared(name)
    factorize(bm, dag)
    _assert_near_pinned(bm, pinned)


# ----------------------------------------------------------------------
# drift the hand-written copies had accumulated
# ----------------------------------------------------------------------

@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("n_threads", [1, 2])
@pytest.mark.parametrize("phase", ["factor", "tsolve"])
def test_duplicate_delivery_surfaces_on_every_rank_shape(
    phase, n_threads, validate, factored
):
    """A duplicated message is a second completion, which the receiving
    rank's core refuses; the failure in the receive lane is the rank's
    error, not a hang (the hybrid copies used to lose the receiver
    thread's exception and leave the compute threads waiting until the
    master's timeout).  With ``validate`` the DAG first passes the static
    checks: the fault is the transport's, which only the runtime guard
    sees."""
    transport = LoopbackTransport(
        faults=FaultPlan(duplicate_from=frozenset({0, 1}))
    )
    cfg = Config(2, n_threads)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError) as exc:
        if phase == "factor":
            bm, dag = _prepared()
            if validate:
                _verify(cfg, dag)
            factorize_distributed(
                bm, dag, 2, transport=transport, n_threads=n_threads,
                timeout=30.0,
            )
        else:
            tdag = build_tsolve_dag(
                factored, CyclicPlacement(2).owner
            )
            if validate:
                _verify(cfg, tdag)
            tsolve_distributed(
                factored, tdag, np.ones(factored.n), 2, transport=transport,
                n_threads=n_threads, timeout=30.0,
            )
    assert time.perf_counter() - t0 < 5.0
    msg = str(exc.value)
    assert re.search(r"rank \d: CounterUnderflowError\('task \d+ completed "
                     r"twice \(lane \d\)", msg)


@pytest.mark.parametrize("config", ["1-lane", "3-lanes"])
@pytest.mark.parametrize("phase", ["factor", "tsolve"])
def test_double_execution_surfaces_on_every_lane_count(phase, config, factored):
    """In one process a task is completed twice only by running it twice:
    a root pushed onto the ready heap a second time is refused at its
    second completion, in both phases and on one or several lanes."""
    if phase == "factor":
        bm, dag = _prepared()
        job = FactorJob(bm, dag, NumericOptions())
    else:
        dag = build_tsolve_dag(factored, lambda bi, bj: 0)
        y = np.ones(factored.n)
        job = SolveJob(factored, dag, y, np.empty_like(y))
    core = SchedulerCore.from_dag(dag)
    root = core.ready[0][2]  # the first task any lane pops
    heapq.heappush(core.ready, dag.entries[root])
    with pytest.raises(CounterUnderflowError,
                       match=rf"task {root} completed twice \(lane 0\)"):
        run_lanes(core, job, n_lanes=CONFIGS[config].lanes)


@pytest.mark.parametrize("config", CONFIGS)
def test_every_config_honours_the_selector(config):
    """Ranks used to build ``SelectorPolicy.default()`` themselves, so the
    Fig. 14 ablation selector was ignored on distributed/hybrid."""
    for make, labels in (
        (SelectorPolicy.fixed, FIXED_LABELS),
        (SelectorPolicy.default, DEFAULT_LABELS),
    ):
        bm, dag = _prepared()
        stats = _run_factor(
            CONFIGS[config], bm, dag, options=NumericOptions(selector=make())
        )
        assert set(stats.kernel_choices.values()) == labels


@pytest.mark.parametrize("config", CONFIGS)
def test_every_config_fills_the_one_stats_type(config):
    cfg = CONFIGS[config]
    bm, dag = _prepared()
    rec = EventRecorder()
    stats = _run_factor(cfg, bm, dag, recorder=rec)
    assert len(rec.task_events) == len(dag)
    assert set(stats.seconds_by_type) == {"GETRF", "GESSM", "TSTRF", "SSSSM"}
    assert all(s > 0.0 for s in stats.seconds_by_type.values())
    assert stats.flops_total == dag.total_flops
    assert stats.max_ready_depth >= 1
    assert stats.planned_tasks > 0
    if cfg.ranks:
        assert sum(stats.tasks_per_proc) == len(dag)
        assert stats.messages_sent > 0 and stats.block_bytes_sent > 0
    else:
        assert stats.messages_sent == 0 and stats.tasks_per_proc == []


# ----------------------------------------------------------------------
# shared-state stress: more lanes than cores, fast thread switching
# ----------------------------------------------------------------------

def test_oversubscribed_lanes_lose_no_update(factored):
    b = np.random.default_rng(5).standard_normal(factored.n)
    ref = _replay(factored, b)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.perf_counter() + 20.0
        for cfg in (Config(0, 8), Config(2, 4)):
            for _ in range(3):
                bm, dag = _prepared()
                stats = _run_factor(cfg, bm, dag)
                assert stats.tasks_executed == len(dag) == len(stats.kernel_choices)
                np.testing.assert_allclose(
                    bm.to_csc().to_dense(), factored.to_csc().to_dense(),
                    atol=1e-9,
                )
                x, _ = _run_tsolve(cfg, factored, b)
                assert np.array_equal(x, ref)
                assert time.perf_counter() < deadline
    finally:
        sys.setswitchinterval(old)

"""Per-layer probes of the traced run: numbers no span can supply.

Each probe drives one layer's public functions directly on the structure
the traced pipeline preprocessed, so all probes of a workload see the
same matrix, ordering and fill.  Probes that need a factorisation under
other options start from the traced solver's reorder + symbolic products
(which depend on the matrix alone) and repeat only phases 3–4.

Every probe runs on every workload, whatever the workload's own engine:
``threaded.*``, ``distributed.*`` and ``transports.*`` describe what those
runtimes cost *on this matrix*.  Only on ``fem3d_dist2`` do the
``distributed.*`` numbers explain an end-to-end metric.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro import PanguLU, SolverOptions
from repro.baseline import SuperLUBaseline
from repro.core.dag import TaskType
from repro.core.mapping import balance_loads, load_imbalance, task_weights
from repro.core.numeric import NumericOptions, execute_task, task_features
from repro.core.placement import resolve_placement
from repro.kernels.base import Workspace
from repro.kernels.plans import PlanCache
from repro.kernels.registry import KERNEL_REGISTRY, KernelType
from repro.runtime import engines as engines_mod
from repro.runtime.distributed import factorize_distributed
from repro.runtime.scheduler import EventRecorder, SchedulerCore
from repro.runtime.transports import LoopbackTransport

from measure import Ops

#: ``options.*`` rows — the losses on file in BENCH_kernels.json, re-measured
OPTION_ROWS = {
    "float32": {"factor_dtype": "float32"},
    "irregular": {"blocking": "irregular"},
    "compress": {"compress_tol": 1e-8},
}
REGRET_REPS = 3


def with_analysis_of(solver: PanguLU, options: SolverOptions) -> PanguLU:
    """A fresh solver that starts from ``solver``'s phase 1–2 products, so
    ``preprocess()`` repeats only blocking, DAG and placement."""
    fresh = PanguLU(solver.a, options)
    for attr in ("row_scale", "col_scale", "row_perm", "col_perm",
                 "symbolic", "_reordered"):
        setattr(fresh, attr, getattr(solver, attr))
    return fresh


def cold_numeric(ops: Ops, solver: PanguLU, options: SolverOptions, name: str):
    """Cold ``factorize()`` under ``options`` on ``solver``'s analysis,
    then one checked solve.  Returns ``(fresh_solver, fact)``; the timing
    lands in ``ops.samples[name]``."""
    fresh = with_analysis_of(solver, options)
    fresh.preprocess()
    fact = ops.run(name, fresh.factorize)
    if fact is not None:
        ops.run(f"{name}.solve", lambda: fact.solve(ops.inp.b), solves=-1)
    return fresh, fact


# ----------------------------------------------------------------------
# runtime.scheduler, core.placement, core.mapping
# ----------------------------------------------------------------------

def scheduler_probe(dag) -> dict[str, float]:
    """Drain the DAG through ``pop``/``complete`` with no kernel."""
    seconds = []
    for _ in range(3):
        core = SchedulerCore.from_dag(dag)
        t0 = time.perf_counter()
        while (tid := core.pop()) is not None:
            core.complete(tid)
        seconds.append(time.perf_counter() - t0)
        core.check("scheduler probe")
    return {
        "scheduler.drain_us_per_task":
            statistics.median(seconds) / len(dag) * 1e6,
        "scheduler.max_ready_depth": core.max_ready_depth,
    }


def mapping_probe(solver: PanguLU) -> dict[str, float]:
    """Placement and static balancing at 2 ranks."""
    dag, blocks = solver.dag, solver.blocks
    t0 = time.perf_counter()
    placement = resolve_placement("cyclic", 2).prepare(dag, blocks)
    assignment = placement.assign(dag)
    t1 = time.perf_counter()
    weights = task_weights(dag, blocks)
    balanced = balance_loads(dag, placement, assignment, weights=weights)
    t2 = time.perf_counter()
    return {
        "placement.assign_s": t1 - t0,
        "mapping.balance_s": t2 - t1,
        "mapping.load_imbalance_p2":
            load_imbalance(dag, balanced, 2, weights=weights),
    }


# ----------------------------------------------------------------------
# kernels: selector regret
# ----------------------------------------------------------------------

class _TaskView:
    """Private copies of the blocks one task touches, behind the
    ``block``/``block_slot`` interface ``execute_task`` addresses."""

    def __init__(self, blocks, task) -> None:
        keys = {(task.bi, task.bj)}
        if task.ttype is not TaskType.GETRF:
            keys.add((task.k, task.k))
        if task.ttype is TaskType.SSSSM:
            keys |= {(task.bi, task.k), (task.k, task.bj)}
            keys.discard((task.k, task.k))
        self._blocks = {key: blocks.block(*key).copy() for key in keys}
        self._slots = {key: blocks.block_slot(*key) for key in keys}

    def block(self, bi: int, bj: int):
        return self._blocks[(bi, bj)]

    def block_slot(self, bi: int, bj: int) -> int:
        return self._slots[(bi, bj)]


def regret_probe(solver: PanguLU) -> dict[str, float]:
    """Per kernel family: time(default-selected path) / time(best path) on
    the heaviest task, every registered variant and the planned path
    timed on copies of its operands (values as left by the factorisation:
    the patterns, which set the cost, are those the task really saw)."""
    blocks, dag = solver.blocks, solver.dag
    numeric = NumericOptions()
    ws = Workspace()
    out = {}
    for ttype in (TaskType.GETRF, TaskType.GESSM, TaskType.TSTRF, TaskType.SSSSM):
        ktype = KernelType[ttype.name]
        task = max((t for t in dag.tasks if t.ttype is ttype),
                   key=lambda t: t.flops)
        view = _TaskView(blocks, task)
        target = view.block(task.bi, task.bj)
        pristine = target.data.copy()

        def best_of(version: str, plans) -> float:
            best = float("inf")
            for _ in range(REGRET_REPS + (plans is not None)):  # +1 builds the plan
                np.copyto(target.data, pristine)
                t0 = time.perf_counter()
                execute_task(view, task, version, ws,
                             pivot_floor=numeric.pivot_floor, plans=plans)
                best = min(best, time.perf_counter() - t0)
            return best

        chosen = numeric.selector.select(ktype, task_features(blocks, task))
        default_path = best_of(chosen, PlanCache(
            ssssm_entry_limit=numeric.plan_entry_limit))
        variants = [best_of(v, None) for v in KERNEL_REGISTRY[ktype]
                    if not v.startswith("LR_")]
        out[f"kernels.regret.{ttype.name}"] = (
            default_path / min(default_path, *variants)
        )
    return out


# ----------------------------------------------------------------------
# runtime.threaded, runtime.distributed, runtime.transports
# ----------------------------------------------------------------------

def threaded_probe(ops: Ops, solver: PanguLU, numeric_s: float) -> dict:
    _, fact = cold_numeric(
        ops, solver, SolverOptions(engine="threaded", n_workers=2),
        "threaded.numeric_w2_s",
    )
    ops.run("threaded.solve_w2_s", lambda: fact.solve(ops.inp.b), solves=-1)
    w2 = ops.samples["threaded.numeric_w2_s"][-1]
    return {
        "threaded.numeric_w2_s": w2,
        "threaded.numeric_w2_over_seq": w2 / numeric_s,
        "threaded.solve_w2_s": ops.samples["threaded.solve_w2_s"][-1],
    }


def task_makespan(events) -> float:
    return max(e.t1 for e in events) - min(e.t0 for e in events)


def distributed_probe(ops: Ops, solver: PanguLU) -> dict[str, float]:
    """2 ranks over the default multiprocessing transport, then the same
    factorisation over the in-process loopback transport."""
    factor_stats = []
    sweeps = []        # (TSolveStats, seconds between first and last task)
    real_factor = engines_mod.factorize_distributed
    real_tsolve = engines_mod.tsolve_distributed

    def capture_factor(*args, **kwargs):
        factor_stats.append(real_factor(*args, **kwargs))
        return factor_stats[-1]

    def capture_tsolve(*args, recorder=None, **kwargs):
        if recorder is None:           # the unrecorded first solve
            return real_tsolve(*args, **kwargs)
        seen = len(recorder.task_events)
        x, stats = real_tsolve(*args, recorder=recorder, **kwargs)
        sweeps.append((stats, task_makespan(recorder.task_events[seen:])))
        return x, stats

    # the registry entries look these two names up in their own module
    engines_mod.factorize_distributed = capture_factor
    engines_mod.tsolve_distributed = capture_tsolve
    try:
        mp, fact = cold_numeric(
            ops, solver,
            SolverOptions(engine="distributed", nprocs=2, trace_events=True),
            "distributed.numeric_p2_s",
        )
        solve_events = EventRecorder()
        ops.run(
            "distributed.solve_p2_s",
            lambda: fact.solve(ops.inp.b, recorder=solve_events), solves=-1,
        )
    finally:
        engines_mod.factorize_distributed = real_factor
        engines_mod.tsolve_distributed = real_tsolve
    dstats = factor_stats[0]
    events = mp.recorder.task_events
    makespan = task_makespan(events)
    busy: dict[int, float] = {}
    for e in events:
        busy[e.worker] = busy.get(e.worker, 0.0) + (e.t1 - e.t0) / makespan
    numeric_p2_s = ops.samples["distributed.numeric_p2_s"][-1]
    solve_p2_s = ops.samples["distributed.solve_p2_s"][-1]
    solve_engine_s = sum(seconds for _, seconds in sweeps)
    last_sweep = sweeps[-1][0]

    # same blocks, DAG and placement; ranks as threads of this process
    loop = with_analysis_of(solver, SolverOptions(nprocs=2))
    loop.preprocess()
    ops.run(
        "transports.loopback_numeric_p2_s",
        lambda: factorize_distributed(
            loop.blocks, loop.dag, 2, options=loop.options.numeric,
            transport=LoopbackTransport(), placement=loop.placement,
        ),
    )
    loopback_s = ops.samples["transports.loopback_numeric_p2_s"][-1]
    return {
        "distributed.numeric_p2_s": numeric_p2_s,
        "distributed.solve_p2_s": solve_p2_s,
        "distributed.messages": dstats.messages_sent,
        "distributed.block_bytes": dstats.block_bytes_sent,
        "distributed.tasks_rank_max_over_mean":
            max(dstats.tasks_per_proc) / statistics.mean(dstats.tasks_per_proc),
        "distributed.makespan_s": makespan,
        "distributed.lane_busy_frac_min": min(busy.values()),
        "distributed.lane_busy_frac_mean": statistics.mean(busy.values()),
        "distributed.solve_engine_s": solve_engine_s,
        "distributed.solve_spawn_s": solve_p2_s - solve_engine_s,
        "distributed.tsolve_messages": last_sweep.messages_sent,
        "distributed.tsolve_seg_bytes": last_sweep.seg_bytes_sent,
        "transports.loopback_numeric_p2_s": loopback_s,
        "transports.mp_over_loopback": numeric_p2_s / loopback_s,
    }


# ----------------------------------------------------------------------
# baseline, options
# ----------------------------------------------------------------------

def baseline_probe(ops: Ops, solver: PanguLU, numeric_s: float) -> dict[str, float]:
    """The supernodal comparator's numeric phase on the same matrix, from
    ``solver``'s reordering (phase 1 is the same policy in both)."""
    baseline = SuperLUBaseline(ops.inp.a)
    for attr in ("row_scale", "col_scale", "row_perm", "col_perm", "_reordered"):
        setattr(baseline, attr, getattr(solver, attr))
    baseline.preprocess()
    ops.run("baseline.numeric_s", baseline.factorize)
    ops.run("baseline.solve", lambda: baseline.solve(ops.inp.b), solves=-1)
    seconds = ops.samples["baseline.numeric_s"][-1]
    return {
        "baseline.numeric_s": seconds,
        "baseline.numeric_over_pangulu": seconds / numeric_s,
    }


def options_probe(ops: Ops, solver: PanguLU) -> dict[str, float]:
    """Cold numeric phase under each non-default option, on the
    workload's own engine, each checked by the same accuracy rule."""
    wl = ops.inp.workload
    out = {}
    for row, extra in OPTION_ROWS.items():
        name = f"options.{row}_numeric_s"
        cold_numeric(ops, solver, wl.options(**extra), name)
        out[name] = ops.samples[name][-1]
    # the arena changes phase 3, so this row is a whole fresh set-up
    legacy = PanguLU(ops.inp.a, wl.options(use_arena=False))
    ops.run("options.noarena_setup_s", legacy.preprocess)
    ops.run("options.noarena.solve", lambda: legacy.solve(ops.inp.b), solves=-1)
    out["options.noarena_setup_s"] = ops.samples["options.noarena_setup_s"][-1]
    return out


def run_all(solver: PanguLU, ops: Ops, numeric_s: float) -> dict[str, float]:
    """Every probe, on the traced pipeline's solver.  ``numeric_s`` is the
    workload's own untraced cold ``factorize()``: the base of the "over
    sequential" ratios, unless the workload runs another engine."""
    if ops.inp.workload.opts:
        cold_numeric(ops, solver, SolverOptions(), "sequential.numeric_s")
        numeric_s = ops.samples["sequential.numeric_s"][-1]
    return {
        **scheduler_probe(solver.dag),
        **mapping_probe(solver),
        **regret_probe(solver),
        **threaded_probe(ops, solver, numeric_s),
        **distributed_probe(ops, solver),
        **baseline_probe(ops, solver, numeric_s),
        **options_probe(ops, solver),
    }

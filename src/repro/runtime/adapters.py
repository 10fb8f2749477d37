"""Bridges between PanguLU's task DAG and the distributed simulator.

:func:`simulate_pangulu` is the one-call entry used by the scalability,
synchronisation and ablation benches: it extracts device-independent task
records from the blocked pattern, prices every task on the platform
(either adaptively — the cost-model equivalent of the Fig. 8 decision
trees — or with a fixed baseline kernel for the ablation), lays tasks out
over the process grid, and runs the event simulation under either
scheduling policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.blocking import BlockMatrix
from ..core.dag import TaskDAG, TaskType
from ..core.mapping import balance_loads
from ..core.placement import resolve_placement
from .costmodel import SimTask, best_version, extract_sim_tasks, kernel_time
from .machine import Platform
from .scheduler import EventRecorder
from .simulator import SimResult, SimSpec, simulate

__all__ = ["PanguLUSimulation", "simulate_pangulu", "simulate_tsolve", "price_tasks"]


@dataclass
class PanguLUSimulation:
    """Result bundle of one simulated PanguLU numeric factorisation."""

    result: SimResult
    versions: list[str]
    sim_tasks: list[SimTask]
    assignment: np.ndarray
    total_flops: int

    @property
    def gflops(self) -> float:
        return self.result.gflops(self.total_flops)

    def seconds_by_type(self) -> dict[str, float]:
        """Simulated compute seconds per kernel role (Table 4 breakdown)."""
        out: dict[str, float] = {}
        durations = self.result.end_times - self.result.start_times
        for st, d in zip(self.sim_tasks, durations):
            key = st.ttype.name
            out[key] = out.get(key, 0.0) + float(d)
        return out


def price_tasks(
    sim_tasks: list[SimTask],
    platform: Platform,
    *,
    adaptive: bool = True,
    fixed_versions: dict[TaskType, str] | None = None,
) -> tuple[np.ndarray, list[str]]:
    """Per-task simulated durations and the kernel versions chosen.

    ``adaptive=True`` picks the cost-minimising variant per task;
    otherwise ``fixed_versions`` (defaulting to the mid-range sparse
    kernels) reproduces the paper's non-adaptive baseline.
    """
    if fixed_versions is None:
        fixed_versions = {
            TaskType.GETRF: "G_V1",
            TaskType.GESSM: "G_V1",
            TaskType.TSTRF: "G_V1",
            TaskType.SSSSM: "C_V2",
        }
    durations = np.empty(len(sim_tasks))
    versions: list[str] = []
    for i, st in enumerate(sim_tasks):
        if adaptive:
            v, t = best_version(st, platform)
        else:
            v = fixed_versions[st.ttype]
            t = kernel_time(st, v, platform)
        durations[i] = t
        versions.append(v)
    return durations, versions


def simulate_pangulu(
    f: BlockMatrix,
    dag: TaskDAG,
    platform: Platform,
    nprocs: int,
    *,
    schedule: str = "syncfree",
    adaptive_kernels: bool = True,
    load_balance: bool = True,
    assignment: np.ndarray | None = None,
    placement="cyclic",
    recorder: EventRecorder | None = None,
) -> PanguLUSimulation:
    """Simulate PanguLU's numeric factorisation on ``nprocs`` processes.

    Parameters mirror the paper's three optimisation knobs: scheduling
    policy (sync-free vs level-set), adaptive kernel selection, and static
    load balancing — the Fig. 14 ablation toggles them independently.
    ``placement`` names the block→rank ownership policy (``"cyclic"``
    default, ``"cost"``, or a fitted
    :class:`~repro.core.placement.PlacementPolicy`); the ``"cost"``
    policy reads the platform's ``rank_speeds`` to favour fast ranks.
    An explicit ``assignment`` overrides the placement entirely.  A
    ``recorder`` receives the simulated run (:func:`simulate`), labelled
    as the engines label factor tasks.
    """
    sim_tasks = extract_sim_tasks(f, dag)
    durations, versions = price_tasks(sim_tasks, platform, adaptive=adaptive_kernels)
    if assignment is None:
        # expand the platform's (possibly cycled) speed pattern to one
        # factor per simulated rank
        speeds = (
            tuple(platform.rank_speed(p) for p in range(nprocs))
            if platform.rank_speeds else None
        )
        place = resolve_placement(
            placement, nprocs, speeds=speeds
        ).prepare(dag, f)
        assignment = place.assign(dag)
        if load_balance and nprocs > 1:
            assignment = balance_loads(
                dag, place, assignment, speeds=place.speeds
            )
    spec = SimSpec(
        durations=durations,
        owner=assignment,
        out_bytes=np.asarray([st.out_bytes for st in sim_tasks]),
        n_deps=dag.n_deps,
        successors=dag.successors,
        priority=dag.entries,
        nprocs=nprocs,
        levels=dag.table.k,
    )
    result = simulate(
        spec, platform, schedule=schedule, recorder=recorder,
        label=dag.trace_label,
    )
    return PanguLUSimulation(
        result=result,
        versions=versions,
        sim_tasks=sim_tasks,
        assignment=assignment,
        total_flops=dag.total_flops,
    )


def simulate_tsolve(
    f: BlockMatrix,
    platform: Platform,
    nprocs: int,
    *,
    placement="cyclic",
    recorder: EventRecorder | None = None,
) -> SimResult:
    """Simulate the distributed block triangular solves (phase 5).

    Solve tasks are bandwidth-bound vector operations; each is priced at
    the device's sparse memory roofline (the solve moves the factor's
    entries once: a diagonal task's flops include its row's products)
    plus the launch overhead, and segments and ``LSUM`` product stacks
    travel between processes like factor blocks do.

    This prices the solve DAG the engines run
    (:func:`~repro.core.tsolve_dag.build_tsolve_dag`: one diagonal task
    per segment and sweep, ``LSUM`` tasks on ranks) in the engines'
    ready order.  ``placement`` selects the
    block→rank ownership policy (name or fitted instance; the ``"cost"``
    policy costs blocks by storage traffic here, the solve-only path).
    A ``recorder`` receives the simulated run (:func:`simulate`).
    """
    from ..core.tsolve_dag import build_tsolve_dag

    speeds = (
        tuple(platform.rank_speed(p) for p in range(nprocs))
        if platform.rank_speeds else None
    )
    place = resolve_placement(
        placement, nprocs, speeds=speeds
    ).prepare(blocks=f)
    dag = build_tsolve_dag(f, place.owner)
    from .costmodel import bytes_per_entry

    # one value+index stream per mult-add, at the factor's actual itemsize
    itemsize = float(getattr(f, "dtype", np.dtype(np.float64)).itemsize)
    nbytes = dag.flops / 2.0 * bytes_per_entry(itemsize)
    per_device = []
    for device in (platform.gpu, platform.cpu):
        per_device.append(
            device.launch_overhead
            + np.maximum(
                dag.flops / (device.flops_peak * device.sparse_efficiency),
                nbytes / device.mem_bw,
            )
        )
    # each task runs on whichever device is cheaper (the same adaptive
    # CPU/GPU offload decision the factorisation kernels make)
    durations = np.minimum(per_device[0], per_device[1])
    spec = SimSpec(
        durations=durations,
        owner=dag.owner,
        out_bytes=dag.out_bytes,
        n_deps=dag.n_deps,
        successors=dag.successors,
        priority=dag.entries,
        nprocs=nprocs,
    )
    return simulate(spec, platform, recorder=recorder, label=dag.trace_label)

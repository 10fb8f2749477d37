"""Task DAG and simulation bridge for the supernodal baseline.

Builds the same four-role task graph as PanguLU (factor / two solves /
Schur update), wired by the same :class:`~repro.core.dag.EliminationBuilder`
and popped in the same ready order, but over the *uneven* supernode
partition with *dense* costs:

* every task's FLOP count is the dense operation count of its panel
  shapes — padding zeros are paid for (the paper's core criticism);
* every GEMM additionally pays gather/scatter transfer of its dense
  panels over the host↔accelerator link (SuperLU_DIST's
  gather→GEMM→scatter pipeline, Section 5.4);
* messages carry dense panels (``rows · cols · 8`` bytes);
* the schedule is **level-set**: tasks inherit the dependency level of
  their source supernode and a global barrier separates levels — the
  synchronisation the paper measures in Figs. 5 and 13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dag import EliminationBuilder, TaskDAG, TaskType
from ..core.placement import CyclicPlacement
from ..runtime.machine import Platform
from ..runtime.simulator import SimResult, SimSpec, simulate
from .supernodal import SupernodalMatrix
from .supernodes import SupernodePartition

__all__ = ["SupernodalDAG", "build_sn_dag", "simulate_superlu"]

#: host↔accelerator gather/scatter bandwidth for the baseline's Schur
#: pipeline (PCIe-gen3-ish), bytes/s
GATHER_BANDWIDTH = 1.2e10


@dataclass
class SupernodalDAG:
    """The baseline task graph (simulator input): a factor
    :class:`~repro.core.dag.TaskDAG` over the supernode partition —
    ``GETRF`` / ``TSTRF`` (L panel) / ``GESSM`` (U panel) / ``SSSSM``,
    wired and popped like PanguLU's — plus what it does not carry, per
    task: the dense FLOP count, the GEMM gather/scatter bytes, the
    message bytes of the target block and the level-set ``levels``."""

    dag: TaskDAG
    flops: np.ndarray
    gather_bytes: np.ndarray
    out_bytes: np.ndarray
    levels: np.ndarray

    def __len__(self) -> int:
        return len(self.dag)

    @property
    def total_dense_flops(self) -> float:
        return float(np.sum(self.flops))


def _dependency_levels(m: SupernodalMatrix) -> np.ndarray:
    """Supernode levels from the actual block dependency relation.

    ``level[t] = 1 + max(level[k])`` over every step ``k < t`` whose Schur
    update or panel output feeds supernode ``t``, so every dependency
    points from a lower to a strictly higher level, which the barrier
    scheduling requires.  This holds for unsymmetric Gilbert–Peierls fill
    as for symmetric fill; it is not the height in the supernodal
    elimination tree, even where the fill is symmetric.
    """
    ns = m.ns
    level = np.zeros(ns, dtype=np.int64)
    below, right = m.step_blocks
    for k in range(ns):
        row_blocks, col_blocks = below[k], right[k]
        for i in row_blocks:
            level[i] = max(level[i], level[k] + 1)
        for j in col_blocks:
            level[j] = max(level[j], level[k] + 1)
        for i in row_blocks:
            for j in col_blocks:
                if (i, j) in m.dense:
                    t = min(i, j)
                    level[t] = max(level[t], level[k] + 1)
    return level


def build_sn_dag(m: SupernodalMatrix, part: SupernodePartition) -> SupernodalDAG:
    """Construct the supernodal task DAG with dense costs.

    Steps are created in ascending ``(level, step)`` order: a step's
    level exceeds that of every step updating its panels, so that is a
    topological order, and each block's chain of updates then climbs
    the levels as every other edge does."""
    below, right = m.step_blocks
    level = _dependency_levels(m)
    builder = EliminationBuilder()
    flops: list[float] = []
    gather: list[float] = []
    out_b: list[float] = []

    def add(ttype: TaskType, k: int, i: int, j: int, fl: float, reads, gb=0.0):
        builder.add(ttype, k, i, j, int(fl), reads)
        flops.append(fl)
        gather.append(gb)
        blk = m.block(i, j)
        out_b.append(8.0 * blk.size if blk is not None else 0.0)

    for k in np.argsort(level, kind="stable").tolist():
        w = m.width(k)
        add(TaskType.GETRF, k, k, k, (2.0 / 3.0) * w**3, ())
        row_blocks, col_blocks = below[k], right[k]
        for i in row_blocks:
            blk = m.dense[(i, k)]
            add(TaskType.TSTRF, k, i, k, float(blk.shape[0]) * w * w, ((k, k),))
        for j in col_blocks:
            blk = m.dense[(k, j)]
            add(TaskType.GESSM, k, k, j, float(blk.shape[1]) * w * w, ((k, k),))
        for i in row_blocks:
            a = m.dense[(i, k)]
            for j in col_blocks:
                if (i, j) not in m.dense:
                    continue
                bb = m.dense[(k, j)]
                fl = 2.0 * a.shape[0] * bb.shape[1] * w
                gb = 8.0 * (
                    a.size + bb.size + 2.0 * a.shape[0] * bb.shape[1]
                )
                add(TaskType.SSSSM, k, i, j, fl, ((i, k), (k, j)), gb)

    dag = builder.dag()
    return SupernodalDAG(
        dag=dag,
        flops=np.asarray(flops),
        gather_bytes=np.asarray(gather),
        out_bytes=np.asarray(out_b),
        levels=level[dag.table.k],
    )


def price_sn_tasks(dag: SupernodalDAG, platform: Platform) -> np.ndarray:
    """Simulated durations: dense kernels on the GPU at dense efficiency,
    plus gather/scatter transfer for GEMMs."""
    gpu = platform.gpu
    t_compute = dag.flops / (gpu.flops_peak * gpu.dense_efficiency)
    # dense panels stream through device memory
    t_mem = (dag.gather_bytes + dag.out_bytes) / gpu.mem_bw
    t = gpu.launch_overhead + np.maximum(t_compute, t_mem)
    t = t + dag.gather_bytes / GATHER_BANDWIDTH
    return t


def simulate_superlu(
    m: SupernodalMatrix,
    part: SupernodePartition,
    platform: Platform,
    nprocs: int,
    *,
    schedule: str = "levelset",
    dag: SupernodalDAG | None = None,
) -> tuple[SimResult, SupernodalDAG]:
    """Simulate the baseline's numeric factorisation.

    Default schedule is level-set with barriers (SuperLU_DIST's strategy);
    ``schedule="syncfree"`` isolates the scheduling contribution when
    comparing against PanguLU.
    """
    if dag is None:
        dag = build_sn_dag(m, part)
    durations = price_sn_tasks(dag, platform)
    spec = SimSpec(
        durations=durations,
        owner=CyclicPlacement(nprocs).assign(dag.dag),
        out_bytes=dag.out_bytes,
        n_deps=dag.dag.n_deps,
        successors=dag.dag.successors,
        priority=dag.dag.entries,
        nprocs=nprocs,
        levels=dag.levels,
    )
    return simulate(spec, platform, schedule=schedule), dag

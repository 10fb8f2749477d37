"""Task DAG and simulation bridge for the supernodal baseline.

Builds the same four-role task graph as PanguLU (factor / two solves /
Schur update) but over the *uneven* supernode partition with *dense*
costs:

* every task's FLOP count is the dense operation count of its panel
  shapes — padding zeros are paid for (the paper's core criticism);
* every GEMM additionally pays gather/scatter transfer of its dense
  panels over the host↔accelerator link (SuperLU_DIST's
  gather→GEMM→scatter pipeline, Section 5.4);
* messages carry dense panels (``rows · cols · 8`` bytes);
* the schedule is **level-set**: tasks inherit the supernodal
  elimination-tree level of their source supernode and a global barrier
  separates levels — the synchronisation the paper measures in Figs. 5
  and 13.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.placement import CyclicPlacement
from ..runtime.machine import Platform
from ..runtime.simulator import SimResult, SimSpec, simulate
from .supernodal import SupernodalMatrix
from .supernodes import SupernodePartition

__all__ = ["SupernodalDAG", "build_sn_dag", "sn_etree_levels", "simulate_superlu"]

#: host↔accelerator gather/scatter bandwidth for the baseline's Schur
#: pipeline (PCIe-gen3-ish), bytes/s
GATHER_BANDWIDTH = 1.2e10

_FACT, _TRSM_L, _TRSM_U, _GEMM = 0, 1, 2, 3


@dataclass
class SupernodalDAG:
    """Flat arrays describing the baseline task graph (simulator input)."""

    kinds: np.ndarray
    k_of: np.ndarray
    bi: np.ndarray
    bj: np.ndarray
    flops: np.ndarray
    gather_bytes: np.ndarray
    out_bytes: np.ndarray
    n_deps: np.ndarray
    successors: list[list[int]]
    levels: np.ndarray
    total_dense_flops: float

    def __len__(self) -> int:
        return len(self.kinds)


def sn_etree_levels(part: SupernodePartition) -> np.ndarray:
    """Level (height above the leaves) of each supernode in the supernodal
    elimination tree; parent = supernode owning the first below-panel row."""
    ns = part.n_supernodes
    col_to_sn = part.supernode_of_column()
    level = np.zeros(ns, dtype=np.int64)
    for k in range(ns):
        rows = part.panel_rows[k]
        if rows.size == 0:
            continue
        parent = int(col_to_sn[int(rows[0])])
        level[parent] = max(level[parent], level[k] + 1)
    return level


def _dependency_levels(m: SupernodalMatrix) -> np.ndarray:
    """Supernode levels from the actual block dependency relation.

    ``level[t] = 1 + max(level[k])`` over every step ``k < t`` whose Schur
    update or panel output feeds supernode ``t``.  For structurally
    symmetric fill this coincides with the elimination-tree levels
    (:func:`sn_etree_levels`); for unsymmetric Gilbert–Peierls fill it is
    the correct generalisation — every dependency points from a lower to
    a strictly higher level, which the barrier scheduling requires.
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
    """Construct the supernodal task DAG with dense costs."""
    ns = m.ns
    sn_level = _dependency_levels(m)
    below, right = m.step_blocks

    kinds: list[int] = []
    k_of: list[int] = []
    bi_l: list[int] = []
    bj_l: list[int] = []
    flops: list[float] = []
    gather: list[float] = []
    out_b: list[float] = []
    levels: list[int] = []
    panel_of_block: dict[tuple[int, int], int] = {}
    gemm_into: dict[tuple[int, int], list[int]] = {}

    def add(kind: int, k: int, i: int, j: int, fl: float, gb: float) -> int:
        tid = len(kinds)
        kinds.append(kind)
        k_of.append(k)
        bi_l.append(i)
        bj_l.append(j)
        flops.append(fl)
        gather.append(gb)
        blk = m.block(i, j)
        out_b.append(8.0 * blk.size if blk is not None else 0.0)
        levels.append(int(sn_level[k]))
        return tid

    for k in range(ns):
        w = m.width(k)
        panel_of_block[(k, k)] = add(_FACT, k, k, k, (2.0 / 3.0) * w**3, 0.0)
        row_blocks, col_blocks = below[k], right[k]
        for i in row_blocks:
            blk = m.dense[(i, k)]
            panel_of_block[(i, k)] = add(
                _TRSM_L, k, i, k, float(blk.shape[0]) * w * w, 0.0
            )
        for j in col_blocks:
            blk = m.dense[(k, j)]
            panel_of_block[(k, j)] = add(
                _TRSM_U, k, k, j, float(blk.shape[1]) * w * w, 0.0
            )
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
                tid = add(_GEMM, k, i, j, fl, gb)
                gemm_into.setdefault((i, j), []).append(tid)

    n = len(kinds)
    n_deps = np.zeros(n, dtype=np.int64)
    successors: list[list[int]] = [[] for _ in range(n)]
    for tid in range(n):
        kind = kinds[tid]
        i, j, k = bi_l[tid], bj_l[tid], k_of[tid]
        if kind == _FACT:
            preds = gemm_into.get((k, k), [])
        elif kind in (_TRSM_L, _TRSM_U):
            preds = gemm_into.get((i, j), [])
            successors[panel_of_block[(k, k)]].append(tid)
            n_deps[tid] += 1
        else:
            preds = []
            successors[panel_of_block[(i, k)]].append(tid)
            successors[panel_of_block[(k, j)]].append(tid)
            n_deps[tid] += 2
        for p in preds:
            successors[p].append(tid)
        n_deps[tid] += len(preds)

    return SupernodalDAG(
        kinds=np.asarray(kinds, dtype=np.int64),
        k_of=np.asarray(k_of, dtype=np.int64),
        bi=np.asarray(bi_l, dtype=np.int64),
        bj=np.asarray(bj_l, dtype=np.int64),
        flops=np.asarray(flops),
        gather_bytes=np.asarray(gather),
        out_bytes=np.asarray(out_b),
        n_deps=n_deps,
        successors=successors,
        levels=np.asarray(levels, dtype=np.int64),
        total_dense_flops=float(np.sum(flops)),
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
    place = CyclicPlacement(nprocs)
    owner = np.asarray(
        [place.owner(int(i), int(j)) for i, j in zip(dag.bi, dag.bj)],
        dtype=np.int64,
    )
    priority = dag.k_of * 8 + dag.kinds
    spec = SimSpec(
        durations=durations,
        owner=owner,
        out_bytes=dag.out_bytes,
        n_deps=dag.n_deps.copy(),
        successors=dag.successors,
        priority=priority.astype(np.float64),
        nprocs=nprocs,
        levels=dag.levels,
    )
    return simulate(spec, platform, schedule=schedule), dag

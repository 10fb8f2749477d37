"""Roofline-style kernel cost models for the simulated platforms.

Each kernel variant's simulated time on a device is

``t = launch · launch_scale + max(work / (peak · eff), bytes / mem_bw)``

where *work* is either the structural FLOP count (sparse variants) or the
dense operation count of the block shape (dense-mapped variants — these
really do spend the padded FLOPs, which is the paper's core argument
against dense BLAS on sparse blocks), *eff* is the device's dense or
sparse efficiency times a per-variant factor, and *bytes* counts the data
the variant actually touches (pattern+values for sparse, full block
panels for dense-mapped).

``C_*`` variants run on the host CPU share, ``G_*`` on the process's GPU —
so variant choice decides the executing device, exactly the heterogeneous
trade-off PanguLU's decision trees navigate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.blocking import BlockMatrix
from ..core.dag import TaskDAG, TaskType
from ..kernels.registry import KERNEL_REGISTRY, KernelType, is_gpu_version
from .machine import Device, Platform

__all__ = [
    "SimTask",
    "VariantProfile",
    "VARIANT_PROFILES",
    "kernel_time",
    "best_version",
    "extract_sim_tasks",
    "partition_flop_stats",
    "BYTES_PER_ENTRY",
    "INDEX_BYTES",
    "bytes_per_entry",
]

#: bytes of one stored row index (amortised column pointers ignored)
INDEX_BYTES = 4.0


def bytes_per_entry(value_itemsize: float = 8.0) -> float:
    """Model bytes of one stored sparse entry: value + row index.

    ``value_itemsize`` is the factor dtype's itemsize — 8 for the float64
    default, 4 on the mixed-precision float32 path (halving the value
    stream the roofline charges).
    """
    return float(value_itemsize) + INDEX_BYTES


#: bytes of one stored sparse entry at the float64 model default
#: (8-byte value + 4-byte index); dtype-aware callers should use
#: :func:`bytes_per_entry` with the factor's actual itemsize instead
BYTES_PER_ENTRY = bytes_per_entry(8.0)


@dataclass(frozen=True)
class SimTask:
    """Device-independent record of one task for the simulator."""

    tid: int
    ttype: TaskType
    k: int
    bi: int
    bj: int
    flops: int          # structural (sparse) FLOPs
    dense_flops: float  # FLOPs a dense-mapped variant performs
    nnz_a: int
    nnz_b: int
    nnz_target: int
    rows: int           # target block rows
    cols: int           # target block cols
    inner: int          # contraction dimension (diag/block order)
    out_bytes: float    # message size when the result must move
    operand_density: float = 0.0  # max operand density (regularity proxy)
    value_itemsize: float = 8.0   # factor value bytes (4 on the f32 path)


@dataclass(frozen=True)
class VariantProfile:
    """How one kernel variant maps onto the device model."""

    dense_work: bool        # charge dense_flops instead of structural flops
    dense_bytes: bool       # touch full dense panels instead of nnz entries
    eff_scale: float = 1.0  # multiplier on the device efficiency
    launch_scale: float = 1.0


# The dense-mapped panel solves (GESSM/TSTRF C_V2) are one GEMM with the
# explicit inverse of the diagonal block's triangle: 2·n²·m executed FLOPs
# for the n²·m of substitution that ``dense_flops`` counts, hence half the
# device's dense efficiency is useful work.  SSSSM C_V1 is the same dense
# GEMM as ever; what it stopped doing — re-scattering all three panels per
# task — this model never charged (``dense_bytes`` counts each panel once).
# A panel solve is one piece of code per addressing method, run on ``(L, B)``
# for GESSM and on ``(Uᵀ, Bᵀ)`` for TSTRF: one profile row serves both.
_PANEL_PROFILES = {
    "C_V1": VariantProfile(False, False, eff_scale=0.7),
    "C_V2": VariantProfile(True, True, eff_scale=0.5),
    "G_V1": VariantProfile(False, False),
    "G_V2": VariantProfile(False, True, eff_scale=1.4, launch_scale=1.5),
    "G_V3": VariantProfile(True, True, launch_scale=2.0),
}

VARIANT_PROFILES: dict[tuple[KernelType, str], VariantProfile] = {
    (KernelType.GETRF, "C_V1"): VariantProfile(True, True),
    (KernelType.GETRF, "G_V1"): VariantProfile(False, False),
    (KernelType.GETRF, "G_V2"): VariantProfile(False, False, eff_scale=1.6),
    **{(k, v): p for k in (KernelType.GESSM, KernelType.TSTRF)
       for v, p in _PANEL_PROFILES.items()},
    (KernelType.SSSSM, "C_V1"): VariantProfile(True, True),
    (KernelType.SSSSM, "C_V2"): VariantProfile(False, False),
    (KernelType.SSSSM, "G_V1"): VariantProfile(False, False, eff_scale=3.0, launch_scale=2.0),
    (KernelType.SSSSM, "G_V2"): VariantProfile(False, True, eff_scale=1.5),
}

_TTYPE_TO_KTYPE = {
    TaskType.GETRF: KernelType.GETRF,
    TaskType.GESSM: KernelType.GESSM,
    TaskType.TSTRF: KernelType.TSTRF,
    TaskType.SSSSM: KernelType.SSSSM,
}


def _device_for(platform: Platform, version: str) -> Device:
    return platform.gpu if is_gpu_version(version) else platform.cpu


def kernel_time(task: SimTask, version: str, platform: Platform) -> float:
    """Simulated execution time of ``task`` under kernel ``version``."""
    ktype = _TTYPE_TO_KTYPE[task.ttype]
    profile = VARIANT_PROFILES[(ktype, version)]
    device = _device_for(platform, version)
    if profile.dense_work:
        work = task.dense_flops
        eff = device.dense_efficiency * profile.eff_scale
    else:
        work = float(task.flops)
        # Sparse kernels on dense operands access memory almost as
        # regularly as dense kernels do, so the achievable efficiency
        # interpolates from the sparse floor towards the dense ceiling as
        # the operands fill up (this is why the paper's sparse SSSSM stays
        # within ~10% of dense GEMM on audikw_1-class blocks).
        d = min(1.0, max(0.0, task.operand_density))
        base = device.sparse_efficiency + (d**2) * 0.85 * (
            device.dense_efficiency - device.sparse_efficiency
        )
        eff = base * profile.eff_scale
    if profile.dense_bytes:
        nbytes = task.value_itemsize * (
            task.rows * task.cols
            + task.inner * task.cols
            + task.rows * task.inner
        )
    else:
        nbytes = bytes_per_entry(task.value_itemsize) * (
            task.nnz_a + task.nnz_b + 2 * task.nnz_target
        )
    t_compute = work / (device.flops_peak * eff) if work else 0.0
    t_memory = nbytes / device.mem_bw
    return device.launch_overhead * profile.launch_scale + max(t_compute, t_memory)


def best_version(task: SimTask, platform: Platform) -> tuple[str, float]:
    """The cost-minimising variant for a task on a platform.

    This plays the role of the decision trees in the *simulated* setting:
    the paper's trees are fitted to measured kernel times on the target
    GPU, which for a model platform is equivalent to consulting the model
    directly.  The Fig. 14 ablation compares this against a fixed
    baseline version.
    """
    ktype = _TTYPE_TO_KTYPE[task.ttype]
    best_v, best_t = "", np.inf
    for version in KERNEL_REGISTRY[ktype]:
        t = kernel_time(task, version, platform)
        if t < best_t:
            best_v, best_t = version, t
    return best_v, best_t


def extract_sim_tasks(f: BlockMatrix, dag: TaskDAG) -> list[SimTask]:
    """Build the device-independent task records from the blocked matrix.

    Uses only patterns — callable before (or without) any numeric work,
    which is how the scalability benches sweep process counts cheaply.
    The byte model is priced at the structure's value dtype, so a
    float32-partitioned matrix is simulated with its actual (halved)
    value traffic.
    """
    from ..core.numeric import task_features  # imports this package

    itemsize = float(getattr(f, "dtype", np.dtype(np.float64)).itemsize)
    out: list[SimTask] = []
    for t in dag.tasks:
        target = f.block(t.bi, t.bj)
        assert target is not None
        rows_n, cols_n = target.shape
        # operand nnz and contraction dimension are the selector's features
        feats = task_features(f, t)
        nnz_a, nnz_b, inner = feats.nnz_a, feats.nnz_b, feats.n
        op_density = target.density
        if t.ttype == TaskType.GETRF:
            dense = (2.0 / 3.0) * rows_n**3
        elif t.ttype == TaskType.GESSM:
            dense = float(inner) ** 2 * cols_n
        elif t.ttype == TaskType.TSTRF:
            dense = float(inner) ** 2 * rows_n
        else:
            dense = 2.0 * rows_n * cols_n * inner
            op_density = max(
                nnz_a / (rows_n * inner), nnz_b / (inner * cols_n)
            )
        out.append(
            SimTask(
                tid=t.tid,
                ttype=t.ttype,
                k=t.k,
                bi=t.bi,
                bj=t.bj,
                flops=t.flops,
                dense_flops=dense,
                nnz_a=int(nnz_a),
                nnz_b=int(nnz_b),
                nnz_target=target.nnz,
                rows=rows_n,
                cols=cols_n,
                inner=int(inner),
                out_bytes=bytes_per_entry(itemsize) * target.nnz,
                operand_density=float(op_density),
                value_itemsize=itemsize,
            )
        )
    return out


def partition_flop_stats(f: BlockMatrix, dag: TaskDAG) -> dict:
    """Work profile of a partition — the blocking-ablation comparison row.

    From the per-task extents (actual block shapes, not a nominal block
    size): structural FLOPs (what sparse kernels execute), dense-mapped
    FLOPs (what dense-panel kernels would execute on the same cut — the
    *padded* work), and their ratio.  A structure-aware blocking lowers
    the padded total by aligning block boundaries with the fill pattern,
    which is exactly what this summary is meant to show.
    """
    sim = extract_sim_tasks(f, dag)
    structural = float(sum(t.flops for t in sim))
    dense = float(sum(t.dense_flops for t in sim))
    return {
        "tasks": len(sim),
        "blocks": f.num_blocks,
        "grid": f.nb,
        "structural_flops": structural,
        "dense_flops": dense,
        "padding_ratio": dense / structural if structural else 1.0,
    }

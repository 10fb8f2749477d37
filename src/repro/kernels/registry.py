"""Kernel registry: the 17 sparse kernel variants of Table 1, plus the
low-rank extension family.

Each variant is addressed as ``(KernelType, version)`` — e.g.
``(KernelType.SSSSM, "G_V1")``.  Versions starting with ``C_`` are the
CPU-class algorithms (pure sparse loops, merge addressing); versions
starting with ``G_`` are the GPU-class algorithms (throughput-oriented:
dense workspaces, level scheduling, compiled offload).  The distinction
feeds the heterogeneous cost model in :mod:`repro.runtime.costmodel`.

Beyond Table 1, the compressed-block layer (ROADMAP item 3) adds a
fifth family — ``COMPRESS`` transition kernels (truncated/randomised
SVD and the approved decompress) — and two low-rank SSSSM versions
(``LR_V1``/``LR_V2``) that consume :class:`~repro.sparse.blockrep.
CompressedBlock` operands at ``O((m + n) · rank)`` cost.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from .compress import COMPRESS_VARIANTS, LR_SSSSM_VARIANTS
from .getrf import GETRF_VARIANTS
from .gessm import GESSM_VARIANTS
from .ssssm import SSSSM_VARIANTS
from .tstrf import TSTRF_VARIANTS

__all__ = [
    "KernelType",
    "KERNEL_REGISTRY",
    "kernel_names",
    "get_kernel",
    "is_gpu_version",
    "plan_capable",
    "IMAGE_VERSIONS",
]


class KernelType(enum.Enum):
    """The four block-kernel roles of PanguLU's numeric factorisation."""

    GETRF = "GETRF"   # diagonal-block LU
    GESSM = "GESSM"   # lower triangular solve (block column of U)
    TSTRF = "TSTRF"   # upper triangular solve (block row of L)
    SSSSM = "SSSSM"   # sparse-sparse Schur update
    COMPRESS = "COMPRESS"  # low-rank representation transitions

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.value


KERNEL_REGISTRY: dict[KernelType, dict[str, Callable]] = {
    KernelType.GETRF: dict(GETRF_VARIANTS),
    KernelType.GESSM: dict(GESSM_VARIANTS),
    KernelType.TSTRF: dict(TSTRF_VARIANTS),
    KernelType.SSSSM: dict(SSSSM_VARIANTS) | dict(LR_SSSSM_VARIANTS),
    KernelType.COMPRESS: dict(COMPRESS_VARIANTS),
}


#: the "Direct" variant of each family that is one GEMM on dense operand
#: *images* and takes them from a caller that holds them (``inv=`` for
#: the panel solves, ``a_dense=`` / ``b_dense=`` for SSSSM)
IMAGE_VERSIONS = {
    KernelType.GESSM: "C_V2",
    KernelType.TSTRF: "C_V2",
    KernelType.SSSSM: "C_V1",
}


def kernel_names() -> list[tuple[KernelType, str]]:
    """All 22 ``(type, version)`` pairs: the 17 of Table 1 in table
    order, then the low-rank SSSSM versions and the COMPRESS family."""
    return [
        (ktype, version)
        for ktype, versions in KERNEL_REGISTRY.items()
        for version in versions
    ]


def get_kernel(ktype: KernelType, version: str) -> Callable:
    """Look up a kernel implementation; raises ``KeyError`` with the list of
    valid versions on a miss."""
    versions = KERNEL_REGISTRY[ktype]
    try:
        return versions[version]
    except KeyError:
        raise KeyError(
            f"{ktype} has no version {version!r}; valid: {sorted(versions)}"
        ) from None


def is_gpu_version(version: str) -> bool:
    """True for the GPU-class (throughput-oriented) variants."""
    return version.startswith("G_")


def plan_capable(ktype: KernelType, version: str) -> bool:
    """True when the variant has a fixed-pattern execution plan that
    reproduces its arithmetic bit-for-bit (see :mod:`repro.kernels.plans`)."""
    from .plans import PLANNABLE_VERSIONS  # deferred: plans imports this module

    return version in PLANNABLE_VERSIONS.get(ktype, ())

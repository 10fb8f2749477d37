"""Kernel registry: the 17 sparse kernel variants of Table 1.

Each variant is addressed as ``(KernelType, version)`` — e.g.
``(KernelType.SSSSM, "G_V1")``.  Versions starting with ``C_`` are the
CPU-class algorithms (pure sparse loops, merge addressing); versions
starting with ``G_`` are the GPU-class algorithms (throughput-oriented:
dense workspaces, level scheduling, compiled offload).  The distinction
feeds the heterogeneous cost model in :mod:`repro.runtime.costmodel`.

The low-rank overlay's update (:func:`repro.kernels.compress.ssssm_lr`)
is not a variant here: no selector chooses it — an SSSSM runs it when an
operand carries an overlay.
"""

from __future__ import annotations

from collections.abc import Callable

from .base import KernelType
from .getrf import GETRF_VARIANTS
from .gessm import GESSM_VARIANTS
from .plans import PLANNABLE_VERSIONS
from .ssssm import SSSSM_VARIANTS
from .tstrf import TSTRF_VARIANTS

__all__ = [
    "KernelType",
    "KERNEL_REGISTRY",
    "kernel_names",
    "get_kernel",
    "is_gpu_version",
    "IMAGE_VERSIONS",
    "TARGET_IMAGE_VERSIONS",
    "CACHED_OPERAND",
]


KERNEL_REGISTRY: dict[KernelType, dict[str, Callable]] = {
    KernelType.GETRF: dict(GETRF_VARIANTS),
    KernelType.GESSM: dict(GESSM_VARIANTS),
    KernelType.TSTRF: dict(TSTRF_VARIANTS),
    KernelType.SSSSM: dict(SSSSM_VARIANTS),
}


#: the "Direct" variant of each family that is one GEMM on dense operand
#: *images* and takes them from a caller that holds them (``inv=`` for
#: the panel solves, ``a_dense=`` / ``b_dense=`` for SSSSM)
IMAGE_VERSIONS = {
    KernelType.GESSM: "C_V2",
    KernelType.TSTRF: "C_V2",
    KernelType.SSSSM: "C_V1",
}

#: the dense-mapped variant of each family, which works in place on its
#: target's dense image when a caller holds one (``image=``, a
#: :class:`~repro.kernels.base.TargetImage`): SSSSM subtracts into it,
#: GETRF factors it, GESSM / TSTRF solve it and leave the product there
TARGET_IMAGE_VERSIONS = {**IMAGE_VERSIONS, KernelType.GETRF: "C_V1"}

#: What a variant can be handed by a caller that caches it, besides its
#: blocks — the one thing the numeric driver looks up per task:
#: ``"plan"`` (keyword ``plan=``: the fixed-pattern plan that reproduces
#: the variant's own loop, :data:`~repro.kernels.plans.PLANNABLE_VERSIONS`)
#: or ``"images"`` (the keywords of :data:`IMAGE_VERSIONS`).  Both are
#: optional: without them the variant does the work itself and keeps
#: nothing.  A variant not listed takes its blocks and nothing else.
CACHED_OPERAND: dict[tuple[KernelType, str], str] = {
    **{(k, v): "plan" for k, versions in PLANNABLE_VERSIONS.items() for v in versions},
    **{(k, v): "images" for k, v in IMAGE_VERSIONS.items()},
}


def kernel_names() -> list[tuple[KernelType, str]]:
    """The 17 ``(type, version)`` pairs of Table 1, in table order."""
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


"""Block sparse BLAS: the 17 kernel variants of Table 1 (GETRF×3,
GESSM×5, TSTRF×5, SSSSM×4), the low-rank overlay's compressor and
Schur update, structural FLOP counters, the kernel registry, the
decision-tree selector of Fig. 8, and fixed-pattern execution plans
(precomputed scatter addressing) that the sparse
variants accept as ``plan=`` (their runners stay in
:mod:`repro.kernels.plans`), and the kernels of the triangular solves
(``diag_seg``, ``prod_stack``)."""

from .base import SingularBlockError, Triangle, Workspace, triangle
from .compress import CompressPolicy, lr_ssssm_flops, ssssm_lr, try_compress
from .flops import (
    gessm_flops,
    getrf_flops,
    ssssm_flops_structural,
    tstrf_flops,
)
from .getrf import GETRF_VARIANTS, getrf_c_v1, getrf_g_v1, getrf_g_v2
from .gessm import (
    GESSM_VARIANTS,
    gessm_c_v1,
    gessm_c_v2,
    gessm_g_v1,
    gessm_g_v2,
    gessm_g_v3,
)
from .plans import (
    PLANNABLE_VERSIONS,
    GETRFPlan,
    PlanCache,
    SolvePlan,
    SSSSMPlan,
    build_getrf_plan,
    build_solve_plan,
    build_ssssm_plan,
)
from .registry import (
    KERNEL_REGISTRY,
    KernelType,
    get_kernel,
    is_gpu_version,
    kernel_names,
)
from .selector import (
    DecisionTree,
    SelectorPolicy,
    Split,
    TaskFeatures,
    calibrate,
    default_trees,
)
from .ssssm import (
    SSSSM_VARIANTS,
    ssssm_c_v1,
    ssssm_c_v2,
    ssssm_g_v1,
    ssssm_g_v2,
)
from .tstrf import (
    TSTRF_VARIANTS,
    tstrf_c_v1,
    tstrf_c_v2,
    tstrf_g_v1,
    tstrf_g_v2,
    tstrf_g_v3,
)
from .tsolve_kernels import diag_seg, prod_stack

__all__ = [
    "KernelType",
    "KERNEL_REGISTRY",
    "kernel_names",
    "get_kernel",
    "is_gpu_version",
    "Workspace",
    "SingularBlockError",
    "Triangle",
    "triangle",
    "getrf_flops",
    "gessm_flops",
    "tstrf_flops",
    "ssssm_flops_structural",
    "GETRF_VARIANTS",
    "GESSM_VARIANTS",
    "TSTRF_VARIANTS",
    "SSSSM_VARIANTS",
    "CompressPolicy",
    "ssssm_lr",
    "lr_ssssm_flops",
    "try_compress",
    "DecisionTree",
    "Split",
    "TaskFeatures",
    "SelectorPolicy",
    "default_trees",
    "calibrate",
    "PlanCache",
    "PLANNABLE_VERSIONS",
    "SSSSMPlan",
    "SolvePlan",
    "GETRFPlan",
    "build_ssssm_plan",
    "build_solve_plan",
    "build_getrf_plan",
    "diag_seg",
    "prod_stack",
]

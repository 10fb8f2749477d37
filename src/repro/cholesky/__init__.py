"""SPD extension: block Cholesky over the regular 2D layout (the
factorisation PanguLU's own later releases added for symmetric positive
definite systems) — a DAG builder and one kernel on the LU machinery;
the flop counters and ``l_inverse`` live in :mod:`repro.cholesky.kernels`."""

from .kernels import NotPositiveDefiniteError, build_llt_dag, potrf
from .solver import CholeskyOptions, LLtJob, PanguLLt

__all__ = [
    "PanguLLt",
    "CholeskyOptions",
    "LLtJob",
    "build_llt_dag",
    "potrf",
    "NotPositiveDefiniteError",
]

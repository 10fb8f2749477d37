"""Sparse-matrix substrate: CSC container, the low-rank block overlay
and its truncations, Matrix Market I/O, pattern
utilities, and synthetic analogues of the paper's 16 test matrices."""

from .blockrep import (
    CompressedBlock,
    lr_profit_cap,
    randomized_svd,
    truncated_svd,
)
from .csc import CSCMatrix, coo_to_csc
from .generators import (
    MATRIX_GENERATORS,
    cage_like,
    circuit_like,
    fem_3d,
    generate,
    grid_laplacian_2d,
    grid_laplacian_3d,
    kkt_saddle_point,
    paper_matrix_names,
    quantum_chemistry_like,
    random_sparse,
)
from .io import read_matrix_market, write_matrix_market
from .patterns import (
    bandwidth,
    ensure_diagonal,
    has_full_diagonal,
    is_structurally_symmetric,
    symmetrize_pattern,
)

__all__ = [
    "CSCMatrix",
    "coo_to_csc",
    "CompressedBlock",
    "lr_profit_cap",
    "truncated_svd",
    "randomized_svd",
    "MATRIX_GENERATORS",
    "generate",
    "paper_matrix_names",
    "grid_laplacian_2d",
    "grid_laplacian_3d",
    "fem_3d",
    "circuit_like",
    "cage_like",
    "quantum_chemistry_like",
    "kkt_saddle_point",
    "random_sparse",
    "read_matrix_market",
    "write_matrix_market",
    "symmetrize_pattern",
    "bandwidth",
    "is_structurally_symmetric",
    "has_full_diagonal",
    "ensure_diagonal",
]

"""SuperLU_DIST-role baseline: Gilbert–Peierls column-DFS symbolic fill,
supernode detection with relaxation, dense-panel supernodal factorisation,
its task DAG with dense costs, and the level-set distributed simulation."""

from .dag import (
    GATHER_BANDWIDTH,
    SupernodalDAG,
    build_sn_dag,
    simulate_superlu,
)
from .gp import symbolic_gilbert_peierls
from .solver import BaselineOptions, SuperLUBaseline
from .supernodal import (
    GEMMRecord,
    SupernodalMatrix,
    SupernodalStats,
    sn_factorize,
    sn_partition,
)
from .supernodes import (
    SupernodePartition,
    detect_supernodes,
    supernode_size_histogram,
)

__all__ = [
    "symbolic_gilbert_peierls",
    "SupernodePartition",
    "detect_supernodes",
    "supernode_size_histogram",
    "SupernodalMatrix",
    "SupernodalStats",
    "GEMMRecord",
    "sn_partition",
    "sn_factorize",
    "SupernodalDAG",
    "build_sn_dag",
    "simulate_superlu",
    "GATHER_BANDWIDTH",
    "BaselineOptions",
    "SuperLUBaseline",
]

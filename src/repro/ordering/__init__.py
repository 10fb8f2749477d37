"""Reordering substrate: MC64 matchings/scaling for numerical stability,
and fill-reducing orderings (AMD, nested dissection, RCM)."""

from .amd import amd
from .colamd import colamd
from .mc64 import MC64Result, StructurallySingularError, maximum_transversal, mc64
from .nd import nested_dissection
from .rcm import bfs_levels, pseudo_peripheral_vertex, rcm

__all__ = [
    "amd",
    "colamd",
    "mc64",
    "MC64Result",
    "StructurallySingularError",
    "maximum_transversal",
    "nested_dissection",
    "rcm",
    "bfs_levels",
    "pseudo_peripheral_vertex",
]

"""Symbolic-factorisation substrate: elimination trees and symmetric-pruned
fill (PanguLU's path).  The baseline's Gilbert–Peierls column-DFS fill is
:func:`repro.baseline.symbolic_gilbert_peierls`."""

from .etree import (
    column_structures,
    elimination_tree,
    postorder,
)
from .fill import SymbolicResult, entry_positions, fill_in_values, symbolic_symmetric

__all__ = [
    "elimination_tree",
    "column_structures",
    "postorder",
    "SymbolicResult",
    "symbolic_symmetric",
    "entry_positions",
    "fill_in_values",
]

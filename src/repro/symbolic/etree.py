"""Elimination tree computation (Liu's algorithm) and the column
structures it carries.

The elimination tree of a (symmetrised) sparse matrix drives PanguLU's
symmetric-pruned fill computation, which merges column structures up the
etree (:func:`column_structures`).  The supernodal baseline groups
contiguous columns of its Gilbert–Peierls fill instead
(:func:`repro.baseline.supernodes.detect_supernodes`).
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import sorted_unique, symmetrize_pattern

__all__ = [
    "elimination_tree",
    "column_structures",
]


def elimination_tree(a: CSCMatrix, *, symmetrize: bool = True) -> np.ndarray:
    """Elimination tree of the pattern of ``A`` (or ``A + A^T``).

    Returns ``parent`` where ``parent[j]`` is the etree parent of column
    ``j`` (−1 for roots).  Uses Liu's algorithm with path compression
    (virtual ancestors), O(nnz · α(n)).
    """
    s = symmetrize_pattern(a) if symmetrize else a
    n = s.ncols
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        rows = s.indices[s.col_slice(j)]
        for r in rows[rows < j]:
            # climb from r to the root of its current subtree, compressing
            i = int(r)
            while True:
                anc = int(ancestor[i])
                ancestor[i] = j
                if anc < 0:
                    if parent[i] < 0 and i != j:
                        parent[i] = j
                    break
                if anc == j:
                    break
                i = anc
    return parent


def column_structures(
    s: CSCMatrix, limit: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Elimination tree and below-diagonal column structures of the
    Cholesky factor ``L`` of a structurally symmetric pattern ``s``.

    Column ``j`` of ``L`` is its own below-diagonal entries plus whatever
    its etree children pass up::

        struct(L_j) = s_j[> j]  ∪  ⋃_{c : parent[c] = j} struct(L_c) ∖ {j}

    and ``parent[j] = min struct(L_j)``, so one left-to-right sweep finds
    tree and structures together: every child ``c < j`` is complete, and
    knows its parent, before column ``j`` is merged.  One
    concatenate/sort/dedupe per column with several children passing
    structures up; a column with one such child ``searchsorted``-s its own
    entries into the child's tail, and where they all lie in it — the
    column continues the child's supernode — or it has none, its
    structure *is* that tail, a slice of the child's array.

    Returns ``(parent, ptr, rows)``: the etree (−1 for roots, the same tree
    as :func:`elimination_tree`) and the structures in CSC form without
    the diagonal — ``rows[ptr[j]:ptr[j + 1]]`` is ``struct(L_j)``, sorted.
    With a ``limit``, the sweep stops and returns ``None`` at the first
    column where the running count of entries passes it — exactly when
    the whole count would.
    """
    n = s.ncols
    rows, cols = s.rows_cols()
    below = rows > cols
    own_rows = rows[below]
    own_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols[below], minlength=n), out=own_ptr[1:])
    own_ptr = own_ptr.tolist()

    parent = np.full(n, -1, dtype=np.int64)
    structs: list[np.ndarray] = []
    # what the completed children of j pass up: their structures minus j
    inherited: list[list[np.ndarray]] = [[] for _ in range(n)]
    count = 0
    for j in range(n):
        parts = inherited[j]
        own = own_rows[own_ptr[j] : own_ptr[j + 1]]
        if not parts:
            struct = own
        elif len(parts) == 1:
            struct = _union(parts[0], own) if own.size else parts[0]
        else:
            parts.append(own)
            struct = sorted_unique(np.concatenate(parts))
        inherited[j] = None
        structs.append(struct)
        if limit is not None:
            count += struct.size
            if count > limit:
                return None
        if struct.size:
            p = int(struct[0])
            parent[j] = p
            if struct.size > 1:
                inherited[p].append(struct[1:])

    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([st.size for st in structs], out=ptr[1:])
    return parent, ptr, np.concatenate(structs) if n else own_rows


def _union(tail: np.ndarray, own: np.ndarray) -> np.ndarray:
    """``tail ∪ own`` for sorted unique arrays: ``tail`` itself, not a copy,
    when it already holds every entry of ``own`` (the column continues its
    only child's supernode); otherwise the entries ``own`` adds, found by
    one ``searchsorted``, sorted in."""
    new = own[tail.take(tail.searchsorted(own), mode="clip") != own]
    return np.sort(np.concatenate((tail, new))) if new.size else tail

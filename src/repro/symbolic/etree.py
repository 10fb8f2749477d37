"""Elimination tree computation (Liu's algorithm) and related traversals.

The elimination tree of a (symmetrised) sparse matrix drives both symbolic
factorisation paths in this reproduction: PanguLU's symmetric-pruned fill
computation merges column structures up the etree
(:func:`column_structures`), and the supernodal baseline uses the etree's
postorder to detect supernodes.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import sorted_unique, symmetrize_pattern

__all__ = [
    "elimination_tree",
    "column_structures",
    "postorder",
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


def postorder(parent: np.ndarray) -> np.ndarray:
    """Postorder permutation of a forest given parent pointers.

    Returns ``post`` such that ``post[k]`` is the k-th vertex in postorder
    (children before parents; the forest roots appear last within their
    trees).
    """
    n = parent.size
    # build children lists (in increasing vertex order for determinism)
    first_child = np.full(n, -1, dtype=np.int64)
    next_sibling = np.full(n, -1, dtype=np.int64)
    for v in range(n - 1, -1, -1):
        p = int(parent[v])
        if p >= 0:
            next_sibling[v] = first_child[p]
            first_child[p] = v
    post = np.empty(n, dtype=np.int64)
    k = 0
    for root in range(n):
        if parent[root] >= 0:
            continue
        # iterative DFS
        stack = [root]
        while stack:
            v = stack[-1]
            c = int(first_child[v])
            if c >= 0:
                stack.append(c)
                first_child[v] = next_sibling[c]  # consume child
            else:
                post[k] = stack.pop()
                k += 1
    if k != n:
        raise ValueError("parent array does not describe a forest")
    return post


def column_structures(s: CSCMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elimination tree and below-diagonal column structures of the
    Cholesky factor ``L`` of a structurally symmetric pattern ``s``.

    Column ``j`` of ``L`` is its own below-diagonal entries plus whatever
    its etree children pass up::

        struct(L_j) = s_j[> j]  ∪  ⋃_{c : parent[c] = j} struct(L_c) ∖ {j}

    and ``parent[j] = min struct(L_j)``, so one left-to-right sweep finds
    tree and structures together: every child ``c < j`` is complete, and
    knows its parent, before column ``j`` is merged.  One
    concatenate/sort/dedupe per column; a column with a single child and
    no entries of its own is a slice of the child's array.

    Returns ``(parent, ptr, rows)``: the etree (−1 for roots, the same tree
    as :func:`elimination_tree`) and the structures in CSC form without
    the diagonal — ``rows[ptr[j]:ptr[j + 1]]`` is ``struct(L_j)``, sorted.
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
    for j in range(n):
        parts = inherited[j]
        own = own_rows[own_ptr[j] : own_ptr[j + 1]]
        if own.size:
            parts.append(own)
        if len(parts) == 1:
            struct = parts[0]
        elif parts:
            struct = sorted_unique(np.concatenate(parts))
        else:
            struct = own
        inherited[j] = None
        structs.append(struct)
        if struct.size:
            p = int(struct[0])
            parent[j] = p
            if struct.size > 1:
                inherited[p].append(struct[1:])

    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([st.size for st in structs], out=ptr[1:])
    return parent, ptr, np.concatenate(structs) if n else own_rows

"""Gilbert–Peierls column-DFS symbolic factorisation (baseline path).

SuperLU_DIST determines the exact unsymmetric fill of ``L`` and ``U`` (for
its static-pivoting factorisation) by, for every column ``j``, computing
the vertices reachable from ``pattern(A[:, j])`` in the directed graph of
the already-computed columns of ``L``.  This module implements that
column-DFS, with optional Eisenstat–Liu symmetric pruning of the searched
structures (the optimisation SuperLU uses to cut the traversal cost).

The returned pattern is exact for LU *without pivoting* — both solvers in
this reproduction factorise after MC64 + fill-reducing reordering with
static pivoting, matching the paper's setup.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix, coo_to_csc
from ..symbolic.etree import elimination_tree
from ..symbolic.fill import SymbolicResult, entry_positions

__all__ = ["symbolic_gilbert_peierls"]


def symbolic_gilbert_peierls(a: CSCMatrix, *, prune: bool = True) -> SymbolicResult:
    """Exact unsymmetric LU fill via Gilbert–Peierls reachability.

    Parameters
    ----------
    a:
        Square matrix with a zero-free diagonal (run MC64 first).
    prune:
        Apply symmetric pruning to the traversed structures.  The result
        pattern is identical either way; pruning only shortens the DFS.

    Returns
    -------
    SymbolicResult
        With ``filled`` = exact pattern of ``L + U`` holding ``a``'s values.
    """
    if a.nrows != a.ncols:
        raise ValueError("symbolic factorisation requires a square matrix")
    n = a.ncols

    # L columns discovered so far: for each column v, the strictly-below-
    # diagonal row indices, and the pruned search length (Eisenstat–Liu).
    l_struct: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n
    search_len = np.zeros(n, dtype=np.int64)
    # U columns (strictly above diagonal), collected per column
    u_cols: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n

    mark = np.full(n, -1, dtype=np.int64)
    nnz_l = n  # diagonal
    nnz_u = n

    for j in range(n):
        visited: list[int] = []
        # iterative DFS; each stack frame is (vertex, next edge position)
        stack: list[tuple[int, int]] = []
        rows_aj = a.indices[a.col_slice(j)]
        for r0 in rows_aj:
            v = int(r0)
            if mark[v] == j:
                continue
            mark[v] = j
            stack.append((v, 0))
            while stack:
                v, k = stack.pop()
                struct = l_struct[v] if v < j else None
                limit = int(search_len[v]) if (prune and v < j) else (
                    struct.size if struct is not None else 0
                )
                pushed = False
                while struct is not None and k < limit:
                    w = int(struct[k])
                    k += 1
                    if mark[w] != j:
                        mark[w] = j
                        stack.append((v, k))
                        stack.append((w, 0))
                        pushed = True
                        break
                if not pushed:
                    visited.append(v)

        vis = np.asarray(visited, dtype=np.int64)
        below = np.sort(vis[vis > j])
        above = np.sort(vis[vis < j])
        l_struct[j] = below
        if prune:
            # prune point: search may stop after the first row r in L[:,j]
            # that also appears in U[j, :] — i.e. U[r... symmetric entry:
            # L[r, j] != 0 and U[j, r] != 0.  U[j, r] != 0 means j appears
            # in u_cols[r] — detect lazily below when each later column r
            # records its U pattern.  Initialise unpruned:
            search_len[j] = below.size
        u_cols[j] = above
        # update prune points of columns s that gained a symmetric match:
        # U[s, j] != 0 (s in `above`) and L[j, s] != 0 (j in l_struct[s])
        if prune:
            for s in above:
                s = int(s)
                struct = l_struct[s]
                sl = int(search_len[s])
                pos = int(np.searchsorted(struct, j))
                if pos < struct.size and struct[pos] == j and pos + 1 < sl:
                    search_len[s] = pos + 1
        nnz_l += below.size
        nnz_u += above.size

    # assemble the filled pattern
    total = nnz_l + nnz_u - n  # diagonal counted once structurally
    rows = np.empty(total, dtype=np.int64)
    cols = np.empty(total, dtype=np.int64)
    k = 0
    for j in range(n):
        below, above = l_struct[j], u_cols[j]
        cnt = below.size + above.size + 1
        rows[k : k + above.size] = above
        rows[k + above.size] = j
        rows[k + above.size + 1 : k + cnt] = below
        cols[k : k + cnt] = j
        k += cnt
    filled = coo_to_csc((n, n), rows[:k], cols[:k], np.zeros(k))
    positions = entry_positions(filled, a)
    filled.data[positions] = a.data
    return SymbolicResult(
        filled=filled,
        etree=elimination_tree(a),
        nnz_l=nnz_l,
        nnz_u=nnz_u,
        a_positions=positions,
    )

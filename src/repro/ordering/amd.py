"""Approximate Minimum Degree (AMD) fill-reducing ordering.

A from-scratch implementation of the Amestoy–Davis–Duff algorithm on the
quotient graph: eliminated pivots become *elements*, adjacent variables with
identical adjacency are merged into *supervariables* (mass elimination), and
external degrees are updated with the AMD approximate-degree bound rather
than exact set unions.

This plays the role METIS/AMD plays in PanguLU's reordering phase: reduce
fill before symbolic factorisation.  Both solvers under test share the same
ordering, so the paper's comparisons are unaffected by the exact ordering
quality.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import adjacency

__all__ = ["amd"]


def amd(a: CSCMatrix) -> np.ndarray:
    """Compute an approximate-minimum-degree permutation.

    Parameters
    ----------
    a:
        Square sparse matrix; its symmetrised pattern defines the
        elimination graph.

    Returns
    -------
    numpy.ndarray
        "New-from-old" permutation ``p``: eliminating variables in the order
        ``p[0], p[1], …`` approximately minimises fill, i.e. reorder with
        ``A[p][:, p]``.
    """
    if a.nrows != a.ncols:
        raise ValueError("AMD requires a square matrix")
    order, _ = _amd_order(adjacency(a))
    return np.asarray(order, dtype=np.int64)


def _amd_order(adj: tuple[np.ndarray, np.ndarray]) -> tuple[list[int], int]:
    """AMD on the graph whose sorted neighbour lists are ``idx[ptr[v]:ptr[v
    + 1]]`` (no self-loops).  Returns the elimination order and the number
    of pivots (supervariables eliminated) it took.

    Scalars live in Python lists, and an element's size is recorded when
    the element is formed: a supervariable merge folds ``i`` into a ``j``
    adjacent to exactly the same elements, so every element loses
    ``nv[i]`` and gains it back.  The sets must be built and updated by
    exactly these operations in this order: a supervariable's
    representative is the first member in ``lp``'s set-iteration order,
    so that order is part of the permutation.
    """
    ptr, idx = adj
    n = ptr.size - 1
    flat, bounds = idx.tolist(), ptr.tolist()
    adj_var: list[set[int]] = [set(flat[bounds[v]:bounds[v + 1]]) for v in range(n)]
    adj_el: list[set[int]] = [set() for _ in range(n)]
    el_vars: dict[int, set[int]] = {}
    el_size = [0] * n                      # |element p| when p was eliminated
    nv = [1] * n                           # supervariable sizes
    alive = [True] * n
    eliminated = [False] * n
    absorbed_into = [-1] * n
    degree = [len(s) for s in adj_var]

    heap: list[tuple[int, int]] = [(degree[i], i) for i in range(n)]
    heapq.heapify(heap)

    order: list[int] = []

    while heap:
        d, p = heapq.heappop(heap)
        if not alive[p] or eliminated[p] or d != degree[p]:
            continue  # stale heap entry or merged supervariable

        # --- form the pivot element Lp -----------------------------------
        lp: set[int] = set(v for v in adj_var[p] if alive[v])
        for e in adj_el[p]:
            lp |= el_vars[e]
        lp.discard(p)
        lp = {v for v in lp if alive[v] and not eliminated[v]}

        eliminated[p] = True
        order.append(p)
        parents_els = set(adj_el[p])
        # absorb old elements into the new one
        for e in parents_els:
            el_vars.pop(e, None)
        el_vars[p] = set(lp)

        # --- update each variable in Lp ----------------------------------
        lp_and_p = lp | {p}
        for i in lp:
            adj_var[i] -= lp_and_p
            adj_el[i] -= parents_els
            adj_el[i].add(p)

        # --- approximate external degrees ---------------------------------
        # |Le \ Lp| for every element e still adjacent to some i in Lp,
        # computed with one counting pass (the AMD w-trick).
        overlap: dict[int, int] = {}
        for i in lp:
            w = nv[i]
            for e in adj_el[i]:
                if e != p:
                    overlap[e] = overlap.get(e, 0) + w

        lp_size = el_size[p] = sum(map(nv.__getitem__, lp))
        remaining = n - len(order)
        for i in lp:
            ext = lp_size - nv[i] + sum(map(nv.__getitem__, adj_var[i]))
            for e in adj_el[i]:
                if e != p:
                    outside = el_size[e] - overlap[e]
                    if outside > 0:
                        ext += outside
            degree[i] = ext if ext < remaining else remaining

        # --- supervariable detection (hash + exact compare) ---------------
        buckets: dict[int, list[int]] = {}
        for i in lp:
            key = hash(
                (frozenset(adj_el[i]), len(adj_var[i]))
            )
            buckets.setdefault(key, []).append(i)
        for bucket in buckets.values():
            if len(bucket) < 2:
                continue
            kept: list[int] = []
            for i in bucket:
                merged = False
                for j in kept:
                    if adj_el[i] == adj_el[j] and adj_var[i] == adj_var[j]:
                        # merge i into j
                        nv[j] += nv[i]
                        alive[i] = False
                        absorbed_into[i] = j
                        el_vars[p].discard(i)
                        for e in adj_el[i]:
                            if e in el_vars:
                                el_vars[e].discard(i)
                        adj_var[i].clear()
                        adj_el[i].clear()
                        merged = True
                        break
                if not merged:
                    kept.append(i)

        for i in el_vars[p]:
            heapq.heappush(heap, (degree[i], i))

    # expand supervariables: absorbed variables are eliminated together with
    # (immediately after) their representative
    expansion: dict[int, list[int]] = {}
    for i in range(n):
        if absorbed_into[i] >= 0:
            root = absorbed_into[i]
            while absorbed_into[root] >= 0:
                root = absorbed_into[root]
            expansion.setdefault(root, []).append(i)

    full_order: list[int] = []
    for p in order:
        full_order.append(p)
        full_order.extend(sorted(expansion.get(p, [])))
    if len(full_order) != n:  # pragma: no cover - safety net
        seen = set(full_order)
        full_order.extend(i for i in range(n) if i not in seen)
    return full_order, len(order)

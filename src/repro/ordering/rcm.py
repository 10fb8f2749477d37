"""Reverse Cuthill–McKee ordering.

A bandwidth-reducing ordering used as a cheap fallback and as a building
block for pseudo-peripheral vertex searches in the nested-dissection code.

Graphs are the flat ``(ptr, idx)`` arrays of
:func:`repro.sparse.patterns.adjacency`; the traversals are
level-synchronous — one gather/mask/unique per BFS level instead of one
interpreter step per edge.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import adjacency, concat_ranges, sorted_unique

__all__ = ["rcm", "pseudo_peripheral_vertex", "bfs_levels", "gather_neighbours"]

#: flat adjacency ``(ptr, idx)`` as built by :func:`adjacency`
Adjacency = tuple[np.ndarray, np.ndarray]


def gather_neighbours(
    adj: Adjacency, vertices: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour lists of ``vertices`` back to back (repeats kept), and the
    per-vertex neighbour counts that delimit them."""
    ptr, idx = adj
    starts = ptr[vertices]
    counts = ptr[vertices + 1] - starts
    return idx[concat_ranges(starts, counts)], counts


def bfs_levels(
    adj: Adjacency, start: int, mask: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Breadth-first level structure from ``start``.

    Returns ``(level, levels)`` where ``level[v]`` is the BFS depth of ``v``
    (−1 for unreachable / masked-out vertices) and ``levels[d]`` lists the
    vertices at depth ``d`` (sorted).  ``mask`` restricts the traversal to
    vertices where ``mask[v]`` is True.
    """
    n = adj[0].size - 1
    if mask is not None and not mask[start]:
        raise ValueError("start vertex is masked out")
    level = np.full(n, -1, dtype=np.int64)
    # admissible and not yet reached
    unseen = np.ones(n, dtype=bool) if mask is None else np.array(mask, dtype=bool)
    frontier = np.asarray([start], dtype=np.int64)
    levels: list[np.ndarray] = []
    while frontier.size:
        level[frontier] = len(levels)
        unseen[frontier] = False
        levels.append(frontier)
        nbrs, _ = gather_neighbours(adj, frontier)
        frontier = sorted_unique(nbrs[unseen[nbrs]])
    return level, levels


def pseudo_peripheral_vertex(
    adj: Adjacency, start: int, mask: np.ndarray | None = None
) -> tuple[int, list[np.ndarray]]:
    """George–Liu pseudo-peripheral vertex search.

    Repeatedly roots a BFS at a minimum-degree vertex of the deepest level
    until eccentricity stops increasing.  Returns the vertex and its level
    structure.
    """
    ptr = adj[0]
    v = start
    _, levels = bfs_levels(adj, v, mask)
    ecc = len(levels)
    while True:
        last = levels[-1]
        cand = int(last[int(np.argmin(ptr[last + 1] - ptr[last]))])
        _, new_levels = bfs_levels(adj, cand, mask)
        if len(new_levels) <= ecc:
            return v, levels
        v, levels, ecc = cand, new_levels, len(new_levels)


def rcm(a: CSCMatrix) -> np.ndarray:
    """Reverse Cuthill–McKee permutation of the symmetrised pattern.

    Returns a "new-from-old" permutation ``p`` such that
    ``A[p][:, p]`` has reduced bandwidth.  Handles disconnected graphs by
    restarting from the lowest-degree unvisited vertex.
    """
    n = a.ncols
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = ptr, idx = adjacency(a)
    degree = np.diff(ptr)
    visited = np.zeros(n, dtype=bool)
    # Cuthill–McKee order doubles as the BFS queue: vertices before `head`
    # are expanded, those in [head, tail) are waiting
    order = np.empty(n, dtype=np.int64)
    head = tail = 0
    while tail < n:
        unvisited = np.flatnonzero(~visited)
        start = int(unvisited[int(np.argmin(degree[unvisited]))])
        start, _ = pseudo_peripheral_vertex(adj, start, ~visited)
        order[tail] = start
        tail += 1
        visited[start] = True
        while head < tail:
            v = order[head]
            head += 1
            nbrs = idx[ptr[v] : ptr[v + 1]]
            nbrs = nbrs[~visited[nbrs]]
            # by (degree, vertex): neighbour lists are sorted by vertex
            nbrs = nbrs[np.argsort(degree[nbrs], kind="stable")]
            visited[nbrs] = True
            order[tail : tail + nbrs.size] = nbrs
            tail += nbrs.size
    return order[::-1].copy()

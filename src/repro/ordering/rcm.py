"""Reverse Cuthill–McKee ordering, and the breadth-first level structures
it and nested dissection are built on.

Graphs are the flat ``(ptr, idx)`` arrays of
:func:`repro.sparse.patterns.adjacency` (sorted neighbour lists, no
self-loops).  A search restricted to a vertex set runs on that set's
induced subgraph, cut out once as a local CSR; the traversal itself is
the compiled routine behind ``scipy.sparse.csgraph.breadth_first_order``,
called on the 32-bit ``(ptr, idx)`` pair directly (no sparse-matrix
object per search), and the level boundaries are read off its
predecessors in a few array passes and one lookup per level — so the
interpreter pays per search and per level, not per vertex or per edge.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph._traversal import _breadth_first_directed

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import adjacency, concat_ranges

__all__ = [
    "rcm", "pseudo_peripheral_vertex", "bfs_levels", "induced_subgraph",
    "level_structure",
]

#: flat adjacency ``(ptr, idx)`` as built by :func:`adjacency`
Adjacency = tuple[np.ndarray, np.ndarray]


def induced_subgraph(adj: Adjacency, vertices: np.ndarray) -> Adjacency:
    """The subgraph induced by the **sorted** vertex set ``vertices``,
    renumbered ``0 … m-1`` in that order — so local order is the parent's
    order and every local neighbour list stays sorted."""
    ptr, idx = adj
    m = vertices.size
    local = np.full(ptr.size - 1, -1, dtype=np.int64)
    local[vertices] = np.arange(m, dtype=np.int64)
    starts = ptr[vertices]
    counts = ptr[vertices + 1] - starts
    nbrs = local[idx[concat_ranges(starts, counts)]]
    inside = nbrs >= 0
    owner = np.repeat(np.arange(m, dtype=np.int64), counts)
    sub_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[inside], minlength=m), out=sub_ptr[1:])
    return sub_ptr, nbrs[inside]


def _int32(adj: Adjacency) -> Adjacency:
    """``adj`` in the 32-bit index type the compiled traversal takes."""
    return adj[0].astype(np.int32), adj[1].astype(np.int32)


def _bfs(graph: Adjacency, start: int) -> tuple[np.ndarray, list[int]]:
    """Breadth-first order from ``start`` on the :func:`_int32` graph
    ``graph``, and its level boundaries: level ``d`` is
    ``order[bounds[d]:bounds[d + 1]]``.  The BFS parents' positions never
    decrease along the order, so levels ``1 … d + 1`` are the children of
    levels ``0 … d``: with the children counted per vertex and summed
    along the order, each boundary is one lookup."""
    ptr, idx = graph
    m = ptr.size - 1
    order = np.empty(m, dtype=np.int32)
    pred = np.full(m, -9999, dtype=np.int32)
    order = order[:_breadth_first_directed(start, idx, ptr, order, pred)]
    ends = memoryview(np.cumsum(np.bincount(pred[order[1:]], minlength=m)[order]))
    bounds = [0, 1]
    while bounds[-1] < order.size:
        bounds.append(1 + ends[bounds[-1] - 1])
    return order, bounds


def level_structure(
    adj: Adjacency, start: int, degree: np.ndarray
) -> tuple[int, np.ndarray, list[int]]:
    """George–Liu pseudo-peripheral vertex search on ``adj``.

    Repeatedly roots a BFS at a vertex of the deepest level with the least
    ``degree`` (lowest index on ties) until eccentricity stops increasing.
    Returns the root and its level structure as :func:`_bfs` gives it.
    ``degree`` is the caller's: nested dissection passes full-graph
    degrees while searching a subgraph.
    """
    m = adj[0].size - 1
    graph = _int32(adj)
    v = start
    order, bounds = _bfs(graph, v)
    while True:
        last = order[bounds[-2]:]
        cand = int(last[np.argmin(degree[last] * m + last)])
        new_order, new_bounds = _bfs(graph, cand)
        if len(new_bounds) <= len(bounds):
            return v, order, bounds
        v, order, bounds = cand, new_order, new_bounds


def _levels(vertices: np.ndarray, order: np.ndarray, bounds: list) -> list[np.ndarray]:
    """A local level structure as sorted arrays of the parent's vertices."""
    return [vertices[np.sort(order[a:b])] for a, b in zip(bounds, bounds[1:])]


def _restricted(adj: Adjacency, mask: np.ndarray | None) -> tuple[np.ndarray, Adjacency]:
    """The vertices ``mask`` admits (all without one) and their induced
    subgraph."""
    if mask is None:
        return np.arange(adj[0].size - 1, dtype=np.int64), adj
    vertices = np.flatnonzero(mask)
    return vertices, induced_subgraph(adj, vertices)


def bfs_levels(
    adj: Adjacency, start: int, mask: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Breadth-first level structure from ``start``.

    Returns ``(level, levels)`` where ``level[v]`` is the BFS depth of ``v``
    (−1 for unreachable / masked-out vertices) and ``levels[d]`` lists the
    vertices at depth ``d`` (sorted).  ``mask`` restricts the traversal to
    vertices where ``mask[v]`` is True.
    """
    if mask is not None and not mask[start]:
        raise ValueError("start vertex is masked out")
    vertices, sub = _restricted(adj, mask)
    order, bounds = _bfs(_int32(sub), int(np.searchsorted(vertices, start)))
    level = np.full(adj[0].size - 1, -1, dtype=np.int64)
    level[vertices[order]] = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    return level, _levels(vertices, order, bounds)


def pseudo_peripheral_vertex(
    adj: Adjacency, start: int, mask: np.ndarray | None = None
) -> tuple[int, list[np.ndarray]]:
    """George–Liu pseudo-peripheral vertex search (:func:`level_structure`
    with the degrees of ``adj``), restricted to ``mask``.  Returns the
    vertex and its level structure."""
    vertices, sub = _restricted(adj, mask)
    v, order, bounds = level_structure(
        sub, int(np.searchsorted(vertices, start)), np.diff(adj[0])[vertices]
    )
    return int(vertices[v]), _levels(vertices, order, bounds)


def rcm(a: CSCMatrix) -> np.ndarray:
    """Reverse Cuthill–McKee permutation of the symmetrised pattern.

    Returns a "new-from-old" permutation ``p`` such that
    ``A[p][:, p]`` has reduced bandwidth.  Handles disconnected graphs by
    restarting from the lowest-degree unvisited vertex.
    """
    if a.nrows != a.ncols:
        raise ValueError("RCM requires a square matrix")
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

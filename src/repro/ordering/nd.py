"""Nested dissection fill-reducing ordering.

PanguLU uses METIS nested dissection; METIS is unavailable offline, so this
module implements recursive bisection with BFS level-structure vertex
separators (George's original construction): root a BFS at a
pseudo-peripheral vertex, pick the level whose removal best separates the
graph into balanced halves, order both halves recursively, and number the
separator last, in ascending vertex order (AMD inside a separator moved
fill by under 3 % either way and cost most of ND's time).  Subgraphs at or
below ``leaf_size`` are ordered by exact minimum degree, as METIS hands its
small subgraphs to minimum degree.

Every vertex set is sorted, so each one's induced subgraph is cut once as
a local CSR (:func:`~repro.ordering.rcm.induced_subgraph`) whose local
order is the global order, and the level structures are searched on it in
compiled code.  A leaf is not cut: the recursion only leaves its sorted
vertex set in its output slot, and once the last separator is numbered
:func:`_minimum_degree_batch` orders every leaf in one elimination —
each step takes one pivot in every leaf, on ``uint64`` neighbour bitsets
read from the full graph.  A subgraph too shallow to dissect still goes
to the AMD core: on a large one exact minimum degree would be quadratic.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import adjacency, concat_ranges
from .amd import _amd_order
from .rcm import Adjacency, induced_subgraph, level_structure

__all__ = ["nested_dissection"]


def _pick_separator(bounds: list[int]) -> int:
    """Choose the BFS level used as separator, given the level boundaries
    (level ``d`` is positions ``bounds[d]:bounds[d + 1]``).

    Scans the middle half of the level structure and picks the level
    minimising ``|separator| / min(|A|, |B|)`` where A/B are the vertex
    counts strictly before/after it — small separator, balanced halves;
    the shallowest on ties.  A few dozen levels are scanned in the
    interpreter faster than numpy sets up its arrays.
    """
    depth = len(bounds) - 1
    lo = max(1, depth // 4)
    hi = min(max(lo + 1, (3 * depth) // 4 + 1), depth - 1)
    total = bounds[-1]
    best, best_score = lo, float("inf")
    for d in range(lo, hi):
        small = min(bounds[d], total - bounds[d + 1])
        if small > 0 and (bounds[d + 1] - bounds[d]) / small < best_score:
            best, best_score = d, (bounds[d + 1] - bounds[d]) / small
    return best


#: bit ``k`` of a 64-bit word
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _minimum_degree_batch(adj: Adjacency, leaves: list[np.ndarray]) -> list[np.ndarray]:
    """Exact minimum-degree elimination order of each leaf — a sorted
    vertex set of ``adj``, the sets disjoint — on the subgraph it induces,
    every leaf eliminating one pivot per step of one batched elimination.

    A leaf's vertex ``i`` (its local index) keeps its live neighbours as
    bits of ``ceil(size / 64)`` ``uint64`` words; eliminating ``v`` ORs
    ``v``'s set into each neighbour's and takes ``v`` out, and a degree is
    ``np.bitwise_count``.  The pivot is the live vertex of least degree,
    the lowest local index on ties (``argmin`` keeps the first).  Returns
    each leaf's order as local indices."""
    ptr, idx = adj
    sizes = np.array([leaf.size for leaf in leaves], dtype=np.int64)
    width = int(sizes.max(initial=0))
    if width == 0:
        return [np.zeros(0, dtype=np.int64) for _ in leaves]
    # largest leaf first, so the leaves still eliminating at step t are a prefix
    rank = np.argsort(-sizes, kind="stable")
    sizes = sizes[rank]
    words = -(-width // 64)
    verts = np.concatenate([leaves[r] for r in rank])
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)
    row = np.repeat(np.arange(rank.size) * width, sizes) + np.arange(verts.size) - first
    # row of every leaf vertex in the (leaf, local index) layout, -1 elsewhere
    where = np.full(ptr.size - 1, -1, dtype=np.int64)
    where[verts] = row
    starts, counts = ptr[verts], ptr[verts + 1] - ptr[verts]
    nbr = where[idx[concat_ranges(starts, counts)]]
    owner = np.repeat(row, counts)
    inside = (nbr >= 0) & (nbr // width == owner // width)
    dense = np.zeros((rank.size * width, 64 * words), dtype=bool)
    dense[owner[inside], nbr[inside] % width] = True
    bits = np.packbits(dense, bitorder="little").view("<u8").reshape(rank.size, width, words)
    degree = np.full((rank.size, width), width, dtype=np.int64)   # width: no vertex
    degree.reshape(-1)[row] = np.bitwise_count(bits.reshape(-1, words)[row]).sum(axis=1)
    order = np.empty((rank.size, width), dtype=np.int64)
    live = rank.size
    for step in range(width):
        while sizes[live - 1] <= step:
            live -= 1
        leaf = np.arange(live)
        pivot = degree[:live].argmin(axis=1)
        order[:live, step] = pivot
        degree[leaf, pivot] = width
        clique = bits[leaf, pivot]
        # the pivots' neighbours, as (leaf, local index) pairs
        found = np.unpackbits(clique.view(np.uint8), bitorder="little").view(bool)
        at, u = np.divmod(np.flatnonzero(found), 64 * words)
        if at.size == 0:
            continue
        merged = bits[at, u] | clique[at]
        k = np.arange(at.size)
        merged[k, u >> 6] &= ~_BIT[u & 63]
        p = pivot[at]
        merged[k, p >> 6] &= ~_BIT[p & 63]
        bits[at, u] = merged
        degree[at, u] = np.bitwise_count(merged).sum(axis=1)
    return [order[j, :sizes[j]] for j in np.argsort(rank).tolist()]


def _minimum_degree(adj: Adjacency) -> list[int]:
    """Exact minimum-degree elimination order of the graph ``adj``: the
    pivot is the lowest-index vertex of least degree in the elimination
    graph (:func:`_minimum_degree_batch` on one leaf, the whole graph)."""
    return _minimum_degree_batch(adj, [np.arange(adj[0].size - 1)])[0].tolist()


def _dissect(
    adj: Adjacency,
    vertices: np.ndarray,
    degree: np.ndarray,
    leaf_size: int,
    out: list[np.ndarray],
    leaves: list[int],
) -> None:
    """Order the sorted vertex set ``vertices`` (more than ``leaf_size``)
    into ``out``; ``adj`` is its induced subgraph in local numbering,
    ``degree`` its full-graph degrees.  A part at or below ``leaf_size``
    goes into ``out`` as its sorted vertex set, its slot into ``leaves``:
    :func:`nested_dissection` orders every leaf at the end, in one batch."""

    def recurse(part: np.ndarray) -> None:
        if part.size <= leaf_size:
            leaves.append(len(out))
            out.append(vertices[part])
        else:
            _dissect(induced_subgraph(adj, part), vertices[part], degree[part],
                     leaf_size, out, leaves)

    _, order, bounds = level_structure(adj, 0, degree)
    if order.size < vertices.size:
        # disconnected: order the reached component, then recurse on the rest
        reached = np.zeros(vertices.size, dtype=bool)
        reached[order] = True
        recurse(np.flatnonzero(reached))
        recurse(np.flatnonzero(~reached))
        return

    if len(bounds) < 4:
        # graph too shallow to dissect — fall back to AMD
        out.append(vertices[_amd_order(adj)[0]])
        return

    d = _pick_separator(bounds)
    recurse(np.sort(order[:bounds[d]]))
    recurse(np.sort(order[bounds[d + 1]:]))
    # separator last (eliminated after both halves), in ascending order
    out.append(vertices[np.sort(order[bounds[d]:bounds[d + 1]])])


def nested_dissection(a: CSCMatrix, *, leaf_size: int = 64) -> np.ndarray:
    """Nested-dissection permutation of the symmetrised pattern of ``a``.

    Returns a "new-from-old" permutation ``p`` (reorder with ``A[p][:, p]``).

    Parameters
    ----------
    a:
        Square sparse matrix.
    leaf_size:
        Subgraphs at or below this size are ordered by exact minimum
        degree instead of being dissected further.
    """
    if a.nrows != a.ncols:
        raise ValueError("nested dissection requires a square matrix")
    n = a.ncols
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = adjacency(a)
    vertices = np.arange(n, dtype=np.int64)
    out, leaves = [vertices], [0]
    if n > leaf_size:
        out, leaves = [], []
        _dissect(adj, vertices, np.diff(adj[0]), leaf_size, out, leaves)
    orders = _minimum_degree_batch(adj, [out[k] for k in leaves])
    for k, order in zip(leaves, orders):
        out[k] = out[k][order]
    perm = np.concatenate(out)
    if perm.size != n or np.unique(perm).size != n:  # pragma: no cover
        raise AssertionError("nested dissection produced an invalid permutation")
    return perm

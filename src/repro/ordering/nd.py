"""Nested dissection fill-reducing ordering.

PanguLU uses METIS nested dissection; METIS is unavailable offline, so this
module implements recursive bisection with BFS level-structure vertex
separators (George's original construction): root a BFS at a
pseudo-peripheral vertex, pick the level whose removal best separates the
graph into balanced halves, order both halves recursively, and number the
separator last, in ascending vertex order (AMD inside a separator moved
fill by under 3 % either way and cost most of ND's time).  Subgraphs at or
below ``leaf_size`` are ordered by exact minimum degree, as METIS hands its
small subgraphs to minimum degree: on so few vertices one Python-int bitset
of neighbours per vertex is cheaper than AMD's quotient graph.

Every vertex set is sorted, so each one's induced subgraph is cut once as
a local CSR (:func:`~repro.ordering.rcm.induced_subgraph`) whose local
order is the global order; the level structures are searched on it in
compiled code, and leaves are ordered from the same neighbour lists.  A
subgraph too shallow to dissect still goes to the AMD core: on a large
one exact minimum degree would be quadratic.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import adjacency
from .amd import _amd_order
from .rcm import Adjacency, induced_subgraph, level_structure

__all__ = ["nested_dissection"]


def _pick_separator(sizes: np.ndarray) -> int:
    """Choose the BFS level used as separator, given the level sizes.

    Scans the middle half of the level structure and picks the level
    minimising ``|separator| / min(|A|, |B|)`` where A/B are the vertex
    counts strictly before/after it — small separator, balanced halves.
    """
    depth = len(sizes)
    sizes = np.asarray(sizes, dtype=np.float64)
    prefix = np.cumsum(sizes)
    total = prefix[-1]
    lo = max(1, depth // 4)
    hi = max(lo + 1, (3 * depth) // 4 + 1)
    best, best_score = lo, np.inf
    for d in range(lo, min(hi, depth - 1)):
        before = prefix[d - 1]
        after = total - prefix[d]
        small = min(before, after)
        if small <= 0:
            continue
        score = sizes[d] / small
        if score < best_score:
            best, best_score = d, score
    return best


def _minimum_degree(adj: Adjacency) -> list[int]:
    """Exact minimum-degree elimination order of the graph ``adj``: the
    pivot is the lowest-index vertex of least degree in the elimination
    graph.  Each vertex's neighbours are one Python-int bitset, and its key
    ``degree · n + vertex`` makes that pivot the smallest key."""
    ptr, idx = adj
    flat, bounds = idx.tolist(), ptr.tolist()
    n = len(bounds) - 1
    nbrs = [sum(1 << u for u in flat[bounds[v]:bounds[v + 1]]) for v in range(n)]
    key = [s.bit_count() * n + v for v, s in enumerate(nbrs)]
    order: list[int] = []
    for _ in range(n):
        v = min(key) % n
        key[v] = n * n                     # above every live key
        order.append(v)
        # v's neighbours become a clique, and v leaves their sets
        clique = rest = nbrs[v]
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            nbrs[u] = (nbrs[u] | clique) & ~(low | (1 << v))
            key[u] = nbrs[u].bit_count() * n + u
    return order


def _dissect(
    adj: Adjacency,
    vertices: np.ndarray,
    degree: np.ndarray,
    leaf_size: int,
    out: list[int],
) -> None:
    """Order the sorted vertex set ``vertices`` into ``out``; ``adj`` is its
    induced subgraph in local numbering, ``degree`` its full-graph
    degrees."""
    if vertices.size <= leaf_size:
        out.extend(vertices[_minimum_degree(adj)].tolist())
        return

    def recurse(part: np.ndarray) -> None:
        _dissect(induced_subgraph(adj, part), vertices[part], degree[part],
                 leaf_size, out)

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
        out.extend(vertices[_amd_order(adj)[0]].tolist())
        return

    d = _pick_separator(np.diff(bounds))
    recurse(np.sort(order[:bounds[d]]))
    recurse(np.sort(order[bounds[d + 1]:]))
    # separator last (eliminated after both halves), in ascending order
    out.extend(vertices[np.sort(order[bounds[d]:bounds[d + 1]])].tolist())


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
    out: list[int] = []
    _dissect(adj, np.arange(n, dtype=np.int64), np.diff(adj[0]), leaf_size, out)
    perm = np.asarray(out, dtype=np.int64)
    if perm.size != n or np.unique(perm).size != n:  # pragma: no cover
        raise AssertionError("nested dissection produced an invalid permutation")
    return perm

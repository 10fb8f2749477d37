"""Nested dissection fill-reducing ordering.

PanguLU uses METIS nested dissection; METIS is unavailable offline, so this
module implements recursive bisection with BFS level-structure vertex
separators (George's original construction): root a BFS at a
pseudo-peripheral vertex, pick the level whose removal best separates the
graph into balanced halves, order both halves recursively, and number the
separator last.  Subgraphs below ``leaf_size`` are ordered with AMD.
"""

from __future__ import annotations

import numpy as np

from ..sparse.csc import CSCMatrix, coo_to_csc
from ..sparse.patterns import adjacency
from .amd import amd
from .rcm import Adjacency, gather_neighbours, pseudo_peripheral_vertex

__all__ = ["nested_dissection"]


def _subgraph_matrix(adj: Adjacency, vertices: np.ndarray) -> CSCMatrix:
    """Build the pattern matrix of the subgraph induced by ``vertices``."""
    m = vertices.size
    local = np.full(adj[0].size - 1, -1, dtype=np.int64)
    local[vertices] = np.arange(m, dtype=np.int64)
    nbrs, counts = gather_neighbours(adj, vertices)
    rows = local[nbrs]
    inside = rows >= 0
    diag = np.arange(m, dtype=np.int64)
    cols = np.repeat(diag, counts)
    return coo_to_csc(
        (m, m),
        np.concatenate([rows[inside], diag]),
        np.concatenate([cols[inside], diag]),
    )


def _pick_separator(levels: list[np.ndarray]) -> int:
    """Choose the BFS level used as separator.

    Scans the middle half of the level structure and picks the level
    minimising ``|separator| / min(|A|, |B|)`` where A/B are the vertex
    counts strictly before/after it — small separator, balanced halves.
    """
    depth = len(levels)
    sizes = np.asarray([lv.size for lv in levels], dtype=np.float64)
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


def _dissect(
    adj: Adjacency,
    vertices: np.ndarray,
    leaf_size: int,
    out: list[int],
) -> None:
    if vertices.size == 0:
        return
    if vertices.size <= leaf_size:
        sub = _subgraph_matrix(adj, vertices)
        local = amd(sub)
        out.extend(vertices[local].tolist())
        return

    mask = np.zeros(adj[0].size - 1, dtype=bool)
    mask[vertices] = True
    _, levels = pseudo_peripheral_vertex(adj, int(vertices[0]), mask)
    level = np.full(mask.size, -1, dtype=np.int64)
    for depth, members in enumerate(levels):
        level[members] = depth

    unreached = vertices[level[vertices] < 0]
    if unreached.size:
        # disconnected: order the reached component, then recurse on the rest
        reached = vertices[level[vertices] >= 0]
        _dissect(adj, reached, leaf_size, out)
        _dissect(adj, unreached, leaf_size, out)
        return

    if len(levels) < 3:
        # graph too shallow to dissect — fall back to AMD
        sub = _subgraph_matrix(adj, vertices)
        local = amd(sub)
        out.extend(vertices[local].tolist())
        return

    sep_level = _pick_separator(levels)
    sep = levels[sep_level]
    left = vertices[(level[vertices] >= 0) & (level[vertices] < sep_level)]
    right = vertices[level[vertices] > sep_level]
    _dissect(adj, left, leaf_size, out)
    _dissect(adj, right, leaf_size, out)
    # separator last (eliminated after both halves)
    sub = _subgraph_matrix(adj, sep)
    local = amd(sub)
    out.extend(sep[local].tolist())


def nested_dissection(a: CSCMatrix, *, leaf_size: int = 64) -> np.ndarray:
    """Nested-dissection permutation of the symmetrised pattern of ``a``.

    Returns a "new-from-old" permutation ``p`` (reorder with ``A[p][:, p]``).

    Parameters
    ----------
    a:
        Square sparse matrix.
    leaf_size:
        Subgraphs at or below this size are ordered with AMD instead of
        being dissected further.
    """
    if a.nrows != a.ncols:
        raise ValueError("nested dissection requires a square matrix")
    n = a.ncols
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    adj = adjacency(a)
    out: list[int] = []
    _dissect(adj, np.arange(n, dtype=np.int64), leaf_size, out)
    perm = np.asarray(out, dtype=np.int64)
    if perm.size != n or np.unique(perm).size != n:  # pragma: no cover
        raise AssertionError("nested dissection produced an invalid permutation")
    return perm

"""MC64-style matchings: maximum transversal and maximum-product matching
with row/column scaling.

PanguLU (like SuperLU_DIST's static pivoting) runs MC64 before symbolic
factorisation so the numeric phase can factorise without partial pivoting:
a row permutation moves large entries onto the diagonal, and the dual
variables of the optimal matching give scalings ``dr``/``dc`` such that the
scaled, permuted matrix has ones on the diagonal and all other entries at
most 1 in magnitude (Duff & Koster 1999/2001).

Two entry points:

* :func:`maximum_transversal` — structural only (MC21-style augmenting
  paths): a row permutation giving a zero-free diagonal.
* :func:`mc64` — the weighted version (maximise the product of diagonal
  magnitudes): Duff–Koster initial dual + greedy tight-edge matching,
  shortest augmenting paths with node potentials for the remainder,
  returning the permutation and the scaling vectors.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from ..sparse.csc import CSCMatrix
from ..sparse.patterns import first_free_matching

__all__ = ["maximum_transversal", "mc64", "MC64Result", "StructurallySingularError"]


class StructurallySingularError(ValueError):
    """Raised when no zero-free diagonal exists (structural rank < n)."""


def maximum_transversal(a: CSCMatrix) -> np.ndarray:
    """Maximum structural matching (MC21): rows matched to columns.

    Returns ``row_of_col`` where ``row_of_col[j]`` is the row matched to
    column ``j`` (−1 if unmatched).  When the matching is perfect,
    permuting with ``A.permute(row_of_col, None)`` yields a matrix with a
    zero-free diagonal.  Tie-break: the cheap pass gives every column, in
    column order, its first free row (so a full diagonal comes back as
    the identity); augmenting paths place the columns that leaves free.
    """
    n = a.ncols
    row_of_col, col_of_row = first_free_matching(a)  # cheap assignment pass

    # augmenting-path pass (BFS keeps paths short and the code iterative)
    for j0 in range(n):
        if row_of_col[j0] >= 0:
            continue
        parent: dict[int, int] = {}  # column -> column it was reached from
        visited = {j0}
        frontier = [j0]
        free_row = -1
        end_col = -1
        while frontier and free_row < 0:
            nxt: list[int] = []
            for j in frontier:
                for r in a.indices[a.col_slice(j)]:
                    r = int(r)
                    owner = int(col_of_row[r])
                    if owner < 0:
                        free_row, end_col = r, j
                        break
                    if owner not in visited:
                        visited.add(owner)
                        parent[owner] = j
                        nxt.append(owner)
                if free_row >= 0:
                    break
            frontier = nxt
        if free_row < 0:
            continue  # column stays unmatched (structurally deficient)
        # augment: walk back through parents, flipping matches
        r, j = free_row, end_col
        while True:
            prev_r = int(row_of_col[j])
            row_of_col[j] = r
            col_of_row[r] = j
            if j == j0:
                break
            r = prev_r
            j = parent[j]
    return row_of_col


@dataclass(frozen=True)
class MC64Result:
    """Result of the weighted MC64 matching.

    Attributes
    ----------
    row_perm:
        Row permutation as ``row_of_col``: entry ``(row_perm[j], j)`` of the
        original matrix lands on the diagonal.  Apply with
        ``A.permute(row_perm, None)``.
    row_scale, col_scale:
        Positive scalings for the *original* matrix:
        ``diag(row_scale) @ A @ diag(col_scale)`` has all entries of
        magnitude ≤ 1 (up to float rounding) and exactly 1 at the matched
        positions.
    log_product:
        Maximised ``sum(log |a_{row_perm[j], j}|)`` before scaling.
    """

    row_perm: np.ndarray
    row_scale: np.ndarray
    col_scale: np.ndarray
    log_product: float


def mc64(a: CSCMatrix) -> MC64Result:
    """Maximum-product bipartite matching with scaling (MC64 job 5).

    Minimises ``sum c_ij`` over perfect matchings, where
    ``c_ij = log(colmax_j) − log |a_ij| ≥ 0``.  The duals start from the
    Duff–Koster heuristic (row minima, then column minima of the reduced
    costs), the exactly tight edges are matched greedily, and only the
    columns that leaves free go through successive shortest augmenting
    paths on reduced costs (Dijkstra with node potentials — the sparse
    Jonker–Volgenant scheme).  Entries that are stored but numerically
    zero (or NaN) are treated as absent; ``±Inf`` is a ``ValueError``.

    Where the optimal matching or its dual solution is not unique (ties,
    no dominant entries) *an* optimal pair is returned, not a canonical
    one: the contract is ``log_product`` at the optimum, ``|Dr A Dc| ≤ 1``
    everywhere and ``= 1`` on the matched entries (up to rounding).
    """
    if a.nrows != a.ncols:
        raise ValueError("mc64 requires a square matrix")
    n = a.ncols
    if n == 0:
        return MC64Result(np.zeros(0, np.int64), np.zeros(0), np.zeros(0), 0.0)

    indptr, rows = a.indptr, a.indices
    cols = a.cols_expanded()
    absval = np.abs(a.data).astype(np.float64, copy=False)
    bad = np.flatnonzero(np.isinf(absval))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"mc64 needs finite values: a[{rows[k]}, {cols[k]}] = {a.data[k]}"
        )
    nz = absval > 0
    dead = np.flatnonzero(np.bincount(cols[nz], minlength=n) == 0)
    if dead.size:
        raise StructurallySingularError(f"column {dead[0]} has no nonzero entries")
    # every column holds an entry, so reduceat sees no empty segment
    colmax_log = np.log(np.maximum.reduceat(np.where(nz, absval, 0.0), indptr[:-1]))
    cost = np.where(nz, colmax_log[cols] - np.log(np.where(nz, absval, 1.0)), np.inf)

    # Duff–Koster start: feasible duals with a tight edge in every column
    # (reduced cost exactly 0.0 at each column's argmin), matched greedily.
    # A row with no finite cost keeps potential 0 and stays unmatched.
    pi_row = np.full(n, np.inf)
    np.minimum.at(pi_row, rows, cost)
    pi_row[np.isinf(pi_row)] = 0.0
    reduced = cost - pi_row[rows]
    pi_col = -np.minimum.reduceat(reduced, indptr[:-1])
    tight = np.flatnonzero(reduced + pi_col[cols] <= 0.0)
    # each row to the first column holding it tight, each column keeps one
    won_rows, first = np.unique(rows[tight], return_index=True)
    won_cols, keep = np.unique(cols[tight[first]], return_index=True)
    row_of_col = np.full(n, -1, dtype=np.int64)
    col_of_row = np.full(n, -1, dtype=np.int64)
    row_of_col[won_cols] = won_rows[keep]
    col_of_row[won_rows[keep]] = won_cols

    unmatched: list[int] = []
    for j0 in np.flatnonzero(row_of_col < 0).tolist():
        # Dijkstra over reduced costs from free column j0.
        # Forward arc  j -> r  : w = c_rj - pi_row[r] + pi_col[j]  (>= 0)
        # Matched arc  r -> j' : w = -c_rj' + pi_row[r] - pi_col[j'] = 0
        dist_row = np.full(n, np.inf)
        dist_col = np.full(n, np.inf)
        dist_col[j0] = 0.0
        parent_col_of_row = np.full(n, -1, dtype=np.int64)
        done_rows = np.zeros(n, dtype=bool)
        heap: list[tuple[float, int]] = []

        def _relax_from_col(j: int, dj: float) -> None:
            sl = slice(indptr[j], indptr[j + 1])
            reached = rows[sl]
            # an absent entry's infinite cost never improves on anything
            nd = dj + (cost[sl] - pi_row[reached] + pi_col[j])
            better = ~done_rows[reached] & (nd < dist_row[reached])
            reached, nd = reached[better], nd[better]
            dist_row[reached] = nd
            parent_col_of_row[reached] = j
            for entry in zip(nd.tolist(), reached.tolist()):
                heapq.heappush(heap, entry)

        _relax_from_col(j0, 0.0)
        end_row = -1
        while heap:
            d, r = heapq.heappop(heap)
            if done_rows[r] or d > dist_row[r]:
                continue
            done_rows[r] = True
            jm = int(col_of_row[r])
            if jm < 0:
                end_row, delta = r, d
                break
            # matched arc r -> jm has reduced cost 0
            if d < dist_col[jm]:
                dist_col[jm] = d
                _relax_from_col(jm, d)
        if end_row < 0:
            # no free row within reach now means none later either: the
            # matching only grows, so j0 stays out of every maximum one
            unmatched.append(j0)
            continue

        # Potential update: pi_x += min(dist_x, delta) - delta.  The -delta
        # normalisation makes the update zero for every unlabeled node
        # (distance inf here, true distance >= delta), so feasibility is
        # preserved globally.
        pi_col += np.minimum(dist_col, delta) - delta
        pi_row += np.minimum(dist_row, delta) - delta

        # augment along parent pointers
        r = end_row
        while True:
            j = int(parent_col_of_row[r])
            prev_r = int(row_of_col[j])
            row_of_col[j] = r
            col_of_row[r] = j
            if j == j0:
                break
            r = prev_r
    if unmatched:
        raise StructurallySingularError(
            f"matrix is structurally singular: {len(unmatched)} of {n} columns "
            f"have no row left to match, the first is column {unmatched[0]}"
        )

    log_product = float(np.log(absval[rows == row_of_col[cols]]).sum())

    # From feasibility c_ij >= pi_row[i] - pi_col[j] (equality on matched):
    # |a_ij| * e^{pi_row[i]} * e^{-pi_col[j]} / colmax_j <= 1.
    row_scale = np.exp(pi_row)
    col_scale = np.exp(-pi_col - colmax_log)
    return MC64Result(row_of_col, row_scale, col_scale, log_product)

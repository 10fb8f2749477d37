"""Test-only oracles for the analysis phase.

These are the interpreter-loop and sorting implementations the array
algorithms in ``repro.sparse``, ``repro.symbolic``, ``repro.ordering`` and
``repro.core.blocking`` replaced: the argsort ``transpose`` and the
per-column ``permute`` / ``diagonal`` of the CSC container, the
sort-and-sum assembly of ``A + Aᵀ``, per-entry row-subtree walks for the
symbolic fill,
the set-based AMD (numpy scalars, element sizes re-summed at every
pivot) and the nested dissection built on it over per-neighbour
breadth-first search of adjacency lists, the exact minimum-degree
ordering AMD's quality is checked against, the
per-column chunk loop of the block partition, and the support-mask
task-DAG builder with its per-column flop counts.  They are slow and
obviously right; ``tests/test_reference_analysis.py`` asserts the
production code reproduces them bit for bit.  Two more are kept as
oracles only: the fused-key ``searchsorted`` of ``entry_positions`` and
the etree ``postorder`` (no production path needs one).  Nothing under ``src/``
imports this module.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.blocking import BlockMatrix, FactorArena, boundaries_from_block_size
from repro.sparse import CSCMatrix
from repro.symbolic import elimination_tree


# ----------------------------------------------------------------------
# sparse
# ----------------------------------------------------------------------
def coo_to_csc(shape, rows, cols, vals=None) -> CSCMatrix:
    """Two-key ``lexsort`` assembly, duplicates summed in input order."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.ones(rows.size) if vals is None else np.asarray(vals)
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        dup = np.zeros(rows.size, dtype=bool)
        dup[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            group = np.cumsum(~dup) - 1
            out_vals = np.zeros(int(group[-1]) + 1, dtype=vals.dtype)
            np.add.at(out_vals, group, vals)
            rows, cols, vals = rows[~dup], cols[~dup], out_vals
    indptr = np.zeros(shape[1] + 1, dtype=np.int64)
    np.add.at(indptr, cols + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSCMatrix(shape, indptr, rows, vals, check=False)


def symmetrize_pattern(a: CSCMatrix) -> CSCMatrix:
    rows, cols = a.rows_cols()
    return coo_to_csc(
        a.shape,
        np.concatenate([rows, cols]),
        np.concatenate([cols, rows]),
        np.concatenate([a.data, np.zeros(a.nnz)]),
    )


def transpose(a: CSCMatrix) -> CSCMatrix:
    """``Aᵀ`` by one stable ``argsort`` of the row indices: the columns are
    walked left to right, so each row keeps increasing column order."""
    nrows, ncols = a.shape
    indptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(a.indices, minlength=nrows), out=indptr[1:])
    order = np.argsort(a.indices, kind="stable")
    return CSCMatrix((ncols, nrows), indptr, a.cols_expanded()[order],
                     a.data[order], check=False)


def permute(a: CSCMatrix, row_perm, col_perm) -> CSCMatrix:
    """``A[row_perm, :][:, col_perm]``, one column (and one ``argsort``)
    at a time."""
    nrows, ncols = a.shape
    col_perm = np.arange(ncols) if col_perm is None else np.asarray(col_perm)
    inv_row = None
    if row_perm is not None:
        inv_row = np.empty(nrows, dtype=np.int64)
        inv_row[np.asarray(row_perm)] = np.arange(nrows)
    indptr = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(np.diff(a.indptr)[col_perm], out=indptr[1:])
    indices = np.empty(a.nnz, dtype=np.int64)
    data = np.empty(a.nnz, dtype=a.dtype)
    for newj in range(ncols):
        rows, vals = a.col(int(col_perm[newj]))
        if inv_row is not None:
            rows = inv_row[rows]
            order = np.argsort(rows, kind="stable")
            rows, vals = rows[order], vals[order]
        dst = slice(indptr[newj], indptr[newj + 1])
        indices[dst] = rows
        data[dst] = vals
    return CSCMatrix(a.shape, indptr, indices, data, check=False)


def diagonal(a: CSCMatrix) -> np.ndarray:
    """Main diagonal, one ``searchsorted`` per column."""
    out = np.zeros(min(a.shape), dtype=a.dtype)
    for j in range(out.size):
        rows, vals = a.col(j)
        pos = np.searchsorted(rows, j)
        if pos < rows.size and rows[pos] == j:
            out[j] = vals[pos]
    return out


def missing_diagonal(a: CSCMatrix) -> list[int]:
    """Columns whose diagonal entry is not stored (per-column search)."""
    missing = []
    for j in range(min(a.shape)):
        rows = a.indices[a.col_slice(j)]
        pos = np.searchsorted(rows, j)
        if pos >= rows.size or rows[pos] != j:
            missing.append(j)
    return missing


def ensure_diagonal(a: CSCMatrix, value: float = 0.0) -> CSCMatrix:
    miss = np.asarray(missing_diagonal(a), dtype=np.int64)
    if not miss.size:
        return a.copy()
    rows, cols = a.rows_cols()
    return coo_to_csc(
        a.shape,
        np.concatenate([rows, miss]),
        np.concatenate([cols, miss]),
        np.concatenate([a.data, np.full(miss.size, value)]),
    )


def adjacency_lists(a: CSCMatrix) -> list[np.ndarray]:
    s = symmetrize_pattern(a)
    out = []
    for j in range(s.ncols):
        rows = s.indices[s.col_slice(j)]
        out.append(rows[rows != j].copy())
    return out


# ----------------------------------------------------------------------
# symbolic: row-subtree walk
# ----------------------------------------------------------------------
def fill_in_values(pattern: CSCMatrix, a: CSCMatrix) -> CSCMatrix:
    """Per-column ``searchsorted`` value injection."""
    if pattern.shape != a.shape:
        raise ValueError("shape mismatch")
    out = pattern.pattern_copy()
    data = out.data
    for j in range(a.ncols):
        sl_a = a.col_slice(j)
        rows_a = a.indices[sl_a]
        if rows_a.size == 0:
            continue
        rows_p = out.indices[out.col_slice(j)]
        pos = np.searchsorted(rows_p, rows_a)
        if np.any(pos >= rows_p.size) or np.any(
            rows_p[np.minimum(pos, rows_p.size - 1)] != rows_a
        ):
            raise ValueError(f"pattern does not cover column {j} of the input")
        data[int(out.indptr[j]) + pos] = a.data[sl_a]
    return out


def entry_positions(pattern: CSCMatrix, a: CSCMatrix) -> np.ndarray:
    """One ``searchsorted`` over the fused key ``col · nrows + row``, which
    is increasing along a CSC pattern."""
    if pattern.shape != a.shape:
        raise ValueError("shape mismatch")
    nrows = a.nrows
    a_cols = a.cols_expanded()
    wanted = a_cols * nrows + a.indices
    have = np.repeat(
        np.arange(pattern.ncols, dtype=np.int64) * nrows, np.diff(pattern.indptr)
    )
    have += pattern.indices
    pos = np.searchsorted(have, wanted)
    covered = pos < have.size
    covered[covered] = have[pos[covered]] == wanted[covered]
    if not covered.all():
        j = int(a_cols[np.argmin(covered)])
        raise ValueError(f"pattern does not cover column {j} of the input")
    return pos


def postorder(parent: np.ndarray) -> np.ndarray:
    """Postorder permutation of a forest given parent pointers (the
    iterative first-child / next-sibling DFS; no production path needs a
    postorder, so it is kept here as the etree tests' oracle).

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


def symbolic_symmetric(a: CSCMatrix) -> tuple[CSCMatrix, np.ndarray, int]:
    """``(filled, etree, nnz of the strict lower triangle)`` by walking, for
    each row ``i``, from every ``j < i`` with ``S[i, j] != 0`` up the
    elimination tree until a column already marked for row ``i``."""
    n = a.ncols
    s = symmetrize_pattern(a)
    parent = elimination_tree(s, symmetrize=False)
    mark = np.full(n, -1, dtype=np.int64)
    lower_rows: list[int] = []
    lower_cols: list[int] = []
    for i in range(n):
        mark[i] = i
        rows = s.indices[s.col_slice(i)]
        for r in rows[rows < i]:
            j = int(r)
            while j != -1 and mark[j] != i:
                mark[j] = i
                lower_rows.append(i)
                lower_cols.append(j)
                j = int(parent[j])
    diag = list(range(n))
    pattern = coo_to_csc(
        (n, n),
        lower_rows + lower_cols + diag,
        lower_cols + lower_rows + diag,
        np.zeros(2 * len(lower_rows) + n),
    )
    return fill_in_values(pattern, a), parent, len(lower_rows)


def envelope_profile(a: CSCMatrix) -> int:
    """``Σᵢ (i − fᵢ)`` over ``A + Aᵀ``, one stored entry at a time: entry
    ``(r, j)`` puts ``min(r, j)`` in row ``max(r, j)``."""
    first = list(range(a.ncols))
    for j in range(a.ncols):
        for r in a.indices[a.col_slice(j)].tolist():
            lo, hi = min(r, j), max(r, j)
            first[hi] = min(first[hi], lo)
    return sum(i - f for i, f in enumerate(first))


# ----------------------------------------------------------------------
# ordering: set-based AMD, exact minimum degree, list-based BFS,
# George's nested dissection, RCM
# ----------------------------------------------------------------------
def reference_amd(a: CSCMatrix) -> np.ndarray:
    """Compute an approximate-minimum-degree permutation — the set-based
    AMD with numpy scalars and element sizes summed at every pivot, which
    ``repro.ordering.amd`` must reproduce bit for bit.

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
    n = a.ncols
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    adj = adjacency_lists(a)
    adj_var: list[set[int]] = [set(map(int, nb)) for nb in adj]
    adj_el: list[set[int]] = [set() for _ in range(n)]
    el_vars: dict[int, set[int]] = {}
    nv = np.ones(n, dtype=np.int64)        # supervariable sizes
    alive = np.ones(n, dtype=bool)
    absorbed_into = np.full(n, -1, dtype=np.int64)
    degree = np.asarray([len(s) for s in adj_var], dtype=np.int64)

    heap: list[tuple[int, int]] = [(int(degree[i]), i) for i in range(n)]
    heapq.heapify(heap)

    order: list[int] = []
    eliminated = np.zeros(n, dtype=bool)

    def element_size(e: int) -> int:
        return int(sum(nv[v] for v in el_vars[e]))

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
            for e in adj_el[i]:
                if e == p:
                    continue
                overlap[e] = overlap.get(e, 0) + int(nv[i])
        el_sizes = {e: element_size(e) for e in overlap}

        lp_size = int(sum(nv[v] for v in lp))
        for i in lp:
            ext = lp_size - int(nv[i])
            ext += int(sum(nv[v] for v in adj_var[i]))
            for e in adj_el[i]:
                if e == p:
                    continue
                ext += max(0, el_sizes[e] - overlap[e])
            new_d = min(n - len(order), ext)
            degree[i] = max(0, new_d)

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
            heapq.heappush(heap, (int(degree[i]), i))

    # expand supervariables: absorbed variables are eliminated together with
    # (immediately after) their representative
    expansion: dict[int, list[int]] = {}
    for i in range(n):
        if absorbed_into[i] >= 0:
            root = int(absorbed_into[i])
            while absorbed_into[root] >= 0:
                root = int(absorbed_into[root])
            expansion.setdefault(root, []).append(i)

    full_order: list[int] = []
    for p in order:
        full_order.append(p)
        full_order.extend(sorted(expansion.get(p, [])))
    if len(full_order) != n:  # pragma: no cover - safety net
        seen = set(full_order)
        full_order.extend(i for i in range(n) if i not in seen)
    return np.asarray(full_order, dtype=np.int64)


def colamd(a: CSCMatrix) -> np.ndarray:
    """:func:`reference_amd` on the pattern of ``AᵀA``, formed densely."""
    rows, cols = a.rows_cols()
    pattern = np.zeros(a.shape)
    pattern[rows, cols] = 1.0
    return reference_amd(CSCMatrix.from_dense(pattern.T @ pattern))


def minimum_degree(a: CSCMatrix) -> np.ndarray:
    """Exact (non-approximate) minimum-degree ordering.

    Slower than AMD but useful as a quality reference in tests.
    """
    n = a.ncols
    adj: list[set[int]] = [set(map(int, nb)) for nb in adjacency_lists(a)]
    alive = np.ones(n, dtype=bool)
    order: list[int] = []
    heap = [(len(adj[i]), i) for i in range(n)]
    heapq.heapify(heap)
    while len(order) < n:
        d, p = heapq.heappop(heap)
        if not alive[p] or d != len(adj[p]):
            continue
        alive[p] = False
        order.append(p)
        nbrs = [v for v in adj[p] if alive[v]]
        for i in nbrs:
            adj[i].discard(p)
            for j in nbrs:
                if j != i:
                    adj[i].add(j)
            heapq.heappush(heap, (len(adj[i]), i))
        adj[p].clear()
    return np.asarray(order, dtype=np.int64)


def bfs_levels(adj: list[np.ndarray], start: int, mask=None):
    n = len(adj)
    level = np.full(n, -1, dtype=np.int64)
    if mask is not None and not mask[start]:
        raise ValueError("start vertex is masked out")
    level[start] = 0
    frontier = [start]
    levels = [np.asarray([start], dtype=np.int64)]
    while frontier:
        nxt: list[int] = []
        for v in frontier:
            for w in adj[v]:
                w = int(w)
                if level[w] < 0 and (mask is None or mask[w]):
                    level[w] = level[v] + 1
                    nxt.append(w)
        if nxt:
            levels.append(np.asarray(sorted(nxt), dtype=np.int64))
        frontier = nxt
    return level, levels


def pseudo_peripheral_vertex(adj: list[np.ndarray], start: int, mask=None):
    v = start
    _, levels = bfs_levels(adj, v, mask)
    ecc = len(levels)
    while True:
        last = levels[-1]
        degs = [len(adj[int(u)]) for u in last]
        cand = int(last[int(np.argmin(degs))])
        _, new_levels = bfs_levels(adj, cand, mask)
        if len(new_levels) <= ecc:
            return v, levels
        v, levels, ecc = cand, new_levels, len(new_levels)


def _subgraph_matrix(adj: list[np.ndarray], vertices: np.ndarray) -> CSCMatrix:
    pos = {int(v): i for i, v in enumerate(vertices)}
    rows: list[int] = []
    cols: list[int] = []
    for i, v in enumerate(vertices):
        for w in adj[int(v)]:
            j = pos.get(int(w))
            if j is not None:
                rows.append(j)
                cols.append(i)
    m = len(vertices)
    return coo_to_csc((m, m), rows + list(range(m)), cols + list(range(m)))


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


def _dissect(adj, vertices: np.ndarray, leaf_size: int, out: list[int]) -> None:
    if vertices.size == 0:
        return
    if vertices.size <= leaf_size:
        out.extend(int(vertices[i]) for i in minimum_degree(_subgraph_matrix(adj, vertices)))
        return
    mask = np.zeros(len(adj), dtype=bool)
    mask[vertices] = True
    start, _ = pseudo_peripheral_vertex(adj, int(vertices[0]), mask)
    level, levels = bfs_levels(adj, start, mask)
    unreached = vertices[level[vertices] < 0]
    if unreached.size:
        _dissect(adj, vertices[level[vertices] >= 0], leaf_size, out)
        _dissect(adj, unreached, leaf_size, out)
        return
    if len(levels) < 3:
        out.extend(int(vertices[i]) for i in reference_amd(_subgraph_matrix(adj, vertices)))
        return
    sep_level = _pick_separator(levels)
    sep = levels[sep_level]
    _dissect(adj, vertices[(level[vertices] >= 0) & (level[vertices] < sep_level)],
             leaf_size, out)
    _dissect(adj, vertices[level[vertices] > sep_level], leaf_size, out)
    out.extend(int(v) for v in np.sort(sep))


def nested_dissection(a: CSCMatrix, *, leaf_size: int = 64) -> np.ndarray:
    out: list[int] = []
    _dissect(adjacency_lists(a), np.arange(a.ncols, dtype=np.int64), leaf_size, out)
    return np.asarray(out, dtype=np.int64)


def rcm(a: CSCMatrix) -> np.ndarray:
    n = a.ncols
    adj = adjacency_lists(a)
    degree = np.asarray([len(x) for x in adj], dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    order: list[int] = []
    while len(order) < n:
        unvisited = np.flatnonzero(~visited)
        start = int(unvisited[int(np.argmin(degree[unvisited]))])
        start, _ = pseudo_peripheral_vertex(adj, start, ~visited)
        queue = [start]
        visited[start] = True
        while queue:
            v = queue.pop(0)
            order.append(v)
            nbrs = [int(w) for w in adj[v] if not visited[w]]
            nbrs.sort(key=lambda w: (degree[w], w))
            for w in nbrs:
                visited[w] = True
            queue.extend(nbrs)
    return np.asarray(order[::-1], dtype=np.int64)


# ----------------------------------------------------------------------
# blocking: per-column chunk loop
# ----------------------------------------------------------------------
def block_partition(filled: CSCMatrix, bs, *, arena: bool = False, dtype=None) -> BlockMatrix:
    """Walk every column, cut its sorted rows at the block boundaries,
    collect the chunks per block, then assemble block by block."""
    dtype = np.dtype(dtype) if dtype is not None else filled.dtype
    n = filled.ncols
    if np.ndim(bs) == 0:
        bs = int(bs)
        bounds = boundaries_from_block_size(n, bs)
    else:
        bounds = np.asarray(bs, dtype=np.int64)
        bs = int(np.diff(bounds).max())
    nb = bounds.size - 1

    col_chunks: dict[tuple[int, int], list] = {}
    data = filled.data
    col_block = np.repeat(np.arange(nb, dtype=np.int64), np.diff(bounds))
    for j in range(n):
        bj = int(col_block[j])
        lc = j - int(bounds[bj])
        sl = filled.col_slice(j)
        rows = filled.indices[sl]
        cut = np.searchsorted(rows, bounds[1:])
        start = 0
        for bi in range(nb):
            end = int(cut[bi])
            if end > start:
                col_chunks.setdefault((bi, bj), []).append(
                    (lc, rows[start:end] - int(bounds[bi]), data[sl][start:end],
                     sl.start + start)
                )
            start = end

    blocks_per_col: list[list[tuple]] = [[] for _ in range(nb)]
    for (bi, bj), chunks in col_chunks.items():
        shape = (int(bounds[bi + 1] - bounds[bi]), int(bounds[bj + 1] - bounds[bj]))
        indptr = np.zeros(shape[1] + 1, dtype=np.int64)
        for lc, r, _, _ in chunks:
            indptr[lc + 1] = r.size
        np.cumsum(indptr, out=indptr)
        nnz = int(indptr[-1])
        indices = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=dtype)
        pos = np.empty(nnz, dtype=np.int64)
        for lc, r, v, gstart in chunks:
            dst = slice(int(indptr[lc]), int(indptr[lc + 1]))
            indices[dst] = r
            vals[dst] = v
            pos[dst] = np.arange(gstart, gstart + r.size, dtype=np.int64)
        blocks_per_col[bj].append((bi, shape, indptr, indices, vals, pos))

    blk_colptr = np.zeros(nb + 1, dtype=np.int64)
    blk_rowidx: list[int] = []
    payloads: list[tuple] = []
    for bj in range(nb):
        entries = sorted(blocks_per_col[bj], key=lambda t: t[0])
        blk_colptr[bj + 1] = blk_colptr[bj] + len(entries)
        for bi, *payload in entries:
            blk_rowidx.append(bi)
            payloads.append(tuple(payload))

    out = BlockMatrix(
        n=n, bs=bs, nb=nb, blk_colptr=blk_colptr,
        blk_rowidx=np.asarray(blk_rowidx, dtype=np.int64),
        blk_values=[
            CSCMatrix(shape, indptr, indices, vals, check=False)
            for shape, indptr, indices, vals, _ in payloads
        ],
        dtype=dtype, boundaries=bounds,
    )
    if arena:
        def cat(k, dt):
            parts = [p[k] for p in payloads]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dt)

        out.arena = FactorArena(
            indptr=cat(1, np.int64), indices=cat(2, np.int64), data=cat(3, dtype),
            ptr_off=np.cumsum([0] + [p[1].size for p in payloads], dtype=np.int64),
            val_off=np.cumsum([0] + [p[2].size for p in payloads], dtype=np.int64),
            gather=cat(4, np.int64),
        )
    return out


# ----------------------------------------------------------------------
# core.dag
# ----------------------------------------------------------------------
def _lower_upper_counts(block: CSCMatrix):
    """Per column of a diagonal block: strict-lower nnz, strict-upper
    nnz; per row: strict-upper nnz — one ``searchsorted`` per column."""
    n = block.ncols
    lower_col = np.zeros(n, dtype=np.int64)
    upper_col = np.zeros(n, dtype=np.int64)
    upper_row = np.zeros(n, dtype=np.int64)
    for j in range(n):
        rows = block.indices[block.col_slice(j)]
        pos = int(np.searchsorted(rows, j))
        has_diag = 1 if pos < rows.size and rows[pos] == j else 0
        lower_col[j] = rows.size - pos - has_diag
        upper_col[j] = pos
        np.add.at(upper_row, rows[:pos], 1)
    return lower_col, upper_col, upper_row


def build_dag(f: BlockMatrix) -> list[tuple]:
    """The block LU task list as ``(type name, k, bi, bj, flops,
    successors)`` per task id: step by step GETRF, the GESSMs by block
    column, the TSTRFs by block row, then every SSSSM whose ``L(i,k)``
    has a stored column where ``U(k,j)`` has a stored row (the
    per-block support masks the builder used to keep), each task after
    the panel task of every block it reads and after the task created
    before it into its own block (each block's writers one chain)."""
    nb = f.nb
    col_support = [np.diff(b.indptr) > 0 for b in f.blk_values]
    row_support = []
    for b in f.blk_values:
        rs = np.zeros(b.nrows, dtype=bool)
        rs[b.indices] = True
        row_support.append(rs)

    tasks: list[list] = []
    panel: dict[tuple[int, int], int] = {}

    def add(name, k, bi, bj, flops) -> int:
        tasks.append([name, k, bi, bj, int(flops), []])
        return len(tasks) - 1

    for k in range(nb):
        lower_col, upper_col, upper_row = _lower_upper_counts(f.block(k, k))
        panel[(k, k)] = add(
            "GETRF", k, k, k, lower_col.sum() + 2 * np.dot(lower_col, upper_row)
        )
        urow = [j for j in range(k + 1, nb) if f.block_slot(k, j) >= 0]
        lcol = [i for i in range(k + 1, nb) if f.block_slot(i, k) >= 0]
        for j in urow:
            b = f.block(k, j)
            panel[(k, j)] = add("GESSM", k, k, j, 2 * lower_col[b.indices].sum())
        for i in lcol:
            b = f.block(i, k)
            panel[(i, k)] = add(
                "TSTRF", k, i, k, b.nnz + 2 * upper_col[b.cols_expanded()].sum()
            )
        for i in lcol:
            a = f.block(i, k)
            for j in urow:
                b = f.block(k, j)
                if not np.any(
                    col_support[f.block_slot(i, k)] & row_support[f.block_slot(k, j)]
                ):
                    continue
                rownnz = np.zeros(b.nrows, dtype=np.int64)
                np.add.at(rownnz, b.indices, 1)
                add("SSSSM", k, i, j, 2 * np.dot(np.diff(a.indptr), rownnz))

    writers: dict[tuple[int, int], list[int]] = {}
    for tid, (name, k, bi, bj, _, _) in enumerate(tasks):
        if name == "SSSSM":
            preds = [panel[(bi, k)], panel[(k, bj)]]
        else:
            preds = [] if name == "GETRF" else [panel[(k, k)]]
        preds += writers.setdefault((bi, bj), [])[-1:]
        writers[(bi, bj)].append(tid)
        for p in preds:
            tasks[p][5].append(tid)
    return [tuple(t) for t in tasks]

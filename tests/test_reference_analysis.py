"""The array-native analysis phase against its interpreter-loop oracles.

``tests/reference_analysis.py`` holds the row-subtree symbolic fill, the
set-based AMD, the list-based BFS / nested dissection / RCM, the
chunk-loop block partition and the support-mask task-DAG builder that
``src/`` used to run.  Same permutation, same filled pattern and same block layout mean
the same task stream and therefore bit-identical factors, so every
comparison here is exact.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from . import reference_analysis as ref
import repro.ordering.nd as nd_mod
from repro import PanguLU
from repro.core.blocking import block_partition
from repro.core.dag import build_dag
from repro.core.solver import fill_reducing_ordering, reorder_and_scale
from repro.core.strategy import IrregularBlocking
from repro.ordering import (
    amd,
    bfs_levels,
    colamd,
    mc64,
    nested_dissection,
    pseudo_peripheral_vertex,
    rcm,
)
from repro.sparse import (
    CSCMatrix,
    coo_to_csc,
    ensure_diagonal,
    generate,
    grid_laplacian_2d,
    has_full_diagonal,
    paper_matrix_names,
    random_sparse,
)
from repro.sparse.patterns import adjacency, symmetrize_pattern
from repro.symbolic import (
    column_structures,
    elimination_tree,
    entry_positions,
    envelope_profile,
    fill_in_values,
    symbolic_symmetric,
)

NAMES = paper_matrix_names()


@functools.lru_cache(maxsize=None)
def matrix(name: str) -> CSCMatrix:
    """Generator ``name`` at n ≈ 120–430, seeded by its position."""
    return generate(name, scale=0.1, seed=NAMES.index(name))


@functools.lru_cache(maxsize=None)
def filled(name: str) -> CSCMatrix:
    return symbolic_symmetric(matrix(name)).filled


def without_diagonal(a: CSCMatrix, every: int) -> CSCMatrix:
    """``a`` with every ``every``-th diagonal entry structurally removed."""
    rows, cols = a.rows_cols()
    keep = ~((rows == cols) & (cols % every == 0))
    return coo_to_csc(a.shape, rows[keep], cols[keep], a.data[keep])


def assert_same_matrix(got: CSCMatrix, want: CSCMatrix) -> None:
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)
    # the two zeros compare equal: their signs are part of the bits
    np.testing.assert_array_equal(np.signbit(got.data), np.signbit(want.data))


def awkward_matrix(shape, dtype, seed: int) -> CSCMatrix:
    """A random pattern with empty rows and columns whose stored values
    include ``+0.0`` and ``-0.0``."""
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < 0.15
    mask[:, ::5] = False
    mask[::7, :] = False
    cols, rows = np.nonzero(mask.T)
    vals = rng.standard_normal(rows.size).astype(dtype)
    vals[::4], vals[1::4] = 0.0, -0.0
    indptr = np.zeros(shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=shape[1]), out=indptr[1:])
    return CSCMatrix(shape, indptr, rows, vals)


def assert_same_structures(a: CSCMatrix) -> None:
    """``column_structures`` against the row-subtree fill, and the capped
    ``symbolic_symmetric`` tripping exactly past the strict lower count."""
    want, etree, nnz_strict = ref.symbolic_symmetric(a)
    parent, ptr, rows = column_structures(symmetrize_pattern(a))
    np.testing.assert_array_equal(parent, etree)
    w_rows, w_cols = want.rows_cols()
    below = w_rows > w_cols
    np.testing.assert_array_equal(rows, w_rows[below])
    np.testing.assert_array_equal(np.diff(ptr), np.bincount(w_cols[below], minlength=a.ncols))
    assert symbolic_symmetric(a, limit=nnz_strict - 1) is None
    capped = symbolic_symmetric(a, limit=nnz_strict)
    assert capped is not None and capped.nnz_l == nnz_strict + a.ncols
    assert_same_matrix(capped.filled, want)


def single_tail_columns(a: CSCMatrix) -> tuple[int, int]:
    """Of the columns whose etree children pass up exactly one tail and
    that have own entries below the diagonal, how many have all of them
    in that tail (the sweep's slice path) and how many do not (a merge)."""
    want, parent, _ = ref.symbolic_symmetric(a)
    s = ref.symmetrize_pattern(a)
    low = [r[r > j] for j, r in enumerate(np.split(want.indices, want.indptr[1:-1]))]
    own = [r[r > j] for j, r in enumerate(np.split(s.indices, s.indptr[1:-1]))]
    tails: list[list[np.ndarray]] = [[] for _ in range(a.ncols)]
    for c, p in enumerate(parent.tolist()):
        if p >= 0 and low[c].size > 1:
            tails[p].append(low[c][1:])
    inside = outside = 0
    for j in range(a.ncols):
        if len(tails[j]) == 1 and own[j].size:
            if np.isin(own[j], tails[j][0]).all():
                inside += 1
            else:
                outside += 1
    return inside, outside


def assert_same_symbolic(a: CSCMatrix) -> None:
    sym = symbolic_symmetric(a)
    want, etree, nnz_strict = ref.symbolic_symmetric(a)
    assert_same_matrix(sym.filled, want)
    np.testing.assert_array_equal(sym.etree, etree)
    assert sym.etree.dtype == etree.dtype
    assert sym.nnz_l == sym.nnz_u == nnz_strict + a.ncols
    # the position map addresses exactly a's entries, in a's order
    np.testing.assert_array_equal(sym.filled.indices[sym.a_positions], a.indices)
    np.testing.assert_array_equal(sym.filled.data[sym.a_positions], a.data)
    assert sym.nnz_a == a.nnz


def assert_same_blocks(f: CSCMatrix, bs, *, arena: bool, dtype) -> None:
    got = block_partition(f, bs, arena=arena, dtype=dtype)
    want = ref.block_partition(f, bs, arena=arena, dtype=dtype)
    assert (got.n, got.bs, got.nb, got.dtype) == (want.n, want.bs, want.nb, want.dtype)
    for name in ("boundaries", "blk_colptr", "blk_rowidx"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert getattr(got, name).dtype == np.int64
    assert len(got.blk_values) == len(want.blk_values) == got.num_blocks
    for g, w in zip(got.blk_values, want.blk_values):
        assert_same_matrix(g, w)
    if not arena:
        assert got.arena is None
        # the legacy layout's promise: every block owns its arrays
        assert all(b.data.base is None for b in got.blk_values)
        return
    for name in ("indptr", "indices", "data", "ptr_off", "val_off", "gather"):
        g, w = getattr(got.arena, name), getattr(want.arena, name)
        np.testing.assert_array_equal(g, w)
        assert g.dtype == w.dtype, name
    # and the blocks alias the slabs
    assert all(np.shares_memory(b.data, got.arena.data) for b in got.blk_values if b.nnz)


def assert_same_orderings(a: CSCMatrix) -> None:
    """AMD, COLAMD, nested dissection at two leaf sizes, ``"best"`` and RCM
    against the oracles, exactly."""
    def fill(q):
        return symbolic_symmetric(a.permute(q, q)).nnz_lu

    want_amd = ref.reference_amd(a)
    want_nd = ref.nested_dissection(a)
    np.testing.assert_array_equal(amd(a), want_amd)
    np.testing.assert_array_equal(colamd(a), ref.colamd(a))
    np.testing.assert_array_equal(nested_dissection(a), want_nd)
    np.testing.assert_array_equal(
        nested_dissection(a, leaf_size=8), ref.nested_dissection(a, leaf_size=8)
    )
    np.testing.assert_array_equal(
        fill_reducing_ordering(a, "best"), min((want_nd, want_amd), key=fill)
    )
    np.testing.assert_array_equal(rcm(a), ref.rcm(a))


def assert_same_dag(blocks) -> int:
    """``build_dag`` against the support-mask oracle; returns how many
    structurally empty Schur products both left out."""
    dag = build_dag(blocks)
    got = [
        (t.ttype.name, t.k, t.bi, t.bj, t.flops, t.successors) for t in dag.tasks
    ]
    want = ref.build_dag(blocks)
    assert got == want
    assert all(type(t.flops) is int for t in dag.tasks)
    assert dag.total_flops == sum(t[4] for t in want)
    pairs = sum(
        sum(1 for i in range(k + 1, blocks.nb) if blocks.block_slot(i, k) >= 0)
        * sum(1 for j in range(k + 1, blocks.nb) if blocks.block_slot(k, j) >= 0)
        for k in range(blocks.nb)
    )
    return pairs - sum(t[0] == "SSSSM" for t in want)


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
class TestSweep:
    def test_symbolic_fill(self, name):
        assert_same_symbolic(matrix(name))

    def test_symbolic_fill_float32_and_holes(self, name):
        a = matrix(name)
        assert_same_symbolic(a.astype(np.float32))
        assert_same_symbolic(without_diagonal(a, 3))

    def test_column_structures_are_the_strict_lower_fill(self, name):
        a = matrix(name)
        assert_same_structures(a)
        parent, _, _ = column_structures(ref.symmetrize_pattern(a))
        np.testing.assert_array_equal(parent, elimination_tree(a))

    def test_envelope_profile_and_capped_symbolic(self, name):
        a = matrix(name)
        assert envelope_profile(a) == ref.envelope_profile(a)
        _, _, nnz_strict = ref.symbolic_symmetric(a)
        assert symbolic_symmetric(a, limit=nnz_strict - 1) is None
        sym = symbolic_symmetric(a, limit=nnz_strict)
        assert sym is not None and sym.nnz_l == nnz_strict + a.ncols

    def test_orderings(self, name):
        assert_same_orderings(matrix(name))

    def test_orderings_at_twice_the_scale(self, name):
        assert_same_orderings(generate(name, scale=0.2, seed=NAMES.index(name)))

    def test_bfs_and_peripheral_search(self, name):
        a = matrix(name)
        n = a.ncols
        adj, lists = adjacency(a), ref.adjacency_lists(a)
        rng = np.random.default_rng(NAMES.index(name))
        for mask in (None, rng.random(n) < 0.7):
            for start in rng.choice(n if mask is None else np.flatnonzero(mask), 3):
                level, levels = bfs_levels(adj, int(start), mask)
                w_level, w_levels = ref.bfs_levels(lists, int(start), mask)
                np.testing.assert_array_equal(level, w_level)
                assert len(levels) == len(w_levels)
                for g, w in zip(levels, w_levels):
                    np.testing.assert_array_equal(g, w)
                    assert g.dtype == w.dtype
                v, lv = pseudo_peripheral_vertex(adj, int(start), mask)
                w_v, w_lv = ref.pseudo_peripheral_vertex(lists, int(start), mask)
                assert v == w_v and len(lv) == len(w_lv)

    def test_pattern_helpers(self, name):
        a = matrix(name)
        holes = without_diagonal(a, 4)
        assert has_full_diagonal(a) == (not ref.missing_diagonal(a))
        assert not has_full_diagonal(holes)
        assert_same_matrix(ensure_diagonal(holes), ref.ensure_diagonal(holes))
        assert_same_matrix(ensure_diagonal(a), a)
        ptr, idx = adjacency(holes)
        want = ref.adjacency_lists(holes)
        np.testing.assert_array_equal(np.diff(ptr), [w.size for w in want])
        np.testing.assert_array_equal(idx, np.concatenate(want))
        assert_same_matrix(fill_in_values(filled(name), holes),
                           ref.fill_in_values(filled(name), holes))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
    @pytest.mark.parametrize("arena", [True, False], ids=["arena", "noarena"])
    @pytest.mark.parametrize("layout", ["regular", "irregular"])
    def test_block_partition(self, name, layout, arena, dtype):
        f = filled(name)
        bs = 24 if layout == "regular" else IrregularBlocking(20).boundaries(f)
        assert_same_blocks(f, bs, arena=arena, dtype=dtype)

    def test_build_dag(self, name):
        assert_same_dag(block_partition(filled(name), 24))


# the repo benchmark's three generators at its smoke scales
# (benchmarks/e2e/workloads.py), through the facade's own phases 1–3
@pytest.mark.parametrize(
    "name, scale", [("audikw_1", 0.17), ("ecology1", 0.12), ("cage12", 0.17)]
)
def test_build_dag_on_the_benchmark_generators(name, scale):
    solver = PanguLU(generate(name, scale=scale, seed=0))
    solver.preprocess()
    assert_same_dag(solver.blocks)


def test_build_dag_leaves_out_structurally_empty_products():
    # small blocks of a circuit matrix: L(i,k)·U(k,j) pairs sharing no index
    bm = block_partition(filled("ASIC_680k"), 6)
    assert assert_same_dag(bm) > 1000


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", range(4))
def test_coo_assembly_sums_duplicates_in_input_order(seed, dtype):
    rng = np.random.default_rng(seed)
    m, shape = 4000, (37, 53)
    rows, cols = rng.integers(0, shape[0], m), rng.integers(0, shape[1], m)
    vals = rng.standard_normal(m).astype(dtype)
    assert_same_matrix(coo_to_csc(shape, rows, cols, vals),
                       ref.coo_to_csc(shape, rows, cols, vals))


SHAPES = [(37, 53), (53, 37), (40, 40), (1, 9), (9, 1), (0, 0), (0, 6), (6, 0)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", SHAPES)
def test_transpose_is_the_stable_argsort(shape, dtype):
    a = awkward_matrix(shape, dtype, sum(shape))
    got = a.transpose()
    assert_same_matrix(got, ref.transpose(a))
    assert_same_matrix(got.transpose(), a)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("which", ["rows", "cols", "both", "neither"])
@pytest.mark.parametrize("shape", SHAPES)
def test_permute_and_diagonal(shape, which, dtype):
    rng = np.random.default_rng(sum(shape))
    a = awkward_matrix(shape, dtype, sum(shape))
    p = rng.permutation(shape[0]) if which in ("rows", "both") else None
    q = rng.permutation(shape[1]) if which in ("cols", "both") else None
    got = a.permute(p, q)
    assert_same_matrix(got, ref.permute(a, p, q))
    assert not np.shares_memory(got.indices, a.indices)
    for m in (a, got):
        diag = m.diagonal()
        assert diag.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(diag, ref.diagonal(m))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [0, 1, 9, 40, 97])
def test_symmetrize_pattern_is_the_sorted_assembly(n, dtype):
    a = awkward_matrix((n, n), dtype, n)
    s = symmetrize_pattern(a)
    want = ref.symmetrize_pattern(a)
    assert s.shape == want.shape and s.dtype == want.dtype == np.float64
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(s, name), getattr(want, name))
    # signs: A's value where only A has the entry, a + 0.0 (a −0.0 turns
    # into +0.0) where Aᵀ has it too, +0.0 where only Aᵀ has it
    stored = np.zeros((n, n), dtype=bool)
    stored[a.indices, a.cols_expanded()] = True
    rows, cols = s.rows_cols()
    a_only = stored[rows, cols] & ~stored[cols, rows]
    sign = np.zeros(s.nnz, dtype=bool)
    at = entry_positions(s, a)
    sign[at] = np.signbit(a.data) & ((a.data != 0) | a_only[at])
    np.testing.assert_array_equal(np.signbit(s.data), sign)
    if n == 97:   # both kinds of −0.0 occur
        negative_zero = np.zeros(s.nnz, dtype=bool)
        negative_zero[at] = np.signbit(a.data)
        assert (negative_zero & a_only).any() and (negative_zero & ~a_only).any()


def banded_graph(n: int, seed: int) -> CSCMatrix:
    """Random entries inside a band of half-width 3 plus a few far ones:
    etree chains whose columns sometimes stay inside the child's tail and
    sometimes reach past it."""
    rng = np.random.default_rng(seed)
    rows, cols = np.nonzero(np.triu(np.tril(rng.random((n, n)) < 0.6, 3), -3))
    far = rng.integers(0, n, (2, n // 8))
    rows, cols = np.r_[rows, far[0], np.arange(n)], np.r_[cols, far[1], np.arange(n)]
    return coo_to_csc((n, n), rows, cols, rng.standard_normal(rows.size))


@pytest.mark.parametrize("seed", range(8))
def test_column_structures_take_the_child_tail_as_a_slice(seed):
    a = banded_graph(40 + 13 * seed, seed)
    inside, outside = single_tail_columns(a)
    assert inside and outside
    assert_same_structures(a)


@pytest.mark.parametrize("name", ["grid", "cage12"])
@pytest.mark.parametrize("order", ["nd", "natural"])
def test_column_structures_slice_path_at_scale(name, order):
    a = grid_laplacian_2d(20, 20) if name == "grid" else generate("cage12", scale=0.5, seed=0)
    if order == "nd":
        p = nested_dissection(a)
        a = a.permute(p, p)
    assert single_tail_columns(a)[0]
    assert_same_structures(a)


@pytest.mark.parametrize("seed", range(32))
def test_orderings_on_random_patterns(seed):
    # sparse enough to leave isolated vertices and several components; every
    # fourth seed adds two more components and three isolated vertices
    n = 20 + (37 * seed) % 110
    a = random_sparse(n, (0.004, 0.01, 0.03, 0.08)[seed % 4], seed=seed,
                      symmetric_pattern=seed % 2 == 1)
    if seed % 4 == 3:
        other = random_sparse(n // 3 + 1, 0.1, seed=seed + 100)
        parts = [a.to_scipy(), other.to_scipy(), sp.identity(3, format="csc")]
        a = CSCMatrix.from_scipy(sp.block_diag(parts, format="csc"))
    assert_same_orderings(a)


def test_nonsymmetric_random_patterns():
    for seed in range(6):
        a = random_sparse(90, 0.04, seed=seed)
        assert_same_symbolic(a)
        np.testing.assert_array_equal(nested_dissection(a, leaf_size=16),
                                      ref.nested_dissection(a, leaf_size=16))
        assert_same_blocks(symbolic_symmetric(a).filled, 7, arena=True, dtype=None)


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
def test_order_zero():
    a = CSCMatrix.empty((0, 0))
    sym = symbolic_symmetric(a)
    assert sym.filled.shape == (0, 0) and sym.filled.nnz == 0
    assert sym.etree.size == 0 and sym.nnz_lu == 0 and sym.fill_ratio == 0.0
    assert nested_dissection(a).size == 0 and rcm(a).size == 0
    ptr, idx = adjacency(a)
    assert ptr.tolist() == [0] and idx.size == 0 and has_full_diagonal(a)
    bm = block_partition(sym.filled, 4, arena=True)
    assert bm.nb == 0 and bm.num_blocks == 0 and bm.blk_values == []
    assert bm.arena.data.size == 0 and bm.arena.ptr_off.tolist() == [0]


def test_order_one():
    a = CSCMatrix.from_dense(np.array([[3.0]]))
    assert_same_symbolic(a)
    assert nested_dissection(a).tolist() == [0] == rcm(a).tolist()
    for arena in (True, False):
        assert_same_blocks(symbolic_symmetric(a).filled, 4, arena=arena, dtype=None)
    level, levels = bfs_levels(adjacency(a), 0)
    assert level.tolist() == [0] and [lv.tolist() for lv in levels] == [[0]]


def test_diagonal_matrix_is_a_forest_of_roots():
    a = CSCMatrix.from_dense(np.diag(np.arange(1.0, 41.0)))
    assert_same_symbolic(a)
    sym = symbolic_symmetric(a)
    assert np.all(sym.etree == -1) and sym.filled.nnz == 40
    assert_same_orderings(a)
    assert_same_blocks(sym.filled, 6, arena=True, dtype=None)
    assert block_partition(sym.filled, 6).num_blocks == 7  # diagonal blocks only


def test_empty_columns_before_ensure_diagonal():
    d = np.zeros((12, 12))
    d[0, 5] = d[5, 0] = d[7, 2] = d[3, 3] = d[11, 4] = 2.0   # columns 1, 6, 8–11 empty
    a = CSCMatrix.from_dense(d)
    assert not has_full_diagonal(a)
    assert_same_symbolic(a)              # the symbolic pass adds the diagonal itself
    full = ensure_diagonal(a)
    assert_same_matrix(full, ref.ensure_diagonal(a))
    assert has_full_diagonal(full) and full.nnz == a.nnz + 11
    assert_same_symbolic(full)
    assert_same_blocks(symbolic_symmetric(a).filled, 5, arena=True, dtype=None)


def test_disconnected_graph_and_masked_bfs():
    # two 4-cycles {0..3}, {4..7} and an isolated vertex 8
    d = np.eye(9)
    for base in (0, 4):
        for k in range(4):
            d[base + k, base + (k + 1) % 4] = d[base + (k + 1) % 4, base + k] = 1.0
    a = CSCMatrix.from_dense(d)
    adj = adjacency(a)
    level, levels = bfs_levels(adj, 5)
    assert level.tolist() == [-1, -1, -1, -1, 1, 0, 1, 2, -1]
    assert [lv.tolist() for lv in levels] == [[5], [4, 6], [7]]
    mask = np.array([1, 1, 0, 1, 1, 1, 1, 1, 1], dtype=bool)   # cut the first cycle open
    level, levels = bfs_levels(adj, 1, mask)
    assert level.tolist() == [1, 0, -1, 2, -1, -1, -1, -1, -1]
    assert not mask[2] and mask.sum() == 8                      # mask not written to
    with pytest.raises(ValueError, match="masked out"):
        bfs_levels(adj, 2, mask)
    assert bfs_levels(adj, 8)[0].tolist() == [-1] * 8 + [0]
    for leaf in (2, 64):
        np.testing.assert_array_equal(nested_dissection(a, leaf_size=leaf),
                                      ref.nested_dissection(a, leaf_size=leaf))
    np.testing.assert_array_equal(rcm(a), ref.rcm(a))


# ----------------------------------------------------------------------
# nested dissection's minimum-degree leaves
# ----------------------------------------------------------------------
def assert_leaf_is_minimum_degree(a: CSCMatrix) -> None:
    want = ref.minimum_degree(a)
    assert nd_mod._minimum_degree(adjacency(a)) == want.tolist()
    if a.ncols:    # at or below leaf_size the whole graph is one leaf
        np.testing.assert_array_equal(nested_dissection(a, leaf_size=a.ncols), want)


@pytest.mark.parametrize("seed", range(12))
def test_leaf_order_is_minimum_degree_on_random_graphs(seed):
    # n = 30 … 63: one machine word per bitset
    a = random_sparse(30 + 3 * seed, (0.03, 0.08, 0.2)[seed % 3], seed=seed,
                      symmetric_pattern=seed % 2 == 0)
    assert_leaf_is_minimum_degree(a)


@pytest.mark.parametrize("n", [65, 150])
def test_leaf_order_is_minimum_degree_past_one_machine_word(n):
    # bitsets wider than 64 bits: a random graph and a grid Laplacian
    assert_leaf_is_minimum_degree(random_sparse(n, 0.05, seed=n))
    side = int(np.ceil(np.sqrt(n)))
    assert_leaf_is_minimum_degree(grid_laplacian_2d(side, side))


def test_leaf_order_is_minimum_degree_on_degenerate_graphs():
    assert_leaf_is_minimum_degree(CSCMatrix.empty((0, 0)))
    assert_leaf_is_minimum_degree(CSCMatrix.from_dense(np.array([[3.0]])))
    # isolated vertices (degree 0, eliminated first, lowest index first)
    # beside a path 1-4-7 and a triangle 3-5-6
    d = np.eye(9)
    for i, j in ((1, 4), (4, 7), (3, 5), (5, 6), (3, 6)):
        d[i, j] = d[j, i] = 1.0
    assert_leaf_is_minimum_degree(CSCMatrix.from_dense(d))
    assert nd_mod._minimum_degree(adjacency(CSCMatrix.from_dense(d))) == \
        [0, 2, 8, 1, 4, 7, 3, 5, 6]


def test_phase_one_at_benchmark_scale():
    # grid2d_seq's matrix (benchmarks/e2e/workloads.py)
    a = generate("ecology1", scale=4.0, seed=0)
    _, _, row_perm, col_perm, *_ = reorder_and_scale(a, "nd", {})
    res = mc64(a)
    want = ref.nested_dissection(a.scale(res.row_scale, res.col_scale)
                                 .permute(res.row_perm, None))
    np.testing.assert_array_equal(col_perm, want)
    np.testing.assert_array_equal(row_perm, res.row_perm[want])


@pytest.mark.parametrize("name", NAMES)
def test_entry_positions_is_the_fused_key_search(name):
    a = generate(name, scale=0.2, seed=NAMES.index(name))
    f = symbolic_symmetric(a).filled
    got = entry_positions(f, a)
    np.testing.assert_array_equal(got, ref.entry_positions(f, a))
    assert got.dtype == np.int64


def test_entry_positions_with_empty_columns_and_an_uncovered_entry():
    a, f = matrix("ecology1"), filled("ecology1")
    rows, cols = a.rows_cols()
    # every third column of the input empty, then every fifth of both
    for keep_a, keep_f in ((cols % 3 != 0, None), (cols % 5 != 0, 5)):
        sub = coo_to_csc(a.shape, rows[keep_a], cols[keep_a], a.data[keep_a])
        pattern = f
        if keep_f is not None:
            fr, fc = f.rows_cols()
            kept = fc % keep_f != 0
            pattern = coo_to_csc(f.shape, fr[kept], fc[kept], f.data[kept])
        np.testing.assert_array_equal(entry_positions(pattern, sub),
                                      ref.entry_positions(pattern, sub))
    # one off-diagonal entry of the input struck from the pattern
    at = int(np.flatnonzero(rows != cols)[rows.size // 2])
    fr, fc = f.rows_cols()
    kept = (fr != rows[at]) | (fc != cols[at])
    pattern = coo_to_csc(f.shape, fr[kept], fc[kept], f.data[kept])
    for fn in (entry_positions, ref.entry_positions):
        with pytest.raises(ValueError, match=rf"does not cover column {cols[at]} "):
            fn(pattern, a)


def test_fill_in_values_names_the_first_uncovered_column():
    pattern = CSCMatrix.from_dense(np.eye(5) + np.eye(5, k=1))
    a = np.eye(5)
    a[4, 2] = a[3, 1] = a[0, 1] = 1.0        # (0, 1) is covered; columns 1 and 2 are not
    a = CSCMatrix.from_dense(a)
    for fn in (fill_in_values, ref.fill_in_values, entry_positions):
        with pytest.raises(ValueError, match="does not cover column 1 of the input"):
            fn(pattern, a)
    with pytest.raises(ValueError, match="does not cover column 0"):
        entry_positions(CSCMatrix.empty((5, 5)), a)
    with pytest.raises(ValueError, match="shape mismatch"):
        fill_in_values(pattern, CSCMatrix.eye(4))
    assert entry_positions(pattern, CSCMatrix.empty((5, 5))).size == 0


def test_fill_ratio_counts_stored_zeros_structurally():
    # lower bidiagonal of order 6 with three sub-diagonal entries stored as 0.0
    n = 6
    a = coo_to_csc(
        (n, n),
        np.r_[np.arange(n), np.arange(1, n)],
        np.r_[np.arange(n), np.arange(n - 1)],
        np.r_[np.ones(n), [0.0, 1.0, 0.0, 1.0, 0.0]],
    )
    assert a.nnz == 11 and np.count_nonzero(a.data) == 8
    sym = symbolic_symmetric(a)
    assert sym.nnz_a == 11 and sym.filled.nnz == 16
    assert sym.fill_ratio == 16 / 11          # not 16 / 8

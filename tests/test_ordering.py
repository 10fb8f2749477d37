"""Tests for the fill-reducing orderings (RCM, AMD, ND; the exact
minimum-degree oracle of ``tests/reference_analysis.py`` for comparison)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import amd, nested_dissection, rcm
from repro.sparse import bandwidth, generate, grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric

from .reference_analysis import (
    _pick_separator,
    adjacency_lists,
    bfs_levels,
    minimum_degree,
    pseudo_peripheral_vertex,
)


def _is_permutation(p: np.ndarray, n: int) -> bool:
    return p.shape == (n,) and np.array_equal(np.sort(p), np.arange(n))


def _fill_of(a, p):
    return symbolic_symmetric(a.permute(p, p)).nnz_lu


ORDERINGS = {
    "rcm": rcm,
    "amd": amd,
    "md": minimum_degree,
    "nd": nested_dissection,
}


class TestValidity:
    @pytest.mark.parametrize("name", list(ORDERINGS))
    def test_permutation_on_random(self, name):
        a = random_sparse(60, 0.06, seed=3)
        p = ORDERINGS[name](a)
        assert _is_permutation(p, 60)

    @pytest.mark.parametrize("name", list(ORDERINGS))
    def test_permutation_on_grid(self, name):
        g = grid_laplacian_2d(9, 9)
        p = ORDERINGS[name](g)
        assert _is_permutation(p, 81)

    @pytest.mark.parametrize("name", list(ORDERINGS))
    def test_empty_matrix(self, name):
        from repro.sparse import CSCMatrix

        p = ORDERINGS[name](CSCMatrix.empty((0, 0)))
        assert p.size == 0

    @pytest.mark.parametrize("name", ["amd", "nd", "rcm"])
    def test_rejects_rectangular(self, name):
        from repro.sparse import CSCMatrix

        for shape in ((3, 4), (3, 5)):
            r = CSCMatrix.from_dense(np.ones(shape))
            with pytest.raises(ValueError, match="requires a square matrix"):
                ORDERINGS[name](r)

    @pytest.mark.parametrize("name", list(ORDERINGS))
    def test_disconnected_graph(self, name):
        # block-diagonal: two independent components
        import scipy.sparse as sp
        from repro.sparse import CSCMatrix

        g1 = grid_laplacian_2d(4, 4).to_scipy()
        g2 = grid_laplacian_2d(3, 3).to_scipy()
        a = CSCMatrix.from_scipy(sp.block_diag([g1, g2]))
        p = ORDERINGS[name](a)
        assert _is_permutation(p, 25)


class TestQuality:
    def test_rcm_reduces_bandwidth(self):
        a = random_sparse(150, 0.03, seed=9)
        p = rcm(a)
        assert bandwidth(a.permute(p, p)) <= bandwidth(a)

    def test_amd_beats_natural_on_grid(self):
        g = grid_laplacian_2d(14, 14)
        natural = _fill_of(g, np.arange(196))
        assert _fill_of(g, amd(g)) < natural

    def test_nd_beats_natural_on_grid(self):
        g = grid_laplacian_2d(14, 14)
        natural = _fill_of(g, np.arange(196))
        assert _fill_of(g, nested_dissection(g)) < natural

    def test_md_close_to_amd(self):
        g = grid_laplacian_2d(10, 10)
        f_amd = _fill_of(g, amd(g))
        f_md = _fill_of(g, minimum_degree(g))
        # AMD is an approximation of MD; allow generous slack both ways
        assert f_amd < 2.0 * f_md

    def test_nd_leaf_size_parameter(self):
        g = grid_laplacian_2d(12, 12)
        p1 = nested_dissection(g, leaf_size=16)
        p2 = nested_dissection(g, leaf_size=100)
        assert _is_permutation(p1, 144) and _is_permutation(p2, 144)


class TestGeorgeConstruction:
    """ND numbers the top-level separator last, in ascending order, after
    two halves that share no edge (George's construction)."""

    @pytest.mark.parametrize(
        "make",
        [lambda: grid_laplacian_2d(20, 20), lambda: generate("audikw_1", scale=0.5)],
        ids=["grid20x20", "audikw_1@0.5"],
    )
    def test_top_level_separator_is_the_sorted_tail(self, make):
        a = make()
        n = a.ncols
        adj = adjacency_lists(a)
        start, _ = pseudo_peripheral_vertex(adj, 0)
        _, levels = bfs_levels(adj, start)
        assert n > 64 and sum(lv.size for lv in levels) == n  # dissected, connected
        d = _pick_separator(levels)
        sep = levels[d]
        first = np.concatenate(levels[:d])
        p = nested_dissection(a)
        assert np.array_equal(p[n - sep.size:], np.sort(sep))
        # the two halves come first, and no edge joins them
        assert np.array_equal(np.sort(p[:first.size]), np.sort(first))
        in_first = np.zeros(n, dtype=bool)
        in_first[first] = True
        second = p[first.size:n - sep.size]
        assert not any(in_first[adj[v]].any() for v in second)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.floats(0.02, 0.25), st.integers(0, 10_000))
def test_all_orderings_are_permutations(n, density, seed):
    a = random_sparse(n, density, seed=seed)
    for fn in (rcm, amd, nested_dissection):
        assert _is_permutation(fn(a), n)


class TestColamd:
    def test_is_permutation(self):
        from repro.ordering import colamd

        a = random_sparse(70, 0.05, seed=4)
        assert _is_permutation(colamd(a), 70)

    def test_reduces_ata_fill(self):
        from repro.ordering import colamd

        a = random_sparse(80, 0.04, seed=6)
        p = colamd(a)
        natural = _fill_of(a, np.arange(80))
        # colamd orders for A^T A; on these matrices it should at least
        # not be catastrophically worse than natural on A itself, and the
        # solver integration tests check end-to-end behaviour
        assert _fill_of(a, p) < 2 * natural

    def test_unsymmetric_matrix(self):
        from repro.ordering import colamd
        from repro.sparse import generate

        a = generate("cage12", scale=0.15)
        assert _is_permutation(colamd(a), a.ncols)

    def test_solver_option(self):
        from repro import PanguLU, SolverOptions

        a = random_sparse(60, 0.06, seed=7)
        s = PanguLU(a, SolverOptions(ordering="colamd"))
        x = s.solve(np.ones(60))
        assert s.residual_norm(x, np.ones(60)) < 1e-9

"""Phase 1 keeps the input order when its envelope proves less fill.

``repro.core.solver.order_by_fill`` orders as asked, runs the symbolic
once capped at the input order's envelope profile, and falls back to the
input order only when the cap trips — so the kept order never has more
fill than the asked one.  These tests hold the three parts to that: the
cap (``symbolic_symmetric(limit=)``), the bound (``envelope_profile``)
and the rule on every generator, on all three facades.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PanguLU, SolverOptions
from repro.baseline import BaselineOptions, SuperLUBaseline
from repro.cholesky import CholeskyOptions, PanguLLt
from repro.core.solver import order_by_fill
from repro.ordering import mc64, nested_dissection
from repro.sparse import generate, grid_laplacian_2d, paper_matrix_names, random_sparse
from repro.sparse.patterns import ensure_diagonal
from repro.symbolic import envelope_profile, symbolic_symmetric


def strict_count(a) -> int:
    return symbolic_symmetric(a).nnz_l - a.ncols


def assert_same_symbolic(got, want) -> None:
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got.filled, name), getattr(want.filled, name))
    np.testing.assert_array_equal(got.etree, want.etree)
    np.testing.assert_array_equal(got.a_positions, want.a_positions)
    assert (got.nnz_l, got.nnz_u) == (want.nnz_l, want.nnz_u)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 60), density=st.floats(0.0, 0.2), seed=st.integers(0, 10**6),
    offset=st.integers(-3, 3),
)
def test_capped_symbolic_is_none_exactly_past_the_limit(n, density, seed, offset):
    a = random_sparse(n, density, seed=seed)
    full = symbolic_symmetric(a)
    limit = max(0, full.nnz_l - n + offset)
    capped = symbolic_symmetric(a, limit=limit)
    if full.nnz_l - n > limit:
        assert capped is None
    else:
        assert_same_symbolic(capped, full)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 70), density=st.floats(0.0, 0.25), seed=st.integers(0, 10**6),
    symmetric=st.booleans(),
)
def test_profile_bounds_the_fill_of_its_own_order(n, density, seed, symmetric):
    a = random_sparse(n, density, seed=seed, symmetric_pattern=symmetric)
    assert envelope_profile(a) >= strict_count(a)
    # the bound is tight on a band: a tridiagonal order fills nothing
    path = grid_laplacian_2d(n, 1)
    assert envelope_profile(path) == strict_count(path) == n - 1


def nd_and_kept(a):
    """ND's ``nnz_lu`` after MC64, the envelope bound in the same units,
    and what phase 1 keeps."""
    res = mc64(a)
    work = a.scale(res.row_scale, res.col_scale).permute(res.row_perm, None)
    p = nested_dissection(work)
    nd = symbolic_symmetric(ensure_diagonal(work.permute(p, p))).nnz_lu
    bound = 2 * (envelope_profile(work) + a.ncols)
    perm, reordered, sym, kept = order_by_fill(work, "nd", {})
    return nd, bound, perm, sym, kept


@pytest.mark.parametrize("scale", [0.2, 0.5])
def test_the_rule_never_adds_fill_on_any_generator(scale):
    switched = []
    for name in paper_matrix_names():
        a = generate(name, scale=scale, seed=0)
        nd, bound, perm, sym, kept = nd_and_kept(a)
        assert kept == {"ordering": kept["ordering"], "nnz_lu": sym.nnz_lu,
                        "envelope_nnz_lu": bound}
        assert sym.nnz_lu <= nd, name
        assert (kept["ordering"] == "natural") == (bound < nd), name
        if bound < nd:
            switched.append(name)
            np.testing.assert_array_equal(perm, np.arange(a.ncols))
            assert sym.nnz_lu <= bound
        else:
            assert sym.nnz_lu == nd
    # the banded digraph is the case the rule exists for
    assert "cage12" in switched


def test_facades_record_the_same_decision():
    a = generate("cage12", scale=0.2, seed=0)
    lu, base = PanguLU(a), SuperLUBaseline(a)
    lu.reorder()
    base.reorder()
    assert lu.ordering_kept == base.ordering_kept
    assert lu.ordering_kept["ordering"] == "natural"
    assert lu.ordering_kept["nnz_lu"] == lu.symbolic.nnz_lu
    assert lu.ordering_kept["nnz_lu"] <= lu.ordering_kept["envelope_nnz_lu"]
    np.testing.assert_array_equal(lu.col_perm, np.arange(a.ncols))
    np.testing.assert_array_equal(base.col_perm, lu.col_perm)
    # phase 2 is the pass that decided: nothing is recomputed
    assert lu.symbolic_factorize() is lu.symbolic
    assert set(lu.phase_seconds) == {"reorder", "symbolic"}
    b = np.ones(a.ncols)
    assert lu.residual_norm(lu.solve(b), b) < 1e-10
    assert base.residual_norm(base.solve(b), b) < 1e-10


def test_cholesky_keeps_the_band_of_a_long_thin_grid():
    a = grid_laplacian_2d(60, 3)     # numbered across the short side: bandwidth 3
    s = PanguLLt(a)
    b = np.ones(a.ncols)
    x = s.solve(b)
    assert s.ordering_kept["ordering"] == "natural"
    np.testing.assert_array_equal(s.perm, np.arange(a.ncols))
    assert np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b) < 1e-10


@pytest.mark.parametrize("facade", ["lu", "baseline", "llt"])
def test_natural_is_not_checked(facade):
    a = grid_laplacian_2d(8, 8)
    solver = {
        "lu": lambda: PanguLU(a, SolverOptions(ordering="natural")),
        "baseline": lambda: SuperLUBaseline(a, BaselineOptions(ordering="natural")),
        "llt": lambda: PanguLLt(a, CholeskyOptions(ordering="natural")),
    }[facade]()
    solver.solve(np.ones(a.ncols))
    assert solver.ordering_kept["ordering"] == "natural"
    assert solver.ordering_kept["envelope_nnz_lu"] is None


def test_kept_order_when_nd_is_within_the_envelope():
    a = grid_laplacian_2d(16, 16)
    s = PanguLU(a)
    s.symbolic_factorize()
    kept = s.ordering_kept
    assert kept["ordering"] == "nd"
    assert kept["nnz_lu"] == s.symbolic.nnz_lu <= kept["envelope_nnz_lu"]

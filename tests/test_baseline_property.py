"""Property-based tests for the supernodal baseline."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline import (
    detect_supernodes,
    sn_factorize,
    sn_partition,
    symbolic_gilbert_peierls,
)
from repro.sparse import random_sparse


def _dense_lu(d: np.ndarray) -> np.ndarray:
    d = d.copy()
    for k in range(d.shape[0]):
        d[k + 1 :, k] /= d[k, k]
        d[k + 1 :, k + 1 :] -= np.outer(d[k + 1 :, k], d[k, k + 1 :])
    return d


@settings(max_examples=15, deadline=None)
@given(
    st.integers(6, 32),
    st.floats(0.06, 0.22),
    st.integers(0, 10_000),
    st.integers(2, 16),
    st.floats(0.0, 0.8),
)
def test_supernodal_factorisation_exact(n, density, seed, max_width, relax):
    """The dense-panel supernodal factorisation is exact for arbitrary
    matrices and arbitrary relaxation settings."""
    a = random_sparse(n, density, seed=seed)
    filled = symbolic_gilbert_peierls(a).filled
    part = detect_supernodes(filled, max_width=max_width, relax_pad=relax)
    m = sn_partition(filled, part)
    sn_factorize(m)
    np.testing.assert_allclose(m.to_dense(), _dense_lu(a.to_dense()), atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(4, 40),
    st.floats(0.05, 0.25),
    st.integers(0, 10_000),
    st.integers(1, 12),
)
def test_supernode_partition_invariants(n, density, seed, max_width):
    a = random_sparse(n, density, seed=seed)
    filled = symbolic_gilbert_peierls(a).filled
    part = detect_supernodes(filled, max_width=max_width)
    b = part.boundaries
    # boundaries form a partition
    assert b[0] == 0 and b[-1] == n
    assert np.all(np.diff(b) >= 1)
    assert part.widths().max() <= max_width
    # padding never loses entries
    assert part.nnz_padded >= part.nnz_actual
    # panel rows are sorted, below the supernode, in range
    for s in range(part.n_supernodes):
        rows = part.panel_rows[s]
        if rows.size:
            assert rows.min() >= b[s + 1]
            assert rows.max() < n
            assert np.all(np.diff(rows) > 0)

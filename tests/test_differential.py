"""Differential sweep: seeded generators × orderings × engines × block
orders against ``scipy.sparse.linalg.splu``.

Every combination runs the whole pipeline through :class:`PanguLU` and is
held to a normwise backward error ``‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`` of at
most ``1e-10`` — the bound ``splu``'s own answer is checked against too,
so a failure is the solver's, not an ill-posed problem's.  The ranks are
threads over the loopback transport (the distributed and hybrid engines'
transport is swapped for the test), so the sweep costs no process spawns.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import repro.runtime.distributed as distributed_mod
from repro import PanguLU, SolverOptions
from repro.runtime import LoopbackTransport
from repro.sparse import generate

BACKWARD_ERROR = 1e-10

#: (generator, scale, seed): a banded digraph (phase 1 keeps its input
#: order), a 3-D FEM block pattern, a 2-D grid, a circuit, a KKT saddle
#: point (MC64 permutes it) and a quantum-chemistry cluster pattern
MATRICES = [
    ("cage12", 0.2, 1),
    ("audikw_1", 0.15, 2),
    ("ecology1", 0.2, 3),
    ("G3_circuit", 0.2, 4),
    ("nlpkkt80", 0.15, 5),
    ("Si87H76", 0.15, 6),
]
ORDERINGS = ["nd", "amd", "rcm", "natural", "best"]
#: the block-order rule's choice (15–24 here) and a coarser pinned order
BLOCK_SIZES = [None, 40]
ENGINES = {
    "sequential": {},
    "lanes2": {"engine": "threaded", "n_workers": 2},
    "ranks2": {"engine": "distributed", "nprocs": 2},
    "hybrid2x2": {"engine": "hybrid", "nprocs": 2, "n_workers": 2},
}


@functools.lru_cache(maxsize=None)
def problem(name: str, scale: float, seed: int):
    """The matrix, a seeded right-hand side and ``splu``'s solution."""
    a = generate(name, scale=scale, seed=seed)
    b = np.random.default_rng(seed).standard_normal(a.nrows)
    x_ref = spla.splu(a.to_scipy().tocsc()).solve(b)
    return a, b, x_ref


def backward_error(a, x: np.ndarray, b: np.ndarray) -> float:
    norm_a = float(np.abs(a.to_scipy()).sum(axis=1).max())
    r = b - a.matvec(x)
    return float(np.abs(r).max() / (norm_a * np.abs(x).max() + np.abs(b).max()))


@pytest.fixture
def loopback_ranks(monkeypatch):
    monkeypatch.setattr(distributed_mod, "MultiprocessingTransport", LoopbackTransport)


@pytest.mark.parametrize("block_size", BLOCK_SIZES)
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("case", MATRICES, ids=[m[0] for m in MATRICES])
def test_matches_splu(case, ordering, engine, block_size, loopback_ranks):
    a, b, x_ref = problem(*case)
    assert backward_error(a, x_ref, b) <= BACKWARD_ERROR
    options = SolverOptions(ordering=ordering, block_size=block_size, **ENGINES[engine])
    solver = PanguLU(a, options)
    x = solver.solve(b)
    assert backward_error(a, x, b) <= BACKWARD_ERROR
    # and without refinement, which could otherwise hide a wrong factor
    assert backward_error(a, solver.factorize().apply(b), b) <= BACKWARD_ERROR
    assert solver.numeric_stats.n_procs == options.nprocs
    # phase 1 never keeps an order with more fill than the one asked for
    kept = solver.ordering_kept
    assert kept["nnz_lu"] == solver.symbolic.nnz_lu
    if kept["ordering"] != ordering:
        assert kept["ordering"] == "natural"
        assert kept["nnz_lu"] <= kept["envelope_nnz_lu"]

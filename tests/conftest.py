"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.sparse import CSCMatrix, random_sparse
from repro.symbolic import symbolic_symmetric


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_matrix() -> CSCMatrix:
    """An 80×80 diagonally dominant random sparse matrix."""
    return random_sparse(80, 0.06, seed=7)


@pytest.fixture
def filled_blocks(small_matrix):
    """A 2×2 block split of the symbolic fill of ``small_matrix``:
    ``(D, B, R, C)`` = diagonal block, U-side block, L-side block, Schur
    target — all patterns closed under fill by construction."""
    f = symbolic_symmetric(small_matrix).filled
    m = 40
    rows_top = np.arange(0, m)
    rows_bot = np.arange(m, 80)
    d = f.extract_submatrix(rows_top, range(0, m))
    b = f.extract_submatrix(rows_top, range(m, 80))
    r = f.extract_submatrix(rows_bot, range(0, m))
    c = f.extract_submatrix(rows_bot, range(m, 80))
    return d, b, r, c


def dense_lu_nopivot(d: np.ndarray) -> np.ndarray:
    """Reference dense LU without pivoting, packed L\\U."""
    d = d.copy()
    n = d.shape[0]
    for k in range(n):
        assert d[k, k] != 0, "reference LU hit a zero pivot"
        d[k + 1 :, k] /= d[k, k]
        d[k + 1 :, k + 1 :] -= np.outer(d[k + 1 :, k], d[k, k + 1 :])
    return d


@pytest.fixture
def dense_lu():
    return dense_lu_nopivot


def leaked_ranks() -> list[str]:
    """Rank processes and loopback rank threads still running once every
    collectable handle is gone (a collected handle's finaliser stops its
    ranks)."""
    gc.collect()
    procs = [f"pid {p.pid}" for p in multiprocessing.active_children()]
    threads = [th.name for th in threading.enumerate()
               if th.name.startswith("loopback-rank-") and th.is_alive()]
    return procs + threads


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if any rank outlived the tests: a rank that no
    handle, ``close()`` or finaliser stopped is a leak."""
    leaked = leaked_ranks()
    if leaked:
        print(f"\nranks left running after the tests: {', '.join(leaked)}",
              file=sys.stderr)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED

"""Tests of the phase-5 triangular-solve engines (`repro.core.tsolve`'s
`tsolve_lanes` on one and several lanes, `repro.runtime.distributed
.tsolve_distributed`) and the factor-once/solve-many `Factorization`
handle.

The solve DAG totally orders the writers of every RHS
segment, so all engines must produce *bit-identical* solutions — equal
to the one-lane DAG replay, not merely close — in the plain and in the
transposed direction; the replay itself agrees with the k-ordered
per-column loop sweeps of `tests/reference_tsolve.py` to `1e-12·‖x‖∞`
(a product with a triangle's inverse is not a substitution).
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.core.mapping import ProcessGrid
from repro.core.solver import Factorization, PanguLU, SolverOptions
from repro.core.tsolve import tsolve_lanes, tsolve_sequential
from repro.core.tsolve_dag import build_tsolve_dag
from repro.core.verify import verify_dag
from repro.runtime import tsolve_distributed
from repro.runtime.engines import available_tsolve_engines, get_tsolve_engine
from repro.runtime.transports import LoopbackTransport
from repro.sparse import CSCMatrix, generate, grid_laplacian_2d, random_sparse
from repro.symbolic import symbolic_symmetric

from .reference_tsolve import block_backward, block_forward


def _factored(n=72, bs=13, seed=0):
    """A numerically factorized BlockMatrix (L\\U in place)."""
    a = random_sparse(n, 0.07, seed=seed)
    filled = symbolic_symmetric(a).filled
    bm = block_partition(filled, bs)
    factorize(bm, build_dag(bm))
    return bm


def _rhs(n, nrhs, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n if nrhs == 1 else (n, nrhs))


# ----------------------------------------------------------------------
# engines agree, bit-identically
# ----------------------------------------------------------------------

class TestEnginesAgree:
    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_bit_identical_across_engines(self, nrhs):
        f = _factored()
        b = _rhs(f.n, nrhs)
        ref = block_backward(f, block_forward(f, b))

        tdag = build_tsolve_dag(f, lambda bi, bj: 0)
        xs, ss = tsolve_sequential(f, b, tdag=tdag)
        xt, st = tsolve_lanes(f, tdag, b, n_lanes=4)

        grid_dag = build_tsolve_dag(
            f, ProcessGrid.square(2).owner
        )
        xd, sd = tsolve_distributed(
            f, grid_dag, b, 2, transport=LoopbackTransport()
        )

        # the DAG path agrees with the loop-sweep oracle to rounding ...
        assert np.abs(xs - ref).max() <= 1e-12 * np.abs(ref).max()
        # ... and every engine with the one-lane replay bit for bit
        assert np.array_equal(xt, xs)
        assert np.array_equal(xd, xs)
        assert ss.tasks_executed == st.tasks_executed == len(tdag)
        assert sd.tasks_executed == len(grid_dag)
        assert sd.n_procs == 2
        assert sd.messages_sent > 0 and sd.seg_bytes_sent > 0

    def test_distributed_three_ranks_multi_rhs(self):
        f = _factored(seed=4)
        b = _rhs(f.n, 2, seed=1)
        ref, _ = tsolve_sequential(f, b)
        tdag = build_tsolve_dag(
            f, ProcessGrid.square(3).owner
        )
        x, stats = tsolve_distributed(
            f, tdag, b, 3, transport=LoopbackTransport()
        )
        assert np.array_equal(x, ref)
        assert stats.nrhs == 2

    @pytest.mark.parametrize("b", [5.0, np.ones((72, 2, 1)), np.ones(71)])
    def test_wrong_rhs_shape_is_named(self, b):
        """A scalar, a 3-D array or a wrong length is a ValueError with
        the expected shapes on every engine, not a bare IndexError."""
        f = _factored()
        tdag = build_tsolve_dag(f, lambda bi, bj: 0)
        expected = r"expected \(72,\) or \(72, k\)"
        with pytest.raises(ValueError, match=expected):
            tsolve_sequential(f, b, tdag=tdag)
        with pytest.raises(ValueError, match=expected):
            tsolve_lanes(f, tdag, b, n_lanes=2)
        with pytest.raises(ValueError, match=expected):
            tsolve_distributed(f, tdag, b, 2, transport=LoopbackTransport())


# ----------------------------------------------------------------------
# the transposed direction is the same DAG job
# ----------------------------------------------------------------------

class TestTransposedDag:
    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_lanes_and_ranks_match_dense_transposed_solve(self, nrhs):
        f = _factored(seed=3)
        b = _rhs(f.n, nrhs, seed=2)
        lu = f.to_csc().to_dense()
        m = (np.tril(lu, -1) + np.eye(f.n)) @ np.triu(lu)

        tdag = build_tsolve_dag(
            f, lambda bi, bj: 0, transposed=True
        )
        assert tdag.transposed
        verify_dag(tdag)
        x1, s1 = tsolve_lanes(f, tdag, b)
        np.testing.assert_allclose(x1, np.linalg.solve(m.T, b), atol=1e-9)
        # a row/column mix-up would solve with m instead
        assert not np.allclose(x1, np.linalg.solve(m, b), atol=1e-6)

        x4, s4 = tsolve_lanes(f, tdag, b, n_lanes=4)
        grid_dag = build_tsolve_dag(
            f, ProcessGrid.square(2).owner, transposed=True
        )
        verify_dag(grid_dag)
        xd, sd = tsolve_distributed(
            f, grid_dag, b, 2, transport=LoopbackTransport()
        )
        assert np.array_equal(x4, x1)
        assert np.array_equal(xd, x1)
        # same graph shape as the plain direction: the filled pattern is
        # symmetric, so block row k has as many blocks as block column k
        plain = build_tsolve_dag(f, lambda bi, bj: 0)
        assert s1.tasks_executed == s4.tasks_executed == len(tdag) == len(plain)
        assert sd.tasks_executed == len(grid_dag) and sd.messages_sent > 0

    @pytest.mark.parametrize("nrhs", [1, 3])
    def test_every_engine_name_solves_the_transposed_system(self, nrhs):
        # cage12: non-symmetric pattern *and* values
        a = generate("cage12", scale=0.12)
        b = _rhs(a.nrows, nrhs, seed=5)
        ref = PanguLU(a.transpose()).solve(b)
        opts = SolverOptions(
            nprocs=2, n_workers=2, verify_schedule=True,
        )
        fact = PanguLU(a, opts).factorize()
        applied = {}
        for engine in ("sequential", "threaded", "distributed", "hybrid"):
            opts.engine = engine  # same factors, another pool shape
            applied[engine] = fact.apply(b, transposed=True)
            assert fact.last_tsolve_stats.engine == engine
            np.testing.assert_allclose(
                fact.solve_transposed(b), ref, rtol=0, atol=1e-8
            )
        for engine, x in applied.items():  # == the one-lane replay
            assert np.array_equal(x, applied["sequential"]), engine
        assert {key[-1] for key in fact._tsolve_dags} == {True}


# ----------------------------------------------------------------------
# facade dispatch: SolverOptions.engine governs phase 5
# ----------------------------------------------------------------------

class TestFacadeDispatch:
    @pytest.mark.parametrize("engine", ["sequential", "threaded"])
    def test_engine_option_governs_solve(self, engine):
        a = grid_laplacian_2d(9, 9)
        s = PanguLU(a, SolverOptions(engine=engine, n_workers=3))
        x = s.solve(np.ones(a.nrows))
        assert float(np.linalg.norm(a.matvec(x) - np.ones(a.nrows))) < 1e-8
        fact = s.factorize()
        assert fact.last_tsolve_stats is not None
        assert fact.last_tsolve_stats.engine == engine

    def test_facade_engines_give_identical_solutions(self):
        """Two factorisations agree to rounding only: the factor DAG
        leaves the Schur updates of one block unordered.  One
        factorisation solved by the sequential and by the 4-lane solve
        engine agrees bit for bit: the solve DAG orders every writer."""
        a = grid_laplacian_2d(8, 8)
        b = _rhs(a.nrows, 1, seed=7)
        x_seq = PanguLU(a, SolverOptions(engine="sequential")).solve(b)
        fact = PanguLU(
            a, SolverOptions(engine="threaded", n_workers=4)
        ).factorize()
        x_thr = fact.solve(b)
        assert np.max(np.abs(x_thr - x_seq)) <= 1e-12 * np.max(np.abs(x_seq))
        fact.options = replace(fact.options, engine="sequential")
        assert np.array_equal(fact.solve(b), x_thr)
        assert fact.last_tsolve_stats.engine == "sequential"

    def test_registry(self):
        assert set(available_tsolve_engines()) >= {
            "sequential", "threaded", "distributed",
        }
        with pytest.raises(ValueError, match="unknown tsolve engine"):
            get_tsolve_engine("warp-drive")


# ----------------------------------------------------------------------
# several lanes over shared RHS segments
# ----------------------------------------------------------------------

def test_threaded_clean_run_with_checker():
    """Four lanes over shared segments: each completion passes the
    core's exactly-once check and the solution is the one-lane replay."""
    f = _factored(seed=2)
    tdag = build_tsolve_dag(f, lambda bi, bj: 0)
    b = _rhs(f.n, 2, seed=3)
    x, _ = tsolve_lanes(f, tdag, b, n_lanes=4)
    ref, _ = tsolve_sequential(f, b)
    assert np.array_equal(x, ref)


# ----------------------------------------------------------------------
# the Factorization handle: factor once, solve many, pickle, trace
# ----------------------------------------------------------------------

class TestFactorizationHandle:
    def test_factorize_returns_cached_handle(self):
        a = grid_laplacian_2d(7, 7)
        s = PanguLU(a, SolverOptions())
        fact = s.factorize()
        assert isinstance(fact, Factorization)
        assert s.factorize() is fact

    def test_pickle_roundtrip_solves_fresh_rhs(self):
        a = grid_laplacian_2d(8, 8)
        fact = PanguLU(a, SolverOptions()).factorize()
        fact2 = pickle.loads(pickle.dumps(fact))
        b = _rhs(a.nrows, 1, seed=11)  # RHS the original never saw
        x1 = fact.solve(b)
        x2 = fact2.solve(b)
        assert np.array_equal(x1, x2)
        assert float(np.linalg.norm(a.matvec(x2) - b)) < 1e-8
        assert fact2.solve_count == 1  # solved without refactorizing

    def test_noarena_refactorize_rebuilds_the_update_addressing(self):
        # use_arena=False re-partitions on refactorize: the blocks are new
        # objects, so the column expansion `upd_seg` scatters by is rebuilt
        # lazily by the next solve — in both directions
        a = random_sparse(60, 0.08, seed=2)
        fact = PanguLU(a, SolverOptions(use_arena=False, block_size=11)).factorize()
        b = _rhs(60, 2, seed=3)
        fact.solve(b)                  # fills the first partition's expansions
        old = fact.blocks
        scale = 1.0 + 0.2 * np.random.default_rng(4).random(a.nnz)
        a2 = CSCMatrix(a.shape, a.indptr, a.indices, a.data * scale)
        fact.refactorize(a2)
        assert fact.blocks is not old
        x, _ = tsolve_sequential(fact.blocks, b)
        ref = block_backward(fact.blocks, block_forward(fact.blocks, b))
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        d2 = a2.to_dense()
        for transposed, m in ((False, d2), (True, d2.T)):
            xs = fact.solve(b, transposed=transposed)
            assert np.abs(m @ xs - b).max() <= 1e-10 * np.abs(xs).max()

    def test_solve_timing_accumulates(self):
        a = grid_laplacian_2d(7, 7)
        s = PanguLU(a, SolverOptions())
        b = np.ones(a.nrows)
        for _ in range(3):
            s.solve(b)
        fact = s.factorize()
        assert s.solve_count == fact.solve_count == 3
        assert s.phase_seconds["solve"] == fact.total_solve_seconds
        assert 0.0 < fact.last_solve_seconds <= fact.total_solve_seconds

    @pytest.mark.parametrize("engine", ["sequential", "threaded"])
    def test_trace_records_solve_lanes(self, engine):
        a = grid_laplacian_2d(7, 7)
        s = PanguLU(
            a,
            SolverOptions(engine=engine, n_workers=2, trace_events=True),
        )
        s.factorize()
        n_factor_events = len(s.recorder.task_events)
        s.solve(np.ones(a.nrows))
        solve_events = s.recorder.task_events[n_factor_events:]
        cats = {e.cat for e in solve_events}
        assert {"DIAG_F", "DIAG_B"} <= cats
        assert all(e.tid >= 0 for e in solve_events)

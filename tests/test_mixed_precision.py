"""Tests for the float32 factor path with float64 iterative refinement.

The mixed-precision contract: factors are computed and stored in
``SolverOptions.factor_dtype`` (halving value storage and traffic for
``float32``), and :meth:`Factorization.solve` recovers ``float64``-level
accuracy by adaptive refinement — plain LU-IR while it contracts,
GMRES-IR escalation when conditioning bites, and a clear
:class:`RefinementStalled` diagnostic when neither reaches the tolerance.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import PanguLU, RefinementStalled, SolverOptions
from repro.core.solver import REFINE_TOL, refined_solve
from repro.sparse import CSCMatrix, random_sparse


def _conditioned(n: int, decades: int, seed: int) -> CSCMatrix:
    """A random sparse matrix with ~``decades`` orders of magnitude of
    row scaling — the conditioning knob the refinement tests sweep."""
    a = random_sparse(n, 0.08, seed=seed)
    if decades == 0:
        return a
    return a.scale(np.logspace(-decades / 2, decades / 2, n), None)


class TestFactorDtypeOption:
    def test_default_is_float64(self):
        a = random_sparse(30, 0.1, seed=0)
        s = PanguLU(a)
        s.preprocess()
        assert s.blocks.dtype == np.dtype(np.float64)

    def test_float32_blocks_and_arena_slab(self):
        a = random_sparse(60, 0.08, seed=1)
        s = PanguLU(a, SolverOptions(factor_dtype="float32"))
        s.preprocess()
        assert s.blocks.dtype == np.dtype(np.float32)
        assert s.blocks.arena.data.dtype == np.dtype(np.float32)
        for slot, blk in enumerate(s.blocks.blk_values):
            assert blk.data.dtype == np.dtype(np.float32), slot

    def test_float32_arena_slab_is_half_the_bytes(self):
        a = random_sparse(80, 0.06, seed=2)
        s64 = PanguLU(a, SolverOptions())
        s32 = PanguLU(a, SolverOptions(factor_dtype="float32"))
        s64.preprocess()
        s32.preprocess()
        # identical symbolic structure, half the value bytes
        assert s32.blocks.arena.data.nbytes * 2 == s64.blocks.arena.data.nbytes

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="factor_dtype"):
            SolverOptions(factor_dtype="float16").resolved_factor_dtype()

    def test_value_nbytes_tracks_dtype(self):
        # symbolic (lazy-data) matrices must price value bytes at their
        # declared dtype, not a hardcoded float64 itemsize
        m32 = CSCMatrix((8, 8), np.zeros(9, dtype=np.int64),
                        np.zeros(0, dtype=np.int64), dtype=np.float32)
        m64 = CSCMatrix((8, 8), np.zeros(9, dtype=np.int64),
                        np.zeros(0, dtype=np.int64))
        assert m32.value_nbytes * 2 == m64.value_nbytes
        a = random_sparse(20, 0.2, seed=3)
        assert a.astype(np.float32).value_nbytes * 2 == a.value_nbytes


class TestRefinementRecoversAccuracy:
    @pytest.mark.parametrize("decades", [0, 2, 4])
    def test_float32_reaches_float64_tolerance(self, decades):
        n = 70
        a = _conditioned(n, decades, seed=decades + 5)
        b = np.ones(n)
        s64 = PanguLU(a, SolverOptions())
        s32 = PanguLU(a, SolverOptions(factor_dtype="float32"))
        r64 = s64.residual_norm(s64.solve(b), b)
        r32 = s32.residual_norm(s32.solve(b), b)
        # the refined float32 solution matches the float64 path's residual
        # tolerance (REFINE_TOL), not merely single-precision accuracy
        assert r32 <= max(1e-12, 100 * r64)

    def test_multi_rhs_refined(self):
        n = 50
        a = _conditioned(n, 3, seed=8)
        s = PanguLU(a, SolverOptions(factor_dtype="float32"))
        B = np.eye(n)[:, :4]
        X = s.solve(B)
        assert X.shape == (n, 4)
        R = a.matmat(X) - B
        assert np.max(
            np.linalg.norm(R, axis=0) / np.linalg.norm(B, axis=0)
        ) < 1e-10

    def test_solve_transposed_refined(self):
        n = 40
        a = _conditioned(n, 2, seed=9)
        s = PanguLU(a, SolverOptions(factor_dtype="float32"))
        f = s.factorize()
        b = np.ones(n)
        x = f.solve_transposed(b)
        assert np.linalg.norm(a.transpose().matvec(x) - b) < 1e-10 * np.linalg.norm(b)

    def test_unreachable_tolerance_raises_stalled(self):
        # no amount of refinement reaches 1e-30 in double — the adaptive
        # loop must stall out and raise the diagnostic, not spin
        n = 40
        a = _conditioned(n, 2, seed=10)
        fact = PanguLU(a, SolverOptions(factor_dtype="float32")).factorize()
        with pytest.raises(RefinementStalled) as ei:
            refined_solve(
                fact.apply, a.matvec, np.ones(n), tol=1e-30, budget=3,
                history=[], exact=False,
            )
        err = ei.value
        assert err.achieved > err.tol == 1e-30
        assert err.iterations > 0
        assert "float64" in str(err)  # the message names the remedy

    def test_ill_conditioned_converges_or_diagnoses(self):
        # κ(A)·ε₃₂ ≫ 1: plain IR on float32 factors cannot contract.
        # Either the GMRES-IR escalation rescues the solve to tolerance
        # or the solver reports the stall — silent inaccuracy is the one
        # forbidden outcome.
        n = 60
        a = _conditioned(n, 10, seed=11)
        s = PanguLU(a, SolverOptions(factor_dtype="float32"))
        b = np.ones(n)
        try:
            x = s.solve(b)
        except RefinementStalled as err:
            assert err.achieved > err.tol
        else:
            assert s.residual_norm(x, b) <= REFINE_TOL * 10

    def test_stalled_exception_pickles(self):
        err = RefinementStalled(1e-5, 1e-12, 7)
        back = pickle.loads(pickle.dumps(err))
        assert (back.achieved, back.tol, back.iterations) == (1e-5, 1e-12, 7)

    def test_float64_path_unchanged_by_new_options(self):
        # a benign float64 solve is at tolerance after its first sweep,
        # so the refinement has nothing to change
        n = 30
        a = random_sparse(n, 0.1, seed=12)
        b = np.ones(n)
        fact = PanguLU(a, SolverOptions()).factorize()
        np.testing.assert_array_equal(fact.solve(b), fact.apply(b))


class TestEngineBitIdentity:
    def test_fixed_schedule_engines_agree_bitwise(self):
        """On a deterministic schedule all three engines must produce the
        same float32 factors bit for bit (threaded with one worker — more
        workers reassociate commuting Schur updates by design)."""
        a = random_sparse(90, 0.06, seed=13)
        base = dict(factor_dtype="float32", block_size=16)
        f_seq = PanguLU(a, SolverOptions(engine="sequential", **base)).factorize()
        f_thr = PanguLU(a, SolverOptions(engine="threaded", n_workers=1,
                                         **base)).factorize()
        f_dst = PanguLU(a, SolverOptions(engine="distributed", nprocs=4,
                                         **base)).factorize()
        ref = f_seq.blocks.arena.data
        assert ref.dtype == np.dtype(np.float32)
        np.testing.assert_array_equal(ref, f_thr.blocks.arena.data)
        np.testing.assert_array_equal(ref, f_dst.blocks.arena.data)

    def test_threaded_float32_under_race_checker(self):
        a = random_sparse(70, 0.07, seed=14)
        s = PanguLU(a, SolverOptions(
            factor_dtype="float32", engine="threaded", n_workers=4,
            validate_concurrency=True,
        ))
        b = np.ones(70)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-10


class TestDtypeRoundTrips:
    def test_factorization_pickle_preserves_dtype(self):
        n = 50
        a = random_sparse(n, 0.08, seed=15)
        f = PanguLU(a, SolverOptions(factor_dtype="float32")).factorize()
        back = pickle.loads(pickle.dumps(f))
        assert back.factor_dtype == np.dtype(np.float32)
        assert back.blocks.dtype == np.dtype(np.float32)
        b = np.ones(n)
        np.testing.assert_array_equal(f.solve(b), back.solve(b))

    def test_refactorize_keeps_float32(self):
        n = 60
        a = random_sparse(n, 0.08, seed=16)
        f = PanguLU(a, SolverOptions(factor_dtype="float32")).factorize()
        a2 = a.copy()
        a2.data[...] = a2.data * 1.5
        f.refactorize(a2)
        assert f.blocks.dtype == np.dtype(np.float32)
        b = np.ones(n)
        x = f.solve(b)
        assert np.linalg.norm(a2.matvec(x) - b) < 1e-10 * np.linalg.norm(b)

    def test_refactorize_legacy_layout_keeps_float32(self):
        n = 50
        a = random_sparse(n, 0.08, seed=17)
        f = PanguLU(a, SolverOptions(factor_dtype="float32",
                                     use_arena=False)).factorize()
        a2 = a.copy()
        a2.data[...] = a2.data * 0.5
        f.refactorize(a2)
        assert f.blocks.dtype == np.dtype(np.float32)
        x = f.solve(np.ones(n))
        assert np.linalg.norm(a2.matvec(x) - 1.0) < 1e-10

    def test_csc_astype_round_trip(self):
        a = random_sparse(25, 0.15, seed=18)
        a32 = a.astype(np.float32)
        assert a32.dtype == np.dtype(np.float32)
        np.testing.assert_array_equal(a32.indptr, a.indptr)
        np.testing.assert_array_equal(a32.indices, a.indices)
        back = a32.astype(np.float64)
        np.testing.assert_allclose(back.data, a.data, rtol=1e-6)

    def test_simulator_prices_float32_traffic(self):
        from repro.runtime.costmodel import bytes_per_entry, extract_sim_tasks

        a = random_sparse(60, 0.08, seed=19)
        s = PanguLU(a, SolverOptions(factor_dtype="float32"))
        s.preprocess()
        tasks = extract_sim_tasks(s.blocks, s.dag)
        assert tasks
        for st in tasks:
            assert st.value_itemsize == 4.0
        # value stream halves; the 4-byte index stream stays
        assert bytes_per_entry(4.0) == 8.0
        assert bytes_per_entry(8.0) == 12.0

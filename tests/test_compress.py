"""Tests of the low-rank block overlay (blockrep + the compressor and
``ssssm_lr`` + solver integration).

Covers the truncation guarantees (exact-rank recovery and the tolerance
bound, in both value dtypes), the low-rank Schur update against dense
references, the profitability gates, which tasks run ``SSSSM/LR``, the
``compress_tol=0`` bit-identity guarantee, the end-to-end compressed
solve on a filled low-rank regime across engines (wire traffic
included), and the refinement-stall escalation path that decompresses
and refactorises exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.numeric import NumericOptions
from repro.core.solver import REFINE_TOL, PanguLU, SolverOptions
from repro.kernels import Workspace
from repro.kernels.compress import (
    CompressPolicy,
    lr_ssssm_flops,
    ssssm_lr,
    try_compress,
)
from repro.kernels.selector import SelectorPolicy
from repro.sparse import CSCMatrix
from repro.sparse.blockrep import (
    CompressedBlock,
    lr_profit_cap,
    randomized_svd,
    truncated_svd,
)


def _low_rank_dense(m, n, r, dtype, seed=0, decay=None):
    """An ``m×n`` matrix of *exact* rank ``r`` (optionally with a decaying
    spectrum appended below the tolerance floor)."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((m, r)).astype(dtype)
    v = rng.standard_normal((n, r)).astype(dtype)
    a = u @ v.T
    if decay is not None:
        noise = rng.standard_normal((m, n)).astype(dtype)
        a = a + decay * noise / np.linalg.norm(noise, 2) * np.linalg.norm(a, 2)
    return np.ascontiguousarray(a)


def _coupled_matrix(n=256, bs=32, rank=2, scale=0.05, diag=6.0, seed=11):
    """Dense-ish matrix with rank-``rank`` off-diagonal block coupling —
    the "filled regime" where panel blocks are genuinely low-rank."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, rank))
    v = rng.standard_normal((n, rank))
    a = scale * (u @ v.T)
    for k in range(n // bs):
        s = slice(k * bs, (k + 1) * bs)
        a[s, s] = rng.standard_normal((bs, bs)) + diag * np.eye(bs)
    aspc = sp.csc_matrix(a)
    am = CSCMatrix(
        (n, n), aspc.indptr.astype(np.int64),
        aspc.indices.astype(np.int64), aspc.data,
    )
    return a, am


def _factorize(am, **kw):
    s = PanguLU(am, SolverOptions(**kw))
    s.preprocess()
    return s.factorize()


# ----------------------------------------------------------------------
# truncation property tests (satellite: exact rank + tolerance bound,
# float32 and float64)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("r", [1, 3, 6])
@pytest.mark.parametrize("factory", [truncated_svd, randomized_svd])
class TestTruncationProperties:
    def test_recovers_exact_rank(self, dtype, r, factory):
        tol = 1e-4 if dtype == np.float32 else 1e-10
        dense = _low_rank_dense(48, 40, r, dtype, seed=r)
        out = factory(dense, tol, max_rank=16)
        assert out is not None
        u, v = out
        assert u.shape == (48, r) and v.shape == (40, r)
        assert u.dtype == dtype and v.dtype == dtype
        err = np.linalg.norm(dense - u @ v.T, 2)
        assert err <= tol * np.linalg.norm(dense, 2)

    def test_honours_tolerance_bound(self, dtype, r, factory):
        """With a sub-tolerance tail appended, the factors still truncate
        at rank ``r`` and the reconstruction stays within the bound."""
        tol = 1e-3 if dtype == np.float32 else 1e-6
        dense = _low_rank_dense(48, 40, r, dtype, seed=10 + r, decay=tol / 50)
        out = factory(dense, tol, max_rank=16)
        assert out is not None
        u, v = out
        assert u.shape[1] == r
        err = np.linalg.norm(dense - u @ v.T, 2)
        # slack for the randomized range finder's residual in float32
        assert err <= 4 * tol * np.linalg.norm(dense, 2)

    def test_declines_above_max_rank(self, dtype, r, factory):
        """A spectrum that needs more than ``max_rank`` terms at the
        tolerance is rejected rather than silently mis-approximated."""
        rng = np.random.default_rng(99)
        dense = rng.standard_normal((48, 40)).astype(dtype)  # full rank
        assert factory(dense, 1e-10, max_rank=4) is None


# ----------------------------------------------------------------------
# gates and kernels
# ----------------------------------------------------------------------

class TestTryCompress:
    def _block(self, dense):
        aspc = sp.csc_matrix(dense)
        return CSCMatrix(
            dense.shape, aspc.indptr.astype(np.int64),
            aspc.indices.astype(np.int64), aspc.data,
        )

    def test_profit_gate_rejects_sparse_blocks(self):
        """A block whose nnz cannot pay for even rank-1 factors is never
        compressed, whatever its spectrum."""
        dense = np.zeros((40, 40))
        dense[0, :] = 1.0  # rank 1, but only 40 nnz < m + n
        blk = self._block(dense)
        assert lr_profit_cap(40, 40, blk.nnz) == 0
        policy = CompressPolicy(tol=1e-8, min_order=8)
        assert try_compress(blk, policy) is None

    def test_min_order_gate(self):
        dense = _low_rank_dense(16, 16, 1, np.float64, seed=3)
        blk = self._block(dense)
        assert try_compress(blk, CompressPolicy(tol=1e-8, min_order=32)) is None
        cb = try_compress(blk, CompressPolicy(tol=1e-8, min_order=8))
        assert cb is not None and cb.rank == 1

    def test_compressed_block_accounting(self):
        dense = _low_rank_dense(64, 48, 3, np.float64, seed=5)
        blk = self._block(dense)
        cb = try_compress(blk, CompressPolicy(tol=1e-10, min_order=8))
        assert cb is not None
        assert cb.rank == 3
        assert cb.value_nbytes == cb.u.nbytes + cb.v.nbytes
        assert cb.value_nbytes < blk.value_nbytes

    @pytest.mark.parametrize("order,rows,randomised", [
        (200, 95, True),     # order ≥ 192, profit cap 47
        (200, 200, False),   # profit cap 99
        (160, 60, False),    # order below 192
    ])
    def test_randomised_svd_on_large_blocks_with_small_cap(
        self, monkeypatch, order, rows, randomised
    ):
        import repro.kernels.compress as compress

        called = []
        for name in ("randomized_svd", "truncated_svd"):
            real = getattr(compress, name)
            monkeypatch.setattr(compress, name, lambda *a, _f=real, _n=name: (
                called.append(_n) or _f(*a)
            ))
        rng = np.random.default_rng(7)
        dense = np.zeros((order, order))
        dense[:rows] = np.outer(rng.random(rows) + 1, rng.random(order) + 1)
        cb = try_compress(self._block(dense), CompressPolicy(tol=1e-8, min_order=8))
        assert cb is not None and cb.rank == 1
        assert called == ["randomized_svd" if randomised else "truncated_svd"]


class TestLRKernels:
    @pytest.mark.parametrize("mix", ["a", "b", "both"])
    def test_matches_dense_reference(self, mix, ws=None):
        ws = Workspace()
        rng = np.random.default_rng(17)
        m = n = k = 40
        a_dense = _low_rank_dense(m, k, 2, np.float64, seed=21)
        b_dense = _low_rank_dense(k, n, 3, np.float64, seed=22)
        def csc(d):
            m = sp.csc_matrix(d)
            return CSCMatrix(
                d.shape, m.indptr.astype(np.int64),
                m.indices.astype(np.int64), m.data.copy(),
            )
        a_blk, b_blk = csc(a_dense), csc(b_dense)
        policy = CompressPolicy(tol=1e-10, min_order=8)
        a_cb = try_compress(a_blk, policy)
        b_cb = try_compress(b_blk, policy)
        assert a_cb is not None and b_cb is not None

        c_dense = rng.standard_normal((m, n))
        c_ref = csc(c_dense)
        c_out = csc(c_dense)
        a_op = a_cb if mix in ("a", "both") else a_blk
        b_op = b_cb if mix in ("b", "both") else b_blk
        ssssm_lr(c_out, a_op, b_op, ws)

        rows, cols = c_ref.rows_cols()
        expect = c_ref.data - (a_dense @ b_dense)[rows, cols]
        np.testing.assert_allclose(c_out.data, expect, atol=1e-10)

    def test_flops_scale_with_rank_not_order(self):
        a = CompressedBlock((64, 64), np.zeros((64, 2)), np.zeros((64, 2)))
        b = CompressedBlock((64, 64), np.zeros((64, 2)), np.zeros((64, 2)))
        lr = lr_ssssm_flops(1000, a, b)
        dense_flops = 2.0 * 64 * 64 * 64
        assert 0 < lr < dense_flops / 10


# ----------------------------------------------------------------------
# solver integration
# ----------------------------------------------------------------------

class TestBitIdentityWhenOff:
    def test_zero_tol_is_the_default_path(self):
        """``compress_tol=0`` factors byte-identically to options that
        never mention compression, with zero compression counters."""
        _, am = _coupled_matrix()
        f0 = _factorize(am, block_size=32)
        f1 = _factorize(am, block_size=32, compress_tol=0.0)
        for b0, b1 in zip(f0.blocks.blk_values, f1.blocks.blk_values):
            np.testing.assert_array_equal(b0.data, b1.data)
        assert f1.stats.blocks_compressed == 0
        assert f1.stats.lr_value_bytes == 0
        assert not f1.compression_active()

    def test_engines_agree_when_off(self):
        """What the DAGs enforce across rank counts.  The factor DAG does
        not order the ``SSSSM(k, i, j)`` updates of one target, so a
        rank accumulates them in message-arrival order: factors agree
        with the sequential ones to 1e-12 of the largest entry and
        solutions to 1e-10, not bit for bit.  The solve DAG does order
        every segment's writers, so *given the same factors* the solve
        is bit-identical on every engine."""
        _, am = _coupled_matrix(seed=23)
        b = np.random.default_rng(5).standard_normal(am.nrows)
        f_seq = _factorize(am, block_size=32, engine="sequential")
        x_seq = f_seq.solve(b)
        scale = max(np.abs(blk.data).max() for blk in f_seq.blocks.blk_values)
        for nprocs in (2, 3):
            f_dist = _factorize(
                am, block_size=32, engine="distributed", nprocs=nprocs
            )
            for b0, b1 in zip(f_seq.blocks.blk_values, f_dist.blocks.blk_values):
                np.testing.assert_allclose(
                    b1.data, b0.data, rtol=0, atol=1e-12 * scale
                )
            x_dist = f_dist.solve(b)
            np.testing.assert_allclose(
                x_dist, x_seq, rtol=0, atol=1e-10 * np.abs(x_seq).max()
            )
            f_dist.options.engine = "sequential"   # same factors, other engine
            np.testing.assert_array_equal(f_dist.solve(b), x_dist)


class TestCompressedSolve:
    @pytest.mark.parametrize("engine,kw", [
        ("sequential", {}),
        ("threaded", {"n_workers": 3}),
        ("distributed", {"nprocs": 3}),
        ("hybrid", {"nprocs": 2, "n_workers": 2}),
    ])
    def test_filled_regime_compresses_and_solves(self, engine, kw):
        a, am = _coupled_matrix()
        b = np.random.default_rng(2).standard_normal(am.nrows)
        f = _factorize(
            am, block_size=32, engine=engine,
            compress_tol=1e-8, compress_min_order=16, **kw,
        )
        assert f.stats.blocks_compressed > 0
        assert f.stats.lr_value_bytes > 0
        assert f.compression_active()
        x = f.solve(b)
        resid = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert resid <= REFINE_TOL * 10

    def test_lr_kernels_appear_in_choices(self):
        # the label recorded is the kernel that ran: where an operand
        # carries an overlay that is the low-rank update whatever the
        # selector's trees say — the fixed baseline's single SSSSM leaf
        # is the plannable C_V2, and none of these tasks ran it or a plan
        _, am = _coupled_matrix()
        inputs = {"default": SelectorPolicy.default(), "fixed": SelectorPolicy.fixed()}
        for name, selector in inputs.items():
            f = _factorize(
                am, block_size=32, compress_tol=1e-8, compress_min_order=16,
                numeric=NumericOptions(selector=selector),
            )
            hist = f.stats.version_histogram()
            lr = hist.get("SSSSM/LR", 0)
            ssssm = sum(n for lbl, n in hist.items() if lbl.startswith("SSSSM/"))
            assert lr > 0, name
            if name == "fixed":   # every panel of this matrix compresses
                assert lr == ssssm, hist
                assert f.stats.planned_tasks == len(f.stats.kernel_choices) - lr

    @pytest.mark.parametrize("selector", ["default", "fixed"])
    def test_choices_are_the_per_task_selections(self, selector):
        """The tasks labelled ``SSSSM/LR`` are exactly the SSSSMs whose
        ``L(i,k)`` or ``U(k,j)`` carried an overlay; every other task
        keeps the job's static choice — in the unplanned replay, on one
        lane, on three and on two ranks."""
        from repro.core import block_partition, build_dag, factorize
        from repro.core.dag import TaskType
        from repro.core.numeric import FactorJob
        from repro.runtime.distributed import factorize_distributed
        from repro.runtime.transports import LoopbackTransport
        from repro.sparse.csc import coo_to_csc
        from repro.symbolic import symbolic_symmetric

        from .reference_numeric import replay_unplanned

        # full-rank coupling in block row and column 1: those panels do
        # not compress, so the step-1 products keep their static choice
        a, _ = _coupled_matrix(seed=31)
        noise = 0.05 * np.random.default_rng(5).standard_normal((2, 32, 192))
        a[32:64, 64:] += noise[0]
        a[64:, 32:64] += noise[1].T
        rows, cols = np.nonzero(a)
        filled = symbolic_symmetric(
            coo_to_csc(a.shape, rows, cols, a[rows, cols])
        ).filled
        options = NumericOptions(
            selector=getattr(SelectorPolicy, selector)(),
            compress_tol=1e-8, compress_min_order=16,
        )

        def overlaid(bm, dag):
            carried = set(bm.lr_overlay)
            return {
                t.tid for t in dag.tasks if t.ttype is TaskType.SSSSM
                and {(t.bi, t.k), (t.k, t.bj)} & carried
            }

        ref = block_partition(filled, 32)
        dag = build_dag(ref)
        static = [call[3] for call in FactorJob(ref, dag, options).calls]
        want = replay_unplanned(ref, dag, options)
        lr = overlaid(ref, dag)
        n_ssssm = sum(t.ttype is TaskType.SSSSM for t in dag.tasks)
        assert 0 < len(lr) < n_ssssm
        assert want == {
            tid: "SSSSM/LR" if tid in lr else label
            for tid, label in enumerate(static)
        }
        for lanes in (1, 3):
            bm = block_partition(filled, 32)
            report = factorize(bm, build_dag(bm), options, n_lanes=lanes)
            assert report.kernel_choices == want, lanes
            assert overlaid(bm, dag) == lr, lanes
        two = block_partition(filled, 32)
        report = factorize_distributed(
            two, build_dag(two), 2, transport=LoopbackTransport(), options=options,
        )
        assert report.kernel_choices == want

    def test_distributed_wire_bytes_shrink(self):
        """Compressed panels ship as U/V: the loopback byte accounting
        must come in strictly under the CSC payload accounting."""
        from repro.core import block_partition, build_dag
        from repro.core.numeric import NumericOptions
        from repro.runtime.distributed import factorize_distributed
        from repro.runtime.transports import LoopbackTransport
        from repro.symbolic import symbolic_symmetric

        def run(compress_tol):
            _, am = _coupled_matrix(seed=31)
            filled = symbolic_symmetric(am).filled
            bm = block_partition(filled, 32)
            dag = build_dag(bm)
            return factorize_distributed(
                bm, dag, 3, transport=LoopbackTransport(),
                options=NumericOptions(
                    compress_tol=compress_tol, compress_min_order=16
                ),
            )

        off = run(0.0)
        on = run(1e-8)
        assert on.blocks_compressed > 0
        assert on.lr_value_bytes > 0
        assert on.block_bytes_sent < off.block_bytes_sent

    def test_memory_report_effective_bytes(self):
        from repro.core.memory import memory_report

        _, am = _coupled_matrix()
        f = _factorize(
            am, block_size=32, compress_tol=1e-8, compress_min_order=16,
        )
        rep = memory_report(f.blocks)
        assert rep.lr_value_bytes > 0
        assert rep.compressed_csc_bytes > rep.lr_value_bytes
        assert rep.effective_traffic_bytes < (
            rep.values_bytes + rep.layer2_index_bytes
        )

    def test_refactorize_reuses_lr_slabs(self):
        """After an in-place refactorise the overlay is rebuilt (same
        pattern, new values) and the solve still meets the gate."""
        a, am = _coupled_matrix()
        f = _factorize(
            am, block_size=32, compress_tol=1e-8, compress_min_order=16,
        )
        first = f.stats.blocks_compressed
        assert first > 0
        a2m = CSCMatrix(
            (am.nrows, am.ncols), am.indptr, am.indices, am.data * 1.5
        )
        stats = f.refactorize(a2m)
        assert stats.blocks_compressed == first
        b = np.random.default_rng(8).standard_normal(am.nrows)
        x = f.solve(b)
        resid = np.linalg.norm(1.5 * (a @ x) - b) / np.linalg.norm(b)
        assert resid <= REFINE_TOL * 10


    def test_pickled_handle_keeps_its_overlay(self):
        """An overlay owns its arrays, so it pickles as it is: the copy
        multiplies against the same ``U``/``V`` and solves to the gate
        with the factors it arrived with (no refactorisation)."""
        import pickle

        a, am = _coupled_matrix()
        f = _factorize(
            am, block_size=32, compress_tol=1e-8, compress_min_order=16,
        )
        assert f.blocks.arena is not None and f.blocks.lr_overlay
        g = pickle.loads(pickle.dumps(f))
        assert g.blocks.lr_overlay.keys() == f.blocks.lr_overlay.keys()
        for key, cb in f.blocks.lr_overlay.items():
            got = g.blocks.compressed_block(*key)
            assert got.shape == cb.shape
            np.testing.assert_array_equal(got.u, cb.u)
            np.testing.assert_array_equal(got.v, cb.v)
        assert g.blocks.compression_stats() == f.blocks.compression_stats()
        for b0, b1 in zip(f.blocks.blk_values, g.blocks.blk_values):
            np.testing.assert_array_equal(b0.data, b1.data)
        stats = g.stats
        b = np.random.default_rng(9).standard_normal(am.nrows)
        x = g.solve(b)
        assert g.stats is stats and g.compression_active()
        resid = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert resid <= REFINE_TOL * 10
        np.testing.assert_array_equal(x, f.solve(b))


class TestOneHomePerKnob:
    def test_solver_options_view_the_numeric_options(self):
        from dataclasses import fields

        opts = SolverOptions(compress_tol=1e-6, compress_min_order=8)
        assert opts.numeric.compress_tol == 1e-6
        assert opts.numeric.compress_min_order == 8
        assert not {"compress_tol", "compress_min_order"} & {
            f.name for f in fields(SolverOptions)
        }
        opts.compress_tol = 1e-4            # either object, same storage
        assert opts.numeric.compress_tol == 1e-4
        opts.numeric.compress_min_order = 64
        assert opts.compress_min_order == 64
        # the defaults are the numeric options' own
        assert SolverOptions().compress_tol == 0.0
        assert SolverOptions().compress_min_order == 32

    def test_shorthand_leaves_a_shared_numeric_options_alone(self):
        """The shorthand writes into the options' own copy: a second
        solver built on the same ``NumericOptions`` does not compress."""
        _, am = _coupled_matrix()
        num = NumericOptions()
        shorthand = SolverOptions(
            numeric=num, block_size=32, compress_tol=1e-8, compress_min_order=16,
        )
        plain = SolverOptions(numeric=num, block_size=32)
        assert num.compress_tol == plain.compress_tol == 0.0
        assert PanguLU(am, shorthand).factorize().stats.blocks_compressed > 0
        assert PanguLU(am, plain).factorize().stats.blocks_compressed == 0

    def test_decompress_zeroes_the_one_copy(self):
        _, am = _coupled_matrix()
        f = _factorize(
            am, block_size=32, compress_tol=1e-8, compress_min_order=16,
        )
        assert f.options.compress_tol == f.options.numeric.compress_tol == 1e-8
        f.decompress()
        assert f.options.compress_tol == f.options.numeric.compress_tol == 0.0

    def test_escalation_leaves_shared_options_alone(self):
        """Two solvers built from one ``SolverOptions``: the one whose
        handle escalates stops compressing, the other — and any solver
        built later from the same object — still compresses."""
        _, am = _coupled_matrix()
        opts = SolverOptions(
            block_size=32, compress_tol=1e-8, compress_min_order=16,
        )
        s1, s2 = PanguLU(am, opts), PanguLU(am, opts)
        f1 = s1.factorize()
        f1.decompress()
        assert not f1.compression_active() and f1.stats.blocks_compressed == 0
        assert opts.compress_tol == s2.options.compress_tol == 1e-8
        assert PanguLU(am, opts).options.compress_tol == 1e-8
        f2 = s2.factorize()
        assert f2.compression_active() and f2.stats.blocks_compressed > 0


class TestEscalation:
    def test_decompress_restores_exact_factors(self):
        _, am = _coupled_matrix()
        exact = _factorize(am, block_size=32)
        f = _factorize(
            am, block_size=32, compress_tol=1e-8, compress_min_order=16,
        )
        assert f.compression_active()
        f.decompress()
        assert not f.compression_active()
        assert f.stats.blocks_compressed == 0
        for b0, b1 in zip(exact.blocks.blk_values, f.blocks.blk_values):
            np.testing.assert_array_equal(b0.data, b1.data)

    def test_stalled_refinement_escalates_to_exact(self):
        """A tolerance so loose the panels collapse to rank 1 butchers
        the factors; the solve must notice the stall, refactorise
        exactly, and still return an accurate solution."""
        a, am = _coupled_matrix(scale=1.0, diag=8.0, seed=41)
        f = _factorize(
            am, block_size=32, compress_tol=0.9, compress_min_order=16,
        )
        assert f.compression_active()
        b = np.random.default_rng(3).standard_normal(am.nrows)
        x = f.solve(b)
        resid = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert resid <= 1e-10
        # the escalation flipped compression off and refactorised
        assert not f.compression_active()

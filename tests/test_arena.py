"""Tests of the arena-backed factor storage (`repro.core.blocking.FactorArena`).

The arena is a pure re-layout: one contiguous ``indptr``/``indices``/
``data`` slab per factor with every block a zero-copy view, addressed
through slot→offset tables.  The contract tested here:

* **bit identity** — the arena changes layout, not arithmetic: factors
  and solutions under ``use_arena=True`` equal the legacy per-block
  layout bit for bit on every deterministic schedule (sequential,
  single-worker threaded); multi-rank and multi-worker threaded runs —
  ulp-nondeterministic run-to-run by themselves, because the factor DAG
  does not order the Schur updates of one block — agree within
  ``1e-12·max|LU|``;
* **in-place refactorize** — re-injecting values allocates/rebinds *no*
  per-block array: the block structure, the slabs, every view and every
  cached execution plan survive by identity;
* **single-buffer serialisation** — a pickled arena-backed
  ``Factorization`` ships the slabs (smaller than the legacy pickle),
  round-trips, and reattaches working views.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import PanguLU
from repro.core import (
    FactorArena,
    block_partition,
    build_dag,
    factorize,
    memory_report,
)
from repro.core.solver import SolverOptions
from repro.runtime import factorize_distributed
from repro.runtime.transports import LoopbackTransport
from repro.sparse import random_sparse
from repro.symbolic import symbolic_symmetric

N = 96


def _filled(seed=0):
    a = random_sparse(N, 0.06, seed=seed)
    return symbolic_symmetric(a).filled


def _pair(seed=0, bs=12):
    """(legacy, arena) partitions of the same filled matrix."""
    f = _filled(seed)
    return block_partition(f, bs), block_partition(f, bs, arena=True)


class TestArenaLayout:
    def test_blocks_are_views_into_the_slabs(self):
        _, bm = _pair()
        arena = bm.arena
        assert isinstance(arena, FactorArena)
        for blk in bm.blk_values:
            assert blk.data.base is arena.data
            assert blk.indices.base is arena.indices
            assert blk.indptr.base is arena.indptr
        assert int(arena.val_off[-1]) == arena.data.size == arena.indices.size
        assert int(arena.ptr_off[-1]) == arena.indptr.size

    def test_layouts_hold_identical_blocks(self):
        legacy, arena = _pair()
        assert np.array_equal(legacy.blk_colptr, arena.blk_colptr)
        assert np.array_equal(legacy.blk_rowidx, arena.blk_rowidx)
        for lb, ab in zip(legacy.blk_values, arena.blk_values):
            assert lb.shape == ab.shape
            assert np.array_equal(lb.indptr, ab.indptr)
            assert np.array_equal(lb.indices, ab.indices)
            assert np.array_equal(lb.data, ab.data)

    def test_gather_reproduces_the_slab(self):
        f = _filled()
        bm = block_partition(f, 12, arena=True)
        assert np.array_equal(f.data[bm.arena.gather], bm.arena.data)

    def test_empty_matrix(self):
        from repro.sparse.csc import CSCMatrix

        bm = block_partition(CSCMatrix.empty((10, 10)), 4, arena=True)
        assert bm.arena.data.size == 0
        assert bm.num_blocks == 0


class TestEnginesAgreeBitIdentical:
    @pytest.mark.parametrize("engine", ["sequential", "threaded", "distributed"])
    def test_factors_and_solutions_match_legacy(self, engine):
        """Bit identity on every engine: the factor DAG orders the Schur
        updates of each block, so neither the layout nor the ranks'
        arrival order reaches the factors or the solutions."""
        a = random_sparse(N, 0.06, seed=3)
        b = np.ones(N)
        results = {}
        for use_arena in (False, True):
            opts = SolverOptions(
                use_arena=use_arena, engine=engine, n_workers=1, nprocs=2
            )
            s = PanguLU(a, opts)
            s.factorize()
            lu = s.blocks.to_csc()
            results[use_arena] = (
                lu.indptr.copy(), lu.indices.copy(), lu.data.copy(), s.solve(b)
            )
        for la, aa in zip(results[False], results[True]):
            assert np.array_equal(la, aa)

    def test_multiworker_threaded_matches_legacy_to_ulp(self):
        """With >1 worker the threaded engine repeats the one-lane
        factors bit for bit, on either layout."""
        a = random_sparse(N, 0.06, seed=3)
        factors = {}
        for use_arena in (False, True):
            s = PanguLU(a, SolverOptions(use_arena=use_arena,
                                         engine="threaded", n_workers=3))
            s.factorize()
            factors[use_arena] = s.blocks.to_csc()
        la, aa = factors[False], factors[True]
        assert np.array_equal(la.indptr, aa.indptr)
        assert np.array_equal(la.indices, aa.indices)
        assert np.array_equal(la.data, aa.data)

    def test_distributed_loopback_matches_legacy(self):
        """The in-process transport exchanges live slab slices — the
        factors still equal the legacy layout's bit for bit."""
        f = _filled(seed=4)
        legacy = block_partition(f, 12)
        arena = block_partition(f, 12, arena=True)
        factorize_distributed(
            legacy, build_dag(legacy), 3, transport=LoopbackTransport()
        )
        factorize_distributed(
            arena, build_dag(arena), 3, transport=LoopbackTransport()
        )
        for lb, ab in zip(legacy.blk_values, arena.blk_values):
            assert np.array_equal(lb.data, ab.data)
        # the factored values live in the slab (views were written through)
        assert arena.blk_values[0].data.base is arena.arena.data

    def test_sequential_direct_engines_agree(self):
        legacy, arena = _pair(seed=5)
        factorize(legacy, build_dag(legacy))
        factorize(arena, build_dag(arena))
        l_lu, a_lu = legacy.to_csc(), arena.to_csc()
        assert np.array_equal(l_lu.indptr, a_lu.indptr)
        assert np.array_equal(l_lu.indices, a_lu.indices)
        assert np.array_equal(l_lu.data, a_lu.data)


class TestInPlaceRefactorize:
    def test_refactorize_allocates_no_block_arrays(self):
        """The arena refactorize path touches only the value slab: the
        block structure, the three slabs, every block view and the plan
        cache all survive **by identity**, and the plan cache builds no
        new plan."""
        a = random_sparse(N, 0.06, seed=6)
        fact = PanguLU(a, SolverOptions(use_arena=True)).factorize()
        blocks = fact.blocks
        arena = blocks.arena
        slabs = (arena.indptr, arena.indices, arena.data)
        views = list(blocks.blk_values)
        view_arrays = [(v.indptr, v.indices, v.data) for v in views]
        cache = blocks.plan_cache
        builds = cache.builds
        lu_before = blocks.to_csc().data.copy()

        a2 = a.copy()
        a2.data = a.data * 1.7
        fact.refactorize(a2)

        assert fact.blocks is blocks
        assert blocks.arena is arena
        for slab, now in zip(slabs, (arena.indptr, arena.indices, arena.data)):
            assert slab is now
        for view, (ip, ix, dv) in zip(blocks.blk_values, view_arrays):
            assert view.indptr is ip and view.indices is ix and view.data is dv
        assert blocks.plan_cache is cache
        assert cache.builds == builds  # every cached plan was reused
        # and it actually refactorised: new values, correct solve
        assert not np.array_equal(blocks.to_csc().data, lu_before)
        x = fact.solve(np.ones(N))
        assert float(np.max(np.abs(a2.matvec(x) - 1.0))) < 1e-8

    def test_refactorize_matches_legacy_refactorize(self):
        """Slab refill and per-block re-partition inject the same values
        (both reuse the original scalings), so the refactorised bits
        agree across layouts."""
        a = random_sparse(N, 0.06, seed=7)
        a2 = a.copy()
        a2.data = a.data * 0.9 + 0.01
        facts = {}
        for use_arena in (False, True):
            fact = PanguLU(a, SolverOptions(use_arena=use_arena)).factorize()
            fact.refactorize(a2)
            facts[use_arena] = fact.blocks.to_csc().data
        assert np.array_equal(facts[False], facts[True])

    def test_refill_is_elementwise_exact(self):
        f = _filled(seed=8)
        bm = block_partition(f, 12, arena=True)
        new_vals = f.data * 2.5
        bm.arena.refill(new_vals)
        assert np.array_equal(bm.arena.data, new_vals[bm.arena.gather])


class TestSerialisation:
    def _factor_pair(self, seed=9):
        a = random_sparse(N, 0.06, seed=seed)
        legacy = PanguLU(a, SolverOptions(use_arena=False)).factorize()
        arena = PanguLU(a, SolverOptions(use_arena=True)).factorize()
        return legacy, arena

    def test_pickle_round_trip_and_size_bound(self):
        legacy, arena = self._factor_pair()
        blob_a = pickle.dumps(arena)
        blob_l = pickle.dumps(legacy)
        # the slabs serialise as three buffers instead of thousands of
        # per-block arrays (headers, shapes, dtypes each)
        assert len(blob_a) < len(blob_l)

        restored = pickle.loads(blob_a)
        b = np.ones(N)
        assert np.array_equal(restored.solve(b), arena.solve(b))
        # views were reattached onto the restored slabs
        rb = restored.blocks
        assert rb.arena is not None
        for blk in rb.blk_values:
            assert blk.data.base is rb.arena.data

    def test_block_matrix_getstate_drops_rebuildables(self):
        _, bm = _pair(seed=10)
        bm.block_slot(0, 0)  # force the index
        state = bm.__getstate__()
        assert state["plan_cache"] is None
        assert not {"_index", "blk_colidx", "_slot_keys", "_structure"} & set(state)
        assert state["blk_values"] is None  # arena: slabs are the truth
        clone = pickle.loads(pickle.dumps(bm))
        assert len(clone.blk_values) == bm.num_blocks
        for ours, theirs in zip(bm.blk_values, clone.blk_values):
            assert np.array_equal(ours.data, theirs.data)


class TestMemoryAccounting:
    def test_arena_report_counts_offset_tables_and_gather(self):
        legacy, arena = _pair(seed=11)
        rl, ra = memory_report(legacy), memory_report(arena)
        assert rl.values_bytes == ra.values_bytes
        assert rl.layer2_index_bytes == ra.layer2_index_bytes
        assert rl.arena_refill_bytes == 0
        assert ra.arena_refill_bytes == arena.arena.gather.nbytes
        # the slot→offset tables replace the per-block payload pointers
        nb1 = arena.num_blocks + 1
        assert ra.layer1_index_bytes == (
            arena.blk_colptr.nbytes + arena.blk_rowidx.nbytes + 2 * nb1 * 8
        )
        assert ra.layer1_overhead < 0.05

    def test_report_derives_bytes_from_dtypes(self):
        _, arena = _pair(seed=12)
        rep = memory_report(arena)
        nnz = sum(b.nnz for b in arena.blk_values)
        assert rep.values_bytes == nnz * np.dtype(np.float64).itemsize

"""The kept diagonal inverses (`BlockMatrix.diag_inverse`).

A factorisation keeps each factored diagonal block's packed float64
inverse — ``L⁻¹`` strictly below the diagonal, ``U⁻¹`` on and above it —
so the solve multiplies and never inverts.  Asserted here: no ``trtri``
call in a solve after a factorisation or a refactorisation, on every
engine shape; no stale inverse after new values, whoever wrote them and
whatever GETRF variant ran; a handle whose inverses did not travel
(unpickled, gathered) solves bit for bit like the resident one; a rank
keeps inverses of its own blocks only; and the memory report counts
them.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.kernels.base as base
from repro import PanguLU, SolverOptions
from repro.core import NumericOptions, block_partition, build_dag, factorize
from repro.core.memory import memory_report
from repro.core.placement import CyclicPlacement
from repro.core.tsolve import tsolve_lanes
from repro.core.tsolve_dag import build_tsolve_dag
from repro.kernels import KernelType, SelectorPolicy
from repro.kernels.selector import DecisionTree, default_trees
from repro.runtime import factorize_distributed, tsolve_distributed
from repro.runtime.distributed import RankPool
from repro.runtime.transports import LoopbackTransport
from repro.sparse import CSCMatrix, generate
from repro.symbolic import symbolic_symmetric


@pytest.fixture
def trtri_calls(monkeypatch):
    """Every LAPACK ``trtri`` the package makes, by the order inverted."""
    calls = []
    real = base._trtri

    def counting(d, **kwargs):
        calls.append(d.shape[0])
        return real(d, **kwargs)

    monkeypatch.setattr(base, "_trtri", counting)
    return calls


def _matrix() -> CSCMatrix:
    """Dense enough that every diagonal block's GETRF is ``C_V1`` at
    order 48: the inverse is made on the factored image."""
    return generate("audikw_1", scale=0.2, seed=0)


def _new_values(a: CSCMatrix, seed: int) -> CSCMatrix:
    rng = np.random.default_rng(seed)
    return CSCMatrix(a.shape, a.indptr, a.indices,
                     a.data * (1.0 + 0.05 * rng.uniform(-1, 1, a.nnz)))


#: (label, ranks, lanes per rank): 0 ranks is this process
SHAPES = [("sequential", 0, 1), ("threaded", 0, 2),
          ("distributed-2x1", 2, 1), ("hybrid-2x2", 2, 2)]


@pytest.mark.parametrize("ranks,lanes", [s[1:] for s in SHAPES],
                         ids=[s[0] for s in SHAPES])
def test_solves_after_factorize_and_refactorize_make_no_trtri_call(
    ranks, lanes, trtri_calls
):
    filled = symbolic_symmetric(_matrix()).filled
    bm = block_partition(filled, 48, arena=True)
    dag = build_dag(bm)
    owner = CyclicPlacement(ranks).owner if ranks else (lambda bi, bj: 0)
    tdag = build_tsolve_dag(bm, owner)
    b = np.random.default_rng(1).standard_normal(bm.n)
    pool, transport = RankPool(), LoopbackTransport()
    solutions = []
    try:
        for seed in (2, 3):  # a factorisation, then one on new values
            bm.arena.refill(_new_values(filled, seed).data)
            if ranks:
                report = factorize_distributed(
                    bm, dag, ranks, n_threads=lanes, transport=transport, pool=pool
                )
            else:
                report = factorize(bm, dag, n_lanes=lanes)
            assert "GETRF/C_V1" in report.version_histogram()
            assert "GETRF/G_V1" not in report.version_histogram()
            made = len(trtri_calls)
            for _ in range(2):
                if ranks:
                    x, _ = tsolve_distributed(
                        bm, tdag, b, ranks, n_threads=lanes, transport=transport,
                        pool=pool,
                    )
                else:
                    x, _ = tsolve_lanes(bm, tdag, b, n_lanes=lanes)
                assert len(trtri_calls) == made  # the solve inverted nothing
            solutions.append(x)
    finally:
        pool.close(bm)
    assert not np.array_equal(*solutions)


def _forced_sparse_getrf() -> NumericOptions:
    trees = {**default_trees(), KernelType.GETRF: DecisionTree("G_V1")}
    return NumericOptions(selector=SelectorPolicy(trees=trees))


@pytest.mark.parametrize("numeric,getrf", [
    (NumericOptions(), "C_V1"),
    (_forced_sparse_getrf(), "G_V1"),
    (NumericOptions(selector=SelectorPolicy.fixed()), "G_V1"),
], ids=["default", "sparse-getrf", "all-sparse"])
def test_refactorize_never_solves_with_a_stale_inverse(numeric, getrf):
    a = _matrix()
    a2 = _new_values(a, 7)
    b = np.random.default_rng(4).standard_normal(a.nrows)
    fact = PanguLU(a, SolverOptions(numeric=numeric)).factorize()
    assert f"GETRF/{getrf}" in fact.stats.version_histogram()
    fact.solve(b)  # the first values' inverses are kept (or made) now
    assert fact._blocks.inverses
    fact.refactorize(a2)
    # the same pipeline on a2's values (phase 1's scaling is a's), its
    # inverses all made from those values on first use
    fresh = PanguLU(a, SolverOptions(numeric=numeric)).factorize()
    fresh.refactorize(a2)
    fresh._blocks.inverses.clear()
    for transposed in (False, True):
        assert np.array_equal(fact.solve(b, transposed=transposed),
                              fresh.solve(b, transposed=transposed))


def test_unpickled_handle_solves_like_the_resident_one():
    a = _matrix()
    b = np.random.default_rng(5).standard_normal((a.nrows, 3))
    fact = PanguLU(a).factorize()
    resident = fact.solve(b)
    copy = pickle.loads(pickle.dumps(fact))
    assert fact._blocks.inverses and not copy._blocks.inverses
    assert np.array_equal(copy.solve(b), resident)
    assert copy._blocks.inverses  # made on first use


def test_gathered_handle_solves_like_the_resident_one():
    a = _matrix()
    b = np.random.default_rng(6).standard_normal(a.nrows)
    fact = PanguLU(a, SolverOptions(engine="distributed", nprocs=2)).factorize()
    try:
        resident = fact.solve(b)           # on the ranks' kept inverses
        assert not fact._blocks.inverses   # ... which stay on the ranks
        fact.close()                       # the values come home, no inverse
        assert np.array_equal(fact.solve(b), resident)  # ranks forked anew
        fact.close()
        fact.options.engine = "sequential"
        assert np.array_equal(fact.solve(b), resident)
    finally:
        fact.close()


def test_memory_report_counts_the_kept_inverses():
    fact = PanguLU(_matrix()).factorize()
    f = fact.blocks
    rep = memory_report(f)
    orders = np.diff(f.boundaries)
    values = sum(f.block(k, k).data.nbytes for k in range(f.nb))
    # the float64 inverses and the values each was made from
    assert rep.inverse_bytes == int((orders ** 2).sum()) * 8 + values > 0
    assert rep.total_bytes == (
        rep.values_bytes + rep.layer2_index_bytes + rep.layer1_index_bytes
        + rep.plan_bytes + rep.arena_refill_bytes + rep.lr_value_bytes
        + rep.inverse_bytes
    )
    f.inverses.clear()
    assert memory_report(f).total_bytes == rep.total_bytes - rep.inverse_bytes


def test_a_rank_refactorisation_leaves_no_local_inverse_in_use():
    """Factors made on the ranks reach this process by a gather, without
    inverses: those kept here from an earlier local factorisation no
    longer match the values, and the solve makes new ones."""
    a = _matrix()
    a2 = _new_values(a, 8)
    b = np.random.default_rng(9).standard_normal(a.nrows)
    fact = PanguLU(a).factorize()
    fact.solve(b)                       # sequential: kept in this process
    fact.options.engine, fact.options.nprocs = "distributed", 2
    try:
        fact.refactorize(a2)            # on the ranks
        fact.options.engine = "sequential"
        x = fact.solve(b)               # the gathered factors, inverted here
    finally:
        fact.close()
    ref = PanguLU(a).factorize()
    ref.refactorize(a2)
    ref._blocks.inverses.clear()
    assert np.array_equal(x, ref.solve(b))


def test_values_written_by_a_caller_are_inverted_anew(trtri_calls):
    """A diagonal block written after its inverse was kept — here by hand
    — is inverted again from its values on the next read; the kept one
    is used only while the values it was made from are in place."""
    fact = PanguLU(_matrix()).factorize()
    f = fact._blocks
    slot, made = f.block_slot(0, 0), len(trtri_calls)
    kept = f.diag_inverse(slot)
    assert len(trtri_calls) == made and f.diag_inverse(slot) is kept
    f.block_at(slot).data[0] *= 2.0
    again = f.diag_inverse(slot)
    assert len(trtri_calls) == made + 2 and again is not kept
    ref = base.invert_factors(f.block_at(slot).to_dense())
    assert np.array_equal(again, ref)


def test_a_rank_keeps_inverses_of_its_own_blocks_only(monkeypatch):
    """On the ranks, a received diagonal block's triangle inverses live
    with its other panel images: only owned blocks' packed inverses are
    made and kept (here over loopback ranks, whose shares are visible)."""
    from repro.core.blocking import BlockMatrix

    kept, real = [], BlockMatrix.keep_inverse

    def recording(self, slot, inv):
        kept.append((self.owned, slot))
        return real(self, slot, inv)

    monkeypatch.setattr(BlockMatrix, "keep_inverse", recording)
    filled = symbolic_symmetric(_matrix()).filled
    bm = block_partition(filled, 48, arena=True)
    dag = build_dag(bm)
    tdag = build_tsolve_dag(bm, CyclicPlacement(2).owner)
    pool, transport = RankPool(), LoopbackTransport()
    try:
        factorize_distributed(bm, dag, 2, transport=transport, pool=pool)
        tsolve_distributed(bm, tdag, np.ones(bm.n), 2, transport=transport,
                           pool=pool)
    finally:
        pool.close(bm)
    on_ranks = [(owned, slot) for owned, slot in kept if owned is not None]
    assert len({slot for _, slot in on_ranks}) == bm.nb  # every diagonal block
    assert all(slot in owned for owned, slot in on_ranks)

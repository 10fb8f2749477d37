"""The per-factorisation dense panel cache (`repro.core.numeric.PanelCache`).

A block has one dense image, from its first dense-mapped writer (or
first image reader) until the last task reading its image completes.
Asserted here: every image is evicted by the end of a run on every
engine shape, the peak reported is that of every image — those being
accumulated included — a panel no image reader is due for holds none,
and a refactorisation starts from an empty cache.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.numeric as numeric
from repro import PanguLU, SolverOptions
from repro.core import NumericOptions, block_partition, build_dag, factorize
from repro.core.memory import memory_report
from repro.core.numeric import PanelCache
from repro.kernels import KernelType, SingularBlockError
from repro.kernels.registry import KERNEL_REGISTRY
from repro.kernels.selector import SelectorPolicy
from repro.runtime import factorize_distributed
from repro.runtime.transports import LoopbackTransport
from repro.sparse import random_sparse
from repro.symbolic import symbolic_symmetric

from .reference_numeric import replay_unplanned


def _prepared(seed=0):
    a = random_sparse(120, 0.05, seed=seed)
    bm = block_partition(symbolic_symmetric(a).filled, 16)
    return bm, build_dag(bm)


@pytest.fixture
def caches(monkeypatch):
    """Every :class:`PanelCache` the factor jobs of a test create; each
    records how many images it still held when its job drained it
    (``held``), as the drain empties it."""
    made = []

    class Recorded(PanelCache):
        def __init__(self, *args):
            super().__init__(*args)
            self.held = None
            made.append(self)

        def drain(self):
            self.held = len(self._images)
            super().drain()

    monkeypatch.setattr(numeric, "PanelCache", Recorded)
    return made


def _empty(cache) -> bool:
    return len(cache) == 0 and cache.nbytes == 0 and cache.held is not None


RUNS = {
    "sequential": lambda bm, dag: factorize(bm, dag),
    "2-threads": lambda bm, dag: factorize(bm, dag, n_lanes=2),
    "2-ranks": lambda bm, dag: factorize_distributed(
        bm, dag, 2, transport=LoopbackTransport()
    ),
}


@pytest.mark.parametrize("run", RUNS)
def test_every_image_is_evicted_by_the_end_of_a_run(run, caches):
    bm, dag = _prepared()
    report = RUNS[run](bm, dag)
    assert "SSSSM/C_V1" in report.version_histogram()
    assert len(caches) == (2 if run == "2-ranks" else 1)
    for cache in caches:
        assert cache.held == 0 and _empty(cache)
        assert cache.peak_bytes > 0
        assert not any(cache._uses.values())
    assert report.panel_cache_peak_bytes == max(c.peak_bytes for c in caches)
    mem = memory_report(bm, report)
    assert mem.panel_cache_peak_bytes == report.panel_cache_peak_bytes
    assert memory_report(bm).panel_cache_peak_bytes == 0
    # a fraction of the dense-equivalent storage, not all of it
    assert mem.panel_cache_peak_bytes < mem.dense_equivalent_bytes


ENGINES = {
    "1-lane": lambda bm, dag, options: factorize(bm, dag, options),
    "3-lanes": lambda bm, dag, options: factorize(bm, dag, options, n_lanes=3),
    "2x1-ranks": lambda bm, dag, options: factorize_distributed(
        bm, dag, 2, options=options, transport=LoopbackTransport()
    ),
    "2x2-ranks": lambda bm, dag, options: factorize_distributed(
        bm, dag, 2, options=options, n_threads=2, transport=LoopbackTransport()
    ),
}

#: a forced selector under which the dense-mapped GETRF is the only task
#: that works on an image: no other task reads or writes one
GETRF_ON_IMAGES = {
    KernelType.GETRF: "C_V1", KernelType.GESSM: "G_V1",
    KernelType.TSTRF: "G_V1", KernelType.SSSSM: "C_V2",
}


@pytest.mark.parametrize("forced", [None, GETRF_ON_IMAGES], ids=["default", "getrf"])
@pytest.mark.parametrize("engine", ENGINES)
def test_reported_peak_covers_the_largest_image_being_accumulated(
    engine, forced, monkeypatch
):
    """Every block image is in the one ledger: the peak a run reports is
    at least the largest image any of its tasks opened."""
    opened = []

    class Recorded(numeric.TargetImage):
        def __init__(self, block, axis):
            super().__init__(block, axis)
            opened.append(self.dense.nbytes)

    monkeypatch.setattr(numeric, "TargetImage", Recorded)
    bm, dag = _prepared()
    selector = SelectorPolicy.default() if forced is None else SelectorPolicy.fixed(forced)
    report = ENGINES[engine](bm, dag, NumericOptions(selector=selector))
    assert opened and report.panel_cache_peak_bytes >= max(opened)


def test_a_panel_no_image_reader_is_due_for_keeps_no_image(monkeypatch):
    """Dense-mapped panel solves whose readers are all sparse SSSSMs:
    each panel's image goes with its panel task.  Under the default
    selector dense-mapped SSSSMs read panels, which keep theirs."""
    kept = []

    class Recorded(PanelCache):
        def publish(self, slot, ktype):
            inv = super().publish(slot, ktype)
            kept.append(slot in self._images)
            return inv

    monkeypatch.setattr(numeric, "PanelCache", Recorded)
    selector = SelectorPolicy.fixed({
        KernelType.GETRF: "C_V1", KernelType.GESSM: "C_V2",
        KernelType.TSTRF: "C_V2", KernelType.SSSSM: "C_V2",
    })
    report = factorize(*_prepared(), NumericOptions(selector=selector))
    assert {"GESSM/C_V2", "TSTRF/C_V2"} <= set(report.version_histogram())
    assert kept and not any(kept)
    kept.clear()
    factorize(*_prepared())
    assert any(kept)


def test_partial_run_counts_only_the_tasks_it_runs(caches):
    """A predecessor-closed subset (the Schur front end): blocks whose
    later readers are not part of the run must still be let go, and the
    images of the targets updated past the run's last panel go back to
    their blocks — the factors are the uncached replay's of the subset,
    byte for byte."""
    bm, dag = _prepared()
    pristine = [blk.data.copy() for blk in bm.blk_values]
    owned = [t.tid for t in dag.tasks if t.k < 3]
    factorize(bm, dag, owned=owned)
    (cache,) = caches
    assert _empty(cache) and cache.peak_bytes > 0
    assert cache.held > 0
    factors = [blk.data.copy() for blk in bm.blk_values]
    for blk, data in zip(bm.blk_values, pristine):
        blk.data[...] = data
    replay_unplanned(bm, dag, tids=owned)
    for blk, ref in zip(bm.blk_values, factors):
        assert blk.data.tobytes() == ref.tobytes()


def test_sparse_selector_builds_no_image(caches):
    bm, dag = _prepared()
    report = factorize(bm, dag, NumericOptions(selector=SelectorPolicy.fixed()))
    assert report.panel_cache_peak_bytes == 0
    assert caches[0].peak_bytes == 0


def test_blocks_wider_than_one_serial_gemm(caches):
    """96-wide blocks: every dense-mapped product is computed in slabs
    (`serial_matmul`), and still matches the sparse variants."""
    a = random_sparse(288, 0.04, seed=3)
    filled = symbolic_symmetric(a).filled
    dense, sparse = block_partition(filled, 96), block_partition(filled, 96)
    report = factorize(dense, build_dag(dense))
    factorize(sparse, build_dag(sparse),
              NumericOptions(selector=SelectorPolicy.fixed()))
    assert {"GESSM/C_V2", "TSTRF/C_V2", "SSSSM/C_V1"} <= set(
        report.version_histogram()
    )
    got, ref = dense.to_csc().data, sparse.to_csc().data
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_execute_task_without_a_cache_keeps_nothing(caches):
    """The benchmark's regret probe calls ``execute_task`` on a bare
    block view: the dense-mapped kernels then scatter their own operands
    and agree bit for bit with the cached run."""
    cached, dag = _prepared(seed=2)
    bare, _ = _prepared(seed=2)
    report = factorize(cached, dag)
    assert replay_unplanned(bare, dag) == report.kernel_choices
    assert len(caches) == 1
    for got, ref in zip(bare.blk_values, cached.blk_values):
        assert np.array_equal(got.data, ref.data)


def test_refactorize_never_reads_a_stale_image(caches):
    """New values through the same handle: the second run's factors are
    those a sparse-variant (image-free) refactorisation gives, not a mix
    with images of the first."""
    a = random_sparse(120, 0.05, seed=1)
    a2 = a.copy()
    a2.data[...] = a.data * np.linspace(0.5, 1.5, a.nnz)
    fact = PanguLU(a).factorize()
    assert "SSSSM/C_V1" in fact.stats.version_histogram()
    old = fact.blocks.to_csc().data.copy()
    fact.refactorize(a2)
    assert len(caches) == 2 and all(_empty(c) for c in caches)
    assert all(c.peak_bytes > 0 for c in caches)
    sparse = PanguLU(a, SolverOptions(
        numeric=NumericOptions(selector=SelectorPolicy.fixed())
    )).factorize()
    sparse.refactorize(a2)
    new, ref = fact.blocks.to_csc().data, sparse.blocks.to_csc().data
    assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(new - old).max() > 1e-3 * np.abs(ref).max()
    b = np.ones(a.nrows)
    assert np.abs(a2.matvec(fact.solve(b)) - b).max() < 1e-9


# ----------------------------------------------------------------------
# target images: none outlives its job
# ----------------------------------------------------------------------

def test_no_image_outlives_factorize_or_refactorize(caches):
    """Through the facade — a factorisation, then a refactorisation —
    every job ends with no image, and the images never weigh as much as
    the block arena."""
    a = random_sparse(200, 0.04, seed=4)
    solver = PanguLU(a)
    fact = solver.factorize()
    fact.refactorize(a)
    assert len(caches) == 2
    for cache in caches:
        assert cache.held == 0 and _empty(cache)
        assert 0 < cache.peak_bytes < solver.blocks.arena.nbytes


@pytest.mark.parametrize("lanes", [1, 3])
def test_no_image_outlives_a_failed_run(lanes, caches, monkeypatch):
    """A ``SingularBlockError`` from the fourth dense-mapped GETRF: the
    run fails with images held, being accumulated or finished, and the
    job lets go of all of them."""
    getrf = KERNEL_REGISTRY[KernelType.GETRF]["C_V1"]
    calls = []

    def failing(block, ws, **kw):
        calls.append(block)
        if len(calls) == 4:
            raise SingularBlockError("zero pivot")
        return getrf(block, ws, **kw)

    monkeypatch.setitem(KERNEL_REGISTRY[KernelType.GETRF], "C_V1", failing)
    bm, dag = _prepared()
    with pytest.raises(SingularBlockError, match="GETRF.*zero pivot"):
        factorize(bm, dag, n_lanes=lanes)
    (cache,) = caches
    assert cache.held > 0 and _empty(cache)

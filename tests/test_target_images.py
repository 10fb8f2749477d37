"""Accumulated target images (`repro.core.numeric.PanelCache.image`).

A dense-mapped Schur update subtracts its product from its target's dense
image, and the target's panel task solves (or factors) that image and
writes the block's values once.  The oracle is the uncached path:
``execute_task(..., plans=None, panels=None)`` in task-id order
(``tests/reference_numeric.replay_unplanned`` — the order in which the
sequential engine applies the updates of any one block), where every
update gathers its product at the target's pattern.  The job's factors
must equal it byte for byte, and a task that touches a block's values
while its image is open must find them current (the coherence rule,
``PanelCache.write_back``).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.numeric as numeric
from repro import PanguLU, SolverOptions
from repro.core import NumericOptions, block_partition, build_dag, factorize
from repro.kernels.registry import KernelType
from repro.kernels.selector import DecisionTree, SelectorPolicy, Split, default_trees
from repro.runtime import factorize_distributed
from repro.runtime.transports import LoopbackTransport
from repro.sparse import CSCMatrix, generate, random_sparse
from repro.symbolic import symbolic_symmetric

from .reference_numeric import replay_unplanned


def _values(bm) -> list[np.ndarray]:
    return [blk.data.copy() for blk in bm.blk_values]


def _refill(bm, values) -> None:
    for blk, data in zip(bm.blk_values, values):
        blk.data[...] = data


def _assert_bytes_equal(bm, factors) -> None:
    for blk, ref in zip(bm.blk_values, factors):
        assert blk.data.dtype == ref.dtype
        assert blk.data.tobytes() == ref.tobytes()


def _job_against_replay(bm, dag, options=None):
    """Factor ``bm`` by the sequential job, then its input values again
    by the uncached replay; the two must agree byte for byte.  Returns
    the job's report."""
    pristine = _values(bm)
    report = factorize(bm, dag, options)
    factors = _values(bm)
    _refill(bm, pristine)
    assert replay_unplanned(bm, dag, options) == report.kernel_choices
    _assert_bytes_equal(bm, factors)
    return report


@pytest.mark.parametrize("name,scale", [
    ("audikw_1", 0.4), ("ecology1", 1.0), ("cage12", 0.5), ("nlpkkt80", 0.2),
])
def test_default_selector_matches_the_uncached_path(name, scale):
    s = PanguLU(generate(name, scale=scale, seed=0))
    s.preprocess()
    report = _job_against_replay(s.blocks, s.dag)
    assert "SSSSM/C_V1" in report.version_histogram()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_random_80_matches_the_uncached_path(dtype):
    s = PanguLU(random_sparse(80, 0.06, seed=0),
                SolverOptions(block_size=12, factor_dtype=dtype))
    s.preprocess()
    assert s.blocks.blk_values[0].data.dtype == np.dtype(dtype)
    labels = set(_job_against_replay(s.blocks, s.dag).version_histogram())
    assert {"GETRF/C_V1", "GESSM/C_V2", "TSTRF/C_V2", "SSSSM/C_V1"} <= labels


def test_refactorize_matches_the_uncached_path(monkeypatch):
    """The facade's second factorisation, on new values, through the
    same handle: its job's factors are those the replay gives from the
    values that job started on."""
    started = []
    job_init = numeric.FactorJob.__init__

    def recording(self, f, dag, options, owned=None):
        started.append((f, dag, options, _values(f)))
        job_init(self, f, dag, options, owned)

    monkeypatch.setattr(numeric.FactorJob, "__init__", recording)
    a = generate("audikw_1", scale=0.3, seed=0)
    a2 = a.copy()
    a2.data[...] = a.data * np.linspace(0.75, 1.25, a.nnz)
    fact = PanguLU(a).factorize()
    fact.refactorize(a2)
    assert len(started) == 2
    f, dag, options, pristine = started[-1]
    factors = _values(f)
    _refill(f, pristine)
    replay_unplanned(f, dag, options)
    _assert_bytes_equal(f, factors)


# ----------------------------------------------------------------------
# mixed variants: the coherence rule
# ----------------------------------------------------------------------

def _mixed_policy(bm, dag) -> SelectorPolicy:
    """Default trees, except that SSSSM splits its tasks at the median
    flops between ``C_V2`` (sparse, on the block's values) and ``C_V1``
    (on its image), and GETRF its blocks at the median stored entries
    between ``G_V1`` (the median itself included) and ``C_V1``."""
    table = dag.table
    ssssm = table.flops[table.ttype == numeric.TaskType.SSSSM]
    diag = [bm.block(k, k).nnz for k in range(bm.nb)]
    trees = dict(default_trees())
    trees[KernelType.SSSSM] = DecisionTree(
        Split("flops", float(np.median(ssssm)), "C_V2", "C_V1")
    )
    trees[KernelType.GETRF] = DecisionTree(
        Split("nnz_a", float(np.median(diag)) + 0.5, "G_V1", "C_V1")
    )
    return SelectorPolicy(trees=trees)


@pytest.fixture
def caches(monkeypatch):
    made = []

    class Recorded(numeric.PanelCache):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(numeric, "PanelCache", Recorded)
    return made


def _coupled(n=128, bs=16, seed=11):
    """Diagonal blocks plus a rank-2 coupling everywhere (as in
    ``tests/test_compress.py``), with full-rank noise on every third
    off-diagonal block: some panels compress, some do not."""
    rng = np.random.default_rng(seed)
    a = 0.05 * (rng.standard_normal((n, 2)) @ rng.standard_normal((2, n)))
    for i in range(0, n, bs):
        for j in range(0, n, bs):
            if i == j:
                a[i:i + bs, j:j + bs] = rng.standard_normal((bs, bs)) + 6.0 * np.eye(bs)
            elif (i + j) // bs % 3 == 0:
                a[i:i + bs, j:j + bs] += 0.05 * rng.standard_normal((bs, bs))
    return CSCMatrix.from_dense(a)


def _prepared(compress: bool):
    if compress:
        a, bs = _coupled(), 16
    else:
        a, bs = random_sparse(80, 0.06, seed=0), 12
    bm = block_partition(symbolic_symmetric(a).filled, bs)
    return bm, build_dag(bm)


def _mixed_targets(dag, choices, wanted) -> set[int]:
    """Diagonal blocks whose tasks ran every label in ``wanted``."""
    by_block: dict = {}
    for task in dag.tasks:
        by_block.setdefault((task.bi, task.bj), set()).add(choices[task.tid])
    return {
        bi for (bi, bj), labels in by_block.items() if bi == bj and wanted <= labels
    }


@pytest.mark.parametrize("compress", [False, True])
def test_mixed_variants_match_the_uncached_path_on_every_engine(compress, caches):
    """A diagonal target's updates alternate between its image and its
    values, and its GETRF runs on the values: ``SSSSM/C_V2`` updates on
    ``random_80`` — or, with compression on, ``SSSSM/LR`` updates from
    compressed panels (every dense block of the coupled matrix has the
    same flops, so there the selector splits nothing)."""
    bm, dag = _prepared(compress)
    options = NumericOptions(selector=_mixed_policy(bm, dag))
    if compress:
        options.compress_tol, options.compress_min_order = 1e-8, 8
    pristine = _values(bm)
    report = _job_against_replay(bm, dag, options)
    sparse_update = "SSSSM/LR" if compress else "SSSSM/C_V2"
    assert _mixed_targets(
        dag, report.kernel_choices, {"SSSSM/C_V1", sparse_update, "GETRF/G_V1"}
    )
    (cache,) = caches
    assert len(cache) == 0
    seq = bm.to_csc().data.copy()
    for run in (
        lambda: factorize(bm, dag, options, n_lanes=3),
        lambda: factorize_distributed(
            bm, dag, 2, options=options, n_threads=2, transport=LoopbackTransport()
        ),
    ):
        _refill(bm, pristine)
        run()
        np.testing.assert_array_equal(bm.to_csc().data, seq)
    assert all(len(c) == 0 and c.nbytes == 0 for c in caches)

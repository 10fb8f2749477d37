"""What a factor job resolves once per DAG, against the per-task oracles.

``FactorJob`` turns the DAG's :class:`~repro.core.dag.TaskTable` into
storage slots, selector features and kernel choices over whole columns;
``BlockMatrix.block_slot``, ``task_features`` and
``SelectorPolicy.select`` answer the same questions one task at a time
and are the oracle here — on the whole matrix and on every rank's
``restricted`` share (which holds ``None`` for most blocks: the job may
only read layer-1 data), under both storage layouts and value dtypes.
Also: a singular pivot names its task on every engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU, SolverOptions
from repro.cholesky import LLtJob, PanguLLt
from repro.core import NumericOptions, block_partition, build_dag
from repro.core.dag import TaskDAG, TaskType
from repro.core.mapping import task_weights
from repro.core.numeric import _FAMILY, FactorJob, task_features
from repro.core.placement import CyclicPlacement
from repro.kernels import (
    DecisionTree,
    KernelType,
    SelectorPolicy,
    SingularBlockError,
    Split,
    Workspace,
    default_trees,
)
from repro.runtime.distributed import _owner_of_slot
from repro.sparse import (
    cage_like,
    circuit_like,
    fem_3d,
    grid_laplacian_2d,
    kkt_saddle_point,
    random_sparse,
)
from repro.sparse.csc import coo_to_csc
from repro.symbolic import symbolic_symmetric

MATRICES = {
    "fem_3d": lambda: fem_3d(3, 3, 2),
    "grid_laplacian_2d": lambda: grid_laplacian_2d(9, 8),
    "cage_like": lambda: cage_like(90, seed=3),
    "circuit_like": lambda: circuit_like(100, seed=4),
    "kkt_saddle_point": lambda: kkt_saddle_point(40, seed=5),
    "random_sparse": lambda: random_sparse(96, 0.05, seed=6),
}


def _live_trees() -> dict:
    """The default topology with thresholds low enough that every split
    separates tasks of these small matrices."""
    return {
        **default_trees(),
        KernelType.GETRF: DecisionTree(
            Split("nnz_a", 40.0, "G_V1", Split("density", 0.5, "G_V2", "C_V1"))
        ),
        KernelType.GESSM: DecisionTree(
            Split("nnz_b", 20.0, Split("n", 12.0, "C_V2", "G_V1"), "C_V2")
        ),
        KernelType.TSTRF: DecisionTree(
            Split("n", 12.0, "C_V2", Split("nnz_b", 30.0, "G_V1", "C_V2"))
        ),
        KernelType.SSSSM: DecisionTree(
            Split("density", 0.3, Split("flops", 200.0, "C_V2", "G_V1"), "C_V1")
        ),
    }


SELECTORS = {
    "default": SelectorPolicy.default,
    "fixed": SelectorPolicy.fixed,
    "live": lambda: SelectorPolicy(trees=_live_trees()),
}


def _shares(f, dag):
    """``(view, owned task ids)`` of the whole matrix and of every rank
    at 2 and at 4 ranks."""
    yield f, None
    for nprocs in (2, 4):
        placement = CyclicPlacement(nprocs)
        owner_of_slot = _owner_of_slot(f, placement)
        owner_of_task = placement.assign(dag)
        for rank in range(nprocs):
            yield (
                f.restricted(np.flatnonzero(owner_of_slot == rank)),
                np.flatnonzero(owner_of_task == rank),
            )


@pytest.mark.parametrize("arena", [True, False], ids=["arena", "per-block"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("matrix", MATRICES)
def test_job_columns_equal_the_per_task_oracles(matrix, dtype, arena):
    filled = symbolic_symmetric(MATRICES[matrix]()).filled
    f = block_partition(filled, 12, arena=arena, dtype=dtype)
    dag = build_dag(f)
    assert {t.ttype for t in dag.tasks} == set(TaskType)
    oracle = [task_features(f, t) for t in dag.tasks]
    coords = [_FAMILY[t.ttype][1](t.k, t.bi, t.bj) for t in dag.tasks]
    for view, owned in _shares(f, dag):
        for name, make in SELECTORS.items():
            selector = make()
            job = FactorJob(view, dag, NumericOptions(selector=selector), owned)
            uses = [0] * f.num_blocks
            for task, blocks in zip(dag.tasks, coords):
                want = tuple(f.block_slot(*c) for c in blocks)
                assert job.args[task.tid] == want
                assert job.write_slots(task.tid) == (f.block_slot(task.bi, task.bj),)
                if owned is None or task.tid in owned:
                    for slot in set(want) - set(job.write_slots(task.tid)):
                        uses[slot] += 1
            assert [job.panels._uses[s] for s in range(f.num_blocks)] == uses
            for ttype, (ktype, _, _) in _FAMILY.items():
                tids, feats = job.features(ttype)
                assert [dag.tasks[t].ttype for t in tids] == [ttype] * tids.size
                for i, tid in enumerate(tids):
                    for field in ("nnz_a", "nnz_b", "flops", "n", "density"):
                        assert feats.column(field, tids.size)[i] == oracle[tid].get(field)
                    version = selector.select(ktype, oracle[tid])
                    assert job.calls[tid][3] == f"{ktype.value}/{version}", name


def test_a_block_the_rank_does_not_hold_raises_by_name():
    f = block_partition(symbolic_symmetric(random_sparse(80, 0.06, seed=0)).filled, 12)
    dag = build_dag(f)
    job = FactorJob(f.restricted([]), dag, NumericOptions())
    with pytest.raises(RuntimeError, match=r"worker touched block \(0,0\) it neither"):
        job.execute(0, Workspace())


def test_llt_job_reads_the_symmetric_operands():
    solver = PanguLLt(grid_laplacian_2d(8, 8))
    f = solver.preprocess()
    job = LLtJob(f, solver.dag)
    for t in solver.dag.tasks:
        if t.ttype is TaskType.SSSSM:
            want = (f.block_slot(t.bi, t.bj), f.block_slot(t.bi, t.k),
                    f.block_slot(t.bj, t.k))
            assert job.args[t.tid] == want


def test_table_columns_and_views():
    f = block_partition(symbolic_symmetric(random_sparse(80, 0.06, seed=0)).filled, 12)
    dag = build_dag(f)
    table = dag.table
    assert table is dag.table                      # built once
    for name in ("ttype", "k", "bi", "bj", "flops", "n_deps"):
        assert getattr(table, name).tolist() == [getattr(t, name) for t in dag.tasks]
    assert dag.entries is table.entries and dag.successors is table.successors
    counts = dag.dep_counts()
    counts[:] = -1                                 # a fresh copy each time
    assert dag.n_deps.tolist() == [t.n_deps for t in dag.tasks]
    assert dag.roots() == [t.tid for t in dag.tasks if t.n_deps == 0]
    # what only the numeric job reads is not asked of a stub task
    stub = TaskDAG([type("T", (), dict(tid=0, k=0, ttype=0, successors=[], n_deps=0))()], {}, 0)
    assert stub.entries == [(0, 0, 0)] and stub.n_deps.tolist() == [0]
    # the table is a cache: copies and pickles rebuild it
    import copy
    assert "table" not in copy.deepcopy(dag).__dict__


def test_slots_of_and_slot_structure_match_the_blocks():
    f = block_partition(symbolic_symmetric(cage_like(70, seed=1)).filled, [0, 9, 30, 41, 70])
    bi, bj = np.divmod(np.arange(f.nb * f.nb), f.nb)
    assert f.slots_of(bi, bj).tolist() == [f.block_slot(i, j) for i, j in zip(bi, bj)]
    structure = f.restricted([0]).slot_structure()
    for slot, blk in enumerate(f.blk_values):
        row = structure[slot]
        assert (row.nnz, row.ncols, row.density) == (blk.nnz, blk.ncols, blk.density)


def test_task_weights_floor_is_the_target_traffic():
    f = block_partition(symbolic_symmetric(circuit_like(100, seed=4)).filled, 10)
    dag = build_dag(f)
    want = [max(t.flops, 2.0 * f.block(t.bi, t.bj).nnz, 1.0) for t in dag.tasks]
    assert task_weights(dag, f).tolist() == want
    assert task_weights(dag).tolist() == [max(t.flops, 1.0) for t in dag.tasks]


def _singular_tridiagonal():
    """Tridiagonal 40 × 40 whose rows 18–19 hold ``[[1, 1], [1, 1]]``
    cut off from their neighbours: block (2, 2) at block size 8.  MC64
    keeps every row in place and scales by powers of two, so the zero
    pivot survives phase 1 exactly."""
    d = 4.0 * np.eye(40) + np.eye(40, k=1) + np.eye(40, k=-1)
    d[18:20, 18:20] = 1.0
    d[17, 18] = d[18, 17] = d[19, 20] = d[20, 19] = 0.0
    rows, cols = np.nonzero(d)
    return coo_to_csc((40, 40), rows, cols, d[rows, cols])


@pytest.mark.parametrize("engine", [
    {"engine": "sequential"},
    {"engine": "threaded", "n_workers": 2},
    {"engine": "distributed", "nprocs": 2},
], ids=lambda kw: kw["engine"])
def test_zero_pivot_names_task_block_and_rows(engine):
    solver = PanguLU(_singular_tridiagonal(), SolverOptions(
        ordering="natural", block_size=8,
        numeric=NumericOptions(pivot_floor=0.0), **engine,
    ))
    raised = RuntimeError if engine["engine"] == "distributed" else SingularBlockError
    with pytest.raises(raised) as exc:
        solver.factorize()
    assert (
        "GETRF(k=2) on block (2,2), rows 16–23 of the reordered matrix: "
        "zero pivot in GETRF"
    ) in str(exc.value)
    if raised is SingularBlockError:               # chained from the kernel's
        assert isinstance(exc.value.__cause__, SingularBlockError)

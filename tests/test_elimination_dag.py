"""The one elimination rule, on every factor DAG.

LU (:func:`~repro.core.dag.build_dag`), Cholesky
(:func:`~repro.cholesky.kernels.build_llt_dag`) and the supernodal
baseline (:func:`~repro.baseline.dag.build_sn_dag`) all create their
tasks through :class:`~repro.core.dag.EliminationBuilder`, so each must
carry exactly its edges: a task waits for the panel task of each block it
reads (an update its operands', a panel solve its step's diagonal block)
and for the task created before it into its own block, and for nothing
else — so each block's updates form one chain, in step order (LU and
Cholesky) or in the baseline's level order, which the block's panel task
ends.  Every edge runs forward in task order (so the graph is acyclic),
each counter equals its task's in-degree, and ``panel_of_block`` names
each block's panel task.
"""

from __future__ import annotations

import pytest

from repro import PanguLU
from repro.baseline import SuperLUBaseline, build_sn_dag
from repro.cholesky import PanguLLt
from repro.core import block_partition, build_dag
from repro.core.dag import TaskType
from repro.sparse import generate, random_sparse
from repro.symbolic import symbolic_symmetric


def _lu(name):
    s = PanguLU(generate(name, scale=0.1))
    s.preprocess()
    return s.dag


def _llt(name):
    s = PanguLLt(generate(name, scale=0.1))
    s.preprocess()
    return s.dag


def _sn(name):
    bl = SuperLUBaseline(generate(name, scale=0.1))
    bl.preprocess()
    return build_sn_dag(bl.panels, bl.partition).dag


def _lu_operands(t):
    """The blocks an LU update reads: ``L(i,k)`` and ``U(k,j)``."""
    return {(t.bi, t.k), (t.k, t.bj)}


def _llt_operands(t):
    """The blocks a SYRK reads: ``L(i,k)`` and ``L(j,k)``."""
    return {(t.bi, t.k), (t.bj, t.k)}


LU_MATRICES = ("ecology1", "cage12", "ASIC_680k", "audikw_1")
CASES = [
    *((_lu, name, _lu_operands) for name in LU_MATRICES),
    *((_llt, name, _llt_operands) for name in ("ecology1", "audikw_1", "G3_circuit")),
    *((_sn, name, _lu_operands) for name in LU_MATRICES),
]


def _predecessors(dag) -> list[set[int]]:
    preds: list[set[int]] = [set() for _ in dag.tasks]
    for t in dag.tasks:
        for s in t.successors:
            preds[s].add(t.tid)
    return preds


@pytest.mark.parametrize(
    "build,name,operands", CASES,
    ids=[f"{b.__name__[1:]}-{n}" for b, n, _ in CASES],
)
def test_every_factor_dag_is_wired_by_the_one_rule(build, name, operands):
    dag = build(name)
    assert all(s > t.tid for t in dag.tasks for s in t.successors)
    preds = _predecessors(dag)
    panels, last_into = {}, {}
    for t in dag.tasks:
        if t.ttype == TaskType.SSSSM:
            expect = {dag.panel_of_block[b] for b in operands(t)}
        else:
            panels[(t.bi, t.bj)] = t.tid
            expect = set() if t.ttype == TaskType.GETRF else {
                dag.panel_of_block[(t.k, t.k)]
            }
        if (t.bi, t.bj) in last_into:
            prev = dag.tasks[last_into[(t.bi, t.bj)]]
            assert prev.ttype == TaskType.SSSSM, (name, prev, t)
            if build is not _sn:
                assert prev.k < t.k, (name, prev, t)
            expect.add(prev.tid)
        last_into[(t.bi, t.bj)] = t.tid
        assert preds[t.tid] == expect, (name, t)
        assert t.n_deps == len(expect)
    assert dag.panel_of_block == panels
    assert dag.total_flops == sum(t.flops for t in dag.tasks)


@pytest.mark.parametrize(
    "n,bs,seed", [(40, 8, 0), (72, 13, 1), (90, 16, 2), (60, 60, 3)]
)
def test_factor_dags(n, bs, seed):
    """LU DAGs of random patterns over the block-order range, down to a
    single block: edges forward and in range, each counter equal to its
    task's in-degree, at least one root, every block's tasks one chain in
    step order that ends in its one panel task."""
    filled = symbolic_symmetric(random_sparse(n, 0.07, seed=seed)).filled
    dag = build_dag(block_partition(filled, bs))
    preds = _predecessors(dag)
    assert all(s > t.tid and s < len(dag) for t in dag.tasks for s in t.successors)
    assert [t.n_deps for t in dag.tasks] == [len(p) for p in preds]
    assert any(t.n_deps == 0 for t in dag.tasks)
    last_into: dict[tuple[int, int], int] = {}
    for t in dag.tasks:
        prev = last_into.get((t.bi, t.bj))
        if prev is not None:
            assert prev in preds[t.tid] and dag.tasks[prev].k < t.k, t
        last_into[(t.bi, t.bj)] = t.tid
    assert dag.panel_of_block == last_into

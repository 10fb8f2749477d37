"""Tests of the pre-execution schedule verifier (`repro.core.verify`).

Two directions: every DAG the real builders produce must verify clean
(factor DAGs across the block-size matrix, solve DAGs for
every owner map the engines use), and each hand-injected violation must
be rejected with its named diagnostic code — the codes are the contract
``--verify`` output and error-handling callers rely on.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.core.dag import TaskType
from repro.core.solver import PanguLU, SolverOptions
from repro.core.tsolve_dag import TSolveTaskType, build_tsolve_dag
from repro.core.verify import ScheduleReport, ScheduleViolation, verify_dag
from repro.core.mapping import ProcessGrid
from repro.sparse import random_sparse
from repro.symbolic import symbolic_symmetric


def _blocked(n=72, bs=13, seed=0):
    a = random_sparse(n, 0.07, seed=seed)
    filled = symbolic_symmetric(a).filled
    return block_partition(filled, bs)


def _factor_dag(**kw):
    bm = _blocked(**kw)
    return bm, build_dag(bm)


def _tsolve_dag(owner=lambda bi, bj: 0, **kw):
    bm, dag = _factor_dag(**kw)
    factorize(bm, dag)
    return build_tsolve_dag(bm, owner)


def _raises(code, dag):
    with pytest.raises(ScheduleViolation) as exc:
        verify_dag(dag)
    assert exc.value.code == code
    assert f"[{code}]" in str(exc.value)
    return str(exc.value)


# ----------------------------------------------------------------------
# real DAGs verify clean
# ----------------------------------------------------------------------

class TestAcceptsRealDags:
    @pytest.mark.parametrize(
        "n,bs,seed", [(40, 8, 0), (72, 13, 1), (90, 16, 2), (60, 60, 3)]
    )
    def test_factor_dags(self, n, bs, seed):
        _, dag = _factor_dag(n=n, bs=bs, seed=seed)
        report = verify_dag(dag)
        assert isinstance(report, ScheduleReport)
        assert report.kind == "factor"
        assert report.n_tasks == len(dag.tasks)
        assert report.n_roots >= 1
        assert 1 <= report.depth <= report.n_tasks
        assert "verified" in str(report)

    @pytest.mark.parametrize(
        "owner",
        [
            lambda bi, bj: 0,
            ProcessGrid.square(2).owner,
            ProcessGrid.square(3).owner,
        ],
        ids=["single", "grid2", "grid3"],
    )
    def test_executable_tsolve_dags(self, owner):
        tdag = _tsolve_dag(owner)
        report = verify_dag(tdag)
        assert report.kind == "tsolve"
        assert report.n_tasks == len(tdag)

    def test_unsupported_dag_type(self):
        with pytest.raises(TypeError, match="unsupported DAG type"):
            verify_dag(object())


# ----------------------------------------------------------------------
# injected violations are rejected by name
# ----------------------------------------------------------------------

class TestRejectsFactorViolations:
    @pytest.fixture()
    def dag(self):
        return _factor_dag()[1]

    def test_bad_edge(self, dag):
        bad = copy.deepcopy(dag)
        bad.tasks[0].successors.append(len(bad.tasks) + 7)
        msg = _raises("bad-edge", bad)
        assert "task 0" in msg

    def test_counter_mismatch(self, dag):
        bad = copy.deepcopy(dag)
        bad.tasks[-1].n_deps += 1
        msg = _raises("counter-mismatch", bad)
        assert f"task {bad.tasks[-1].tid}" in msg

    def test_cycle(self, dag):
        bad = copy.deepcopy(dag)
        # close a 2-cycle with counters kept consistent, so the Kahn
        # pass (not the counter check) is what rejects it
        t = next(t for t in bad.tasks if t.successors)
        s = t.successors[0]
        bad.tasks[s].successors.append(t.tid)
        bad.tasks[t.tid].n_deps += 1
        msg = _raises("cycle", bad)
        assert "->" in msg  # a concrete cycle is named

    def test_double_writer(self, dag):
        bad = copy.deepcopy(dag)
        ssssm = next(t for t in bad.tasks if t.ttype == TaskType.SSSSM)
        panel = bad.panel_of_block[(ssssm.bi, ssssm.bj)]
        ssssm.successors.remove(panel)
        bad.tasks[panel].n_deps -= 1
        msg = _raises("double-writer", bad)
        assert f"({ssssm.bi},{ssssm.bj})" in msg


class TestRejectsTsolveViolations:
    @pytest.fixture(scope="class")
    def tdag(self):
        return _tsolve_dag(ProcessGrid.square(2).owner)

    def test_cycle(self, tdag):
        bad = copy.deepcopy(tdag)
        t = next(i for i, s in enumerate(bad.successors) if s)
        s = bad.successors[t][0]
        bad.successors[s].append(t)
        bad.n_deps[t] += 1
        _raises("cycle", bad)

    @staticmethod
    def _x_heads(dag) -> np.ndarray:
        """The seeded heads of the backward writer chains."""
        heads = np.flatnonzero(dag.seeds)
        assert len(heads) == int(dag.target.max()) + 1
        return heads

    def test_segment_order_gap(self, tdag):
        """A seed in the middle of a chain would overwrite the backward
        writes before it."""
        bad = copy.deepcopy(tdag)
        heads = self._x_heads(bad)
        updates = heads[bad.kinds[heads] == int(TSolveTaskType.UPD_B)]
        if not updates.size:  # pragma: no cover - matrix always has them
            pytest.skip("no multi-writer x-segment in this matrix")
        (nxt,) = bad.successors[int(updates[0])]
        bad.seeds[nxt] = True
        msg = _raises("segment-order", bad)
        assert "heads no x-segment chain" in msg

    def test_segment_order_unseeded_x(self, tdag):
        bad = copy.deepcopy(tdag)
        bad.seeds[self._x_heads(bad)[0]] = False
        msg = _raises("segment-order", bad)
        assert "unseeded" in msg

    def test_unchained_writer(self, tdag):
        bad = copy.deepcopy(tdag)
        # break the direct edge between two consecutive y-writers while
        # keeping counters consistent, so only the chain check can object
        upd_f = np.flatnonzero(bad.kinds == int(TSolveTaskType.UPD_F))
        a = int(upd_f[0])
        (b,) = bad.successors[a]
        assert bad.target[b] == bad.target[a]
        bad.successors[a].remove(b)
        bad.n_deps[b] -= 1
        msg = _raises("unchained-writer", bad)
        assert "race" in msg

    def test_unchained_seed(self, tdag):
        """A head that does not wait for its DIAG_F could seed from an
        unfinished forward segment."""
        bad = copy.deepcopy(tdag)
        head = int(self._x_heads(bad)[0])
        diag_f = next(t for t, s in enumerate(bad.successors) if head in s
                      and bad.kinds[t] == int(TSolveTaskType.DIAG_F))
        bad.successors[diag_f].remove(head)
        bad.n_deps[head] -= 1
        msg = _raises("unchained-writer", bad)
        assert "DIAG_F" in msg


# ----------------------------------------------------------------------
# solver / CLI wiring
# ----------------------------------------------------------------------

class TestSolverIntegration:
    @pytest.mark.parametrize(
        "engine,kw",
        [
            ("sequential", {}),
            ("threaded", {"n_workers": 3}),
            ("distributed", {"nprocs": 2}),
        ],
    )
    def test_verify_schedule_option(self, engine, kw):
        a = random_sparse(64, 0.08, seed=5)
        b = np.arange(1.0, 65.0)
        solver = PanguLU(
            a,
            SolverOptions(
                block_size=12, engine=engine, verify_schedule=True, **kw
            ),
        )
        x = solver.solve(b)
        assert solver.residual_norm(x, b) < 1e-9
        # both DAGs were verifiable on demand too
        assert verify_dag(solver.dag).kind == "factor"

    def test_cli_verify_flag(self, capsys):
        from repro.__main__ import main

        rc = main(["solve", "ecology1", "--scale", "0.12", "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "factor DAG verified" in out

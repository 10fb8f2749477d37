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
        """A forward diagonal task made to wait for its own backward one
        (counters kept consistent, so the Kahn pass is what objects)."""
        bad = copy.deepcopy(tdag)
        fwd = int(np.flatnonzero(bad.kinds == int(TSolveTaskType.DIAG_F))[0])
        (bwd,) = [s for s in bad.successors[fwd]
                  if bad.kinds[s] == int(TSolveTaskType.DIAG_B)]
        bad.successors[bwd].append(fwd)
        bad.n_deps[fwd] += 1
        msg = _raises("cycle", bad)
        # every cycle runs through the one added edge
        path = msg.split(": ", 1)[1].split(" — ")[0].split(" -> ")
        assert {str(fwd), str(bwd)} <= set(path)


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

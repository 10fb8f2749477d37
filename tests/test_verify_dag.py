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

    def test_segment_order_gap(self, tdag):
        bad = copy.deepcopy(tdag)
        tid = int(np.flatnonzero(bad.seq_y >= 0)[0])
        bad.seq_y[tid] += 5  # leaves a hole in the writer sequence
        msg = _raises("segment-order", bad)
        assert "y-segment" in msg

    def test_segment_order_unseeded_x(self, tdag):
        bad = copy.deepcopy(tdag)
        # find an x-segment with more than one writer and swap the
        # DIAG_F seed (seq 0) with the next writer: the sequence stays
        # contiguous but the segment is no longer seeded first
        kinds = np.asarray(bad.kinds)
        for seg in range(int(bad.target.max()) + 1):
            tids = np.flatnonzero((bad.target == seg) & (bad.seq_x >= 0))
            if len(tids) < 2:
                continue
            order = tids[np.argsort(bad.seq_x[tids])]
            first, second = int(order[0]), int(order[1])
            assert kinds[first] == int(TSolveTaskType.DIAG_F)
            bad.seq_x[first], bad.seq_x[second] = (
                bad.seq_x[second], bad.seq_x[first],
            )
            break
        else:  # pragma: no cover - matrix always has multi-writer segs
            pytest.skip("no multi-writer x-segment in this matrix")
        msg = _raises("segment-order", bad)
        assert "DIAG_F" in msg

    def test_unchained_writer(self, tdag):
        bad = copy.deepcopy(tdag)
        # break the direct edge between two consecutive y-writers while
        # keeping counters consistent, so only the chain check can object
        for seg in range(int(bad.target.max()) + 1):
            tids = np.flatnonzero((bad.target == seg) & (bad.seq_y >= 0))
            if len(tids) < 2:
                continue
            order = tids[np.argsort(bad.seq_y[tids])]
            a, b = int(order[0]), int(order[1])
            if b in bad.successors[a]:
                bad.successors[a].remove(b)
                bad.n_deps[b] -= 1
                break
        else:  # pragma: no cover
            pytest.skip("no chained y-segment in this matrix")
        msg = _raises("unchained-writer", bad)
        assert "race" in msg


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

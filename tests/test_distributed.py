"""Tests for the multiprocessing distributed-memory executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.runtime import factorize_distributed
from repro.sparse import generate, random_sparse
from repro.symbolic import symbolic_symmetric


def _prepared(n=80, bs=12, seed=0):
    a = random_sparse(n, 0.06, seed=seed)
    f = symbolic_symmetric(a).filled
    bm = block_partition(f, bs)
    return bm, build_dag(bm)


@pytest.fixture(scope="module")
def sequential_reference():
    bm, dag = _prepared()
    factorize(bm, dag)
    return bm.to_csc().to_dense()


class TestDistributed:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_matches_sequential(self, nprocs, sequential_reference):
        bm, dag = _prepared()
        stats = factorize_distributed(bm, dag, nprocs)
        np.testing.assert_allclose(
            bm.to_csc().to_dense(), sequential_reference, atol=1e-10
        )
        assert sum(stats.tasks_per_proc) == len(dag.tasks)
        assert stats.n_procs == nprocs

    def test_single_proc_sends_nothing(self):
        bm, dag = _prepared(seed=1)
        stats = factorize_distributed(bm, dag, 1)
        assert stats.messages_sent == 0

    def test_messages_grow_with_procs(self):
        bm2, dag2 = _prepared(seed=2)
        s2 = factorize_distributed(bm2, dag2, 2)
        bm4, dag4 = _prepared(seed=2)
        s4 = factorize_distributed(bm4, dag4, 4)
        assert s4.messages_sent >= s2.messages_sent
        assert s2.block_bytes_sent > 0

    def test_rejects_zero_procs(self):
        bm, dag = _prepared(seed=3)
        with pytest.raises(ValueError, match="process"):
            factorize_distributed(bm, dag, 0)

    def test_on_paper_analogue(self):
        a = generate("G3_circuit", scale=0.12)
        from repro import PanguLU

        s_ref, s_dist = PanguLU(a), PanguLU(a)
        s_ref.preprocess()
        s_dist.preprocess()
        factorize(s_ref.blocks, s_ref.dag)
        factorize_distributed(s_dist.blocks, s_dist.dag, 3)
        np.testing.assert_allclose(
            s_dist.blocks.to_csc().to_dense(),
            s_ref.blocks.to_csc().to_dense(),
            atol=1e-9,
        )


class TestRankShare:
    def test_rank_job_runs_on_its_share_and_names_a_missing_operand(self):
        """A rank holds ``BlockMatrix.restricted`` of its slots — real
        slots, so ``f.num_blocks`` write locks — and a task whose operand
        has not arrived fails by name instead of reading stale data."""
        from repro.core.numeric import NumericOptions
        from repro.core.placement import CyclicPlacement
        from repro.kernels import Workspace
        from repro.runtime.distributed import _owner_of_slot, _Rank

        bm, dag = _prepared()
        place = CyclicPlacement(2)
        owner = _owner_of_slot(bm, place)
        rank = _Rank(1, bm, owner, {0: (dag, place.assign(dag))})
        job = rank.job(("factor", False, 0, None, NumericOptions(), None), None)
        assert job.n_slots == bm.num_blocks
        assert job.f is not bm and job.f.owned == set(np.flatnonzero(owner == 1))
        assert len(rank.values()) == len(job.f.owned)  # what a gather ships
        task = next(
            t for t in dag.tasks
            if t.k != t.bj and place.owner(t.bi, t.bj) == 1
            and place.owner(t.k, t.k) == 0
        )
        with pytest.raises(RuntimeError, match=rf"\({task.k},{task.k}\).*nor received"):
            job.execute(task.tid, Workspace())


class TestFailureInjection:
    def test_worker_error_surfaces(self):
        """A kernel failure inside a rank must surface as RuntimeError on
        the master, not hang the pool."""
        from repro.core import NumericOptions

        bm, dag = _prepared(seed=9)
        # poison the first diagonal block: zero pivots + no GESP rescue
        bm.block(0, 0).data[...] = 0.0
        with pytest.raises(RuntimeError, match="rank"):
            factorize_distributed(
                bm, dag, 2, options=NumericOptions(pivot_floor=0.0)
            )

    def test_all_ranks_report_errors_independently(self):
        from repro.core import NumericOptions

        bm, dag = _prepared(seed=10)
        bm.block(0, 0).data[...] = 0.0
        try:
            factorize_distributed(
                bm, dag, 4, options=NumericOptions(pivot_floor=0.0)
            )
        except RuntimeError as exc:
            assert "SingularBlockError" in str(exc) or "rank" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected a RuntimeError")


class TestMessageAccounting:
    def test_messages_match_dag_prediction(self):
        """The executor's actual message count equals the DAG-predicted
        count: one message per (task, consumer-process) pair with the
        consumer distinct from the producer."""
        from repro.core.mapping import ProcessGrid

        bm, dag = _prepared(seed=11)
        nprocs = 3
        grid = ProcessGrid.square(nprocs)
        owner = {}
        for bj in range(bm.nb):
            rows, _ = bm.blocks_in_column(bj)
            for bi in rows:
                owner[(int(bi), bj)] = grid.owner(int(bi), bj)
        expected = 0
        for t in dag.tasks:
            me = owner[(t.bi, t.bj)]
            dests = {
                owner[(dag.tasks[s].bi, dag.tasks[s].bj)]
                for s in t.successors
            } - {me}
            expected += len(dests)
        stats = factorize_distributed(bm, dag, nprocs)
        assert stats.messages_sent == expected

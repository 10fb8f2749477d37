"""Transport plumbing and fault-injection tests for the distributed
engine, run over the deterministic in-process loopback transport."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.runtime import (
    EventRecorder,
    FaultPlan,
    LoopbackTransport,
    factorize_distributed,
    recorder_to_chrome_trace,
    write_recorder_trace,
)
from repro.sparse import random_sparse
from repro.symbolic import symbolic_symmetric


def _prepared(n=80, bs=12, seed=0):
    a = random_sparse(n, 0.06, seed=seed)
    f = symbolic_symmetric(a).filled
    bm = block_partition(f, bs)
    return bm, build_dag(bm)


@pytest.fixture(scope="module")
def reference():
    bm, dag = _prepared()
    factorize(bm, dag)
    return bm.to_csc().to_dense()


class TestLoopback:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_matches_sequential(self, nprocs, reference):
        bm, dag = _prepared()
        stats = factorize_distributed(
            bm, dag, nprocs, transport=LoopbackTransport()
        )
        np.testing.assert_allclose(
            bm.to_csc().to_dense(), reference, atol=1e-10
        )
        assert sum(stats.tasks_per_proc) == len(dag.tasks)

    def test_message_accounting_matches_multiprocessing(self):
        bm_a, dag_a = _prepared(seed=4)
        loop = factorize_distributed(
            bm_a, dag_a, 3, transport=LoopbackTransport()
        )
        bm_b, dag_b = _prepared(seed=4)
        mp = factorize_distributed(bm_b, dag_b, 3)
        assert loop.messages_sent == mp.messages_sent
        assert loop.block_bytes_sent == mp.block_bytes_sent

    def test_bytes_are_actual_payload_sizes(self):
        """Byte accounting equals the summed nbytes of the indptr,
        indices and data arrays of every sent block — not an nnz
        guesstimate."""
        bm, dag = _prepared(seed=6)
        stats = factorize_distributed(
            bm, dag, 2, transport=LoopbackTransport()
        )
        assert stats.messages_sent > 0
        # every payload carries at least an indptr (ncols+1 int64s), so
        # the per-message floor is well above zero even for empty blocks
        assert stats.block_bytes_sent >= stats.messages_sent * 8


class TestFaultInjection:
    def test_dead_rank_times_out_instead_of_hanging(self):
        bm, dag = _prepared(seed=1)
        transport = LoopbackTransport(
            faults=FaultPlan(dead_ranks=frozenset({1}))
        )
        with pytest.raises(RuntimeError, match="timed out"):
            factorize_distributed(bm, dag, 3, transport=transport, timeout=1.0)

    def test_rank_raising_mid_run_tears_down_pool(self):
        bm, dag = _prepared(seed=2)
        transport = LoopbackTransport(faults=FaultPlan(fail_after={0: 3}))
        with pytest.raises(RuntimeError, match="rank 0.*injected fault"):
            factorize_distributed(bm, dag, 3, transport=transport, timeout=30.0)

    def test_dropped_messages_starve_consumers(self):
        bm, dag = _prepared(seed=3)
        transport = LoopbackTransport(
            faults=FaultPlan(drop_from=frozenset({0}))
        )
        with pytest.raises(RuntimeError, match="timed out"):
            factorize_distributed(bm, dag, 4, transport=transport, timeout=1.0)

    def test_delayed_messages_still_correct(self, reference):
        bm, dag = _prepared()
        transport = LoopbackTransport(
            faults=FaultPlan(delay_seconds=0.005)
        )
        factorize_distributed(bm, dag, 3, transport=transport)
        np.testing.assert_allclose(
            bm.to_csc().to_dense(), reference, atol=1e-10
        )

    def test_reordered_messages_still_correct(self, reference):
        """Staggered delays make later messages overtake earlier ones;
        the counter protocol never depends on arrival order."""
        bm, dag = _prepared()
        transport = LoopbackTransport(
            faults=FaultPlan(delay_seconds=0.01, stagger=True)
        )
        factorize_distributed(bm, dag, 4, transport=transport)
        np.testing.assert_allclose(
            bm.to_csc().to_dense(), reference, atol=1e-10
        )


class TestRealRunTraces:
    def test_distributed_trace_has_lanes_and_flows(self, tmp_path):
        bm, dag = _prepared(seed=7)
        rec = EventRecorder()
        stats = factorize_distributed(
            bm, dag, 3, transport=LoopbackTransport(), recorder=rec
        )
        path = tmp_path / "dist.json"
        write_recorder_trace(path, rec)
        data = json.loads(path.read_text())
        events = data["traceEvents"]
        tasks = [e for e in events if e["ph"] == "X"]
        assert len(tasks) == len(dag.tasks)
        lanes = {e["tid"] for e in tasks}
        assert len(lanes) >= 2  # per-rank lanes
        sends = [e for e in events if e["ph"] == "s"]
        recvs = [e for e in events if e["ph"] == "f"]
        assert len(sends) == stats.messages_sent
        assert len(sends) == len(recvs)
        # matched pairs share ids, receive never precedes its send
        by_id = {e["id"]: e for e in sends}
        for r in recvs:
            assert r["ts"] >= by_id[r["id"]]["ts"]

    def test_threaded_trace_has_worker_lanes(self, tmp_path):
        bm, dag = _prepared(seed=8)
        rec = EventRecorder()
        factorize(bm, dag, n_lanes=3, recorder=rec)
        events = recorder_to_chrome_trace(rec)
        tasks = [e for e in events if e["ph"] == "X"]
        assert len(tasks) == len(dag.tasks)
        assert {e["tid"] for e in tasks} <= {0, 1, 2}
        # ready-queue depth is exported as a counter track
        assert any(e["ph"] == "C" for e in events)

    def test_trace_roundtrips_as_json(self, tmp_path):
        bm, dag = _prepared(seed=9)
        rec = EventRecorder()
        factorize(bm, dag, recorder=rec)
        path = tmp_path / "seq.json"
        write_recorder_trace(path, rec)
        data = json.loads(path.read_text())
        assert all("ts" in e and "ph" in e for e in data["traceEvents"])

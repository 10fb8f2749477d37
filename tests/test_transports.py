"""Transport plumbing and fault-injection tests for the distributed
engine, run over the deterministic in-process loopback transport."""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.core import block_partition, build_dag, factorize
from repro.runtime import (
    EventRecorder,
    FaultPlan,
    LoopbackTransport,
    MultiprocessingTransport,
    factorize_distributed,
    recorder_to_chrome_trace,
    write_recorder_trace,
)
from repro.runtime.transports import TransportTimeout
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
        np.testing.assert_array_equal(
            bm.to_csc().to_dense(), reference
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
        np.testing.assert_array_equal(
            bm.to_csc().to_dense(), reference
        )

    def test_reordered_messages_still_correct(self, reference):
        """Staggered delays make later messages overtake earlier ones;
        the counter protocol never depends on arrival order."""
        bm, dag = _prepared()
        transport = LoopbackTransport(
            faults=FaultPlan(delay_seconds=0.01, stagger=True)
        )
        factorize_distributed(bm, dag, 4, transport=transport)
        np.testing.assert_array_equal(
            bm.to_csc().to_dense(), reference
        )


def _post_unless_rank_1(rank, endpoint):
    if rank != 1:
        endpoint.post_result(("ok", rank))


def _post_then_exit(rank, endpoint):
    endpoint.post_result(("ok", rank))


def _send_unpicklable(rank, endpoint):
    """Rank 0 sends rank 1 a payload that cannot be pickled; rank 1 waits
    for it, as a consumer of that message would."""
    if rank == 1:
        endpoint.recv()
        return
    try:
        endpoint.send(1, ("block", threading.Lock()))
    except Exception as exc:
        endpoint.post_result(("error", rank, repr(exc)))


class TestMultiprocessingResults:
    """A rank process that exits without posting fails the run as soon as
    it is seen dead, not when the (here 120 s) timeout runs out."""

    def test_rank_exiting_without_a_result_fails_promptly(self):
        transport = MultiprocessingTransport()
        transport.start(2, _post_unless_rank_1, lambda rank: ())
        t0 = time.perf_counter()
        got = []
        with pytest.raises(TransportTimeout) as exc:
            for _ in range(2):
                got.append(transport.get_result(120.0))
        assert time.perf_counter() - t0 < 10.0
        assert got == [("ok", 0)]
        assert 1 in exc.value.dead_ranks and exc.value.exit_codes[1] == 0
        transport.join(timeout=5)

    def test_ranks_that_posted_and_exited_are_not_misreported(self):
        transport = MultiprocessingTransport()
        transport.start(2, _post_then_exit, lambda rank: ())
        time.sleep(1.0)  # both ranks post and exit before the first read
        got = {transport.get_result(120.0) for _ in range(2)}
        assert got == {("ok", 0), ("ok", 1)}
        transport.join(timeout=5)

    def test_run_names_the_dead_ranks_and_exit_codes(self, monkeypatch):
        """Ranks that exit while building their job (the forked ranks
        inherit the patch) fail the command at once, naming their exit
        codes."""
        from repro.runtime.distributed import _RankFactorJob

        def exit_without_result(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(_RankFactorJob, "__init__", exit_without_result)
        bm, dag = _prepared(seed=5)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"timed out.*exit codes \{\d: 3"):
            factorize_distributed(bm, dag, 2, timeout=120.0)
        assert time.perf_counter() - t0 < 10.0

    def test_unpicklable_message_fails_in_the_sending_rank(self):
        """The payload is pickled by the sender, so the failure is the
        sender's first result — within one poll slice, not a starved
        receiver waiting out the timeout."""
        transport = MultiprocessingTransport()
        transport.start(2, _send_unpicklable, lambda rank: ())
        t0 = time.perf_counter()
        kind, rank, error = transport.get_result(120.0)
        assert time.perf_counter() - t0 < 10.0
        assert (kind, rank) == ("error", 0) and "pickle" in error.lower()
        transport.terminate()
        transport.join(timeout=5)

    def test_unpicklable_block_payload_names_its_rank(self, monkeypatch):
        """The same through the numeric engine: a block message that does
        not pickle fails the run at once, naming the rank that sent it.
        The ranks are forked, so they inherit the patched job."""
        from repro.runtime.distributed import _RankFactorJob

        outgoing = _RankFactorJob.outgoing

        def poisoned(self, tid):
            published = outgoing(self, tid)
            if published is None:
                return None
            dests, msg, nbytes = published
            return dests, (msg, threading.Lock()), nbytes

        monkeypatch.setattr(_RankFactorJob, "outgoing", poisoned)
        bm, dag = _prepared(seed=4)
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match=r"^rank \d: .*pickle"):
            factorize_distributed(bm, dag, 2, timeout=120.0)
        assert time.perf_counter() - t0 < 10.0


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

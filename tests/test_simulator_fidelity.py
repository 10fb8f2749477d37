"""The simulator replays what the engines run.

Both price and execute the same DAGs in the same ready order and leave
the same record: on one process the simulated start order is the
sequential engine's task order (labels included), on several ranks the
simulated message count is the distributed engine's, and a recorder
holding several runs exports each message as one arrow inside its run.
The supernodal baseline is simulated in the same ready order: on one
process its start order is a drain of the scheduler core over its DAG.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import PanguLU
from repro.baseline import SuperLUBaseline, simulate_superlu
from repro.core.numeric import factorize
from repro.core.placement import CyclicPlacement
from repro.core.tsolve import tsolve_sequential
from repro.core.tsolve_dag import build_tsolve_dag
from repro.runtime import (
    A100_PLATFORM,
    EventRecorder,
    LoopbackTransport,
    factorize_distributed,
    recorder_to_chrome_trace,
    simulate_pangulu,
    simulate_tsolve,
    tsolve_distributed,
)
from repro.runtime.scheduler import SchedulerCore
from repro.sparse import generate


def _prepared(name: str, scale: float) -> PanguLU:
    solver = PanguLU(generate(name, scale=scale, seed=0))
    solver.preprocess()
    return solver


@pytest.fixture(scope="module")
def audikw():
    return _prepared("audikw_1", 0.05)


@pytest.fixture(scope="module")
def audikw_factored(audikw):
    f = copy.deepcopy(audikw.blocks)
    factorize(f, audikw.dag)
    return f


def _spans(rec: EventRecorder) -> list[tuple[int, str, str]]:
    return [(e.tid, e.name, e.cat) for e in rec.task_events]


# ecology1 reordered a tie (GETRF(k=11) ahead of GESSM(k=0)) while its
# own releases were still queued; audikw_1 moved on every solve DAG
@pytest.mark.parametrize(
    "name,scale", [("ecology1", 0.2), ("audikw_1", 0.05), ("G3_circuit", 0.2)]
)
def test_one_process_starts_in_the_sequential_engines_order(name, scale):
    solver = _prepared(name, scale)
    f, dag = copy.deepcopy(solver.blocks), solver.dag
    sim, run = EventRecorder(), EventRecorder()
    simulate_pangulu(f, dag, A100_PLATFORM, 1, recorder=sim)
    factorize(f, dag, recorder=run)
    assert _spans(sim) == _spans(run)

    sim, run = EventRecorder(), EventRecorder()
    simulate_tsolve(f, A100_PLATFORM, 1, recorder=sim)
    tsolve_sequential(f, np.ones(f.n), recorder=run)
    assert _spans(sim) == _spans(run)


@pytest.mark.parametrize("name", ["ecology1", "cage12", "ASIC_680k", "audikw_1"])
def test_baseline_starts_in_the_scheduler_cores_order(name):
    bl = SuperLUBaseline(generate(name, scale=0.1, seed=0))
    bl.preprocess()
    res, sn = simulate_superlu(
        bl.panels, bl.partition, A100_PLATFORM, 1, schedule="syncfree"
    )
    core = SchedulerCore.from_dag(sn.dag)
    drained = []
    while (tid := core.pop()) is not None:
        drained.append(tid)
        core.complete(tid)
    assert core.done()
    assert np.argsort(res.start_times, kind="stable").tolist() == drained


@pytest.mark.parametrize("nprocs", [2, 4])
def test_simulated_messages_are_the_distributed_engines(
    audikw, audikw_factored, nprocs
):
    f, dag = audikw.blocks, audikw.dag
    sim = simulate_pangulu(f, dag, A100_PLATFORM, nprocs, load_balance=False)
    run = factorize_distributed(
        copy.deepcopy(f), dag, nprocs, transport=LoopbackTransport()
    )
    assert sim.result.messages == run.messages_sent

    g = audikw_factored
    tdag = build_tsolve_dag(g, CyclicPlacement(nprocs).owner)
    _, run = tsolve_distributed(
        g, tdag, np.ones(g.n), nprocs, transport=LoopbackTransport()
    )
    assert simulate_tsolve(g, A100_PLATFORM, nprocs).messages == run.messages_sent


def test_simulated_messages_pair_within_the_run(audikw):
    rec = EventRecorder()
    res = simulate_pangulu(
        audikw.blocks, audikw.dag, A100_PLATFORM, 4, recorder=rec
    )
    sends = [e for e in rec.message_events if e.kind == "send"]
    assert len(sends) == res.result.messages
    flows = [e for e in recorder_to_chrome_trace(rec) if e["ph"] in "sf"]
    assert len(flows) == 2 * res.result.messages


def test_flows_of_a_multi_run_recorder_stay_in_their_run(audikw):
    """A distributed factorisation followed by two solves in one
    recorder: task ids repeat across runs, and every arrow must still
    join a send to the receive of the same run."""
    f = copy.deepcopy(audikw.blocks)
    runs = [EventRecorder() for _ in range(3)]
    sent = factorize_distributed(
        f, audikw.dag, 2, transport=LoopbackTransport(), recorder=runs[0]
    ).messages_sent
    tdag = build_tsolve_dag(f, CyclicPlacement(2).owner)
    for rec, b in zip(runs[1:], (np.ones(f.n), np.arange(f.n, dtype=float))):
        sent += tsolve_distributed(
            f, tdag, b, 2, transport=LoopbackTransport(), recorder=rec
        )[1].messages_sent
    merged = EventRecorder()
    for rec in runs:
        merged.merge(rec)
    base = min(
        [e.t0 for e in merged.task_events]
        + [e.t for e in merged.message_events]
        + [e.t for e in merged.depth_events]
    )
    windows = [
        (min(e.t for e in rec.message_events) - base,
         max(e.t for e in rec.message_events) - base)
        for rec in runs
    ]

    def run_of(ts_us: float) -> int:
        t = ts_us / 1e6
        return next(
            i for i, (lo, hi) in enumerate(windows)
            if lo - 1e-9 <= t <= hi + 1e-9
        )

    events = recorder_to_chrome_trace(merged)
    send = {e["id"]: e for e in events if e["ph"] == "s"}
    recv = {e["id"]: e for e in events if e["ph"] == "f"}
    assert len(send) == len(recv) == sent
    for fid, s in send.items():
        assert run_of(s["ts"]) == run_of(recv[fid]["ts"])
        assert recv[fid]["ts"] >= s["ts"]

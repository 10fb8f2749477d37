"""Discrete-event simulator for distributed task-DAG execution.

This is the substrate that stands in for the paper's 128-GPU clusters:
it replays a task DAG (PanguLU's block kernels or the baseline's
supernodal panels) over ``P`` simulated processes with

* per-task durations from the platform cost models, divided by the
  executing rank's ``Platform.rank_speed`` factor (heterogeneous
  machines run slow ranks proportionally longer; the default
  homogeneous speeds leave durations untouched),
* point-to-point message delays from the network model: a task's output
  travels once to every other process owning a consumer (one message per
  consuming rank, as the distributed engine sends it), and each
  consuming edge is released on that message's arrival,
* one of two scheduling policies:

  - ``"syncfree"`` — PanguLU's strategy (Section 4.4): tasks become
    runnable the instant their dependency counter reaches zero; each
    process always picks the highest-priority ready task, after the
    completion it just finished has released its same-process
    successors — on one process the start order is the sequential
    engine's.
  - ``"levelset"`` — the SuperLU_DIST-style policy: tasks carry a level,
    and no process may start a level-``ℓ+1`` task before *every*
    level-``ℓ`` task has completed (a global barrier per level).

The simulator reports the makespan and a per-process time breakdown:
``busy`` (computing) and ``sync`` (idle while work remained — the
quantity Figs. 5 and 13 compare).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .machine import Platform
from .scheduler import EventRecorder

__all__ = ["SimSpec", "SimResult", "simulate"]


@dataclass
class SimSpec:
    """Input of one simulation run.

    All arrays are indexed by task id; ``successors`` is the adjacency of
    the DAG and ``n_deps`` its in-degrees.  ``priority`` orders ready
    tasks (smaller = more urgent; ties by task id): any comparable keys,
    the DAG's own ready-heap ``entries`` for the PanguLU DAGs, so the
    simulator pops what :class:`~repro.runtime.scheduler.SchedulerCore`
    pops.  ``levels`` is required for the ``"levelset"`` schedule and
    ignored otherwise.
    """

    durations: np.ndarray
    owner: np.ndarray
    out_bytes: np.ndarray
    n_deps: np.ndarray
    successors: list[list[int]]
    priority: Sequence
    nprocs: int
    levels: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.durations)
        for name in ("owner", "out_bytes", "n_deps", "priority"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} length mismatch")
        if len(self.successors) != n:
            raise ValueError("successors length mismatch")
        if n and int(self.owner.max()) >= self.nprocs:
            raise ValueError("owner id exceeds process count")


@dataclass
class SimResult:
    """Outcome of one simulation run.

    ``sync_seconds`` counts, per process, the idle gaps before and between
    its task executions (waiting on dependencies, messages or barriers);
    idle time after a process has finished its last task is not counted.
    """

    makespan: float
    busy_seconds: np.ndarray
    sync_seconds: np.ndarray
    comm_bytes: float
    messages: int
    start_times: np.ndarray
    end_times: np.ndarray

    @property
    def total_busy(self) -> float:
        return float(self.busy_seconds.sum())

    @property
    def mean_sync(self) -> float:
        """Mean per-process sync time — the Fig. 13 metric."""
        return float(self.sync_seconds.mean()) if self.sync_seconds.size else 0.0

    def sync_ratio(self) -> float:
        """Mean sync time over makespan — the Fig. 5 metric."""
        return self.mean_sync / self.makespan if self.makespan > 0 else 0.0

    def gflops(self, useful_flops: float) -> float:
        """Throughput in GFLOP/s given a useful-work numerator."""
        return useful_flops / self.makespan / 1e9 if self.makespan > 0 else 0.0


_DONE, _DEC = 0, 1


def simulate(
    spec: SimSpec,
    platform: Platform,
    *,
    schedule: str = "syncfree",
    recorder: EventRecorder | None = None,
    label: Callable[[int], tuple[str, str]] | None = None,
) -> SimResult:
    """Run the event-driven simulation; see module docstring.

    A ``recorder`` receives the run as the engines record theirs, at
    virtual time: one task span per task on its owner's lane, named by
    ``label(tid) -> (name, category)`` (the DAG's ``trace_label``;
    ``task<N>`` without one), and a send/recv :class:`MessageEvent`
    pair per message.
    """
    if schedule not in ("syncfree", "levelset"):
        raise ValueError(f"unknown schedule {schedule!r}")
    n = len(spec.durations)
    nprocs = spec.nprocs
    owner = spec.owner.tolist()
    counters = spec.n_deps.astype(np.int64).copy()
    levels = spec.levels
    if schedule == "levelset":
        if levels is None:
            raise ValueError("levelset schedule requires levels")
        nlev = int(levels.max()) + 1 if n else 0
        level_remaining = np.bincount(levels, minlength=nlev).astype(np.int64)
        current_level = 0
        while current_level < nlev and level_remaining[current_level] == 0:
            current_level += 1  # skip structurally empty leading levels
        deferred: dict[int, list[int]] = {}

    # per-rank speed scaling: slow ranks hold tasks proportionally longer
    speeds = np.asarray(
        [platform.rank_speed(p) for p in range(nprocs)], dtype=np.float64
    )

    ready: list[list[tuple]] = [[] for _ in range(nprocs)]
    busy = np.zeros(nprocs, dtype=bool)
    prev_end = np.zeros(nprocs)
    busy_seconds = np.zeros(nprocs)
    sync_seconds = np.zeros(nprocs)
    start_times = np.full(n, np.nan)
    end_times = np.full(n, np.nan)
    comm_bytes = 0.0
    messages = 0
    executed = 0

    events: list[tuple[float, int, int, int]] = []  # (time, seq, kind, task)
    seq = 0

    def push_event(t: float, kind: int, tid: int) -> None:
        nonlocal seq
        heapq.heappush(events, (t, seq, kind, tid))
        seq += 1

    def release(tid: int) -> None:
        """Counter at zero: onto the owner's ready heap (a levelset task
        above the open level waits for its barrier)."""
        if schedule == "levelset" and int(levels[tid]) > current_level:
            deferred.setdefault(int(levels[tid]), []).append(tid)
        else:
            heapq.heappush(ready[owner[tid]], (spec.priority[tid], tid))

    def try_start(p: int, now: float) -> None:
        if busy[p] or not ready[p]:
            return
        _, tid = heapq.heappop(ready[p])
        busy[p] = True
        if now > prev_end[p]:
            sync_seconds[p] += now - prev_end[p]
        start_times[tid] = now
        dur = float(spec.durations[tid]) / speeds[p]
        push_event(now + dur, _DONE, tid)
        if recorder is not None:
            name, cat = label(tid) if label else (f"task{tid}", "task")
            recorder.task(p, name, cat, now, now + dur, tid)

    for tid in range(n):
        if counters[tid] == 0:
            release(tid)
    for p in range(nprocs):
        try_start(p, 0.0)

    makespan = 0.0
    while events:
        t, _, kind, tid = heapq.heappop(events)
        if kind == _DONE:
            executed += 1
            p = owner[tid]
            busy[p] = False
            busy_seconds[p] += float(spec.durations[tid]) / speeds[p]
            prev_end[p] = t
            end_times[tid] = t
            makespan = max(makespan, t)
            nbytes = float(spec.out_bytes[tid])
            sent: set[int] = set()
            for s in spec.successors[tid]:
                dst = owner[s]
                if dst == p:
                    # a local release lands before p picks its next task
                    counters[s] -= 1
                    if counters[s] == 0:
                        release(s)
                    continue
                # one message per consuming rank, delivered per edge
                delay = platform.message_time(p, dst, nbytes)
                push_event(t + delay, _DEC, s)
                if dst not in sent:
                    sent.add(dst)
                    if recorder is not None:
                        recorder.send(p, dst, tid, int(nbytes), t)
                        recorder.recv(dst, p, tid, int(nbytes), t + delay)
            messages += len(sent)
            comm_bytes += nbytes * len(sent)
            opened: list[int] = []
            if schedule == "levelset":
                lv = int(levels[tid])
                level_remaining[lv] -= 1
                while (
                    current_level < len(level_remaining)
                    and level_remaining[current_level] == 0
                ):
                    current_level += 1
                    opened += deferred.pop(current_level, [])
                for d in opened:
                    release(d)
            try_start(p, t)
            for d in opened:
                try_start(owner[d], t)
        else:  # _DEC
            counters[tid] -= 1
            if counters[tid] == 0:
                release(tid)
                try_start(owner[tid], t)

    if executed != n:
        raise RuntimeError(
            f"simulation deadlock: {executed}/{n} tasks completed"
        )
    return SimResult(
        makespan=makespan,
        busy_seconds=busy_seconds,
        sync_seconds=sync_seconds,
        comm_bytes=comm_bytes,
        messages=messages,
        start_times=start_times,
        end_times=end_times,
    )

"""Shared scheduler core: the Section 4.4 discipline, implemented once.

PanguLU's synchronisation-free protocol is a small state machine — a
dependency counter per task, a priority heap of ready tasks, counter
decrements on completion, a deadlock check at the end — that every real
engine must run.  :class:`SchedulerCore` is the single copy, and it has
a single driver: :func:`repro.runtime.lanes.run_lanes` is the only code
in the package that calls :meth:`SchedulerCore.pop` /
:meth:`SchedulerCore.complete` (a lint rule keeps it that way), and the
engines are its configurations:

* **one lane** (the sequential engine,
  :func:`repro.core.numeric.factorize`) drains one core inline;
* **several lanes** (the threaded engine: the same functions with
  ``n_lanes > 1``) share one core, the driver guarding
  ``pop``/``complete`` with the pool's condition (the core itself is
  lock-free — synchronisation policy stays in the driver, protocol
  lives here);
* each **distributed** rank (:mod:`repro.runtime.distributed`) gets a
  core restricted to its own tasks (``owned=...``); completions of
  remote predecessors arrive as messages and are fed to the same
  :meth:`SchedulerCore.complete`.

The triangular solves (phase 5) run the same configurations over the
same core — :meth:`SchedulerCore.from_dag` builds one from an
executable :class:`~repro.core.tsolve_dag.TSolveDAG` as it does from a
factor DAG, and the solve tasks flow through ``pop``/``complete``
exactly as factor tasks do.

The core also hosts the structured :class:`EventRecorder` — task
start/end, message send/recv, ready-queue depth — which
:mod:`repro.runtime.trace` serialises into Chrome/Perfetto traces of
*real* runs (not only simulated schedules).

This module deliberately imports nothing from :mod:`repro` so the
``core`` layer can depend on it without cycles.
"""

from __future__ import annotations

import heapq
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ready_entry",
    "CounterUnderflowError",
    "SchedulerCore",
    "ENGINE_SHAPES",
    "RunReport",
    "EventRecorder",
    "TaskEvent",
    "MessageEvent",
    "DepthEvent",
]


class CounterUnderflowError(RuntimeError):
    """The counter protocol was broken: a task completed twice, or a
    dependency counter went below zero.

    Counters count *unfinished predecessors*, so every task must complete
    exactly once.  :meth:`SchedulerCore.complete` refuses a second
    completion (a duplicate message or a double execution) before any
    counter moves, naming the task and the core's lane (a rank's id on
    the rank engines); a counter that still goes negative started below
    its task's in-degree — a corrupted DAG — and the error names the
    over-decremented successors."""


def ready_entry(task, tid: int) -> tuple[int, int, int]:
    """Ready-heap priority of a task: earliest elimination step first,
    then kernel class, then id — the Section 4.4 "most critical task"
    ordering shared by every engine."""
    return (task.k, int(task.ttype), tid)


# ----------------------------------------------------------------------
# structured event recording
# ----------------------------------------------------------------------

@dataclass
class TaskEvent:
    """One executed task: which lane ran it, when, and what it was."""

    __transport_message__ = True

    worker: int
    name: str
    cat: str
    t0: float
    t1: float
    tid: int = -1


@dataclass
class MessageEvent:
    """One message endpoint crossing: a ``"send"`` or a ``"recv"``.

    ``rank`` is the recording side, ``peer`` the other side, ``tid`` the
    producing task (the flow-event correlation key).
    """

    __transport_message__ = True

    kind: str
    rank: int
    peer: int
    tid: int
    nbytes: int
    t: float


@dataclass
class DepthEvent:
    """Ready-queue depth sample (one heap per ``lane``)."""

    __transport_message__ = True

    lane: int
    depth: int
    t: float


class EventRecorder:
    """Accumulates scheduler events from a real run.

    Timestamps are raw ``time.perf_counter()`` readings; they are
    comparable across worker threads and across ``fork``-spawned ranks
    (both share the system monotonic clock), and
    :func:`repro.runtime.trace.recorder_to_chrome_trace` rebases them to
    the earliest event.  Recorders are picklable so distributed ranks can
    ship theirs back to the master, which :meth:`merge`\\ s them.
    """

    __transport_message__ = True

    def __init__(self) -> None:
        self.task_events: list[TaskEvent] = []
        self.message_events: list[MessageEvent] = []
        self.depth_events: list[DepthEvent] = []

    @staticmethod
    def now() -> float:
        return time.perf_counter()

    def task(
        self, worker: int, name: str, cat: str, t0: float, t1: float, tid: int = -1
    ) -> None:
        self.task_events.append(TaskEvent(worker, name, cat, t0, t1, tid))

    def send(self, rank: int, dst: int, tid: int, nbytes: int) -> None:
        self.message_events.append(
            MessageEvent("send", rank, dst, tid, nbytes, self.now())
        )

    def recv(self, rank: int, src: int, tid: int, nbytes: int = 0) -> None:
        self.message_events.append(
            MessageEvent("recv", rank, src, tid, nbytes, self.now())
        )

    def depth(self, lane: int, depth: int) -> None:
        self.depth_events.append(DepthEvent(lane, depth, self.now()))

    def merge(self, other: EventRecorder) -> None:
        """Fold another recorder (e.g. a rank's) into this one."""
        self.task_events.extend(other.task_events)
        self.message_events.extend(other.message_events)
        self.depth_events.extend(other.depth_events)

    def __len__(self) -> int:
        return (
            len(self.task_events)
            + len(self.message_events)
            + len(self.depth_events)
        )

    def __bool__(self) -> bool:
        # an *empty* recorder is still an armed recorder — engines test
        # truthiness on the hot path, which must not flip after the first
        # event lands
        return True


# ----------------------------------------------------------------------
# the one run report
# ----------------------------------------------------------------------

#: engine name → ``(uses_ranks, uses_threads)``: an engine is a pool
#: *shape* — ranks over a transport × threads per rank — not a code path
ENGINE_SHAPES = {
    "sequential": (False, False),
    "threaded": (False, True),
    "distributed": (True, False),
    "hybrid": (True, True),
}

#: the additive counters of a :class:`RunReport`
_COUNTERS = (
    "tasks_executed", "pivots_replaced", "planned_tasks", "messages_sent",
    "bytes_sent", "flops_total", "plan_bytes", "blocks_compressed",
    "lr_value_bytes",
)


@dataclass
class RunReport:
    """What one run of the lane driver did — the same type on every
    engine and in both phases (factorisation and triangular solves).

    A lane tallies into one of these outside any lock,
    :func:`repro.runtime.lanes.run_lanes` merges the lanes and returns
    it, a distributed rank ships it home, the master merges the ranks.
    The counters and ``kernel_choices`` / ``seconds_by_type`` add up
    under :meth:`merge`; the pool shape (``n_workers`` threads per rank,
    ``n_procs`` ranks, ``tasks_per_proc`` — filled by the rank engines
    only), ``nrhs`` and the wall-clock ``seconds`` (of the drain; launch
    to join on the rank engines) belong to whoever launched the run.
    ``seconds_by_type`` is filled whenever tasks are timed;
    ``bytes_sent`` counts real wire bytes (factor panels in phase 4, RHS
    segments in phase 5).  ``residual_history`` is filled by
    :meth:`Factorization.solve <repro.core.solver.Factorization.solve>`
    on the report of its last sweep: one ``(step, relative residual)``
    pair per residual its refinement took — ``"apply"`` after the first
    factor application, ``"sweep"`` after each refinement sweep, and the
    escalation steps marked ``"fgmres"`` (after the GMRES-IR correction)
    and ``"decompress"`` (first application of the exact refactorisation).
    """

    __transport_message__ = True

    kernel_choices: dict[int, str] = field(default_factory=dict)
    tasks_executed: int = 0
    pivots_replaced: int = 0
    planned_tasks: int = 0
    seconds_by_type: dict[str, float] = field(default_factory=dict)
    messages_sent: int = 0
    bytes_sent: int = 0
    max_ready_depth: int = 0
    flops_total: int = 0
    plan_bytes: int = 0
    panel_cache_peak_bytes: int = 0
    blocks_compressed: int = 0
    lr_value_bytes: int = 0
    n_workers: int = 1
    n_procs: int = 1
    tasks_per_proc: list[int] = field(default_factory=list)
    nrhs: int = 1
    seconds: float = 0.0
    residual_history: list[tuple[str, float]] = field(default_factory=list)

    def count(
        self, tid: int, label: str | None = None, replaced: int = 0,
        planned: bool = False,
    ) -> None:
        """Tally one executed task (solve tasks carry no kernel label)."""
        if label is not None:
            self.kernel_choices[tid] = label
        self.tasks_executed += 1
        self.pivots_replaced += replaced
        self.planned_tasks += int(planned)

    def merge(self, other: RunReport) -> None:
        """Fold another report (a lane's, a rank's) into this one."""
        self.kernel_choices.update(other.kernel_choices)
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, seconds in other.seconds_by_type.items():
            self.seconds_by_type[key] = (
                self.seconds_by_type.get(key, 0.0) + seconds
            )
        self.max_ready_depth = max(self.max_ready_depth, other.max_ready_depth)
        self.panel_cache_peak_bytes = max(
            self.panel_cache_peak_bytes, other.panel_cache_peak_bytes
        )
        self.residual_history += other.residual_history

    @property
    def engine(self) -> str:
        """The engine name of the pool shape this run had: ranks iff
        ``tasks_per_proc`` is filled, threads iff ``n_workers > 1``."""
        shape = (bool(self.tasks_per_proc), self.n_workers > 1)
        return next(n for n, s in ENGINE_SHAPES.items() if s == shape)

    #: read-only views of ``bytes_sent`` under its per-phase names: factor
    #: panels travel in phase 4, RHS segments in phase 5
    block_bytes_sent = seg_bytes_sent = property(lambda self: self.bytes_sent)

    def version_histogram(self) -> dict[str, int]:
        """Count of executed tasks per ``TYPE/VERSION`` label."""
        return dict(Counter(self.kernel_choices.values()))


# ----------------------------------------------------------------------
# the counter / ready-heap / completion core
# ----------------------------------------------------------------------

class SchedulerCore:
    """Dependency counters + priority ready-heap of one engine run.

    Parameters
    ----------
    entries:
        Precomputed heap entry per task id (see :func:`ready_entry`) —
        computed once so pushes are O(log n) with no attribute chasing.
    successors:
        Global adjacency, one list of task ids per task id.
    n_deps:
        Global in-degrees (consumed as a copy).
    owned:
        Task ids this instance schedules (a distributed rank's share);
        ``None`` means all tasks.  Completions of non-owned tasks may
        still be fed to :meth:`complete` — they decrement owned
        successors without counting toward ``remaining`` (the Fig. 10
        step 3b receive path).
    recorder:
        Optional :class:`EventRecorder`; the core samples ready-queue
        depth into it, engines add task/message events.
    lane:
        Recorder lane for the depth samples (a rank id; 0 for the
        in-process engines, whose heap is global).

    A task completes by a handful of decrements, so the state is plain
    Python: ``successors`` lists of ints (on a rank: only the owned
    ones, filtered here once) and a list of int counters that
    :attr:`counters` shows as an array.

    The core performs **no locking**: one lane needs none, the lane
    driver guards a shared core's calls with the pool's condition, each
    distributed rank has a private core.
    """

    __slots__ = (
        "entries", "successors", "_counts", "ready", "owned_mask",
        "remaining", "n_owned", "executed", "completed",
        "max_ready_depth", "recorder", "lane",
    )

    def __init__(
        self,
        entries: list[tuple[int, int, int]],
        successors: list[list[int]],
        n_deps: np.ndarray,
        *,
        owned=None,
        recorder: EventRecorder | None = None,
        lane: int = 0,
    ) -> None:
        n = len(entries)
        self.entries = entries
        counts = np.asarray(n_deps, dtype=np.int64)
        self._counts = counts.tolist()
        self.recorder = recorder
        self.lane = lane
        if owned is None:
            self.owned_mask = None
            self.successors = successors
            self.n_owned = n
            roots = np.flatnonzero(counts == 0)
        else:
            mask = np.zeros(n, dtype=bool)
            owned = np.asarray(list(owned), dtype=np.int64)
            mask[owned] = True
            self.owned_mask = mask
            # a rank never decrements a counter it does not own
            keep = mask.tolist()
            self.successors = [
                [s for s in succ if keep[s]] for succ in successors
            ]
            self.n_owned = int(owned.size)
            roots = owned[counts[owned] == 0]
        self.remaining = self.n_owned
        self.executed = 0
        self.completed = bytearray(n)
        self.ready: list[tuple[int, int, int]] = [
            entries[t] for t in roots.tolist()
        ]
        heapq.heapify(self.ready)
        self.max_ready_depth = len(self.ready)

    @classmethod
    def from_dag(
        cls,
        dag,
        *,
        owned=None,
        recorder: EventRecorder | None = None,
        lane: int = 0,
    ) -> SchedulerCore:
        """Build a core from a factor or solve DAG — anything exposing
        per-task ``entries`` (heap priorities), ``successors`` and
        ``n_deps``, as :class:`repro.core.dag.TaskDAG` and
        :class:`repro.core.tsolve_dag.TSolveDAG` do."""
        return cls(dag.entries, dag.successors, dag.n_deps,
                   owned=owned, recorder=recorder, lane=lane)

    @property
    def counters(self) -> np.ndarray:
        """The dependency counters as an array (a snapshot: only
        :meth:`complete` changes them)."""
        return np.asarray(self._counts, dtype=np.int64)

    # -- scheduling ----------------------------------------------------
    def done(self) -> bool:
        """All owned tasks completed."""
        return self.remaining <= 0

    def pop(self) -> int | None:
        """Highest-priority ready task id, or ``None`` if none is ready
        (distinguish from :meth:`done`: work may be in flight)."""
        if not self.ready:
            return None
        if len(self.ready) > self.max_ready_depth:
            self.max_ready_depth = len(self.ready)
        return heapq.heappop(self.ready)[2]

    def complete(self, tid: int) -> int:
        """Record completion of ``tid`` and release its successors:
        each (owned) successor's counter drops by one, and those
        reaching zero are pushed onto the ready heap.  Returns the number
        of newly ready tasks (the threaded engine's ``notify(n)``
        count).  ``tid`` may be a *non-owned* predecessor (a received
        message) — it then releases owned successors without counting
        as local work.  A second completion of ``tid`` raises
        :class:`CounterUnderflowError` before any counter moves, so a
        task enters the ready heap at most once.
        """
        if self.completed[tid]:
            raise CounterUnderflowError(
                f"task {tid} completed twice (lane {self.lane}) — duplicate "
                "message delivery or double execution"
            )
        self.completed[tid] = 1
        if self.owned_mask is None or self.owned_mask[tid]:
            self.executed += 1
            self.remaining -= 1
        counts, ready, entries = self._counts, self.ready, self.entries
        newly = 0
        bad = []
        for s in self.successors[tid]:
            left = counts[s] = counts[s] - 1
            if left == 0:
                heapq.heappush(ready, entries[s])
                newly += 1
            elif left < 0:
                bad.append(s)
        if bad:
            detail = ", ".join(
                f"task {s} at {counts[s]} (expected ≥ 0)" for s in bad[:8]
            )
            raise CounterUnderflowError(
                f"completion of task {tid} drove {len(bad)} dependency "
                f"counter(s) negative: {detail} — their counters started "
                "below their in-degree (corrupted DAG)"
            )
        if self.recorder is not None:
            self.recorder.depth(self.lane, len(ready))
        return newly

    def blocked_frontier(self, limit: int = 8) -> list[tuple[int, int]]:
        """``(tid, counter)`` of up to ``limit`` owned tasks that never
        completed — the frontier a stalled run is blocked on.  Tasks with
        counter 0 were ready but never popped (a worker died or an error
        short-circuited the drain); positive counters are waiting on
        predecessors that themselves never finished."""
        pending = np.frombuffer(self.completed, dtype=np.uint8) == 0
        if self.owned_mask is not None:
            pending &= self.owned_mask
        return [
            (t, self._counts[t])
            for t in np.flatnonzero(pending)[:limit].tolist()
        ]

    def check(self, engine: str = "scheduler") -> None:
        """Deadlock check: every owned task must have executed.  The
        error names the blocked frontier — which tasks are stuck and what
        their dependency counters still say — instead of a bare count."""
        if self.executed == self.n_owned:
            return
        frontier = self.blocked_frontier()
        n_pending = self.n_owned - self.executed
        detail = ", ".join(
            f"task {tid} (counter={counter}, lane {self.lane})"
            for tid, counter in frontier
        )
        more = f", … {n_pending - len(frontier)} more" if (
            n_pending > len(frontier)
        ) else ""
        raise RuntimeError(
            f"{engine} deadlock: executed {self.executed} of "
            f"{self.n_owned} tasks; blocked frontier: {detail}{more} "
            "(counter>0 = waiting on unfinished predecessors, "
            "counter=0 = ready but never scheduled)"
        )

"""The one lane driver: every engine is a configuration of :func:`run_lanes`.

Section 4.4's scheduler is a small state machine — pop the most critical
ready task, run its kernel, decrement counters, wake successors, no
barriers.  :class:`~repro.runtime.scheduler.SchedulerCore` holds the
state machine; this module holds the *loop around it*, once:

    ready pop / wait → time → execute → record → tally → complete +
    notify → fault hook → send what the task published → (on any lane,
    receiver included) one error path → deadlock check

No task takes a lock of its own: the DAG gives each block (phase 4) and
each RHS segment (phase 5) one writer at a time, and every reader of it
is a successor of its last writer.

The four engines are ``n_lanes`` × ``endpoint``:

============ ======= ======== ==========================================
engine       lanes   endpoint what runs
============ ======= ======== ==========================================
sequential   1       no       inline in the caller's thread
threaded     n       no       ``n`` compute threads
distributed  1       yes      inline; receives when nothing is ready
hybrid       n       yes      ``n`` compute threads + a receiver thread
============ ======= ======== ==========================================

A phase plugs in as a **job** — :class:`repro.core.numeric.FactorJob`
for phase 4, :class:`repro.core.tsolve.SolveJob` for phase 5 — an object
with

``execute(tid, ws) -> tuple``
    run the task with the lane's :class:`~repro.kernels.base.Workspace`;
    returns the ``(label, replaced_pivots, planned)`` tail of
    :meth:`RunReport.count <repro.runtime.scheduler.RunReport.count>`
    (``()`` for tasks with nothing to tally);
``trace_label(tid) -> (name, category)``
    the task's trace name and the key its seconds are tallied under;
``finish(report)``
    fill the fields of the finished run's report only the phase knows
    (flops, plan and overlay bytes; the RHS count) and let go of what
    the job holds for the run — called once the lanes have stopped,
    after a failure too;

and, on a rank (``endpoint`` given),

``outgoing(tid) -> (dests, message, nbytes) | None``
    what ``tid`` published, built on its lane right after the task ran;
    sent after the task completed.  Both phases
    publish final values only (a panel result, a solved segment, a stack
    of products), so a payload needs no snapshot.  Messages are tuples
    led by the producing task's id;
``absorb(message) -> nbytes``
    install a received message's payload (no local task writes it);
``owner_of_task``
    task id → rank, for the receive events' peer.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from contextlib import nullcontext

from ..kernels.base import Workspace
from .scheduler import EventRecorder, RunReport, SchedulerCore
from .transports import Endpoint

__all__ = ["run_lanes"]

# shared state and its lock, registered for the `lock-discipline` lint
# rule: these operations only happen inside `with gate:` — the pool's
# condition when lanes share the core, a no-op context on one lane — and
# no lock is taken under the gate
__guarded_by__ = {
    "gate": ("core.pop", "core.complete", "errors", "total.merge"),
}


def run_lanes(
    core: SchedulerCore,
    job,
    *,
    n_lanes: int = 1,
    endpoint: Endpoint | None = None,
    recorder: EventRecorder | None = None,
    timed: bool = False,
) -> RunReport:
    """Drain ``core`` by running ``job``'s tasks on ``n_lanes`` lanes.

    One lane runs inline in the caller's thread with no condition, no
    lock and no thread start; with an ``endpoint`` it blocks on the
    endpoint only when nothing is ready, then drains the inbox without
    blocking.  More lanes are threads sharing the core under one
    condition, plus — given an ``endpoint`` — a receiver thread.  That
    is the driver's single branch, taken from the lane count.

    Tasks are timed when ``timed`` or a ``recorder`` is given.  The first
    exception on any lane (compute or receiver) — a second completion
    refused by the core included — quiesces the pool and is re-raised
    here.  Once nothing is ready, no lane is running a task and no
    message is still due, the run is a deadlock, and
    :meth:`SchedulerCore.check` names its blocked frontier — on a rank
    too, which knows how many messages it is due.  Returns the run's
    :class:`~repro.runtime.scheduler.RunReport` — the lanes' tallies
    merged, ``n_workers``, ``max_ready_depth`` and the drain's wall-clock
    ``seconds`` filled; it is handed to ``job.finish`` first, as a failed
    run's is before its exception leaves.
    """
    if n_lanes < 1:
        raise ValueError("need at least one lane")
    pooled = n_lanes > 1
    cond = threading.Condition() if pooled else None
    gate = cond if pooled else nullcontext()
    timed = timed or recorder is not None
    errors: list[BaseException] = []
    total = RunReport(n_workers=n_lanes)
    t_start = time.perf_counter()
    # messages still due: each remote task with a locally-owned successor
    # (the only ones a rank's core keeps) sends exactly one
    mask = core.owned_mask
    due = [0 if endpoint is None else sum(
        1 for t, succ in enumerate(core.successors) if succ and not mask[t]
    )]

    def complete(tid: int) -> None:
        """Counter decrements of a local or remote completion, waking one
        waiter per newly ready task."""
        with gate:
            newly_ready = core.complete(tid)
            if cond is not None:
                if core.done():
                    cond.notify_all()
                elif newly_ready:
                    cond.notify(newly_ready)

    def absorb(msg) -> None:
        src_tid = msg[0]
        nbytes = job.absorb(msg)
        if recorder is not None:
            recorder.recv(
                endpoint.rank, int(job.owner_of_task[src_tid]), src_tid, nbytes
            )
        complete(src_tid)  # remote predecessor: releases local tasks
        due[0] -= 1  # after the release, so no lane sees a false deadlock

    def receive_or_stall() -> None:
        """One lane, nothing runnable: with no message still due (always,
        without an endpoint) a deadlock, named by its blocked frontier;
        else block for one message, then drain extras."""
        if not due[0]:
            core.check(job.name)
        absorb(endpoint.recv())
        while True:
            try:
                absorb(endpoint.recv(block=False))
            except queue_mod.Empty:
                return

    idle = [0]  # pooled lanes waiting on the condition

    def wait_or_stall() -> None:
        """Pooled lanes: once every lane waits with nothing ready and no
        message is still due, no completion can come — a deadlock, named
        as the one lane's is."""
        if idle[0] == n_lanes - 1 and not due[0]:
            core.check(job.name)
        idle[0] += 1
        cond.wait()
        idle[0] -= 1

    def fail(exc: BaseException) -> None:
        """The one error path: record, and wake every waiting lane."""
        with gate:
            errors.append(exc)
            if cond is not None:
                cond.notify_all()

    def lane(wid: int) -> None:
        ws = Workspace()
        local = RunReport()
        trace_lane = wid if endpoint is None else endpoint.rank
        try:
            while True:
                with gate:
                    tid = core.pop()
                    while tid is None and not core.done() and not errors:
                        wait()
                        tid = core.pop()
                    if errors or tid is None:
                        return
                t0 = time.perf_counter() if timed else 0.0
                tallied = job.execute(tid, ws)
                published = None if endpoint is None else job.outgoing(tid)
                if timed:
                    t1 = time.perf_counter()
                    name, cat = job.trace_label(tid)
                    local.seconds_by_type[cat] = (
                        local.seconds_by_type.get(cat, 0.0) + t1 - t0
                    )
                    if recorder is not None:
                        recorder.task(trace_lane, name, cat, t0, t1, tid)
                local.count(tid, *tallied)
                complete(tid)
                if endpoint is not None:
                    endpoint.on_task_executed(core.executed)
                if published is not None:
                    dests, msg, nbytes = published
                    for dst in dests:
                        endpoint.send(dst, msg)
                        local.messages_sent += 1
                        local.bytes_sent += nbytes
                        if recorder is not None:
                            recorder.send(endpoint.rank, dst, tid, nbytes)
        except BaseException as exc:  # propagate to the caller
            fail(exc)
        finally:
            with gate:
                total.merge(local)

    def receiver() -> None:
        try:
            for _ in range(due[0]):
                absorb(endpoint.recv())
        except BaseException as exc:  # same error path as the compute lanes
            fail(exc)
            return
        with gate:  # all in: a waiting lane may now find a deadlock
            cond.notify_all()

    if not pooled:
        wait = receive_or_stall
        lane(0)
    else:
        wait = wait_or_stall
        if endpoint is not None:
            threading.Thread(target=receiver, daemon=True).start()
        pool = [
            threading.Thread(target=lane, args=(wid,), daemon=True)
            for wid in range(n_lanes)
        ]
        for th in pool:
            th.start()
        for th in pool:
            th.join()
    try:
        if errors:
            raise errors[0]
        core.check(job.name)  # names the blocked frontier on deadlock
    finally:
        job.finish(total)
    total.max_ready_depth = core.max_ready_depth
    total.seconds = time.perf_counter() - t_start
    return total

"""The one lane driver: every engine is a configuration of :func:`run_lanes`.

Section 4.4's scheduler is a small state machine — pop the most critical
ready task, run its kernel, decrement counters, wake successors, no
barriers.  :class:`~repro.runtime.scheduler.SchedulerCore` holds the
state machine; this module holds the *loop around it*, once:

    ready pop / wait → write locks → time → execute → record → tally →
    complete + notify → fault hook → send what the task published →
    (on any lane, receiver included) one error path → deadlock check

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

``n_slots``
    size of the write-slot space (one lock per slot when lanes share it);
``write_slots(tid) -> tuple[int, ...]``
    the slots ``tid`` writes, in lock order;
``execute(tid, ws) -> tuple``
    run the task with the lane's :class:`~repro.kernels.base.Workspace`;
    returns the ``(label, replaced_pivots, planned)`` tail of
    :meth:`RunReport.count <repro.runtime.scheduler.RunReport.count>`
    (``()`` for tasks with nothing to tally);
``trace_label(tid) -> (name, category)``
    the task's trace name and the key its seconds are tallied under;
``finish(report)``
    fill the fields of the finished run's report only the phase knows
    (flops, plan and overlay bytes; the RHS count);

and, on a rank (``endpoint`` given),

``outgoing(tid) -> (dests, message, nbytes) | None``
    what ``tid`` published, built **inside the write-lock window** so a
    chained successor writer cannot overwrite it before it is snapshot;
    sent after the task completed.  Messages are tuples led by the
    producing task's id;
``absorb(message) -> nbytes``
    install a received message's payload (called under the write locks
    of the producing task's slots);
``owner_of_task``
    task id → rank, for the receive events' peer.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from contextlib import ExitStack, nullcontext

from ..kernels.base import Workspace
from .scheduler import EventRecorder, RunReport, SchedulerCore
from .transports import Endpoint

__all__ = ["run_lanes"]

# shared state and its lock, registered for the `lock-discipline` lint
# rule: these operations only happen inside `with gate:` — the pool's
# condition when lanes share the core, a no-op context on one lane — and
# no lock is taken under the gate (slot locks come first, never inside it)
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
    condition, with per-slot write locks (a stored block in phase 4, a
    ``y``/``x`` RHS segment in phase 5), plus — given an ``endpoint`` —
    a receiver thread.  That is the driver's single branch, taken from
    the lane count.

    Tasks are timed when ``timed`` or a ``recorder`` is given.  The first
    exception on any lane (compute or receiver) — a second completion
    refused by the core included — quiesces the pool and is re-raised
    here; a drained core is checked for deadlock.  Returns the run's
    :class:`~repro.runtime.scheduler.RunReport` — the lanes' tallies
    merged, ``n_workers``, ``max_ready_depth`` and the drain's wall-clock
    ``seconds`` filled, then handed to ``job.finish``.
    """
    if n_lanes < 1:
        raise ValueError("need at least one lane")
    pooled = n_lanes > 1
    cond = threading.Condition() if pooled else None
    gate = cond if pooled else nullcontext()
    locks = [threading.Lock() for _ in range(job.n_slots)] if pooled else None
    no_lock = nullcontext()
    timed = timed or recorder is not None
    errors: list[BaseException] = []
    total = RunReport(n_workers=n_lanes)
    t_start = time.perf_counter()

    def writing(tid: int):
        """Context holding the write locks of the slots ``tid`` writes
        (in slot order: ``DIAG_F`` takes ``y`` then ``x``); released in
        reverse, however far the locking got."""
        if locks is None:
            return no_lock
        stack = ExitStack()
        with stack:
            for s in job.write_slots(tid):
                stack.enter_context(locks[s])
            return stack.pop_all()

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
        with writing(src_tid):
            nbytes = job.absorb(msg)
        if recorder is not None:
            recorder.recv(
                endpoint.rank, int(job.owner_of_task[src_tid]), src_tid, nbytes
            )
        complete(src_tid)  # remote predecessor: releases local tasks

    def receive_inline() -> None:
        """Nothing runnable: block for one message, then drain extras."""
        absorb(endpoint.recv())
        while True:
            try:
                absorb(endpoint.recv(block=False))
            except queue_mod.Empty:
                return

    def stalled() -> None:
        core.check(job.name)  # names the blocked frontier

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
                with writing(tid):
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
        # each remote task with a locally-owned successor (the only ones
        # a rank's core keeps) sends exactly one message here, so the
        # receiver's lifetime is a fixed count
        mask = core.owned_mask
        expected = sum(
            1 for t, succ in enumerate(core.successors)
            if succ and not mask[t]
        )
        try:
            for _ in range(expected):
                absorb(endpoint.recv())
        except BaseException as exc:  # same error path as the compute lanes
            fail(exc)

    if not pooled:
        wait = receive_inline if endpoint is not None else stalled
        lane(0)
    else:
        wait = cond.wait
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
    if errors:
        raise errors[0]
    core.check(job.name)  # names the blocked frontier on deadlock
    total.max_ready_depth = core.max_ready_depth
    total.seconds = time.perf_counter() - t_start
    job.finish(total)
    return total

"""Pluggable transports for the distributed engine.

The distributed executor (:mod:`repro.runtime.distributed`) is the
Section 4.4 protocol over *some* message substrate.  This module is that
substrate, factored out:

* :class:`MultiprocessingTransport` — the production path: one OS
  process per rank, block payloads over ``multiprocessing`` queues (the
  in-repo analogue of MPI ranks).
* :class:`LoopbackTransport` — every rank is a thread in the calling
  process, messages travel over plain ``queue.Queue``.  Deterministic,
  debuggable with an ordinary debugger, and the host for **fault
  injection** (:class:`FaultPlan`): kill a rank before it starts, make a
  rank raise mid-run, silently drop its messages, or delay/reorder
  deliveries — so the timeout and teardown paths of the engine are
  testable in-process without real process crashes.

A transport owns the execution substrate (it launches the per-rank
worker function) and hands each worker an :class:`Endpoint` with
``send``/``recv``/``post_result``.  Adding an engine substrate (e.g. a
socket or MPI transport) means implementing these two classes — the
protocol itself is untouched.

Both distributed consumers ride the same transports: the numeric phase
(:func:`~repro.runtime.distributed.factorize_distributed`, factor-block
payloads) and the triangular solves
(:func:`~repro.runtime.distributed.tsolve_distributed`, RHS-segment
payloads).
"""

from __future__ import annotations

import pickle
import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TransportTimeout",
    "TransportStopped",
    "InjectedFault",
    "FaultPlan",
    "Endpoint",
    "Transport",
    "MultiprocessingTransport",
    "LoopbackTransport",
]


class TransportTimeout(Exception):
    """No rank result arrived within the deadline, or a rank exited
    without posting one.

    ``dead_ranks`` lists ranks that are no longer running and
    ``exit_codes`` their exit codes where the substrate has them — the
    master folds both into its diagnostic.  ``timeout`` is how long the
    wait lasted.
    """

    def __init__(
        self, timeout: float, dead_ranks: list[int],
        exit_codes: dict[int, int] | None = None,
    ) -> None:
        super().__init__(f"no result within {timeout:.3g}s")
        self.timeout = timeout
        self.dead_ranks = dead_ranks
        self.exit_codes = exit_codes or {}


class TransportStopped(Exception):
    """The master tore the transport down; the worker should exit quietly."""


class InjectedFault(RuntimeError):
    """Deliberate failure raised inside a rank by a :class:`FaultPlan`."""


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for :class:`LoopbackTransport`.

    Attributes
    ----------
    dead_ranks:
        Ranks that never run — their consumers starve, exercising the
        master's timeout/teardown path.
    fail_after:
        ``{rank: n}`` — rank raises :class:`InjectedFault` after
        executing ``n`` tasks (the mid-factorisation crash path).
    drop_from:
        Ranks whose sends are silently discarded (a lossy link; again a
        starvation → timeout scenario).
    duplicate_from:
        Ranks whose every send is delivered **twice** (a retransmitting
        link).  The counter protocol is *not* idempotent — a duplicate
        completion would over-decrement successor counters — so this
        exercises :meth:`SchedulerCore.complete
        <repro.runtime.scheduler.SchedulerCore.complete>`'s refusal of a
        second completion (a
        :class:`~repro.runtime.scheduler.CounterUnderflowError` naming the
        task and the receiving rank).
    delay_seconds:
        Added delivery latency per message.
    stagger:
        With ``delay_seconds``, delay only every second message — later
        messages overtake earlier ones, testing reorder tolerance (the
        counter protocol never relies on arrival order).
    """

    dead_ranks: frozenset[int] = frozenset()
    fail_after: dict[int, int] = field(default_factory=dict)
    drop_from: frozenset[int] = frozenset()
    duplicate_from: frozenset[int] = frozenset()
    delay_seconds: float = 0.0
    stagger: bool = False


class Endpoint:
    """A rank's handle on the transport.

    ``send``/``recv`` move protocol messages between ranks;
    ``post_result`` ships the rank's final report to the master;
    ``on_task_executed`` is a hook the engine calls after every task
    (no-op here; the loopback transport uses it for fault injection).
    """

    rank: int

    def send(self, dst: int, payload) -> None:
        raise NotImplementedError

    def recv(self, block: bool = True):
        """Next inbound message; raises ``queue.Empty`` when
        ``block=False`` and the inbox is empty, :class:`TransportStopped`
        after a teardown."""
        raise NotImplementedError

    def post_result(self, msg) -> None:
        raise NotImplementedError

    def on_task_executed(self, count: int) -> None:
        return None


class Transport:
    """Factory/lifecycle interface the distributed engine drives.

    ``start`` launches one worker per rank; ``get_result`` returns rank
    reports as they arrive (raising :class:`TransportTimeout` on a
    deadline); ``terminate`` tears everything down; ``join`` reaps.
    """

    def start(self, n_ranks: int, target, args_of_rank) -> None:
        raise NotImplementedError

    def get_result(self, timeout: float):
        raise NotImplementedError

    def terminate(self) -> None:
        raise NotImplementedError

    def join(self, timeout: float = 30.0) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# multiprocessing (the production substrate)
# ----------------------------------------------------------------------

class _MPEndpoint(Endpoint):
    def __init__(self, rank: int, inboxes, result_q) -> None:
        self.rank = rank
        self._inboxes = inboxes
        self._result_q = result_q

    def send(self, dst: int, payload) -> None:
        # pickled on the sending lane, not on the queue's feeder thread,
        # which would drop a payload that fails to pickle and leave the
        # receiver starving until the timeout: here it raises in the rank
        # that sent it, which posts the failure as its "error"
        self._inboxes[dst].put(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))

    def recv(self, block: bool = True):
        inbox = self._inboxes[self.rank]
        return pickle.loads(inbox.get() if block else inbox.get_nowait())

    def post_result(self, msg) -> None:
        self._result_q.put(msg)


def _mp_entry(target, rank, inboxes, result_q, args) -> None:
    target(rank, _MPEndpoint(rank, inboxes, result_q), *args)


class MultiprocessingTransport(Transport):
    """One ``fork``-context OS process per rank, queues for messages."""

    #: seconds ``get_result`` waits before it looks at the ranks again
    POLL_SECONDS = 0.2

    def __init__(self) -> None:
        self._procs: list = []
        self._result_q = None
        self._received = 0

    def start(self, n_ranks: int, target, args_of_rank) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        inboxes = [ctx.Queue() for _ in range(n_ranks)]
        self._result_q = ctx.Queue()
        self._procs, self._received = [], 0
        for rank in range(n_ranks):
            p = ctx.Process(
                target=_mp_entry,
                args=(target, rank, inboxes, self._result_q, args_of_rank(rank)),
                daemon=True,
            )
            p.start()
            self._procs.append(p)

    def get_result(self, timeout: float):
        """The next rank result, waited for in short slices.  A rank
        posts at most one result, so once more ranks have exited than
        results arrived, one of them died without posting (killed, or
        its result failed to pickle on the queue's feeder thread): after
        one more drain — a rank that posted and then exited is not
        misreported — that raises at once, not after ``timeout``."""
        t0, drained = time.perf_counter(), False
        while True:
            try:
                msg = self._result_q.get(timeout=self.POLL_SECONDS)
            except queue_mod.Empty:
                waited = time.perf_counter() - t0
                dead = [r for r, p in enumerate(self._procs) if not p.is_alive()]
                if drained or waited >= timeout:
                    codes = {r: self._procs[r].exitcode for r in dead}
                    raise TransportTimeout(waited, dead, codes) from None
                drained = len(dead) > self._received  # one more slice
                continue
            self._received += 1
            return msg

    def terminate(self) -> None:
        for p in self._procs:
            if p.is_alive():
                p.terminate()

    def join(self, timeout: float = 30.0) -> None:
        for p in self._procs:
            p.join(timeout=timeout)
            if p.is_alive():  # pragma: no cover - stuck feeder safety net
                p.terminate()


# ----------------------------------------------------------------------
# in-process loopback (deterministic testing + fault injection)
# ----------------------------------------------------------------------

class _LoopbackEndpoint(Endpoint):
    def __init__(self, rank: int, transport: LoopbackTransport) -> None:
        self.rank = rank
        self._t = transport
        self._sends = 0

    def send(self, dst: int, payload) -> None:
        t = self._t
        if self.rank in t.faults.drop_from:
            return
        self._sends += 1
        copies = 2 if self.rank in t.faults.duplicate_from else 1
        delay = t.faults.delay_seconds
        if delay > 0.0 and (not t.faults.stagger or self._sends % 2 == 1):
            # a real link serialises at send time: snapshot array members
            # so a delayed delivery carries the values being sent, not
            # whatever a shared (arena-slab-view) buffer holds when the
            # timer fires
            if isinstance(payload, tuple):
                payload = tuple(
                    np.array(p) if isinstance(p, np.ndarray) else p
                    for p in payload
                )
            for _ in range(copies):
                timer = threading.Timer(
                    delay, t.inboxes[dst].put, args=(payload,)
                )
                timer.daemon = True
                timer.start()
                t._timers.append(timer)
        else:
            for _ in range(copies):
                t.inboxes[dst].put(payload)

    def recv(self, block: bool = True):
        t = self._t
        if not block:
            if t.stop_event.is_set():
                raise TransportStopped
            return t.inboxes[self.rank].get_nowait()
        while True:
            if t.stop_event.is_set():
                raise TransportStopped
            try:
                return t.inboxes[self.rank].get(timeout=0.05)
            except queue_mod.Empty:
                continue

    def post_result(self, msg) -> None:
        self._t.result_q.put(msg)

    def on_task_executed(self, count: int) -> None:
        limit = self._t.faults.fail_after.get(self.rank)
        if limit is not None and count >= limit:
            raise InjectedFault(
                f"injected fault: rank {self.rank} failed after {count} tasks"
            )


class LoopbackTransport(Transport):
    """All ranks as threads of the calling process.

    Single-process and GIL-interleaved, hence deterministic enough to
    debug and to assert on fault scenarios; the factors produced are
    identical to the multiprocessing transport's because the protocol is
    order-insensitive by construction.
    """

    def __init__(self, *, faults: FaultPlan | None = None) -> None:
        self.faults = faults or FaultPlan()
        self.inboxes: list[queue_mod.Queue] = []
        self.result_q: queue_mod.Queue = queue_mod.Queue()
        self.stop_event = threading.Event()
        self._threads: list[threading.Thread] = []
        self._timers: list[threading.Timer] = []

    def start(self, n_ranks: int, target, args_of_rank) -> None:
        self.inboxes = [queue_mod.Queue() for _ in range(n_ranks)]
        for rank in range(n_ranks):
            if rank in self.faults.dead_ranks:
                continue  # the rank "crashed" before doing any work
            th = threading.Thread(
                target=target,
                args=(rank, _LoopbackEndpoint(rank, self), *args_of_rank(rank)),
                daemon=True,
            )
            th.start()
            self._threads.append(th)

    def get_result(self, timeout: float):
        try:
            return self.result_q.get(timeout=timeout)
        except queue_mod.Empty:
            dead = sorted(self.faults.dead_ranks)
            raise TransportTimeout(timeout, dead) from None

    def terminate(self) -> None:
        self.stop_event.set()
        for timer in self._timers:
            timer.cancel()

    def join(self, timeout: float = 30.0) -> None:
        for th in self._threads:
            th.join(timeout=timeout)

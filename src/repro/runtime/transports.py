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
worker function once per pool) and hands each worker an :class:`Endpoint`
with ``next_command`` (the master's commands, on a channel of their own)
and ``send``/``recv``/``post_result``.  An idle rank waits for its next
command in short slices and exits once its master is gone, so a killed
master leaves no rank behind.  Adding an engine substrate (e.g. a socket
or MPI transport) means implementing these two classes — the protocol
itself is untouched.

Both distributed consumers ride the same transports: the numeric phase
(:func:`~repro.runtime.distributed.factorize_distributed`, factor-block
payloads) and the triangular solves
(:func:`~repro.runtime.distributed.tsolve_distributed`, RHS-segment
payloads).
"""

from __future__ import annotations

import os
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
        Ranks that die — on their first command, or on the one
        ``from_command`` names — so their consumers starve, exercising
        the master's timeout/teardown path.
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
    from_command:
        The command of the pool from which the faults act: ``0`` is the
        first (a ``factorize``), ``1`` the second (say, the first solve
        on the resident ranks).  A dead rank dies on receiving it.
    """

    dead_ranks: frozenset[int] = frozenset()
    fail_after: dict[int, int] = field(default_factory=dict)
    drop_from: frozenset[int] = frozenset()
    duplicate_from: frozenset[int] = frozenset()
    delay_seconds: float = 0.0
    stagger: bool = False
    from_command: int = 0


class Endpoint:
    """A rank's handle on the transport.

    ``next_command`` waits for the master's next command; ``send``/
    ``recv`` move protocol messages between ranks; ``post_result`` ships
    a command's result to the master; ``on_task_executed`` is a hook the
    engine calls after every task (no-op here; the loopback transport
    uses it for fault injection).
    """

    rank: int

    def next_command(self):
        """The master's next command; raises :class:`TransportStopped`
        after a teardown or once the master is gone."""
        raise NotImplementedError

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

    ``start`` launches one worker per rank; ``command`` hands a rank its
    next command (each round of commands restarts the count of results);
    ``get_result`` returns rank results as they arrive (raising
    :class:`TransportTimeout` on a deadline); ``terminate`` tears
    everything down; ``join`` waits for the ranks to exit, forcing the
    ones still running after ``timeout``.
    """

    def start(self, n_ranks: int, target, args_of_rank) -> None:
        raise NotImplementedError

    def command(self, rank: int, msg) -> None:
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
    def __init__(self, rank: int, master: int, inboxes, commands, result_q) -> None:
        self.rank = rank
        self._master = master
        self._inboxes = inboxes
        self._commands = commands
        self._result_q = result_q

    def _get(self, q):
        """The next item of ``q``, waited for in slices between which the
        master's liveness is checked: an orphaned rank (its master was
        killed, so it was re-parented) stops instead of blocking
        forever."""
        while True:
            try:
                return q.get(timeout=MultiprocessingTransport.POLL_SECONDS)
            except queue_mod.Empty:
                if os.getppid() != self._master:
                    raise TransportStopped from None

    def next_command(self):
        return self._get(self._commands[self.rank])

    def send(self, dst: int, payload) -> None:
        # pickled on the sending lane, not on the queue's feeder thread,
        # which would drop a payload that fails to pickle and leave the
        # receiver starving until the timeout: here it raises in the rank
        # that sent it, which posts the failure as its "error"
        self._inboxes[dst].put(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))

    def recv(self, block: bool = True):
        inbox = self._inboxes[self.rank]
        return pickle.loads(self._get(inbox) if block else inbox.get_nowait())

    def post_result(self, msg) -> None:
        self._result_q.put(msg)


def _mp_entry(target, rank, master, inboxes, commands, result_q, args) -> None:
    target(rank, _MPEndpoint(rank, master, inboxes, commands, result_q), *args)


class MultiprocessingTransport(Transport):
    """One ``fork``-context OS process per rank, queues for messages and
    one more per rank for the master's commands."""

    #: seconds ``get_result`` waits before it looks at the ranks again,
    #: and a rank before it looks at its master
    POLL_SECONDS = 0.2

    def __init__(self) -> None:
        self._procs: list = []
        self._commands: list = []
        self._result_q = None
        self._received = 0

    def start(self, n_ranks: int, target, args_of_rank) -> None:
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        inboxes = [ctx.Queue() for _ in range(n_ranks)]
        self._commands = [ctx.Queue() for _ in range(n_ranks)]
        self._result_q = ctx.Queue()
        self._procs, self._received = [], 0
        for rank in range(n_ranks):
            p = ctx.Process(
                target=_mp_entry,
                args=(target, rank, os.getpid(), inboxes, self._commands,
                      self._result_q, args_of_rank(rank)),
                daemon=True,
            )
            p.start()
            self._procs.append(p)

    @property
    def pids(self) -> list[int]:
        """The rank processes' ids, by rank."""
        return [p.pid for p in self._procs]

    def command(self, rank: int, msg) -> None:
        self._received = 0
        self._commands[rank].put(msg)

    def get_result(self, timeout: float):
        """The next rank result, waited for in short slices.  A rank
        posts at most one result per round of commands, so once more
        ranks have exited than results arrived, one of them died without
        posting (killed, or its result failed to pickle on the queue's
        feeder thread): after one more drain — a rank that posted and
        then exited is not misreported — that raises at once, not after
        ``timeout``."""
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
                p.join(timeout=timeout)


# ----------------------------------------------------------------------
# in-process loopback (deterministic testing + fault injection)
# ----------------------------------------------------------------------

class _LoopbackEndpoint(Endpoint):
    """A loopback rank's channels — those of the transport's current
    start, so a restarted transport's ranks never share them with a
    straggler of the last one."""

    def __init__(self, rank: int, transport: LoopbackTransport) -> None:
        self.rank = rank
        self._faults = transport.faults
        self._stop = transport.stop_event
        self._inboxes = transport.inboxes
        self._commands_q = transport.commands[rank]
        self._results = transport.result_q
        self._timers = transport.timers
        self._sends = 0
        self._commands = 0
        self._command = 0  # index of the command being served

    def _faulty(self, ranks) -> bool:
        """``self.rank`` is in ``ranks`` and the faults act by now."""
        return self.rank in ranks and self._command >= self._faults.from_command

    def _get(self, q):
        while True:
            if self._stop.is_set():
                raise TransportStopped
            try:
                return q.get(timeout=0.05)
            except queue_mod.Empty:
                continue

    def next_command(self):
        msg = self._get(self._commands_q)
        self._command, self._commands = self._commands, self._commands + 1
        if self._faulty(self._faults.dead_ranks):
            raise TransportStopped  # the rank "crashes": its thread ends
        return msg

    def send(self, dst: int, payload) -> None:
        faults = self._faults
        if self._faulty(faults.drop_from):
            return
        self._sends += 1
        copies = 2 if self._faulty(faults.duplicate_from) else 1
        delay = faults.delay_seconds if self._faulty({self.rank}) else 0.0
        if delay > 0.0 and (not faults.stagger or self._sends % 2 == 1):
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
                    delay, self._inboxes[dst].put, args=(payload,)
                )
                timer.daemon = True
                timer.start()
                self._timers.append(timer)
        else:
            for _ in range(copies):
                self._inboxes[dst].put(payload)

    def recv(self, block: bool = True):
        if block:
            return self._get(self._inboxes[self.rank])
        if self._stop.is_set():
            raise TransportStopped
        return self._inboxes[self.rank].get_nowait()

    def post_result(self, msg) -> None:
        self._results.put(msg)

    def on_task_executed(self, count: int) -> None:
        limit = self._faults.fail_after.get(self.rank)
        if limit is not None and count >= limit and self._faulty({self.rank}):
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
        self.commands: list[queue_mod.Queue] = []
        self.result_q: queue_mod.Queue = queue_mod.Queue()
        self.stop_event = threading.Event()
        self.threads: list[threading.Thread] = []
        self.timers: list[threading.Timer] = []

    def start(self, n_ranks: int, target, args_of_rank) -> None:
        self.inboxes = [queue_mod.Queue() for _ in range(n_ranks)]
        self.commands = [queue_mod.Queue() for _ in range(n_ranks)]
        self.result_q, self.stop_event = queue_mod.Queue(), threading.Event()
        self.threads = []
        for rank in range(n_ranks):
            th = threading.Thread(
                target=target,
                args=(rank, _LoopbackEndpoint(rank, self), *args_of_rank(rank)),
                name=f"loopback-rank-{rank}", daemon=True,
            )
            th.start()
            self.threads.append(th)

    def command(self, rank: int, msg) -> None:
        self.commands[rank].put(msg)

    def get_result(self, timeout: float):
        try:
            return self.result_q.get(timeout=timeout)
        except queue_mod.Empty:
            dead = [r for r, th in enumerate(self.threads) if not th.is_alive()]
            raise TransportTimeout(timeout, dead) from None

    def terminate(self) -> None:
        self.stop_event.set()
        for timer in self.timers:
            timer.cancel()

    def join(self, timeout: float = 30.0) -> None:
        for th in self.threads:
            th.join(timeout=timeout)
            if th.is_alive():  # a rank that ignored its "stop"
                self.terminate()
                th.join(timeout=timeout)

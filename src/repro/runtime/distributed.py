"""Distributed-memory synchronisation-free executor.

The closest in-repo analogue of PanguLU's MPI execution: the factorisation
runs on ``n_procs`` ranks, each of which

* holds **only the blocks it owns** under the configured
  :class:`~repro.core.placement.PlacementPolicy` (2D block-cyclic by
  default; distributed memory, not shared) — its
  :meth:`BlockMatrix.restricted <repro.core.blocking.BlockMatrix.restricted>`
  share, on which touching a block it neither owns nor received raises;
* executes the tasks targeting its blocks, picking the highest-priority
  (earliest elimination step) ready task — the Section 4.4 discipline,
  run by a rank-local :class:`~repro.runtime.scheduler.SchedulerCore`
  restricted to the rank's own tasks;
* on completing a panel task, **sends the factored block** to exactly the
  processes that consume it, piggybacking the dependency-counter
  decrement on the data message (the paper's "sends the sub-matrix block
  to the other required process", Fig. 10 step 2c);
* decrements counters and releases tasks on receipt (Fig. 10 step 3b) —
  no barriers, no global synchronisation of any kind.

The ranks are **resident** (:class:`RankPool`): started once, at a
factorisation, they keep their share — factored in place — across every
later command, as PanguLU's handle lives from ``pangulu_init`` through
``gstrf`` and every ``gstrs`` to ``finalize``.  A rank serves four
commands: *factor* (the master ships each rank the new values of its
own blocks on a refactorisation), *solve* (``b`` out, the ``x`` segments
back, the solve DAG shipped once per key), *gather* (the owned blocks'
values home) and *stop*.  Only run reports come home after a
factorisation; the factors come home on a gather, when the caller reads
them.  Called without a ``pool``, :func:`factorize_distributed` and
:func:`tsolve_distributed` open one for the call alone, gather the
factors into the caller's :class:`~repro.core.blocking.BlockMatrix` and
close it, so the result is indistinguishable from a sequential
factorisation (asserted by the tests).

The message substrate is a pluggable :class:`~repro.runtime.transports.
Transport`: by default one OS process per rank with ``multiprocessing``
queues (block payloads are the raw ``(indptr, indices, data)`` arrays —
on the arena layout these are zero-copy slab slices, and the wire-byte
accounting is unchanged because a view's ``nbytes`` is the slice's size);
the in-process :class:`~repro.runtime.transports.LoopbackTransport` runs
the identical protocol on threads for deterministic testing and fault
injection.

Every rank runs the one lane driver (:func:`repro.runtime.lanes.run_lanes`)
with its endpoint: this module only supplies the rank-side halves of the
two jobs (what a finished task publishes, how a received message is
installed), the one rank main that serves every command, and the
master's pool.  With ``n_threads > 1`` each rank becomes a **hybrid**
rank (HYLU-style mixed parallelism): a dedicated receiver thread absorbs
inbound block messages while ``n_threads`` compute threads drain the
rank's one shared :class:`~repro.runtime.scheduler.SchedulerCore` — the
exact threading policy of the threaded engine, because it is the same
code (:func:`repro.runtime.lanes.run_lanes` with ``n_lanes > 1``).

This executor is about protocol fidelity, not speed: Python processes
pay pickling costs that real MPI ranks do not.
"""

from __future__ import annotations

import logging
import os
import time
import weakref
from contextlib import contextmanager

import numpy as np

from ..core.blocking import BlockMatrix
from ..core.dag import TaskDAG
from ..core.numeric import FactorJob, NumericOptions
from ..core.placement import CyclicPlacement, PlacementPolicy
from ..core.tsolve import SolveJob, checked_rhs
from ..core.tsolve_dag import FORWARD, LSUM, TSolveDAG, TSolveTaskType
from ..sparse.csc import CSCMatrix
from .lanes import run_lanes
from .scheduler import EventRecorder, RunReport, SchedulerCore
from .transports import (
    Endpoint,
    MultiprocessingTransport,
    Transport,
    TransportStopped,
    TransportTimeout,
)

__all__ = ["RankPool", "factorize_distributed", "tsolve_distributed"]

logger = logging.getLogger(__name__)


def _block_nbytes(blk: CSCMatrix) -> int:
    """Actual wire size of a block payload: the ``indptr``, ``indices``
    and ``data`` arrays at their real dtypes."""
    return blk.indptr.nbytes + blk.indices.nbytes + blk.data.nbytes


def _block_payload(
    view: BlockMatrix, tid: int, bi: int, bj: int, slot: int
) -> tuple[tuple, int]:
    """``(message, wire_bytes)`` for shipping block ``(bi, bj)``, held
    in storage slot ``slot``.

    A compressed panel travels as its low-rank factors — tag ``"lr"``,
    ``u.nbytes + v.nbytes`` real bytes — everything else as the exact
    CSC triplet under tag ``"csc"``.  This is where the compression
    actually saves wire traffic: consumers of a rank-``r`` panel receive
    ``r·(m+n)`` values instead of ``nnz`` values plus the index arrays.
    """
    cb = view.compressed_block(bi, bj)
    if cb is not None:
        return (tid, bi, bj, "lr", cb.u, cb.v), cb.value_nbytes
    target = view.block_at(slot)
    payload = (tid, bi, bj, "csc", target.indptr, target.indices, target.data)
    return payload, _block_nbytes(target)


def _consumers(successors, owner_of_task: np.ndarray, rank: int) -> set[int]:
    """The other ranks owning a successor — where a task's output goes."""
    return {int(owner_of_task[s]) for s in successors} - {rank}


class _RankFactorJob(FactorJob):
    """The factor job on one rank: owned tasks over the rank's
    :meth:`~BlockMatrix.restricted` share, panels shipped to their
    consumers, received panels installed.

    With ``compress_tol > 0`` the rank compresses its own GESSM/TSTRF
    panel outputs and ships low-rank ``"lr"`` payloads to their
    consumers; the gathered factors are unaffected (owners keep and
    return the exact CSC arrays).
    """

    def __init__(
        self, rank: int, recorder: EventRecorder | None, share: BlockMatrix,
        dag: TaskDAG, owner_of_task: np.ndarray, options: NumericOptions,
    ) -> None:
        my_tasks = np.flatnonzero(owner_of_task == rank)
        super().__init__(share, dag, options, my_tasks)
        self.rank = rank
        self.owner_of_task = owner_of_task
        self.core = SchedulerCore.from_dag(
            dag, owned=my_tasks, recorder=recorder, lane=rank,
        )

    def outgoing(self, tid: int):
        task = self.tasks[tid]
        dests = _consumers(task.successors, self.owner_of_task, self.rank)
        if not dests:
            return None
        # panel results are final (the panel is its block's last writer,
        # and wrote its values before it completed), so the live arrays
        # are stable by the time any consumer reads them
        return dests, *_block_payload(self.f, tid, task.bi, task.bj, self.target[tid])

    def absorb(self, msg) -> int:
        _, bi, bj, tag = msg[:4]
        view = self.f
        if tag == "lr":
            # low-rank panel: install the overlay only — there is no CSC
            # representation of this block on the wire, and none is
            # needed (its sole consumers are SSSSM reads, which
            # ssssm_lr serves straight from U/V)
            return view.set_compressed(bi, bj, *msg[4:]).value_nbytes
        indptr, indices, data = msg[4:]
        # wrap the payload arrays directly (zero-copy): over loopback
        # these are the sender's live block arrays — slab slices on
        # the arena layout — and sent blocks are final (panel results
        # are never rewritten), so aliasing them is safe; over
        # multiprocessing they are fresh arrays off the queue
        return _block_nbytes(view.install(bi, bj, indptr, indices, data))

    def result(self) -> None:
        """Nothing goes home beside the report: the factors stay on the
        rank until a gather."""
        return None


class _RankSolveJob(SolveJob):
    """The solve job on one rank: a diagonal task sends the segment it
    solved to each rank consuming it, an ``LSUM`` task its stacked
    products to the diagonal task's rank — one message per (segment,
    rank), with real byte accounting (the payload's ``nbytes``).  A
    received segment is written into ``y`` or ``x``, received products
    wait in ``partials`` for the diagonal task they feed.

    Transports only order messages per sender, yet no receive-side guard
    is needed: every segment has one writer, so a payload is final when
    it is sent, whatever the delivery order.
    """

    def __init__(
        self, rank: int, recorder: EventRecorder | None, share: BlockMatrix,
        tdag: TSolveDAG, b: np.ndarray,
    ) -> None:
        y = b.copy()
        super().__init__(share, tdag, y, np.empty_like(y))
        self.rank = rank
        self.owner_of_task = tdag.owner
        self.my_tasks = np.flatnonzero(tdag.owner == rank)
        self.core = SchedulerCore.from_dag(
            tdag, owned=self.my_tasks, recorder=recorder, lane=rank
        )

    def _segment(self, tid: int) -> np.ndarray:
        """The segment ``tid`` solved: of ``y`` forward, ``x`` backward."""
        arr = self.y if int(self.tdag.kinds[tid]) in FORWARD else self.x
        return arr[self.f.block_slice(int(self.tdag.segment[tid]))]

    def outgoing(self, tid: int):
        dests = _consumers(self.tdag.successors[tid], self.owner_of_task, self.rank)
        if not dests:
            return None
        lsum = int(self.tdag.kinds[tid]) in LSUM
        payload = self.partials.pop(tid) if lsum else self._segment(tid)
        return dests, (tid, payload), payload.nbytes

    def absorb(self, msg) -> int:
        src_tid, payload = msg
        if int(self.tdag.kinds[src_tid]) in LSUM:
            self.partials[src_tid] = payload
        else:
            self._segment(src_tid)[...] = payload
        return payload.nbytes

    def result(self) -> list[tuple[int, np.ndarray]]:
        """The x segments this rank finished (its DIAG_B tasks)."""
        done = self.my_tasks[
            self.tdag.kinds[self.my_tasks] == TSolveTaskType.DIAG_B
        ]
        return [
            (int(k), np.array(self.x[self.f.block_slice(int(k))]))
            for k in self.tdag.segment[done]
        ]


class _Rank:
    """What one resident rank keeps between commands: its restricted
    share of the matrix (factored in place, so every solve reads the
    factors where they were computed, and the plan cache survives a
    refactorisation) and the DAGs the master shipped, by key."""

    def __init__(
        self, rank: int, f: BlockMatrix, owner_of_slot: np.ndarray, known: dict
    ) -> None:
        self.rank = rank
        self.f = f
        self.owned = np.flatnonzero(owner_of_slot == rank)
        self.share = f.restricted(self.owned)
        self.known = dict(known)

    def job(self, cmd, recorder: EventRecorder | None):
        """The job of a ``"factor"`` or ``"solve"`` command."""
        kind, _, key, shipped, *rest = cmd
        if shipped is not None:
            self.known[key] = shipped
        if kind == "solve":
            return _RankSolveJob(
                self.rank, recorder, self.share, self.known[key], *rest
            )
        options, values = rest
        dag, owner_of_task = self.known[key]
        # a fresh share: the operand copies and overlays the last run
        # received describe the old values
        plans = self.share.plan_cache
        self.share = self.f.restricted(self.owned)
        self.share.plan_cache = plans
        if values is not None:
            for slot, data in zip(self.owned.tolist(), values):
                self.share.blk_values[slot].data[...] = data
        return _RankFactorJob(
            self.rank, recorder, self.share, dag, owner_of_task, options
        )

    def values(self) -> list[np.ndarray]:
        """The owned blocks' values, in slot order (a gather)."""
        return [self.share.blk_values[slot].data for slot in self.owned.tolist()]


def _rank_main(
    rank: int, endpoint: Endpoint, f: BlockMatrix, owner_of_slot: np.ndarray,
    n_threads: int, known: dict,
) -> None:
    """One resident rank: serve the master's commands until ``"stop"``.

    ``"factor"`` and ``"solve"`` build the phase's job on the rank's
    share and drain it with the lane driver over ``endpoint``;
    ``"gather"`` sends the owned blocks' values.  Each command's result
    goes home as ``("ok", rank, report, payload, recorder)``.

    Any failure on a compute lane or the receiver — a duplicated message
    refused by the rank's core as a second completion included — is
    posted to the master as this rank's ``"error"`` and ends the rank
    (its share is no longer trustworthy); a teardown, or a master that
    is gone, ends it quietly.
    """
    try:
        state = _Rank(rank, f, owner_of_slot, known)
        while (cmd := endpoint.next_command())[0] != "stop":
            if cmd[0] == "gather":
                endpoint.post_result(("ok", rank, None, state.values(), None))
                continue
            recorder = EventRecorder() if cmd[1] else None
            job = state.job(cmd, recorder)
            report = run_lanes(
                job.core, job, n_lanes=n_threads, endpoint=endpoint,
                recorder=recorder,
            )
            endpoint.post_result(("ok", rank, report, job.result(), recorder))
    except TransportStopped:  # master tore the pool down, or is gone
        return
    except BaseException as exc:
        try:
            endpoint.post_result(("error", rank, repr(exc)))
        except (OSError, ValueError, TransportStopped) as post_exc:
            # pragma: no cover - result channel gone (master died or
            # closed the queue); the original failure would otherwise
            # vanish, so log both before exiting
            logger.error(
                "rank %d failed with %r and could not report it "
                "(result channel gone: %r)", rank, exc, post_exc,
            )


def _resolve_pool(
    n_procs: int, n_threads: int, placement: PlacementPolicy | None
) -> PlacementPolicy:
    """Validate the pool shape; ``placement=None`` selects the paper's
    2D block-cyclic rule."""
    if n_procs < 1:
        raise ValueError("need at least one process")
    if n_threads < 1:
        raise ValueError("need at least one thread per rank")
    if placement is None:
        return CyclicPlacement(n_procs)
    if placement.nprocs != n_procs:
        raise ValueError(
            f"placement {placement.name!r} was built for "
            f"{placement.nprocs} ranks, but {n_procs} were requested"
        )
    return placement


def _owner_of_slot(f: BlockMatrix, placement: PlacementPolicy) -> np.ndarray:
    """The rank owning each storage slot of ``f``."""
    return np.asarray(
        [placement.owner(int(bi), int(bj))
         for bi, bj in zip(f.blk_rowidx, f.blk_colidx)],
        dtype=np.int64,
    )


def _assignment(dag: TaskDAG, placement: PlacementPolicy) -> np.ndarray:
    """``placement.assign(dag)``, after refusing a task placed off the
    rank that stores its block, or a block stored outside the pool: a
    rank writes only the blocks it holds, so a split block's owner
    would keep a stale copy."""
    owner = placement.assign(dag)
    home = np.asarray(
        [placement.owner(t.bi, t.bj) for t in dag.tasks], dtype=np.int64
    )
    bad = np.flatnonzero((owner != home) | (home < 0) | (home >= placement.nprocs))
    if bad.size:
        t = dag.tasks[int(bad[0])]
        raise ValueError(
            f"placement {placement.name!r} puts block ({t.bi},{t.bj}) on rank "
            f"{int(home[t.tid])} and its task {t.tid} on rank "
            f"{int(owner[t.tid])}; a task runs where its block is stored, "
            f"on one of ranks 0..{placement.nprocs - 1}"
        )
    return owner


def _stop_ranks(transport: Transport, n_procs: int, master: int) -> None:
    """A ``"stop"`` for every rank, then wait for them to exit (forced
    after a grace period).  At interpreter exit a channel may already be
    closed; its rank is then reaped all the same.  Only the master that
    started the ranks stops them: a forked rank inherits its master's
    finalisers, and must not fire them at another pool."""
    if os.getpid() != master:
        return
    for rank in range(n_procs):
        try:
            transport.command(rank, ("stop",))
        except (OSError, ValueError):  # pragma: no cover - closed at exit
            pass
    transport.join(timeout=5.0)


class RankPool:
    """Resident ranks: one pool, started at a factorisation and kept —
    with each rank's factored share — across every later factor, solve
    and gather command, until :meth:`close` or :meth:`discard`.

    Not started until a distributed call needs it.  A call of another
    pool shape (ranks, threads per rank, placement, transport) replaces
    it: a factorisation discards the old ranks (their values are being
    replaced), a solve gathers their factors first.  A
    ``weakref.finalize`` stops and joins the ranks, without gathering,
    when the pool is collected and at interpreter exit; a failed command
    tears the pool down at once.  Torn down while the ranks held the only
    copy of the factors, the pool refuses to solve or gather until the
    next factorisation.
    """

    def __init__(self, *, lost: bool = False) -> None:
        self.transport: Transport | None = None
        self._shape: tuple | None = None
        self._owned: list[np.ndarray] = []
        self._shipped: dict[int, object] = {}  # id → the DAGs the ranks hold
        self._pending = False  # the ranks hold factors ``f`` lacks
        self._lost = lost      # ... and were torn down with them
        self._stopper: weakref.finalize | None = None
        self._timeout = 300.0  # the last call's, for a gather

    @property
    def is_open(self) -> bool:
        return self.transport is not None

    @property
    def lost(self) -> bool:
        """The ranks were torn down holding the only copy of the factors."""
        return self._lost

    def _open(self, f: BlockMatrix, shape: tuple, known: dict) -> None:
        n_procs, n_threads, placement, transport = shape
        owner_of_slot = _owner_of_slot(f, _resolve_pool(*shape[:3]))
        self._owned = [np.flatnonzero(owner_of_slot == r) for r in range(n_procs)]
        self.transport = transport or MultiprocessingTransport()
        self.transport.start(
            n_procs, _rank_main, lambda rank: (f, owner_of_slot, n_threads, known),
        )
        self._shape = shape
        self._stopper = weakref.finalize(
            self, _stop_ranks, self.transport, n_procs, os.getpid()
        )

    def _closed(self, lost: bool) -> None:
        self.transport, self._shape, self._shipped = None, None, {}
        self._pending, self._lost = False, lost

    def discard(self, *, replaced: bool = False) -> None:
        """Stop and join the ranks without gathering their values.
        Unless ``f``'s values are being ``replaced``, factors that only
        the ranks held are lost: a later solve or gather raises."""
        if self._stopper is not None:
            self._stopper()
        self._closed(lost=not replaced and (self._pending or self._lost))

    def _require_factors(self) -> None:
        if self._lost:
            raise RuntimeError(
                "the rank pool was torn down holding the only copy of the "
                "factors; refactorize first"
            )

    def gather(self, f: BlockMatrix) -> None:
        """Bring the ranks' factors into ``f`` (a no-op when ``f``
        already holds them); the ranks stay up."""
        self._require_factors()
        if self._pending:
            def install(rank: int, values) -> None:
                for slot, data in zip(self._owned[rank].tolist(), values):
                    f.blk_values[slot].data[...] = data

            self._round("gather", [("gather",)] * len(self._owned), install,
                        None, self._timeout, time.perf_counter())
            self._pending = False

    def close(self, f: BlockMatrix) -> None:
        """Gather the factors into ``f`` (unless a fault lost them), then
        stop and join the ranks."""
        if not self._lost:
            self.gather(f)
        self.discard()

    def _ship(self, f: BlockMatrix, shape: tuple, dag, payload) -> tuple[int, object]:
        """``(key, payload())`` of a command on ``dag``, which the ranks
        cache under its id: ``None`` in place of the payload once they
        hold it, and when this call starts the pool — its ranks inherit
        it by fork (holding ``dag`` keeps its id unique)."""
        key, known = id(dag), id(dag) in self._shipped
        self._shipped[key] = dag
        if self.is_open:
            return key, None if known else payload()
        self._open(f, shape, {key: payload()})
        return key, None

    def _round(
        self, what: str, commands: list, install, recorder, timeout: float,
        t_start: float,
    ) -> RunReport:
        """One command per rank, then every rank's result: reports merged
        into the returned one (recorders into ``recorder``), payloads
        handed to ``install(rank, payload)``.

        ``timeout`` bounds the wait for each rank: a dead or hung rank
        tears the pool down and raises, naming the command and the ranks
        no longer alive (at once, with their exit codes, when a process
        exited without a result).  A rank's ``"error"`` does the same at
        once — a failed rank can no longer feed its consumers, so the
        rest of the pool would block forever on their inboxes.
        """
        n_procs = len(commands)
        report = RunReport(
            n_workers=self._shape[1], n_procs=n_procs,
            tasks_per_proc=[0] * n_procs,
        )
        for rank, cmd in enumerate(commands):
            self.transport.command(rank, cmd)
        for _ in range(n_procs):
            _, rank, part, payload, rank_recorder = self._result(what, timeout)
            if part is not None:
                report.merge(part)
                report.tasks_per_proc[rank] = part.tasks_executed
                report.nrhs = part.nrhs
            if recorder is not None and rank_recorder is not None:
                recorder.merge(rank_recorder)
            install(rank, payload)
        report.seconds = time.perf_counter() - t_start
        return report

    def _result(self, what: str, timeout: float):
        """The next rank's ``"ok"`` result; a timeout or a rank's
        ``"error"`` tears the pool down and raises."""
        try:
            msg = self.transport.get_result(timeout)
            if msg[0] != "error":
                return msg
            error = RuntimeError(f"rank {msg[1]}: {msg[2]} (distributed {what})")
        except TransportTimeout as exc:
            exits = f", exit codes {exc.exit_codes}" if exc.exit_codes else ""
            error = RuntimeError(
                f"distributed {what} timed out after {exc.timeout:.3g}s "
                f"(ranks no longer alive: {exc.dead_ranks}{exits}) — "
                "worker crash or deadlock"
            )
        self._stopper.detach()
        self.transport.terminate()
        self.transport.join(timeout=5.0)
        self._closed(lost=self._pending)
        raise error

    def factor(
        self, f: BlockMatrix, dag: TaskDAG, options: NumericOptions,
        shape: tuple, *, timeout: float, recorder,
    ) -> RunReport:
        """Factorise ``f``'s values on the ranks, which keep the factors.
        A freshly started pool inherits the values (and the DAG) from
        this process; an open one is shipped each rank's owned values."""
        t_start, self._timeout = time.perf_counter(), timeout
        if self._shape != shape:
            self.discard(replaced=True)
        values = [None] * shape[0]
        if self.is_open:
            values = [[f.blk_values[s].data for s in owned.tolist()]
                      for owned in self._owned]
        placement = _resolve_pool(*shape[:3])
        key, entry = self._ship(
            f, shape, dag, lambda: (dag, _assignment(dag, placement))
        )
        # from here on the factors, once made, are the ranks' alone
        self._pending, self._lost = True, False
        return self._round(
            "factorisation",
            [("factor", recorder is not None, key, entry, options, v)
             for v in values],
            lambda rank, payload: None, recorder, timeout, t_start,
        )

    def tsolve(
        self, f: BlockMatrix, tdag: TSolveDAG, y0: np.ndarray, shape: tuple,
        *, timeout: float, recorder,
    ) -> tuple[np.ndarray, RunReport]:
        """Both sweeps on the ranks' factors: ``y0`` out, ``x`` back."""
        t_start, self._timeout = time.perf_counter(), timeout
        if self.is_open and self._shape != shape:
            self.close(f)
        self._require_factors()
        key, entry = self._ship(f, shape, tdag, lambda: tdag)
        x = np.empty_like(y0)
        filled = np.zeros(f.nb, dtype=bool)

        def install(rank: int, xparts) -> None:
            for k, arr in xparts:
                x[f.block_slice(k)] = arr
                filled[k] = True

        report = self._round(
            "tsolve", [("solve", recorder is not None, key, entry, y0)] * shape[0],
            install, recorder, timeout, t_start,
        )
        if not np.all(filled):
            raise RuntimeError(
                f"distributed tsolve returned {int(filled.sum())} of {f.nb} "
                "solution segments"
            )
        return x, report


@contextmanager
def _pool_of_call(pool: RankPool | None, f: BlockMatrix):
    """``pool``; without one, a pool of this call alone, whose factors
    are gathered into ``f`` before it is closed."""
    if pool is not None:
        yield pool
        return
    pool = RankPool()
    try:
        yield pool
        pool.close(f)
    finally:
        pool.discard()


def factorize_distributed(
    f: BlockMatrix,
    dag: TaskDAG,
    n_procs: int = 2,
    *,
    options: NumericOptions | None = None,
    timeout: float = 300.0,
    transport: Transport | None = None,
    recorder: EventRecorder | None = None,
    placement: PlacementPolicy | None = None,
    n_threads: int = 1,
    pool: RankPool | None = None,
) -> RunReport:
    """Factorise ``f`` in place across ``n_procs`` ranks.

    Tasks and block storage follow the block→rank map of ``placement``
    (a fitted :class:`~repro.core.placement.PlacementPolicy`; ``None``
    selects the paper's 2D block-cyclic rule).  The load balancer is not
    applied here: migrating a task away from its block's owner would
    require remote writes, which the message protocol — like PanguLU's —
    does not do for targets.  With ``n_threads > 1`` each rank drives a
    pool of that many compute threads over its shared scheduler core
    (the ``"hybrid"`` engine).  ``options`` travels to the ranks whole,
    so they select kernels, plan and compress exactly as the in-process
    engines do.

    ``pool`` is a :class:`RankPool` that keeps the ranks, and the
    factors on them, after the call: ``f``'s values in this process stay
    those that were factored until :meth:`RankPool.gather` brings the
    factors home.  Without one, the call opens a pool of its own,
    gathers the factors into ``f`` and closes it.

    ``transport`` selects the message substrate: the default
    :class:`~repro.runtime.transports.MultiprocessingTransport` (one OS
    process per rank) or a
    :class:`~repro.runtime.transports.LoopbackTransport` (threads in this
    process, deterministic, fault-injectable).  ``timeout`` bounds the
    wait for each rank's result; a dead or hung rank (failure injection,
    OOM kill, …) terminates the pool and raises instead of hanging the
    caller.  Pass a ``recorder`` to collect per-rank task and message
    send/recv events from the real run (merged into it on success) for
    Chrome-trace export.  A duplicated message is refused by the
    receiving rank's core as a second completion and surfaces as that
    rank's error instead of silent corruption.
    """
    options = options or NumericOptions()
    _resolve_pool(n_procs, n_threads, placement)
    with _pool_of_call(pool, f) as p:
        return p.factor(
            f, dag, options, (n_procs, n_threads, placement, transport),
            timeout=timeout, recorder=recorder,
        )


def tsolve_distributed(
    f: BlockMatrix,
    tdag: TSolveDAG,
    b,
    n_procs: int = 2,
    *,
    timeout: float = 300.0,
    transport: Transport | None = None,
    recorder: EventRecorder | None = None,
    placement: PlacementPolicy | None = None,
    n_threads: int = 1,
    pool: RankPool | None = None,
) -> tuple:
    """Both triangular sweeps across ``n_procs`` ranks.

    ``tdag`` must be the solve DAG built with this run's block→rank
    owner map (``build_tsolve_dag(f, placement.owner)``;
    ``placement=None`` selects the paper's 2D
    block-cyclic rule) — diagonal tasks run on the diagonal block's
    owner, ``LSUM`` tasks on the owner of the blocks they multiply, so
    factor blocks stay put and only RHS segments and stacked products
    travel.  Messages carry real bytes (the payload's ``nbytes``),
    accounted in the returned report; each segment's products are summed
    in a fixed order wherever they were computed, so the gathered
    solution is bit-identical to
    :func:`repro.core.tsolve.tsolve_sequential`.  ``b`` passes
    :func:`~repro.core.tsolve.checked_rhs`.  With ``n_threads > 1``
    each rank drains its scheduler core with a thread pool (the
    ``"hybrid"`` engine).  ``pool`` / ``transport`` / ``timeout`` /
    ``recorder`` behave exactly as in :func:`factorize_distributed`: the
    pool's ranks solve with the factors they hold, a pool of the call
    alone forks them from ``f``.
    Returns ``(x, RunReport)``.
    """
    _resolve_pool(n_procs, n_threads, placement)
    y0 = checked_rhs(b, f.n, panel=True)
    with _pool_of_call(pool, f) as p:
        return p.tsolve(
            f, tdag, y0, (n_procs, n_threads, placement, transport),
            timeout=timeout, recorder=recorder,
        )

"""Distributed-memory synchronisation-free executor.

The closest in-repo analogue of PanguLU's MPI execution: the factorisation
runs on ``n_procs`` ranks, each of which

* initially holds **only the blocks it owns** under the configured
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

The message substrate is a pluggable :class:`~repro.runtime.transports.
Transport`: by default one OS process per rank with ``multiprocessing``
queues (block payloads are the raw ``(indptr, indices, data)`` arrays —
on the arena layout these are zero-copy slab slices, and the wire-byte
accounting is unchanged because a view's ``nbytes`` is the slice's size);
the in-process :class:`~repro.runtime.transports.LoopbackTransport` runs
the identical protocol on threads for deterministic testing and fault
injection.  The master scatters the owned blocks, gathers the factored
ones back, and patches them into the caller's
:class:`~repro.core.blocking.BlockMatrix`, so the result is
indistinguishable from a sequential factorisation (asserted by the
tests).

Every rank runs the one lane driver (:func:`repro.runtime.lanes.run_lanes`)
with its endpoint: this module only supplies the rank-side halves of the
two jobs (what a finished task publishes, how a received message is
installed), the rank main both phases share, and the master's
scatter/gather.  With ``n_threads > 1`` each rank becomes a **hybrid**
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
import time

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

__all__ = ["factorize_distributed", "tsolve_distributed"]

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
    :meth:`~BlockMatrix.restricted` share of ``f``, panels shipped to
    their consumers, received panels installed.

    With ``compress_tol > 0`` the rank compresses its own GESSM/TSTRF
    panel outputs and ships low-rank ``"lr"`` payloads to their
    consumers; the gathered factors are unaffected (owners keep and
    return the exact CSC arrays).
    """

    def __init__(
        self, rank: int, recorder: EventRecorder | None, f: BlockMatrix,
        owner_of_slot: np.ndarray, dag: TaskDAG, owner_of_task: np.ndarray,
        options: NumericOptions,
    ) -> None:
        view = f.restricted(np.flatnonzero(owner_of_slot == rank))
        my_tasks = np.flatnonzero(owner_of_task == rank)
        super().__init__(view, dag, options, my_tasks)
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
        # panel results are final (the panel is its block's last writer),
        # so the live arrays are stable by the time any consumer reads them
        return (
            dests,
            *_block_payload(self.f, tid, task.bi, task.bj, self.target[tid]),
        )

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

    def result(self) -> list[tuple[int, np.ndarray]]:
        """What goes home beside the report: ``(slot, values)`` of the
        owned blocks (received operand copies stay; owners always keep
        the exact CSC arrays, so the gathered factors are
        compression-free regardless of ``compress_tol``)."""
        view = self.f
        return [(slot, view.blk_values[slot].data) for slot in view.owned]


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
        self, rank: int, recorder: EventRecorder | None, f: BlockMatrix,
        owner_of_slot: np.ndarray, tdag: TSolveDAG, b: np.ndarray,
    ) -> None:
        view = f.restricted(np.flatnonzero(owner_of_slot == rank))
        y = b.copy()
        super().__init__(view, tdag, y, np.empty_like(y))
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


def _rank_main(
    rank: int, endpoint: Endpoint, build_job, payload: tuple,
    trace: bool, n_threads: int,
) -> None:
    """One rank of either phase: build the rank's job from what the
    master scattered, drain it with the lane driver over ``endpoint``,
    ship the run's report and ``job.result()`` back.

    Any failure on a compute lane or the receiver — a duplicated message
    refused by the rank's core as a second completion included — is
    posted to the master as this rank's ``"error"``.
    """
    try:
        recorder = EventRecorder() if trace else None
        job = build_job(rank, recorder, *payload)
        report = run_lanes(
            job.core, job, n_lanes=n_threads, endpoint=endpoint,
            recorder=recorder,
        )
        endpoint.post_result(("ok", rank, report, job.result(), recorder))
    except TransportStopped:  # master tore the pool down; exit quietly
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


def _run_ranks(
    what: str, n_procs: int, n_threads: int, build_job, payload_of_rank,
    install, *, transport: Transport | None, timeout: float,
    recorder: EventRecorder | None,
) -> RunReport:
    """Launch ``n_procs`` ranks of :func:`_rank_main` and gather them:
    each rank's report is merged into the returned one (and its recorder
    into ``recorder``), its ``job.result()`` handed to ``install``.

    ``timeout`` bounds the wait for each rank: a dead or hung rank tears
    the pool down and raises, naming the ranks no longer alive (at once,
    with their exit codes, when a process exited without a result).  A
    rank's ``"error"`` does the same at once — a failed rank can no
    longer feed its consumers, so the rest of the pool would block
    forever on their inboxes.
    """
    report = RunReport(
        n_workers=n_threads, n_procs=n_procs, tasks_per_proc=[0] * n_procs
    )
    t_start = time.perf_counter()
    transport = transport or MultiprocessingTransport()
    transport.start(
        n_procs, _rank_main,
        lambda rank: (
            build_job, payload_of_rank(rank), recorder is not None, n_threads,
        ),
    )
    for _ in range(n_procs):
        try:
            msg = transport.get_result(timeout)
        except TransportTimeout as exc:
            transport.terminate()
            transport.join(timeout=5)
            exits = f", exit codes {exc.exit_codes}" if exc.exit_codes else ""
            raise RuntimeError(
                f"distributed {what} timed out after {exc.timeout:.3g}s "
                f"(ranks no longer alive: {exc.dead_ranks}{exits}) — "
                "worker crash or deadlock"
            ) from None
        if msg[0] == "error":
            transport.terminate()
            transport.join(timeout=30)
            raise RuntimeError(f"rank {msg[1]}: {msg[2]}")
        _, rank, part, result, rank_recorder = msg
        report.merge(part)
        report.tasks_per_proc[rank] = part.tasks_executed
        report.nrhs = part.nrhs
        if recorder is not None and rank_recorder is not None:
            recorder.merge(rank_recorder)
        install(result)
    transport.join(timeout=30)
    report.seconds = time.perf_counter() - t_start
    return report


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

    ``transport`` selects the message substrate: the default
    :class:`~repro.runtime.transports.MultiprocessingTransport` (one OS
    process per rank) or a
    :class:`~repro.runtime.transports.LoopbackTransport` (threads in this
    process, deterministic, fault-injectable).  ``timeout`` bounds the
    wait for each rank's result; a dead or hung rank (failure injection,
    OOM kill, …) terminates the remaining pool and raises instead of
    hanging the caller.  Pass a ``recorder`` to collect per-rank task and
    message send/recv events from the real run (merged into it on
    success) for Chrome-trace export.  A duplicated message is refused
    by the receiving rank's core as a second completion and surfaces as
    that rank's error instead of silent corruption.
    """
    options = options or NumericOptions()
    placement = _resolve_pool(n_procs, n_threads, placement)
    owner_of_slot = _owner_of_slot(f, placement)
    owner_of_task = placement.assign(dag)

    def install(blocks) -> None:
        for slot, data in blocks:
            f.blk_values[slot].data[...] = data

    return _run_ranks(
        "factorisation", n_procs, n_threads, _RankFactorJob,
        lambda rank: (f, owner_of_slot, dag, owner_of_task, options),
        install, transport=transport, timeout=timeout, recorder=recorder,
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
    ``"hybrid"`` engine).  ``transport`` / ``timeout`` / ``recorder``
    behave exactly as in :func:`factorize_distributed`.
    Returns ``(x, RunReport)``.
    """
    placement = _resolve_pool(n_procs, n_threads, placement)
    y0 = checked_rhs(b, f.n, panel=True)
    owner_of_slot = _owner_of_slot(f, placement)
    x = np.empty_like(y0)
    filled = np.zeros(f.nb, dtype=bool)

    def install(xparts) -> None:
        for k, arr in xparts:
            x[f.block_slice(k)] = arr
            filled[k] = True

    report = _run_ranks(
        "tsolve", n_procs, n_threads, _RankSolveJob,
        lambda rank: (f, owner_of_slot, tdag, y0),
        install, transport=transport, timeout=timeout, recorder=recorder,
    )
    if not np.all(filled):
        raise RuntimeError(
            f"distributed tsolve returned {int(filled.sum())} of {f.nb} "
            "solution segments"
        )
    return x, report

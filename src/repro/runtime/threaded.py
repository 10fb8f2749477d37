"""Shared-memory synchronisation-free executor.

The distributed behaviour of PanguLU is *modelled* by the event simulator;
this module complements it by *really executing* the synchronisation-free
counter protocol of Section 4.4 with worker threads: a shared dependency
counter per task, a shared priority queue of ready tasks, no barriers
anywhere.  NumPy kernels release the GIL for their array work, so workers
overlap; per-target-slot locks serialise concurrent SSSSM updates into
the same block (in the distributed setting the block's owner process does
this serialisation implicitly).

Both entry points are the ``n_lanes = n_workers``, no-endpoint
configuration of the one lane driver
(:func:`repro.runtime.lanes.run_lanes`), which holds the threading
policy: the pool's condition lock is held only for queue pops and
completion bookkeeping, feature extraction and kernel selection run
outside it, per-lane statistics merge once at exit, and waiters are woken
one-per-new-task (``notify(n)``) instead of ``notify_all`` — so workers
actually overlap during the vectorised kernels instead of convoying on
the lock.

Used by the tests to prove the protocol is deadlock-free and produces the
same factors as sequential execution, and by the quickstart example as a
"run it for real" parallel mode.
"""

from __future__ import annotations

from ..core.blocking import BlockMatrix
from ..core.dag import TaskDAG
from ..core.numeric import NumericOptions, factorize
from ..core.tsolve import tsolve_lanes
from ..core.tsolve_dag import TSolveDAG
from ..kernels.plans import PlanCache
from .scheduler import EventRecorder, RunReport

__all__ = ["factorize_threaded", "tsolve_threaded"]


def factorize_threaded(
    f: BlockMatrix,
    dag: TaskDAG,
    options: NumericOptions | None = None,
    *,
    n_workers: int = 4,
    recorder: EventRecorder | None = None,
    checker=None,
) -> RunReport:
    """Factorise the blocked matrix in place with ``n_workers`` threads.

    Raises the first kernel exception encountered (after quiescing the
    pool).  The result is numerically equivalent to sequential execution
    up to floating-point reassociation of commuting Schur updates.  Pass
    an :class:`~repro.runtime.scheduler.EventRecorder` to capture
    per-worker task events and ready-depth samples for Chrome-trace
    export of the real run, and a
    :class:`~repro.devtools.racecheck.RaceChecker` (``checker``) to
    verify the single-writer / exactly-once invariants with per-worker
    provenance.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    return factorize(
        f, dag, options, recorder=recorder, checker=checker, n_lanes=n_workers
    )


def tsolve_threaded(
    f: BlockMatrix,
    tdag: TSolveDAG,
    b,
    *,
    n_workers: int = 4,
    plans: PlanCache | None = None,
    recorder: EventRecorder | None = None,
    checker=None,
) -> tuple:
    """Both triangular sweeps with ``n_workers`` threads over an
    *executable* solve DAG (:func:`repro.core.tsolve_dag.build_tsolve_dag`
    with ``executable=True``).

    Same threading policy as :func:`factorize_threaded`, with per-segment
    locks around the RHS writes — and, because the DAG totally orders the
    writers of every segment, the solution is *bit-identical* to
    :func:`repro.core.tsolve.tsolve_sequential`.  Returns
    ``(x, RunReport)``; ``b`` may be a vector or an ``(n, k)``
    multi-RHS panel.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    return tsolve_lanes(
        f, tdag, b, n_lanes=n_workers, plans=plans, recorder=recorder,
        checker=checker,
    )

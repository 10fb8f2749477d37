"""Runtime race / invariant detector for the synchronisation-free engines.

The counter protocol has four load-bearing invariants the engines must
uphold at run time:

1. **single writer** — each block slot has at most one writer task at
   any instant (the threaded engine's per-block locks, the distributed
   owner rule);
2. **no negative counters** — every dependency counter reaches exactly
   zero (enforced unconditionally by
   :class:`~repro.runtime.scheduler.SchedulerCore` via
   :class:`~repro.runtime.scheduler.CounterUnderflowError`);
3. **exactly-once completion** — every task completes once; a duplicate
   completion means a double execution or a duplicated message, a
   missing one means a dropped message;
4. **no re-issue** — the ready-heap never hands out a task twice, and
   never after it completed.

:class:`RaceChecker` tracks all four with task/worker provenance.  It is
opt-in (``SolverOptions.validate_concurrency=True`` or the
``REPRO_CHECK=1`` environment variable — see :func:`validation_enabled`)
because the tracking adds a lock acquisition per scheduler event.  The
lane driver (:func:`repro.runtime.lanes.run_lanes`) reports to it
directly, with the lane id, on every engine; code that drives a core by
hand can instead use :class:`CheckedSchedulerCore`, which wires the
checker into ``pop``/``complete``.

A violation raises :class:`ConcurrencyViolation` naming the slot/task
and both parties, and propagates through the engine's normal error path
(the threaded pool quiesces; a distributed rank posts it to the master,
which tears the pool down).
"""

from __future__ import annotations

import os
import threading

from ..runtime.scheduler import SchedulerCore

__all__ = [
    "ConcurrencyViolation",
    "RaceChecker",
    "CheckedSchedulerCore",
    "validation_enabled",
]


class ConcurrencyViolation(RuntimeError):
    """A runtime invariant of the counter protocol was broken."""


def validation_enabled(options=None) -> bool:
    """Whether concurrency validation is requested: the
    ``validate_concurrency`` attribute of ``options`` (when present) or
    the ``REPRO_CHECK`` environment variable (any value but ``0``)."""
    if options is not None and getattr(options, "validate_concurrency", False):
        return True
    return os.environ.get("REPRO_CHECK", "0") not in ("", "0")


class RaceChecker:
    """Ownership and protocol tracker shared by one engine run.

    All methods are thread-safe (one internal lock) and raise
    :class:`ConcurrencyViolation` immediately on a broken invariant —
    provenance is in the message, and :attr:`violations` keeps a copy so
    post-mortems can read everything that fired even if the engine ate
    the exception.

    ``worker`` arguments are lane identifiers: the lane index within
    the pool (0 on a single lane; the receiver thread of a hybrid rank
    is lane ``n_lanes``).  Ranks are told apart by ``label``.
    """

    def __init__(self, *, label: str = "run") -> None:
        self.label = label
        self._lock = threading.Lock()
        self._writers: dict[int, tuple[int, int]] = {}   # slot → (tid, worker)
        self._issued: dict[int, int] = {}                # tid → worker
        self._completed: dict[int, int] = {}             # tid → worker
        self.violations: list[str] = []

    def _fail(self, message: str) -> None:
        message = f"[{self.label}] {message}"
        self.violations.append(message)
        raise ConcurrencyViolation(message)

    # -- block write ownership -----------------------------------------
    def begin_write(self, slot: int, tid: int, worker: int) -> None:
        """Claim block ``slot`` for ``tid``; at most one claim may be
        live per slot (call inside the engine's per-block critical
        section so a broken lock discipline surfaces here)."""
        with self._lock:
            holder = self._writers.get(slot)
            if holder is not None:
                other_tid, other_worker = holder
                self._fail(
                    f"double writer on block slot {slot}: task {tid} "
                    f"(worker {worker}) began writing while task "
                    f"{other_tid} (worker {other_worker}) still holds it"
                )
            self._writers[slot] = (tid, worker)

    def end_write(self, slot: int, tid: int, worker: int) -> None:
        with self._lock:
            holder = self._writers.pop(slot, None)
            if holder != (tid, worker):
                self._fail(
                    f"unbalanced write release on block slot {slot} by "
                    f"task {tid} (worker {worker}): current holder is "
                    f"{holder}"
                )

    # -- scheduler protocol --------------------------------------------
    def on_pop(self, tid: int, worker: int) -> None:
        """A task left the ready-heap; it must never leave it twice."""
        with self._lock:
            if tid in self._completed:
                self._fail(
                    f"ready-heap re-issued finished task {tid} to worker "
                    f"{worker} (completed by worker "
                    f"{self._completed[tid]})"
                )
            if tid in self._issued:
                self._fail(
                    f"task {tid} issued twice: to worker "
                    f"{self._issued[tid]}, then to worker {worker}"
                )
            self._issued[tid] = worker

    def on_complete(self, tid: int, worker: int) -> None:
        """A completion (local execution or received message) for ``tid``;
        each task completes exactly once per scheduler."""
        with self._lock:
            if tid in self._completed:
                self._fail(
                    f"task {tid} completed twice: by worker "
                    f"{self._completed[tid]}, then by worker {worker} — "
                    "duplicate message delivery or double execution"
                )
            self._completed[tid] = worker

    def final_check(self, core: SchedulerCore) -> None:
        """End-of-run audit: no write claim still open, no issued task
        without a completion, every owned task completed (a shortfall
        lists the dropped tasks and their stuck counters)."""
        with self._lock:
            if self._writers:
                self._fail(
                    f"write claims still open at shutdown: "
                    f"{sorted(self._writers.items())}"
                )
            in_flight = sorted(set(self._issued) - set(self._completed))
            if in_flight:
                self._fail(
                    f"task(s) {in_flight} were issued but never completed "
                    "— completion dropped (workers "
                    f"{[self._issued[t] for t in in_flight]})"
                )
            owned_completions = sum(
                1 for tid in self._completed
                if core.owned_mask is None or core.owned_mask[tid]
            )
            if owned_completions != core.n_owned:
                stuck = [
                    (tid, int(core.counters[tid]))
                    for tid in range(len(core.entries))
                    if (core.owned_mask is None or core.owned_mask[tid])
                    and tid not in self._completed
                ]
                self._fail(
                    f"only {owned_completions} of {core.n_owned} owned "
                    f"tasks completed; dropped (tid, stuck counter): "
                    f"{stuck[:20]}"
                )


class CheckedSchedulerCore(SchedulerCore):
    """A :class:`SchedulerCore` that reports every ``pop``/``complete``
    to a :class:`RaceChecker`, attributing events to its ``lane`` —
    the drop-in for a hand-driven core (unit tests, probes).  The lane
    driver calls the checker directly with the real lane id instead."""

    __slots__ = ("checker",)

    def __init__(self, *args, checker: RaceChecker, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.checker = checker

    @classmethod
    def from_dag(cls, dag, *, checker: RaceChecker, **kwargs) -> CheckedSchedulerCore:
        core = SchedulerCore.from_dag(dag, **kwargs)
        return cls.adopt(core, checker)

    @classmethod
    def adopt(cls, core: SchedulerCore, checker: RaceChecker) -> CheckedSchedulerCore:
        """Rewrap a freshly built plain core (shares its arrays)."""
        self = object.__new__(cls)
        for slot in SchedulerCore.__slots__:
            setattr(self, slot, getattr(core, slot))
        self.checker = checker
        return self

    def pop(self) -> int | None:
        tid = super().pop()
        if tid is not None:
            self.checker.on_pop(tid, self.lane)
        return tid

    def complete(self, tid: int) -> int:
        self.checker.on_complete(tid, self.lane)
        return super().complete(tid)

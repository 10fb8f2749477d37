"""Pre-execution schedule verification for the factor and solve DAGs.

The sync-free counter protocol (paper Section 4.4) executes whatever
graph it is handed with **no runtime safety net**: a wrong dependency
counter deadlocks or double-fires a task, a missing writer-chain edge
lets two kernels race on one block, a cycle hangs every engine.  The
invariants are all decidable from the DAG alone, so this module checks
them *before* a single kernel runs:

* **edges** — every successor tid is a valid task index (``bad-edge``);
* **counters** — each task's ``n_deps`` equals its in-degree, the
  invariant the counter protocol's vectorised decrement relies on
  (``counter-mismatch``);
* **acyclicity** — a Kahn pass covers every task; otherwise the residual
  cycle is extracted and named (``cycle``);
* **single-writer chains** — for a factor DAG, every SSSSM update has a
  direct edge to its target block's panel task, so the panel
  factorisation can never overlap an update into the same block
  (``double-writer``); for a solve DAG, the writers of every
  RHS segment carry contiguous ``seq_y``/``seq_x`` positions
  (``segment-order``) and consecutive writers are joined by a direct
  edge (``unchained-writer``), with ``DIAG_F`` seeding the backward
  segment before any ``UPD_B`` lands on it;
* **ownership consistency** — when a task→rank ``assignment`` is passed
  alongside a factor DAG, every task targeting one block must run on a
  single rank (the message protocol never writes a remote block) and
  each rank id must be in range (``split-ownership``).  The check is
  placement-agnostic: *any* single-writer-consistent ownership map
  passes — block-cyclic, cost-model, or hand-rolled.

:func:`verify_dag` accepts either DAG flavour (both expose
``successors`` and ``n_deps``), raises :class:`ScheduleViolation` —
a ``ValueError`` carrying a stable ``code`` from the list above — on
the first violation, and returns a :class:`ScheduleReport` summary on
success.  It is wired behind ``SolverOptions.verify_schedule`` / the
CLI ``--verify`` flag, and is cheap enough (linear in edges) to leave
on for any run whose DAG came from new blocking or mapping code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dag import TaskDAG, TaskType
from .tsolve_dag import TSolveDAG, TSolveTaskType

__all__ = ["ScheduleViolation", "ScheduleReport", "verify_dag"]


class ScheduleViolation(ValueError):
    """A DAG failed a pre-execution schedule check.

    ``code`` is a stable machine-readable diagnostic name (``bad-edge``,
    ``counter-mismatch``, ``cycle``, ``double-writer``,
    ``unchained-writer``, ``segment-order``, ``split-ownership``); the
    message names the offending tasks.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


@dataclass(frozen=True)
class ScheduleReport:
    """Summary of a successful verification."""

    kind: str          # "factor" | "tsolve"
    n_tasks: int
    n_edges: int
    n_roots: int
    depth: int         # longest dependency chain, in tasks

    def __str__(self) -> str:
        return (
            f"{self.kind} DAG verified: {self.n_tasks} tasks, "
            f"{self.n_edges} edges, {self.n_roots} roots, "
            f"critical path {self.depth} tasks"
        )


def _check_edges(succ: list[list[int]]) -> int:
    n = len(succ)
    n_edges = 0
    for tid, outs in enumerate(succ):
        for s in outs:
            if not (0 <= s < n):
                raise ScheduleViolation(
                    "bad-edge",
                    f"task {tid} lists successor {s}, outside the valid "
                    f"tid range [0, {n})",
                )
            n_edges += 1
    return n_edges


def _check_counters(succ: list[list[int]], deps: np.ndarray) -> None:
    indeg = np.zeros(len(succ), dtype=np.int64)
    for outs in succ:
        for s in outs:
            indeg[s] += 1
    bad = np.nonzero(indeg != deps)[0]
    if bad.size:
        t = int(bad[0])
        raise ScheduleViolation(
            "counter-mismatch",
            f"task {t} has dependency counter {int(deps[t])} but "
            f"{int(indeg[t])} incoming edges ({bad.size} task"
            f"{'s' if bad.size != 1 else ''} total) — the sync-free "
            "counter protocol would deadlock or double-fire",
        )


def _check_acyclic(succ: list[list[int]], deps: np.ndarray) -> tuple[int, int]:
    """Kahn pass; returns (n_roots, depth) or raises with a named cycle."""
    n = len(succ)
    indeg = deps.copy()
    stack = [t for t in range(n) if indeg[t] == 0]
    n_roots = len(stack)
    depth = np.ones(n, dtype=np.int64)
    seen = 0
    max_depth = 0
    while stack:
        t = stack.pop()
        seen += 1
        max_depth = max(max_depth, int(depth[t]))
        for s in succ[t]:
            depth[s] = max(depth[s], depth[t] + 1)
            indeg[s] -= 1
            if indeg[s] == 0:
                stack.append(s)
    if seen != n:
        remaining = {t for t in range(n) if indeg[t] > 0}
        cycle = _extract_cycle(succ, remaining)
        raise ScheduleViolation(
            "cycle",
            f"dependency cycle among {len(remaining)} tasks: "
            + " -> ".join(str(t) for t in cycle)
            + " — no engine can ever start them",
        )
    return n_roots, max_depth


def _extract_cycle(succ: list[list[int]], remaining: set[int]) -> list[int]:
    """One concrete cycle inside the non-topological residue.

    The residue holds cycle members *and* everything downstream of them,
    including sinks, so first trim nodes with no successors left in the
    set (reverse Kahn on out-degree) until only cycles remain, then walk
    successors from the smallest survivor until a tid repeats.
    """
    core = set(remaining)
    out = {t: sum(1 for s in succ[t] if s in core) for t in core}
    preds: dict[int, list[int]] = {t: [] for t in core}
    for t in core:
        for s in succ[t]:
            if s in core:
                preds[s].append(t)
    stack = [t for t in core if out[t] == 0]
    while stack:
        t = stack.pop()
        core.discard(t)
        for p in preds[t]:
            out[p] -= 1
            if out[p] == 0 and p in core:
                stack.append(p)
    start = min(core)
    path: list[int] = []
    index: dict[int, int] = {}
    t = start
    while t not in index:
        index[t] = len(path)
        path.append(t)
        t = next(s for s in succ[t] if s in core)
    return path[index[t]:] + [t]


def _check_factor_writers(dag) -> None:
    for t in dag.tasks:
        if t.ttype != TaskType.SSSSM:
            continue
        panel = dag.panel_of_block.get((t.bi, t.bj))
        if panel is None:
            raise ScheduleViolation(
                "double-writer",
                f"SSSSM task {t.tid} updates block ({t.bi},{t.bj}), "
                "which has no panel task — the update has no ordered "
                "consumer",
            )
        if panel not in t.successors:
            raise ScheduleViolation(
                "double-writer",
                f"SSSSM task {t.tid} into block ({t.bi},{t.bj}) has no "
                f"direct edge to that block's panel task {panel} — the "
                "panel factorisation could run concurrently with the "
                "update (two writers on one block)",
            )


def _check_tsolve_chains(dag) -> None:
    n = len(dag.kinds)
    succ_sets = [set(s) for s in dag.successors]
    for arr, label in ((dag.seq_y, "y"), (dag.seq_x, "x")):
        writers: dict[int, list[int]] = {}
        for tid in range(n):
            if arr[tid] >= 0:
                writers.setdefault(int(dag.target[tid]), []).append(tid)
        for seg, tids in writers.items():
            tids.sort(key=lambda t: int(arr[t]))
            seqs = [int(arr[t]) for t in tids]
            if seqs != list(range(len(tids))):
                raise ScheduleViolation(
                    "segment-order",
                    f"{label}-segment {seg} writer sequence is {seqs} "
                    f"(tasks {tids}) — expected the contiguous order "
                    f"0..{len(tids) - 1}",
                )
            if label == "x":
                first = dag.kinds[tids[0]]
                if first != int(TSolveTaskType.DIAG_F):
                    raise ScheduleViolation(
                        "segment-order",
                        f"x-segment {seg} is first written by task "
                        f"{tids[0]} (kind {int(first)}), not by its "
                        "DIAG_F seed — backward updates would "
                        "accumulate on an unseeded segment",
                    )
            for a, b in zip(tids, tids[1:]):
                if b not in succ_sets[a]:
                    raise ScheduleViolation(
                        "unchained-writer",
                        f"{label}-segment {seg}: consecutive writers "
                        f"{a} (seq {int(arr[a])}) and {b} (seq "
                        f"{int(arr[b])}) have no direct edge — they "
                        "could race on the segment and break "
                        "bit-identical execution",
                    )


def _check_ownership(dag, assignment: np.ndarray, nprocs: int | None) -> None:
    """Single-writer ownership: tasks sharing a target block share a
    rank, rank ids are in range.  Placement-agnostic — any consistent
    map (cyclic, cost-model, custom) passes."""
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != (len(dag.tasks),):
        raise ScheduleViolation(
            "split-ownership",
            f"assignment has {assignment.size} entries for "
            f"{len(dag.tasks)} tasks",
        )
    if assignment.size and (
        int(assignment.min()) < 0
        or (nprocs is not None and int(assignment.max()) >= nprocs)
    ):
        bad = int(np.flatnonzero(
            (assignment < 0)
            | (assignment >= (nprocs if nprocs is not None else np.inf))
        )[0])
        raise ScheduleViolation(
            "split-ownership",
            f"task {bad} is assigned to rank {int(assignment[bad])}, "
            f"outside the valid range [0, {nprocs})",
        )
    owner_of_block: dict[tuple[int, int], tuple[int, int]] = {}
    for t in dag.tasks:
        key = (t.bi, t.bj)
        rank = int(assignment[t.tid])
        seen = owner_of_block.get(key)
        if seen is None:
            owner_of_block[key] = (rank, t.tid)
        elif seen[0] != rank:
            raise ScheduleViolation(
                "split-ownership",
                f"block ({t.bi},{t.bj}) is written from rank {seen[0]} "
                f"(task {seen[1]}) and rank {rank} (task {t.tid}) — the "
                "message protocol cannot write a remote block, so a "
                "split-ownership map deadlocks or corrupts the factor",
            )


def verify_dag(dag, *, assignment=None, nprocs: int | None = None) -> ScheduleReport:
    """Statically verify a factor or solve DAG (module docstring);
    raises :class:`ScheduleViolation` on the first violation.

    ``assignment`` (optional, factor DAGs) is a per-task rank array to
    check for single-writer ownership consistency; ``nprocs`` bounds the
    valid rank range when given.
    """
    if not isinstance(dag, (TaskDAG, TSolveDAG)):
        raise TypeError(
            f"verify_dag: unsupported DAG type {type(dag).__name__} "
            "(expected TaskDAG or TSolveDAG)"
        )
    kind = "factor" if isinstance(dag, TaskDAG) else "tsolve"
    succ = [list(s) for s in dag.successors]
    deps = np.asarray(dag.n_deps, dtype=np.int64)
    n_edges = _check_edges(succ)
    _check_counters(succ, deps)
    n_roots, depth = _check_acyclic(succ, deps)
    if kind == "factor":
        _check_factor_writers(dag)
        if assignment is not None:
            _check_ownership(dag, assignment, nprocs)
    else:
        _check_tsolve_chains(dag)
    return ScheduleReport(
        kind=kind,
        n_tasks=len(succ),
        n_edges=n_edges,
        n_roots=n_roots,
        depth=depth,
    )

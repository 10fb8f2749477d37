"""Task DAG of the right-looking block LU factorisation.

Every node is one kernel invocation on one block — the paper's minimum
scheduling unit ("uses sparse kernels as the smallest scheduling unit",
Section 4.4).  For elimination step ``k``:

* ``GETRF(k)``      factors diagonal block ``(k, k)``;
* ``TSTRF(i, k)``   turns block ``(i, k)``, ``i > k``, into ``L``;
* ``GESSM(k, j)``   turns block ``(k, j)``, ``j > k``, into ``U``;
* ``SSSSM(k, i, j)`` applies ``C(i,j) −= L(i,k) · U(k,j)``.

An SSSSM node exists only when the structural product is nonempty (some
column of ``L(i,k)`` meets a nonempty row of ``U(k,j)`` — its flop count
is positive); fill closure then guarantees the target block exists.

Dependencies:

* ``GETRF(k)``      ← every ``SSSSM(·, k, k)``;
* ``GESSM(k, j)``   ← ``GETRF(k)`` + every ``SSSSM(·, k, j)``;
* ``TSTRF(i, k)``   ← ``GETRF(k)`` + every ``SSSSM(·, i, k)``;
* ``SSSSM(k, i, j)``← ``TSTRF(i, k)`` + ``GESSM(k, j)``.

The per-block *synchronisation-free array* of Section 4.4 is exactly the
count of unfinished SSSSM predecessors of each block's panel task; it is
exposed by :func:`sync_free_array` for tests and illustration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from ..kernels.flops import (
    DiagCounts,
    gessm_flops_from_counts,
    tstrf_flops_from_counts,
)
from ..runtime.scheduler import ready_entry
from .blocking import BlockMatrix

__all__ = [
    "TaskType", "Task", "TaskTable", "TaskDAG", "build_dag", "sync_free_array",
]


class TaskType(enum.IntEnum):
    """Kernel role of a DAG node (ordering = scheduling priority class)."""

    GETRF = 0
    GESSM = 1
    TSTRF = 2
    SSSSM = 3


@dataclass
class Task:
    """One kernel invocation.

    ``(bi, bj)`` is the *target* block; ``k`` the elimination step.  For
    SSSSM the operands are ``L(bi, k)`` and ``U(k, bj)``.
    """

    tid: int
    ttype: TaskType
    k: int
    bi: int
    bj: int
    flops: int
    n_deps: int = 0
    successors: list[int] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task({self.tid}: {self.ttype.name} k={self.k} "
            f"target=({self.bi},{self.bj}) flops={self.flops})"
        )


def _column(name: str) -> cached_property:
    """One ``int64`` array over a task attribute, built on first use."""
    return cached_property(lambda self: np.fromiter(
        map(attrgetter(name), self.tasks), np.int64, len(self.tasks)
    ))


class TaskTable:
    """The tasks of a DAG in array form, indexed by ``tid`` — what the
    fixed pattern decides about a task, resolved once per DAG instead of
    per run: the columns the numeric job turns into storage slots,
    selector features and kernel choices
    (:class:`repro.core.numeric.FactorJob`), and the ready-heap entries,
    successor lists and in-degrees every
    :meth:`SchedulerCore.from_dag <repro.runtime.scheduler.SchedulerCore.from_dag>`
    starts from.

    Each column is built when first read (a hand-built DAG of stub tasks
    need only carry the attributes its reader asks for) and then kept: a
    snapshot — tasks edited afterwards need a new :class:`TaskDAG`.
    """

    def __init__(self, tasks: list) -> None:
        self.tasks = tasks

    ttype = _column("ttype")
    k = _column("k")
    bi = _column("bi")
    bj = _column("bj")
    flops = _column("flops")
    n_deps = _column("n_deps")

    @cached_property
    def entries(self) -> list[tuple[int, int, int]]:
        """Ready-heap entry of every task (:func:`ready_entry`)."""
        return [ready_entry(t, t.tid) for t in self.tasks]

    @cached_property
    def successors(self) -> list[list[int]]:
        """Successor tids of every task."""
        return [t.successors for t in self.tasks]


@dataclass
class TaskDAG:
    """The full task graph plus lookup indices.

    Attributes
    ----------
    tasks:
        All tasks, indexed by ``tid``.
    panel_of_block:
        Maps ``(bi, bj)`` to the tid of the block's panel task (GETRF /
        GESSM / TSTRF).
    total_flops:
        Sum of all task FLOP counts — the paper's Table 3 "PanguLU FLOPs".

    ``table`` is the :class:`TaskTable` of ``tasks``, created on first
    use and dropped from pickles and deep copies.  ``entries`` /
    ``successors`` / ``n_deps`` — the per-task views
    :meth:`SchedulerCore.from_dag <repro.runtime.scheduler.SchedulerCore.from_dag>`
    and :func:`~repro.core.verify.verify_dag` read, the attributes a
    :class:`~repro.core.tsolve_dag.TSolveDAG` stores flat — are its
    columns.
    """

    tasks: list[Task]
    panel_of_block: dict[tuple[int, int], int]
    total_flops: int

    def __len__(self) -> int:
        return len(self.tasks)

    @cached_property
    def table(self) -> TaskTable:
        return TaskTable(self.tasks)

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "table"}

    entries = property(lambda self: self.table.entries)
    successors = property(lambda self: self.table.successors)

    def roots(self) -> list[int]:
        """Tasks with no dependencies (initially runnable)."""
        return np.flatnonzero(self.table.n_deps == 0).tolist()

    def dep_counts(self) -> np.ndarray:
        """Fresh copy of the per-task dependency counters."""
        return self.table.n_deps.copy()

    n_deps = property(dep_counts)

    def trace_label(self, tid: int) -> tuple[str, str]:
        """``(name, category)`` of a task in traces:
        ``GESSM(k=2,5,2)`` (kind, step, target block) under ``GESSM``."""
        t = self.tasks[tid]
        return f"{t.ttype.name}(k={t.k},{t.bi},{t.bj})", t.ttype.name

    def critical_path_flops(self) -> int:
        """FLOP weight of the longest dependency chain — a lower bound on
        any schedule's makespan in flop units."""
        n = len(self.tasks)
        depth = np.zeros(n, dtype=np.int64)
        indeg = self.dep_counts()
        stack = [t for t in range(n) if indeg[t] == 0]
        for t in stack:
            depth[t] = self.tasks[t].flops
        out = 0
        while stack:
            t = stack.pop()
            out = max(out, int(depth[t]))
            for s in self.tasks[t].successors:
                depth[s] = max(depth[s], depth[t] + self.tasks[s].flops)
                indeg[s] -= 1
                if indeg[s] == 0:
                    stack.append(s)
        return out


def build_dag(f: BlockMatrix) -> TaskDAG:
    """Construct the task DAG from the blocked filled pattern."""
    nb = f.nb
    tasks: list[Task] = []
    panel_of_block: dict[tuple[int, int], int] = {}
    ssssm_into: dict[tuple[int, int], list[int]] = {}

    # Precompute per-step L-column and U-row block lists
    lcol: list[list[int]] = [[] for _ in range(nb)]  # block rows i > k with (i,k)
    urow: list[list[int]] = [[] for _ in range(nb)]  # block cols j > k with (k,j)
    for bj in range(nb):
        rows, _ = f.blocks_in_column(bj)
        for bi in rows:
            bi = int(bi)
            if bi > bj:
                lcol[bj].append(bi)
            elif bi < bj:
                urow[bi].append(bj)

    def add(ttype: TaskType, k: int, bi: int, bj: int, flops: int) -> int:
        tid = len(tasks)
        tasks.append(Task(tid, ttype, k, bi, bj, flops))
        return tid

    # ---- create all tasks ------------------------------------------------
    for k in range(nb):
        diag = f.block(k, k)
        if diag is None:
            raise ValueError(
                f"diagonal block ({k},{k}) is structurally empty — "
                "the input needs a zero-free diagonal (run MC64 first)"
            )
        counts = DiagCounts(diag)
        panel_of_block[(k, k)] = add(TaskType.GETRF, k, k, k, counts.getrf_flops())
        # per-U-block row-nnz vectors, reused by every SSSSM of this step
        u_rownnz: dict[int, np.ndarray] = {}
        for j in urow[k]:
            b = f.block(k, j)
            assert b is not None
            panel_of_block[(k, j)] = add(
                TaskType.GESSM, k, k, j, gessm_flops_from_counts(counts, b)
            )
            u_rownnz[j] = np.bincount(b.indices, minlength=b.nrows)
        l_colnnz: dict[int, np.ndarray] = {}
        for i in lcol[k]:
            b = f.block(i, k)
            assert b is not None
            panel_of_block[(i, k)] = add(
                TaskType.TSTRF, k, i, k, tstrf_flops_from_counts(counts, b)
            )
            l_colnnz[i] = np.diff(b.indptr)
        # Schur updates from step k
        for i in lcol[k]:
            cn = l_colnnz[i]
            for j in urow[k]:
                flops = int(2 * np.dot(cn, u_rownnz[j]))
                if flops == 0:
                    continue  # structurally empty product
                tid = add(TaskType.SSSSM, k, i, j, flops)
                ssssm_into.setdefault((i, j), []).append(tid)

    # ---- wire dependencies ------------------------------------------------
    for t in tasks:
        if t.ttype == TaskType.GETRF:
            preds = ssssm_into.get((t.k, t.k), [])
            t.n_deps = len(preds)
            for p in preds:
                tasks[p].successors.append(t.tid)
        elif t.ttype in (TaskType.GESSM, TaskType.TSTRF):
            preds = ssssm_into.get((t.bi, t.bj), [])
            t.n_deps = 1 + len(preds)
            tasks[panel_of_block[(t.k, t.k)]].successors.append(t.tid)
            for p in preds:
                tasks[p].successors.append(t.tid)
        else:  # SSSSM
            t.n_deps = 2
            tasks[panel_of_block[(t.bi, t.k)]].successors.append(t.tid)
            tasks[panel_of_block[(t.k, t.bj)]].successors.append(t.tid)

    total = int(sum(t.flops for t in tasks))
    return TaskDAG(tasks=tasks, panel_of_block=panel_of_block, total_flops=total)


def sync_free_array(dag: TaskDAG, nb: int) -> dict[tuple[int, int], int]:
    """The paper's per-block synchronisation-free array (Fig. 9).

    Value = number of GESSM/TSTRF/SSSSM operations the block still has to
    receive before its next phase can fire: for a diagonal block, 0 means
    GETRF may run (−1 after it completes, releasing its row and column);
    for an off-diagonal block, 0 means its panel solve may run once the
    diagonal is done.
    """
    table = dag.table
    ssssm_preds = table.n_deps - (table.ttype != TaskType.GETRF)
    return {blk: int(ssssm_preds[tid]) for blk, tid in dag.panel_of_block.items()}

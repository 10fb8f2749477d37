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

Dependencies — the one rule :class:`EliminationBuilder` wires every
factor DAG by: a task waits for the panel task of each block it reads
and for the task that last wrote its own block.  So each block's Schur
updates form one chain in step order, which its panel task ends:

* ``GETRF(k)``      ← the last ``SSSSM(·, k, k)``;
* ``GESSM(k, j)``   ← ``GETRF(k)`` + the last ``SSSSM(·, k, j)``;
* ``TSTRF(i, k)``   ← ``GETRF(k)`` + the last ``SSSSM(·, i, k)``;
* ``SSSSM(k, i, j)``← ``TSTRF(i, k)`` + ``GESSM(k, j)`` + the
  ``SSSSM(k', i, j)`` of the step ``k' < k`` before it into ``(i, j)``.

A block has one writer at a time by construction, and its updates run
in the same order on every engine, so every engine computes the same
factors bit for bit.  The per-block *synchronisation-free array* of
Section 4.4 — the updates each block still has to receive — is exposed
by :func:`sync_free_array` for tests and illustration.
"""

from __future__ import annotations

import enum
from collections import Counter
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
    "TaskType", "Task", "TaskTable", "TaskDAG", "EliminationBuilder", "build_dag",
    "sync_free_array",
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
    reads, the attributes a
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


class EliminationBuilder:
    """Creates the tasks of a right-looking block elimination and wires
    them as they come, by the one dependency rule every factor DAG here
    follows — LU (:func:`build_dag`), Cholesky
    (:func:`~repro.cholesky.kernels.build_llt_dag`) and the supernodal
    baseline (:func:`~repro.baseline.dag.build_sn_dag`): a task waits for
    the last writer of each block it reads and of the block it writes.

    ``reads`` are blocks whose panel task was added before (a block read
    twice is passed once, a set), so their last writer is that panel
    task.  The block a task writes gets a chain: its updates (``SSSSM``)
    in the order they are added, then its panel task (``GETRF`` /
    ``GESSM`` / ``TSTRF``), which is its last writer and so its
    ``panel_of_block`` entry — one writer per block by the DAG.
    """

    def __init__(self) -> None:
        self.tasks: list[Task] = []
        self.last_writer: dict[tuple[int, int], int] = {}

    def add(self, ttype: TaskType, k: int, bi: int, bj: int, flops: int, reads=()) -> int:
        tasks, last = self.tasks, self.last_writer
        tid = len(tasks)
        preds = [last[b] for b in reads]
        if (bi, bj) in last:
            preds.append(last[bi, bj])
        last[bi, bj] = tid
        for p in preds:
            tasks[p].successors.append(tid)
        tasks.append(Task(tid, ttype, k, bi, bj, flops, len(preds)))
        return tid

    def dag(self) -> TaskDAG:
        return TaskDAG(self.tasks, self.last_writer, sum(t.flops for t in self.tasks))


def build_dag(f: BlockMatrix) -> TaskDAG:
    """Construct the task DAG from the blocked filled pattern."""
    nb = f.nb
    builder = EliminationBuilder()
    add, ssssm = builder.add, TaskType.SSSSM

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

    for k in range(nb):
        diag = f.block(k, k)
        if diag is None:
            raise ValueError(
                f"diagonal block ({k},{k}) is structurally empty — "
                "the input needs a zero-free diagonal (run MC64 first)"
            )
        counts = DiagCounts(diag)
        add(TaskType.GETRF, k, k, k, counts.getrf_flops())
        # per-U-block row-nnz vectors, reused by every SSSSM of this step
        u_rownnz: dict[int, np.ndarray] = {}
        for j in urow[k]:
            b = f.block(k, j)
            assert b is not None
            add(TaskType.GESSM, k, k, j, gessm_flops_from_counts(counts, b), ((k, k),))
            u_rownnz[j] = np.bincount(b.indices, minlength=b.nrows)
        l_colnnz: dict[int, np.ndarray] = {}
        for i in lcol[k]:
            b = f.block(i, k)
            assert b is not None
            add(TaskType.TSTRF, k, i, k, tstrf_flops_from_counts(counts, b), ((k, k),))
            l_colnnz[i] = np.diff(b.indptr)
        # Schur updates from step k
        for i in lcol[k]:
            cn = l_colnnz[i]
            for j in urow[k]:
                flops = int(2 * np.dot(cn, u_rownnz[j]))
                if flops:  # else a structurally empty product
                    add(ssssm, k, i, j, flops, ((i, k), (k, j)))
    return builder.dag()


def sync_free_array(dag: TaskDAG, nb: int) -> dict[tuple[int, int], int]:
    """The paper's per-block synchronisation-free array (Fig. 9).

    Value = number of SSSSM updates the block still has to receive
    before its panel task can fire: for a diagonal block, 0 means GETRF
    may run (−1 after it completes, releasing its row and column); for
    an off-diagonal block, 0 means its panel solve may run once the
    diagonal is done.
    """
    table = dag.table
    updates = table.ttype == TaskType.SSSSM
    into = Counter(zip(table.bi[updates].tolist(), table.bj[updates].tolist()))
    return {blk: into[blk] for blk in dag.panel_of_block}

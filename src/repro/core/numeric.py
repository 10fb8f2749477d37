"""Numeric factorisation driver.

Executes the task DAG on the blocked matrix *in place*: after
:func:`factorize`, every diagonal block holds its LU factors (unit-lower
``L`` implicit, ``U`` on and above the diagonal), blocks below the
diagonal hold ``L``, blocks above hold ``U``.

Execution follows the synchronisation-free discipline of Section 4.4: a
ready-heap ordered by priority (earlier elimination step first — the
critical path — then kernel class), counters per task, counter decrements
on completion.  That discipline lives exactly once, in
:class:`repro.runtime.scheduler.SchedulerCore`, and the loop around it
exactly once, in :func:`repro.runtime.lanes.run_lanes`; this module
supplies the phase's **job** (:class:`FactorJob`: which slot a task
writes, how to run it, what to call it in a trace) and the in-process
entry point :func:`factorize`.  The distributed engine
(:mod:`repro.runtime.distributed`) runs the same job on each rank over
the rank's owned tasks, and :mod:`repro.runtime.simulator` models the
same protocol in virtual time — all replay the same DAG.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..kernels.base import Workspace, triangle_inverse
from ..kernels.compress import CompressPolicy, try_compress
from ..runtime.lanes import run_lanes
from ..runtime.scheduler import EventRecorder, RunReport, SchedulerCore
from ..kernels.plans import (
    PlanCache,
    build_getrf_plan,
    build_solve_plan,
    build_ssssm_plan,
)
from ..kernels.registry import CACHED_OPERAND, KernelType, get_kernel
from ..kernels.selector import SelectorPolicy, TaskFeatures
from ..sparse.blockrep import CompressedBlock, lr_profit_cap
from .blocking import BlockMatrix
from .dag import Task, TaskDAG, TaskType

__all__ = [
    "NumericOptions",
    "factorize",
    "task_features",
    "execute_task",
    "FactorJob",
    "PanelCache",
    "resolve_plan_cache",
    "resolve_compress",
]

# registered for the `lock-discipline` lint rule: the panel cache is only
# written under its lock (reads stay lock-free — see PanelCache.get)
__guarded_by__ = {
    "self._lock": ("self._images", "self._uses", "self.nbytes", "self.peak_bytes"),
}


def _panel_blocks(t: Task):
    """A panel solve reads the step's diagonal block and writes its own."""
    return (t.k, t.k), (t.bi, t.bj)


#: Per task type: the kernel family; the coordinates of a task's blocks in
#: the argument order of that family's kernels (``(bi, bj)`` is the block
#: written, the others are read); and the builder of the family's
#: execution plan, which takes the blocks in that same order.
_FAMILY = {
    TaskType.GETRF: (
        KernelType.GETRF, lambda t: ((t.bi, t.bj),), build_getrf_plan,
    ),
    TaskType.GESSM: (
        KernelType.GESSM, _panel_blocks, partial(build_solve_plan, lower=True),
    ),
    TaskType.TSTRF: (
        KernelType.TSTRF, _panel_blocks, partial(build_solve_plan, lower=False),
    ),
    TaskType.SSSSM: (
        KernelType.SSSSM,
        lambda t: ((t.bi, t.bj), (t.bi, t.k), (t.k, t.bj)),
        build_ssssm_plan,
    ),
}


@dataclass
class NumericOptions:
    """Configuration of the numeric phase.

    Attributes
    ----------
    selector:
        Kernel-selection policy (decision trees by default; a fixed
        baseline for the Fig. 14 ablation).
    pivot_floor:
        Relative static-pivot replacement threshold: a pivot smaller in
        magnitude than ``pivot_floor · max|block|`` is replaced by that
        bound with matching sign (SuperLU GESP policy).  0 disables the
        replacement and raises on exact zeros.
    plan_entry_limit:
        Per-task cap on SSSSM scatter-map entries; a product whose
        execution plan (:mod:`repro.kernels.plans`) would exceed it is
        run by the selected variant's own loop instead — same bits, no
        plan kept (memory valve).  ``None`` removes the cap.
    compress_tol:
        Relative spectral tolerance for the low-rank block overlay
        (:class:`~repro.sparse.blockrep.CompressedBlock`); this is the
        knob's one home — ``SolverOptions.compress_tol`` reads and writes
        it.  0 — the default — disables compression entirely: no overlay
        is consulted or written, and every engine takes the
        pre-compression code path.  When positive, GESSM/TSTRF output
        panels that compress profitably carry a truncated ``U @ V.T``
        overlay which downstream SSSSM consumers (and the transports)
        use at ``O((m + n) · rank)`` cost; the factors become
        approximate and solves recover accuracy through the adaptive
        refinement loop, escalating to an exact decompressed
        refactorisation if refinement stalls.
    compress_min_order:
        Smallest ``min(m, n)`` a GESSM/TSTRF output block must reach
        before a compression attempt (small blocks never amortise the
        SVD).
    """

    selector: SelectorPolicy = field(default_factory=SelectorPolicy.default)
    pivot_floor: float = 1e-12
    plan_entry_limit: int | None = 4_000_000
    compress_tol: float = 0.0
    compress_min_order: int = 32


def _ssssm_operand(f: BlockMatrix, bi: int, bj: int):
    """The representation an SSSSM consumer should multiply with: the
    low-rank overlay when present, else the exact CSC block.  On remote
    ranks only the overlay may exist (the transport shipped U/V, not the
    CSC arrays)."""
    cb = f.compressed_block(bi, bj)
    return cb if cb is not None else f.block(bi, bj)


def task_features(f: BlockMatrix, task: Task) -> TaskFeatures:
    """Structural features of a task for the decision-tree selector.

    SSSSM operands are looked up through the representation layer:
    compressed operands contribute their exact-payload ``nnz`` (shipped
    as ``src_nnz`` with the factors, so local and remote ranks compute
    identical features) plus the ``lr_operands``/``rank`` features the
    low-rank branches of the tree split on.
    """
    target = f.block(task.bi, task.bj)
    assert target is not None
    if task.ttype == TaskType.GETRF:
        return TaskFeatures(
            nnz_a=target.nnz,
            flops=task.flops,
            n=target.ncols,
            density=target.density,
        )
    if task.ttype in (TaskType.GESSM, TaskType.TSTRF):
        diag = f.block(task.k, task.k)
        assert diag is not None
        return TaskFeatures(
            nnz_a=diag.nnz,
            nnz_b=target.nnz,
            flops=task.flops,
            n=diag.ncols,
            density=target.density,
        )
    a_rep = _ssssm_operand(f, task.bi, task.k)
    b_rep = _ssssm_operand(f, task.k, task.bj)
    assert a_rep is not None and b_rep is not None
    a_rank = a_rep.rank if isinstance(a_rep, CompressedBlock) else 0
    b_rank = b_rep.rank if isinstance(b_rep, CompressedBlock) else 0
    return TaskFeatures(
        nnz_a=a_rep.nnz,
        nnz_b=b_rep.nnz,
        flops=task.flops,
        n=a_rep.ncols,
        density=target.density,
        lr_operands=int(a_rank > 0) + int(b_rank > 0),
        rank=max(a_rank, b_rank),
    )


def resolve_plan_cache(f: BlockMatrix, options: NumericOptions) -> PlanCache:
    """The plan cache of this block structure.

    The cache lives on the :class:`BlockMatrix` (created on first use) so
    plans follow the pattern they address — shared by every engine that
    factorises the same structure and reused across refactorisations.
    """
    cache = f.plan_cache
    if cache is None:
        cache = f.plan_cache = PlanCache(ssssm_entry_limit=options.plan_entry_limit)
    return cache


def resolve_compress(options: NumericOptions) -> CompressPolicy | None:
    """The compression policy implied by the options, or ``None`` when
    compression is off (``compress_tol <= 0``) — the default path, where
    ``execute_task`` never touches the overlay machinery."""
    if options.compress_tol <= 0.0:
        return None
    tree = options.selector.trees.get(KernelType.COMPRESS)
    return CompressPolicy(
        tol=options.compress_tol,
        min_order=options.compress_min_order,
        tree=tree,
    )


def _maybe_compress(f: BlockMatrix, task: Task, policy: CompressPolicy) -> None:
    """Try to install a low-rank overlay for a just-computed GESSM/TSTRF
    panel block.  Runs inside the caller's write-lock window for the
    target slot, so the RaceChecker still sees a single writer; the
    exact CSC payload is left untouched (the overlay is additive)."""
    target = f.block(task.bi, task.bj)
    if target is None:
        return
    m, n = target.shape
    cap = lr_profit_cap(m, n, target.nnz)
    feats = TaskFeatures(
        nnz_a=target.nnz, n=min(m, n), density=target.density, rank=cap
    )
    cb = try_compress(target, policy, feats)
    if cb is not None:
        f.set_compressed(task.bi, task.bj, cb.u, cb.v, src_nnz=cb.src_nnz)


def _cached_plan(plans: PlanCache, ktype: KernelType, build, slots, blocks):
    """The execution plan of one task, built on first use; ``None`` where
    an SSSSM scatter map would exceed the cache's entry limit.

    Plans are keyed by the storage slots of the participating blocks:
    patterns are immutable post-symbolic, so a slot identifies a pattern
    for the life of the structure.  Keys carry the value dtype character
    alongside the slots: the plans themselves are index-only
    (dtype-agnostic), but keying on dtype keeps a shared cache coherent
    if the same structure is ever re-partitioned at a different working
    precision (refactorize carries the cache across partitions).
    """
    limit = {}
    if ktype is KernelType.SSSSM:
        limit["entry_limit"] = plans.ssssm_entry_limit
    return plans.get(
        (ktype.value, *slots, blocks[0].data.dtype.char),
        lambda: build(*blocks, **limit),
    )


def execute_task(
    f: BlockMatrix,
    task: Task,
    version: str,
    ws: Workspace,
    *,
    pivot_floor: float = 0.0,
    plans: PlanCache | None = None,
    compress: CompressPolicy | None = None,
    panels: PanelCache | None = None,
) -> tuple[int, bool]:
    """Execute one task with the registered kernel ``version`` of its
    family — the per-task entry point :class:`FactorJob` calls on every
    engine, and the only path from a task to a kernel.

    The kernel gets the task's blocks in its family's argument order,
    plus whatever that variant declares it can be handed
    (:data:`~repro.kernels.registry.CACHED_OPERAND`) and the caller has
    a cache for: its execution plan from ``plans`` (the structure's
    :class:`~repro.kernels.plans.PlanCache`, alive across
    refactorisations), its dense operand images from ``panels`` (the
    factorisation's :class:`PanelCache`, each alive until its last
    reader), both built on first use.  Without the cache (``None``) the
    variant does that work itself and keeps nothing — same bits either
    way.  The low-rank variants get each read operand's overlay where
    the block carries one.

    Returns ``(replaced_pivots, planned)`` — the GESP diagnostic plus
    whether the variant was handed a plan.

    With a :class:`~repro.kernels.compress.CompressPolicy` (``None`` by
    default — the bit-identical path) a just-finished GESSM/TSTRF panel
    is offered to the compressor before the task completes, inside the
    same write-lock window.
    """
    ktype, operands_of, build_plan = _FAMILY[task.ttype]
    coords = operands_of(task)
    kernel = get_kernel(ktype, version)
    takes = CACHED_OPERAND.get((ktype, version))
    if takes == "overlay":
        blocks = [f.block(*coords[0]), *(_ssssm_operand(f, *c) for c in coords[1:])]
    else:
        blocks = [f.block(*c) for c in coords]
    handed = {}
    if ktype is KernelType.GETRF:
        handed["pivot_floor"] = pivot_floor
    if takes == "plan" and plans is not None:
        slots = [f.block_slot(*c) for c in coords]
        handed["plan"] = _cached_plan(plans, ktype, build_plan, slots, blocks)
    elif takes == "images" and panels is not None:
        slots = [f.block_slot(*c) for c in coords]
        handed.update(panels.images(ktype, slots, blocks))
    replaced = kernel(*blocks, ws, **handed)
    if compress is not None and task.ttype in (TaskType.GESSM, TaskType.TSTRF):
        _maybe_compress(f, task, compress)
    return int(replaced or 0), handed.get("plan") is not None


class PanelCache:
    """Dense images of one factorisation's published panels, so that a
    dense-mapped task is one GEMM and touches only its own target.

    Keyed by block slot: ``slot`` holds the image of an ``L(i,k)`` /
    ``U(k,j)`` panel (what ``ssssm_c_v1`` multiplies), ``(slot, lower)``
    the inverse of one triangle of a factored diagonal block (what
    ``gessm_c_v2`` / ``tstrf_c_v2`` multiply by).  An image is built by
    its first user — on a rank that covers received panels too — and
    dropped by :meth:`release` when the last task reading its block
    completes (``uses``: slot → number of such tasks, the block's panel
    task's successors in the DAG), so with earliest-step-first scheduling
    about two elimination steps of panels are alive at once.

    Reads are lock-free, builds raced and resolved with ``setdefault``
    (as in :class:`~repro.kernels.plans.PlanCache`): the lanes of a
    threaded run share one cache.  It belongs to one :class:`FactorJob`
    and dies with it, so a refactorisation never sees an old image.
    """

    def __init__(self, uses: dict[int, int]) -> None:
        self._uses = uses
        self._images: dict = {}
        self._lock = threading.Lock()
        self.nbytes = 0
        self.peak_bytes = 0

    def get(self, key, build) -> np.ndarray:
        """The image under ``key``, from ``build()`` on a miss."""
        image = self._images.get(key)
        if image is None:
            image = build()
            with self._lock:
                kept = self._images.setdefault(key, image)
                if kept is image:
                    self.nbytes += image.nbytes
                    self.peak_bytes = max(self.peak_bytes, self.nbytes)
            image = kept
        return image

    def images(self, ktype: KernelType, slots, blocks) -> dict[str, np.ndarray]:
        """The keyword images of one dense-mapped task, whose ``blocks``
        (with their ``slots``) come in kernel argument order: the inverse
        of the diagonal block's triangle for a panel solve, the images of
        ``A`` and ``B`` for SSSSM."""
        if ktype is KernelType.SSSSM:
            return {
                "a_dense": self.get(slots[1], blocks[1].to_dense),
                "b_dense": self.get(slots[2], blocks[2].to_dense),
            }
        lower = ktype is KernelType.GESSM
        return {"inv": self.get(
            (slots[0], lower), lambda: triangle_inverse(blocks[0], lower=lower)
        )}

    def release(self, slot: int) -> None:
        """A task that reads block ``slot`` completed; after the last
        one the block's images go."""
        with self._lock:
            self._uses[slot] -= 1
            if self._uses[slot] == 0:
                for key in (slot, (slot, True), (slot, False)):
                    image = self._images.pop(key, None)
                    if image is not None:
                        self.nbytes -= image.nbytes

    def __len__(self) -> int:
        return len(self._images)


class FactorJob:
    """Phase 4 as the lane driver sees it (the job protocol of
    :mod:`repro.runtime.lanes`): a task writes its target block's slot,
    runs as feature extraction → kernel selection → :func:`execute_task`,
    and is traced as ``GETRF(k=0,0,0)`` under its kernel family.

    ``f`` is the :class:`BlockMatrix` (on a distributed rank, its
    :meth:`~BlockMatrix.restricted` share); ``owned`` the task ids this
    job runs (``None``: all of them) — what the job's :class:`PanelCache`
    counts a block's readers over.

    The job holds the two caches :func:`execute_task` hands operands
    from: ``plans``, the plan cache of ``f`` (:func:`resolve_plan_cache`
    — it outlives the job, so a refactorisation replays the same plans),
    and ``panels``, created here and gone with the job.  The label it
    reports per task is the selector's choice, which is the registry
    entry that ran.
    """

    name = "factorize"

    def __init__(
        self, f: BlockMatrix, dag: TaskDAG, options: NumericOptions, owned=None
    ) -> None:
        self.f = f
        self.tasks = dag.tasks
        self.options = options
        self.n_slots = f.num_blocks
        self.plans = resolve_plan_cache(f, options)
        self.compress = resolve_compress(options)
        runs = None
        if owned is not None:
            runs = np.zeros(len(dag.tasks), dtype=bool)
            runs[np.asarray(owned, dtype=np.int64)] = True

        def readers(tid: int) -> int:
            """Successors of panel task ``tid`` that this job runs."""
            successors = dag.tasks[tid].successors
            return len(successors) if runs is None else int(runs[successors].sum())

        self.panels = PanelCache({
            f.block_slot(bi, bj): readers(tid)
            for (bi, bj), tid in dag.panel_of_block.items()
        })

    def write_slots(self, tid: int) -> tuple[int, ...]:
        task = self.tasks[tid]
        return (self.f.block_slot(task.bi, task.bj),)

    def execute(self, tid: int, ws: Workspace) -> tuple[str, int, bool]:
        # compression of a finished GESSM/TSTRF panel happens inside
        # execute_task, i.e. inside the driver's write-lock window —
        # single writer preserved
        task = self.tasks[tid]
        ktype, operands_of, _ = _FAMILY[task.ttype]
        version = self.options.selector.select(ktype, task_features(self.f, task))
        replaced, planned = execute_task(
            self.f, task, version, ws, pivot_floor=self.options.pivot_floor,
            plans=self.plans, compress=self.compress, panels=self.panels,
        )
        for coord in operands_of(task):
            if coord != (task.bi, task.bj):   # one reader of that block is done
                self.panels.release(self.f.block_slot(*coord))
        return f"{ktype.value}/{version}", replaced, planned

    def trace_label(self, tid: int) -> tuple[str, str]:
        task = self.tasks[tid]
        name = task.ttype.name
        return f"{name}(k={task.k},{task.bi},{task.bj})", name

    def finish(self, report: RunReport) -> None:
        """The flops of the tasks that ran, the footprints of the plan
        cache and (at its peak) the panel cache, and what the overlay of
        ``f`` holds (a rank: of its own blocks)."""
        report.flops_total = sum(self.tasks[t].flops for t in report.kernel_choices)
        report.panel_cache_peak_bytes = self.panels.peak_bytes
        report.plan_bytes = self.plans.nbytes
        if self.compress is not None:
            comp = self.f.compression_stats()
            report.blocks_compressed = comp["blocks_compressed"]
            report.lr_value_bytes = comp["lr_value_bytes"]


def factorize(
    f: BlockMatrix,
    dag: TaskDAG,
    options: NumericOptions | None = None,
    *,
    collect_timings: bool = False,
    recorder: EventRecorder | None = None,
    checker=None,
    owned=None,
    n_lanes: int = 1,
) -> RunReport:
    """Factorise the blocked matrix in place by replaying the DAG.

    Tasks are drawn from the shared scheduler core's ready-heap with
    priority ``(k, task-type, tid)`` — the earliest elimination step
    first, which keeps the critical path moving (the paper: "each
    process always selects the most critical of the tasks to be
    computed").  One lane (the default) is the sequential engine; more
    lanes are the threaded engine, whose result equals the sequential
    one up to floating-point reassociation of commuting Schur updates
    (``n_lanes < 1`` is rejected by the lane driver).  ``owned`` restricts the run to a
    predecessor-closed subset of task ids (the partial factorisation of
    :mod:`repro.core.schur`).  Pass an
    :class:`~repro.runtime.scheduler.EventRecorder` to capture
    task/ready-depth events for Chrome-trace export, or a
    :class:`~repro.devtools.racecheck.RaceChecker` (``checker``) to
    audit the counter protocol as it runs.
    """
    options = options or NumericOptions()
    job = FactorJob(f, dag, options, owned)
    core = SchedulerCore.from_dag(dag, owned=owned, recorder=recorder)
    return run_lanes(
        core, job, n_lanes=n_lanes, recorder=recorder, checker=checker,
        timed=collect_timings,
    )

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
entry point :func:`factorize`.  What the fixed pattern decides about a
task — its blocks' storage slots, its selector features, the kernel
variant and what that variant is handed — the job resolves once, in
array form, when it is built; running a task is *row → kernel call →
release*.  The distributed engine
(:mod:`repro.runtime.distributed`) runs the same job on each rank over
the rank's owned tasks, and :mod:`repro.runtime.simulator` models the
same protocol in virtual time — all replay the same DAG.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..kernels.base import (
    SingularBlockError, TargetImage, Workspace, inverse_triangle, invert_factors,
    triangle_inverse,
)
from ..kernels.compress import CompressPolicy, ssssm_lr, try_compress
from ..runtime.lanes import run_lanes
from ..runtime.scheduler import EventRecorder, RunReport, SchedulerCore
from ..kernels.plans import (
    PlanCache,
    build_getrf_plan,
    build_solve_plan,
    build_ssssm_plan,
)
from ..kernels.registry import (
    CACHED_OPERAND, TARGET_IMAGE_VERSIONS, KernelType, get_kernel,
)
from ..kernels.selector import SelectorPolicy, TaskFeatures
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
# written under its lock (reads stay lock-free — see PanelCache.get), and
# the lock is a leaf: images are built before it is taken
__guarded_by__ = {"self._lock": (
    "self._images", "self._uses", "self.nbytes", "self.peak_bytes",
)}


def _panel_blocks(k, bi, bj):
    """A panel solve reads the step's diagonal block and writes its own."""
    return (k, k), (bi, bj)


#: Per task type: the kernel family; the coordinates of a task's blocks in
#: the argument order of that family's kernels, from ``(k, bi, bj)`` — one
#: task's ints or whole columns of the task table alike (``(bi, bj)`` is
#: the block written, the others are read); and the builder of the
#: family's execution plan, which takes the blocks in that same order.
_FAMILY = {
    TaskType.GETRF: (
        KernelType.GETRF, lambda k, bi, bj: ((bi, bj),), build_getrf_plan,
    ),
    TaskType.GESSM: (
        KernelType.GESSM, _panel_blocks, partial(build_solve_plan, lower=True),
    ),
    TaskType.TSTRF: (
        KernelType.TSTRF, _panel_blocks, partial(build_solve_plan, lower=False),
    ),
    TaskType.SSSSM: (
        KernelType.SSSSM,
        lambda k, bi, bj: ((bi, bj), (bi, k), (k, bj)),
        build_ssssm_plan,
    ),
}
_PANEL_SOLVES = (KernelType.GESSM, KernelType.TSTRF)


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


def _features_of(ttype, flops, blocks) -> TaskFeatures:
    """Selector features of tasks of one type from their blocks in
    kernel argument order — of one task from its payloads, of many from
    rows of :meth:`BlockMatrix.slot_structure` (``flops`` and every
    field are then arrays)."""
    if ttype == TaskType.GETRF:
        (target,) = blocks
        return TaskFeatures(
            nnz_a=target.nnz, flops=flops, n=target.ncols, density=target.density
        )
    if ttype != TaskType.SSSSM:
        a, target = blocks    # the factored diagonal block and the panel
        nnz_b = target.nnz
    else:
        target, a, b = blocks
        nnz_b = b.nnz
    return TaskFeatures(
        nnz_a=a.nnz, nnz_b=nnz_b, flops=flops, n=a.ncols, density=target.density,
    )


def task_features(f: BlockMatrix, task: Task) -> TaskFeatures:
    """Structural features of a task for the decision-tree selector —
    the per-task form of what :meth:`FactorJob.features` computes for a
    whole family at once, from the task's exact blocks."""
    coords = _FAMILY[task.ttype][1](task.k, task.bi, task.bj)
    return _features_of(task.ttype, task.flops, [f.block(*c) for c in coords])


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
    return CompressPolicy(
        tol=options.compress_tol, min_order=options.compress_min_order
    )


def _maybe_compress(f: BlockMatrix, task: Task, policy: CompressPolicy) -> None:
    """Try to install a low-rank overlay for a just-computed GESSM/TSTRF
    panel block.  Runs inside the panel task, the block's last writer by
    the DAG, so the block still has a single writer; the exact CSC
    payload is left untouched (the overlay is additive)."""
    cb = try_compress(f.block(task.bi, task.bj), policy)
    if cb is not None:
        f.set_compressed(task.bi, task.bj, cb.u, cb.v)


def _overlaid(f: BlockMatrix, task: Task):
    """The operands ``L(bi,k)``, ``U(k,bj)`` of an SSSSM as
    :func:`~repro.kernels.compress.ssssm_lr` multiplies them — a block's
    overlay where it carries one, else the block — or ``None`` when
    neither carries one.  On a rank a received ``"lr"`` panel exists only
    as its overlay."""
    a = f.compressed_block(task.bi, task.k)
    b = f.compressed_block(task.k, task.bj)
    if a is None and b is None:
        return None
    return (
        f.block(task.bi, task.k) if a is None else a,
        f.block(task.k, task.bj) if b is None else b,
    )


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


def _run_kernel(
    family, kernel, takes, slots, blocks, ws: Workspace, pivot_floor: float,
    plans: PlanCache | None, panels: PanelCache | None,
    image: TargetImage | None = None,
) -> tuple[int, bool]:
    """Call ``kernel`` on a task's ``blocks`` (kernel argument order,
    with their storage ``slots``), handing it what the variant declares
    (``takes``, its :data:`~repro.kernels.registry.CACHED_OPERAND` entry)
    from the caches given, and its target's ``image`` if one is given.
    Returns ``(replaced_pivots, planned)``."""
    ktype, _, build_plan = family
    handed = {} if image is None else {"image": image}
    if ktype is KernelType.GETRF:
        handed["pivot_floor"] = pivot_floor
    if takes == "plan" and plans is not None:
        handed["plan"] = _cached_plan(plans, ktype, build_plan, slots, blocks)
    elif takes == "images" and panels is not None:
        handed.update(panels.images(ktype, slots, blocks))
    replaced = kernel(*blocks, ws, **handed)
    return int(replaced or 0), handed.get("plan") is not None


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
    family — :meth:`FactorJob.execute` for a caller that addresses blocks
    by coordinates: ``f`` need only offer ``block(bi, bj)`` and
    ``block_slot(bi, bj)``, and the kernel call is the one the job makes.

    The kernel gets the task's blocks in its family's argument order,
    plus whatever that variant declares it can be handed
    (:data:`~repro.kernels.registry.CACHED_OPERAND`) and the caller has
    a cache for: its execution plan from ``plans`` (the structure's
    :class:`~repro.kernels.plans.PlanCache`, alive across
    refactorisations), its dense operand images from ``panels`` (the
    factorisation's :class:`PanelCache`, each alive until its last
    reader), both built on first use.  Without the cache (``None``) the
    variant does that work itself and keeps nothing — same bits either
    way.

    Returns ``(replaced_pivots, planned)`` — the GESP diagnostic plus
    whether the variant was handed a plan.

    With a :class:`~repro.kernels.compress.CompressPolicy` (``None`` by
    default — the bit-identical path) a just-finished GESSM/TSTRF panel
    is offered to the compressor before the task completes, inside the
    same task.  Which operands carry an overlay is not this
    function's question: it runs ``version`` on the exact blocks.
    """
    family = ktype, operands_of, _ = _FAMILY[task.ttype]
    coords = operands_of(task.k, task.bi, task.bj)
    takes = CACHED_OPERAND.get((ktype, version))
    cached = plans if takes == "plan" else panels if takes == "images" else None
    slots = () if cached is None else [f.block_slot(*c) for c in coords]
    out = _run_kernel(
        family, get_kernel(ktype, version), takes, slots,
        [f.block(*c) for c in coords], ws, pivot_floor, plans, panels,
    )
    if compress is not None and ktype in _PANEL_SOLVES:
        _maybe_compress(f, task, compress)
    return out


class PanelCache:
    """The dense images of one factorisation, so that a dense-mapped task
    is one GEMM on images and its target's values are written once.

    One table, keyed by block slot: ``slot`` holds the block's one
    :class:`~repro.kernels.base.TargetImage` (:meth:`image`), from its
    first dense-mapped writer — or, for a block no dense-mapped task
    writes (a panel a sparse variant solved, one received on a rank),
    its first image reader — to its last image reader.  Every
    ``SSSSM/C_V1`` into a block subtracts into its image; the block's
    dense-mapped panel task (``GETRF/C_V1``, ``GESSM/C_V2``,
    ``TSTRF/C_V2``) works on the accumulated image, writes the values,
    and leaves a solved panel's image in place as the ``a_dense`` /
    ``b_dense`` operand its dense-mapped SSSSM readers multiply
    (:meth:`publish`).  An image is only ever written by its block's
    one writer at a time, which the DAG chains (a block's updates in
    step order, then its panel task), and read only after it.
    :meth:`write_back` is the one coherence rule: a task that reads or
    writes the values of a block whose image is still being accumulated
    writes the image back first.

    ``(slot, lower)`` holds the inverse of one triangle of a factored
    diagonal block (what ``gessm_c_v2`` / ``tstrf_c_v2`` multiply by),
    built by its first reader: read from the block's kept packed inverse
    (:meth:`~repro.core.blocking.BlockMatrix.diag_inverse`) when the
    block matrix ``f`` keeps it — a float64 block it stores — else that
    triangle alone from the block's values (``trtri`` in the block's
    dtype: a float32 factorisation's panels multiply float32 inverses; a
    block received on a rank has its inverse dropped with its image).
    A float64 ``GETRF/C_V1`` task inverts its factored image in place
    and hands the packed inverse to the job, which keeps it on ``f`` for
    the panel and the triangular solves; a float32 factorisation's kept
    float64 inverses are made by the first solve that reads them.

    ``uses`` (slot → number of image reads of it by the job's tasks)
    decides lifetimes: a finished panel keeps its image only while an
    image reader is still due, and :meth:`release` drops a block's
    images when its last image reader completes, so with
    earliest-step-first scheduling about two elimination steps of
    panels are alive at once.  One ledger counts every image:
    ``nbytes`` now, ``peak_bytes`` its high-water mark.

    Reads are lock-free, builds raced and resolved with ``setdefault``
    (as in :class:`~repro.kernels.plans.PlanCache`): the lanes of a
    threaded run share one cache.  It belongs to one :class:`FactorJob`
    and dies with it — :meth:`drain` empties it when the job's run ends,
    failed or not — so a refactorisation never sees an old image.
    """

    def __init__(self, uses: dict[int, int], f: BlockMatrix) -> None:
        self._uses = uses
        self._f = f
        self._images: dict = {}
        self._lock = threading.Lock()
        self.nbytes = 0
        self.peak_bytes = 0

    def get(self, key, build):
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

    def image(self, slot: int, block, axis: int | None) -> TargetImage:
        """The image of ``block`` (in ``slot``), built from its values on
        first use."""
        return self.get(slot, lambda: TargetImage(block, axis))

    def images(self, ktype: KernelType, slots, blocks) -> dict:
        """The keyword images of one dense-mapped task, whose ``blocks``
        (with their ``slots``) come in kernel argument order: the inverse
        of the diagonal block's triangle for a panel solve, the box
        images of ``A`` (rows) and ``B`` (columns) for SSSSM."""
        if ktype is KernelType.SSSSM:
            return {
                "a_dense": self.image(slots[1], blocks[1], 0),
                "b_dense": self.image(slots[2], blocks[2], 1),
            }
        lower, f, slot = ktype is KernelType.GESSM, self._f, slots[0]
        kept = f.dtype == np.float64 and (f.owned is None or slot in f.owned)
        return {"inv": self.get((slot, lower), lambda: inverse_triangle(
            f.diag_inverse(slot), lower=lower
        ) if kept else triangle_inverse(blocks[0], lower=lower))}

    def _drop(self, slot: int) -> TargetImage | None:
        with self._lock:
            image = self._images.pop(slot, None)
            if image is not None:
                self.nbytes -= image.nbytes
        return image

    def write_back(self, slot: int, block) -> None:
        """The coherence rule: before a task reads or writes the values
        of ``block`` (in ``slot``) — a sparse variant, ``ssssm_lr`` — an
        image of it is written back and dropped."""
        image = self._drop(slot)
        if image is not None:
            image.write_to(block)

    def publish(self, slot: int, ktype: KernelType) -> np.ndarray | None:
        """The dense-mapped panel task of ``slot`` has written its
        values from its image.  A solved panel's image stays as its
        image readers' operand while one is due; a factored diagonal
        block's goes, and for a float64 block its packed inverse is
        returned: the image inverted in place
        (:func:`~repro.kernels.base.invert_factors`: each ``trtri``
        overwrites only its own triangle)."""
        if ktype is KernelType.GETRF:
            dense = self._drop(slot).dense
            return invert_factors(dense) if dense.dtype == np.float64 else None
        if not self._uses[slot]:
            self._drop(slot)
        return None

    def release(self, slots, written: int) -> None:
        """An image-reading task on the blocks in ``slots`` completed:
        all but the one it ``written`` have one image read less to wait
        for, and after a block's last its images go."""
        with self._lock:
            for slot in slots:
                if slot == written:
                    continue
                self._uses[slot] -= 1
                if self._uses[slot] == 0:
                    for key in (slot, (slot, True), (slot, False)):
                        image = self._images.pop(key, None)
                        if image is not None:
                            self.nbytes -= image.nbytes

    def drain(self) -> None:
        """The run is over: the images of the blocks ``f`` owns go back
        into them — a partial run leaves some being accumulated, and so
        may a failed one; a finished panel's writes the values it
        already holds — and every image still held goes (a received
        block's is a copy of its values)."""
        f = self._f
        for key in list(self._images):
            if not isinstance(key, tuple) and (f.owned is None or key in f.owned):
                self.write_back(key, f.block_at(key))
        with self._lock:
            self._images.clear()
            self.nbytes = 0

    def __len__(self) -> int:
        return len(self._images)


class FactorJob:
    """Phase 4 as the lane driver sees it (the job protocol of
    :mod:`repro.runtime.lanes`): a task writes its target block's slot,
    runs as one kernel call on the blocks in its row, and is traced as
    ``GETRF(k=0,0,0)`` under its kernel family.

    ``f`` is the :class:`BlockMatrix` (on a distributed rank, its
    :meth:`~BlockMatrix.restricted` share); ``owned`` the task ids this
    job runs (``None``: all of them) — what the job's :class:`PanelCache`
    counts a block's image readers over.

    Everything the pattern fixes is resolved here, over whole columns of
    the DAG's :class:`~repro.core.dag.TaskTable`: ``args`` (per task,
    the storage slots of its blocks in kernel argument order — the
    coordinate rule of ``family`` through :meth:`BlockMatrix.slots_of`;
    ``family_slots`` holds them per task type as ``(tids, array)``),
    ``target`` (the slot written), ``axis`` (the layout of the target's
    image: ``0`` for an ``L`` panel, ``1`` for a ``U`` panel, ``None``
    for a diagonal block) and ``calls`` (per task ``(family, kernel,
    takes, label, mapped)``: the selector's trees evaluated over
    :meth:`features`, then the registry entry, what it is handed, its
    ``"TYPE/VERSION"`` label and whether it works on its target's image
    (:data:`~repro.kernels.registry.TARGET_IMAGE_VERSIONS`) looked up
    once per version).  A patched ``KERNEL_REGISTRY`` entry is what runs
    if it was patched before the job was built.  The one choice made at
    run time: with compression on, an SSSSM whose ``L(i,k)`` or
    ``U(k,j)`` carries an overlay runs
    :func:`~repro.kernels.compress.ssssm_lr`, labelled ``SSSSM/LR``.

    The job holds the two caches operands are handed from: ``plans``,
    the plan cache of ``f`` (:func:`resolve_plan_cache` — it outlives
    the job, so a refactorisation replays the same plans), and
    ``panels``, created here and emptied when the run ends.
    """

    name = "factorize"
    family = _FAMILY

    def __init__(
        self, f: BlockMatrix, dag: TaskDAG, options: NumericOptions, owned=None
    ) -> None:
        self.f = f
        self.dag = dag
        self.tasks = dag.tasks
        self.table = table = dag.table
        self.options = options
        self.plans = resolve_plan_cache(f, options)
        self.compress = resolve_compress(options)
        n = len(dag.tasks)
        runs = np.ones(n, bool) if owned is None else np.isin(np.arange(n), owned)
        target = f.slots_of(table.bi, table.bj)
        self.target = target.tolist()
        # sign(bj − bi): 0 a diagonal block (whole), 1 a U panel (by
        # columns), −1 an L panel (by rows)
        self.axis = [(None, 1, 0)[s] for s in np.sign(table.bj - table.bi).tolist()]
        self.args: list[tuple[int, ...]] = [()] * n
        self.family_slots = {}
        for ttype, (_, operands_of, _) in self.family.items():
            tids = np.flatnonzero(table.ttype == ttype)
            coords = operands_of(table.k[tids], table.bi[tids], table.bj[tids])
            slots = np.column_stack([f.slots_of(bi, bj) for bi, bj in coords])
            self.family_slots[ttype] = tids, slots
            for tid, args in zip(tids.tolist(), map(tuple, slots.tolist())):
                self.args[tid] = args
        self.calls, reads_images = self._resolve_calls()
        uses = np.zeros(f.num_blocks, dtype=np.int64)
        for tids, slots in self.family_slots.values():
            read = (slots != target[tids, None]) & (runs & reads_images)[tids, None]
            uses += np.bincount(slots[read], minlength=uses.size)
        self.panels = PanelCache(dict(enumerate(uses.tolist())), f)

    def features(self, ttype: TaskType) -> tuple[np.ndarray, TaskFeatures]:
        """The task ids of one type and their selector features as one
        :class:`TaskFeatures` of arrays — :func:`task_features` of each,
        from layer-1 data."""
        tids, slots = self.family_slots[ttype]
        structure = self.f.slot_structure()
        blocks = [structure[s] for s in slots.T]
        return tids, _features_of(ttype, self.table.flops[tids], blocks)

    def _resolve_calls(self) -> tuple[list[tuple], np.ndarray]:
        """``calls``, and per task whether it reads the images of the
        blocks it does not write (its variant takes ``"images"``)."""
        calls: list = [None] * len(self.tasks)
        for ttype, family in self.family.items():
            ktype = family[0]
            tids, feats = self.features(ttype)
            tree = self.options.selector.trees[ktype]
            versions = tree.select_many(feats, tids.size)
            heads = {
                v: (family, get_kernel(ktype, v), CACHED_OPERAND.get((ktype, v)),
                    f"{ktype.value}/{v}", TARGET_IMAGE_VERSIONS[ktype] == v)
                for v in np.unique(versions).tolist()
            }
            for tid, version in zip(tids.tolist(), versions.tolist()):
                calls[tid] = heads[version]
        return calls, np.array([call[2] == "images" for call in calls], dtype=bool)

    def execute(self, tid: int, ws: Workspace) -> tuple[str, int, bool]:
        # the task is its target's one writer (the DAG chains a block's
        # writers), so the compression of a finished GESSM/TSTRF panel
        # and every read and write of the target's image happen here
        f, compress, panels, slots = self.f, self.compress, self.panels, self.args[tid]
        family, kernel, takes, label, mapped = self.calls[tid]
        ktype, target = family[0], self.target[tid]
        block = f.block_at(target)
        lr = None
        if compress is not None and ktype is KernelType.SSSSM:
            lr = _overlaid(f, self.tasks[tid])
        if lr is not None or not mapped:
            # only the target's image can be behind its values: the
            # operands are finished panels (or received ones)
            panels.write_back(target, block)
        if lr is not None:
            ssssm_lr(block, *lr, ws)
            label, replaced, planned = "SSSSM/LR", 0, False
        else:
            image = panels.image(target, block, self.axis[tid]) if mapped else None
            try:
                replaced, planned = _run_kernel(
                    family, kernel, takes, slots, [f.block_at(s) for s in slots],
                    ws, self.options.pivot_floor, self.plans, panels, image,
                )
            except SingularBlockError as exc:
                task = self.tasks[tid]
                rows = f.block_slice(task.bi)
                raise SingularBlockError(
                    f"{task.ttype.name}(k={task.k}) on block ({task.bi},{task.bj}), "
                    f"rows {rows.start}–{rows.stop - 1} of the reordered matrix: {exc}"
                ) from exc
            if mapped and ktype is not KernelType.SSSSM and (
                inv := panels.publish(target, ktype)
            ) is not None:
                f.keep_inverse(target, inv)
        if compress is not None and ktype in _PANEL_SOLVES:
            _maybe_compress(f, self.tasks[tid], compress)
        if takes == "images":
            panels.release(slots, target)
        return label, replaced, planned

    def trace_label(self, tid: int) -> tuple[str, str]:
        return self.dag.trace_label(tid)

    def finish(self, report: RunReport) -> None:
        """The flops of the tasks that ran, the footprints of the plan
        cache and (at its peak) the panel cache, and what the overlay of
        ``f`` holds (a rank: of its own blocks); then the panel cache is
        drained — also after a failed run."""
        self.panels.drain()
        ran = np.fromiter(report.kernel_choices, np.int64, len(report.kernel_choices))
        report.flops_total = int(self.table.flops[ran].sum())
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
    one bit for bit: the DAG runs each block's Schur updates in step
    order (``n_lanes < 1`` is rejected by the lane driver).  ``owned`` restricts the run to a
    predecessor-closed subset of task ids (the partial factorisation of
    :mod:`repro.core.schur`).  Pass an
    :class:`~repro.runtime.scheduler.EventRecorder` to capture
    task/ready-depth events for Chrome-trace export.
    """
    options = options or NumericOptions()
    job = FactorJob(f, dag, options, owned)
    core = SchedulerCore.from_dag(dag, owned=owned, recorder=recorder)
    return run_lanes(
        core, job, n_lanes=n_lanes, recorder=recorder, timed=collect_timings,
    )

"""Fixed-pattern execution plans: precomputed scatter addressing.

The paper's central performance argument is that every numeric kernel
writes only inside a *fixed, preallocated* symbolic pattern (fill closure
guarantees each product term a destination slot).  The sparse kernel
variants nevertheless *rediscover* that pattern on every invocation —
per-entry Python loops with a ``numpy.searchsorted`` (bin-search
addressing) or ``numpy.intersect1d`` (merge addressing) per pivot.  Since
patterns never change after symbolic factorisation, all of that address
arithmetic can be done **once per block (pair/triple)** and amortised
across the numeric phase — in particular across the refactorisations of
Newton/time-stepping loops, the workload PanguLU's introduction
motivates.

A *plan* is a set of flattened ``int64`` index arrays mapping source
entries directly to destination ``data`` slots:

* :class:`SSSSMPlan` — one ``(src_a, src_b, dst)`` triple per structural
  product term of ``C ← C − A·B``; execution is a single elementwise
  multiply plus one ``np.subtract.at`` scatter.
* :class:`SolvePlan` — the solve order of GESSM/TSTRF (one step per
  pivot entry) with per-step update targets and, for TSTRF, the divisor
  index and the transpose gather permutation.
* :class:`GETRFPlan` — the left-looking column/pivot schedule of the
  sparse GETRF variants with per-step source/target index segments.

A plan is a cached *operand* of the variant it reproduces, not a code
path beside it: the sparse-addressing variants (see
:data:`PLANNABLE_VERSIONS`) accept theirs as ``plan=`` and then perform
the *exact* floating-point operation sequence of their own loop (same
products, same order, same structural-validity masking) through the
``run_*_plan`` functions below, so a variant handed its plan is
bit-identical to the same variant without — asserted by
``tests/test_plans.py``.  The dense-mapped and compiled variants already
run at vendor-library speed, use different summation orders, and take
no plan.

Plans are built lazily on first use and cached in a :class:`PlanCache`
keyed by the storage slots of the participating blocks (patterns are
immutable post-symbolic) — by :func:`repro.core.numeric.execute_task`,
the one per-task entry point of every engine — and accounted by
:func:`repro.core.memory.memory_report`.  This module depends on
:mod:`repro.kernels.base` alone, so the kernel modules can import it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from ..sparse.csc import CSCMatrix
from .base import (
    KernelType,
    SingularBlockError,
    diagonal_positions,
    fix_pivot,
    locate,
    triangle,
)

__all__ = [
    "SSSSMPlan",
    "SolvePlan",
    "GETRFPlan",
    "PlanCache",
    "PLANNABLE_VERSIONS",
    "build_ssssm_plan",
    "run_ssssm_plan",
    "build_solve_plan",
    "run_solve_plan",
    "build_getrf_plan",
    "run_getrf_plan",
]

# registered for the `lock-discipline` lint rule: the plan dict is only
# written under the cache lock (reads stay lock-free — see PlanCache.get),
# and the lock is a leaf: plans are built before it is taken
__guarded_by__ = {
    "self._lock": ("self._plans", "self.builds"),
}

#: Kernel versions whose numeric behaviour a plan reproduces exactly;
#: each accepts one as ``plan=``.  Dense-mapped (``C_V1`` GEMM,
#: ``C_V2``/``G_V3`` panels) and compiled (``G_V1`` SpGEMM, ``G_V3``
#: solves) variants use different summation orders and take none.
PLANNABLE_VERSIONS: dict[KernelType, frozenset[str]] = {
    KernelType.GETRF: frozenset({"G_V1", "G_V2"}),
    KernelType.GESSM: frozenset({"C_V1", "G_V1"}),
    KernelType.TSTRF: frozenset({"C_V1", "G_V1"}),
    KernelType.SSSSM: frozenset({"C_V2", "G_V2"}),
}


class _IndexPlan:
    """What the three plan dataclasses share: a plan is nothing but its
    index arrays, so its footprint is theirs."""

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in vars(self).values() if a is not None)


# ----------------------------------------------------------------------
# SSSSM — Schur update scatter maps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SSSSMPlan(_IndexPlan):
    """Flattened scatter map for ``C ← C − A·B``.

    ``c.data[dst[i]] -= a.data[src_a[i]] * b.data[src_b[i]]`` applied in
    order — exactly the operation sequence of ``ssssm_c_v2``.
    """

    src_a: np.ndarray
    src_b: np.ndarray
    dst: np.ndarray


def _flatten_segments(
    seg_start: np.ndarray, seg_count: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten variable-length index ranges ``[start, start+count)``.

    Returns ``(owner, flat)`` where ``flat`` concatenates the ranges in
    order and ``owner[i]`` is the segment that produced ``flat[i]`` —
    the vectorised equivalent of a loop of ``arange`` concatenations.
    """
    total = int(seg_count.sum())
    owner = np.repeat(np.arange(seg_count.size, dtype=np.int64), seg_count)
    offs = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(seg_count) - seg_count, seg_count
    )
    return owner, np.repeat(seg_start, seg_count) + offs


def _colkeys(indptr: np.ndarray, indices: np.ndarray, nrows: int) -> np.ndarray:
    """Globally-sorted ``column * nrows + row`` keys of a CSC pattern.

    Sorted-unique rows per column make this strictly increasing across
    the whole array, so one global binary search replaces a per-column
    one — the locate step of every plan build.
    """
    cols = np.repeat(
        np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr)
    )
    return cols * nrows + indices


def build_ssssm_plan(
    c: CSCMatrix, a: CSCMatrix, b: CSCMatrix, *, entry_limit: int | None = None
) -> SSSSMPlan | None:
    """Precompute the scatter map of the structural product ``A·B`` into
    ``C``'s fixed pattern.

    Returns ``None`` when the map would exceed ``entry_limit`` entries
    (the variant then runs its own loop) — a memory valve for
    near-dense products whose plan would rival the factors in size.
    """
    a_colnnz = np.diff(a.indptr)
    counts = a_colnnz[b.indices]
    total = int(counts.sum())
    if entry_limit is not None and total > entry_limit:
        return None
    empty = np.zeros(0, dtype=np.int64)
    if total == 0:
        return SSSSMPlan(src_a=empty, src_b=empty, dst=empty)
    # one flat entry per product term, in ssssm_c_v2 loop order:
    # B entries column-major, then the A[:, t] column for each
    src_b, src_a = _flatten_segments(a.indptr[:-1][b.indices], counts)
    keys = b.cols_expanded()[src_b] * c.nrows + a.indices[src_a]
    pos, valid = locate(keys, _colkeys(c.indptr, c.indices, c.nrows))
    if valid.all():
        return SSSSMPlan(src_a=src_a, src_b=src_b, dst=pos)
    return SSSSMPlan(src_a=src_a[valid], src_b=src_b[valid], dst=pos[valid])


def run_ssssm_plan(plan: SSSSMPlan, c: CSCMatrix, a: CSCMatrix, b: CSCMatrix) -> None:
    """Execute a planned Schur update: one multiply, one ordered scatter."""
    prod = a.data[plan.src_a]
    prod *= b.data[plan.src_b]
    np.subtract.at(c.data, plan.dst, prod)


# ----------------------------------------------------------------------
# GESSM / TSTRF — planned triangular solves
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SolvePlan(_IndexPlan):
    """Solve-order plan of a block triangular solve.

    One *step* per pivot entry of the right-hand-side block (in solve
    order).  Step ``i`` reads ``x_t`` at ``work[piv[i]]``, divides by
    ``diag.data[div[i]]`` when ``div`` is present (TSTRF's non-unit
    diagonal), and applies ``work[dst[s:e]] -= diag.data[src[s:e]] * x_t``
    with ``s, e = seg_ptr[i], seg_ptr[i+1]``.  ``gather`` (TSTRF only) is
    the permutation taking ``b.data`` into the transposed work order.
    """

    piv: np.ndarray
    seg_ptr: np.ndarray
    dst: np.ndarray
    src: np.ndarray
    div: np.ndarray | None = None
    gather: np.ndarray | None = None


def _plan_steps(
    step_t: np.ndarray,
    step_col: np.ndarray,
    src_start: np.ndarray,
    src_end: np.ndarray,
    src_indices: np.ndarray,
    tgt_key: np.ndarray,
    tgt_nrows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the update targets of a batch of solve steps at once.

    Step ``i`` eliminates pivot ``step_t[i]`` from target column
    ``step_col[i]``: each source entry ``src_start[t]:src_end[t]`` is
    bin-searched into the target pattern (global keys, same validity
    masking as the sparse kernels).  Returns ``(src, dst, seg)`` — the
    flattened valid source/destination indices in step order plus the
    per-step segment lengths.
    """
    counts = src_end[step_t] - src_start[step_t]
    step_idx, src_flat = _flatten_segments(src_start[step_t], counts)
    keys = step_col[step_idx] * tgt_nrows + src_indices[src_flat]
    pos, valid = locate(keys, tgt_key)
    seg = np.bincount(step_idx[valid], minlength=step_t.size)
    return src_flat[valid], pos[valid], seg


def build_solve_plan(diag: CSCMatrix, b: CSCMatrix, *, lower: bool) -> SolvePlan:
    """Plan the forward sweep of a panel solve: GESSM's ``L·X = B``
    (``lower``) in ``b.data`` order, or TSTRF's ``X·U = B`` as
    ``Uᵀ·Xᵀ = Bᵀ`` on ``b.data[gather]``, the entry order of ``Bᵀ``.

    One candidate step per work entry; update targets are resolved once
    with the bin-search + validity masking of the ``G_V1`` sweeps.  A
    step without targets is dropped when the triangle is unit (a no-op)
    and kept otherwise (it still divides).  A structurally missing ``U``
    diagonal raises here, an exactly zero one when the plan runs.
    """
    tri = triangle(diag, lower=lower)
    step_t, step_col = b.rows_cols()
    nrows, gather, div = b.nrows, None, None
    if not lower:
        gather = np.argsort(step_t, kind="stable")
        step_t, step_col, nrows = step_col[gather], step_t[gather], b.ncols
        div = tri.div[step_t]
        if (div < 0).any():
            t = int(step_t[div < 0][0])
            raise SingularBlockError(f"zero/missing U diagonal at {t}")
    src, dst, seg = _plan_steps(
        step_t, step_col, tri.indptr[:-1], tri.indptr[1:], tri.indices,
        step_col * nrows + step_t, nrows,
    )
    keep = np.flatnonzero(seg > 0) if lower else np.arange(seg.size, dtype=np.int64)
    seg_ptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(seg[keep], out=seg_ptr[1:])
    return SolvePlan(
        piv=keep, seg_ptr=seg_ptr, dst=dst, src=tri.src[src], div=div, gather=gather
    )


def run_solve_plan(plan: SolvePlan, diag: CSCMatrix, b: CSCMatrix) -> None:
    """Execute a planned GESSM / TSTRF solve in place on ``b.data``."""
    dd = diag.data
    w = b.data if plan.gather is None else b.data[plan.gather]
    piv, div, seg_ptr = plan.piv, plan.div, plan.seg_ptr
    dst, src = plan.dst, plan.src
    for i in range(piv.size):
        xt = w[piv[i]]
        if div is not None:
            uv = dd[div[i]]
            if uv == 0.0:
                raise SingularBlockError(f"zero/missing U diagonal (step {i})")
            xt = w[piv[i]] = xt / uv
        if xt == 0.0:
            continue
        s, e = seg_ptr[i], seg_ptr[i + 1]
        if e > s:
            w[dst[s:e]] -= dd[src[s:e]] * xt
    if plan.gather is not None:
        b.data[plan.gather] = w


# ----------------------------------------------------------------------
# GETRF — planned left-looking factorisation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GETRFPlan(_IndexPlan):
    """Left-looking schedule of the sparse GETRF variants.

    Column ``j`` runs the update steps ``col_step_ptr[j]`` to
    ``col_step_ptr[j+1]`` (each as in :class:`SolvePlan`), then fixes the
    pivot at ``data[diag_idx[j]]`` and divides the contiguous
    ``data[below_lo[j]:below_hi[j]]`` sub-diagonal segment.
    """

    col_step_ptr: np.ndarray
    piv: np.ndarray
    seg_ptr: np.ndarray
    dst: np.ndarray
    src: np.ndarray
    diag_idx: np.ndarray
    below_lo: np.ndarray
    below_hi: np.ndarray


def build_getrf_plan(block: CSCMatrix) -> GETRFPlan:
    """Plan the sparse left-looking LU of a diagonal block.

    Mirrors ``getrf_g_v1``'s traversal: for each column, one step per
    factored upper entry ``t < j`` with precomputed source (column ``t``'s
    ``L`` segment) and destination (bin-searched into column ``j``'s
    pattern) indices.  Structurally missing pivots raise here, at plan
    time.
    """
    n = block.ncols
    indptr, indices = block.indptr, block.indices
    diag_idx = diagonal_positions(block)
    bad = np.flatnonzero(diag_idx < 0)
    if bad.size:
        raise SingularBlockError(f"missing structural pivot at column {int(bad[0])}")
    # one candidate step per strict-upper entry, in data (column-major)
    # order — the traversal order of getrf_g_v1
    rows_d, cols_d = block.rows_cols()
    strict = np.flatnonzero(rows_d < cols_d)
    step_t = rows_d[strict]
    step_col = cols_d[strict]
    src, dst, seg = _plan_steps(
        step_t, step_col, diag_idx + 1, indptr[1:], indices,
        _colkeys(indptr, indices, block.nrows), block.nrows,
    )
    keep = np.flatnonzero(seg > 0)
    seg_ptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(seg[keep], out=seg_ptr[1:])
    col_step_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(step_col[keep], minlength=n), out=col_step_ptr[1:])
    return GETRFPlan(
        col_step_ptr=col_step_ptr,
        piv=strict[keep],
        seg_ptr=seg_ptr,
        dst=dst,
        src=src,
        diag_idx=diag_idx,
        below_lo=diag_idx + 1,
        below_hi=indptr[1:].astype(np.int64, copy=False),
    )


def run_getrf_plan(
    plan: GETRFPlan, block: CSCMatrix, *, pivot_floor: float = 0.0
) -> int:
    """Execute a planned GETRF in place; returns the replaced-pivot count."""
    data = block.data
    scale = (float(np.abs(data).max()) if data.size else 0.0) or 1.0
    replaced = 0
    csp = plan.col_step_ptr
    piv, seg_ptr = plan.piv, plan.seg_ptr
    dst, src = plan.dst, plan.src
    for j in range(plan.diag_idx.size):
        for i in range(csp[j], csp[j + 1]):
            xt = data[piv[i]]
            if xt == 0.0:
                continue
            s, e = seg_ptr[i], seg_ptr[i + 1]
            data[dst[s:e]] -= data[src[s:e]] * xt
        dpos = plan.diag_idx[j]
        piv_v, rep = fix_pivot(float(data[dpos]), pivot_floor, scale)
        replaced += rep
        data[dpos] = piv_v
        lo, hi = plan.below_lo[j], plan.below_hi[j]
        if hi > lo:
            data[lo:hi] /= piv_v
    return replaced


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
_MISSING = object()


class PlanCache:
    """Thread-safe lazy cache of execution plans, keyed by block slots.

    Patterns are immutable after symbolic factorisation, so a plan built
    for a ``(kernel role, block slots)`` key stays valid for the life of
    the block structure — including across :meth:`PanguLU.refactorize`
    calls, which re-inject values into the same pattern.

    Reads are lock-free (a dict read is atomic under the GIL); builds are
    raced optimistically and resolved with ``setdefault``, so two workers
    may occasionally build the same plan but never see a torn one.
    """

    def __init__(self, *, ssssm_entry_limit: int | None = 4_000_000) -> None:
        self._plans: dict = {}
        self._lock = threading.Lock()
        #: per-task cap on SSSSM scatter-map entries (memory valve)
        self.ssssm_entry_limit = ssssm_entry_limit
        #: number of builder invocations (≥ cache size; lets tests assert
        #: that refactorize reuses every plan instead of rebuilding)
        self.builds = 0

    def get(self, key, builder):
        """The cached plan for ``key``, building it via ``builder()`` on a
        miss.  A cached ``None`` (plan declined, e.g. over the entry
        limit) is returned as ``None`` without rebuilding."""
        plan = self._plans.get(key, _MISSING)
        if plan is not _MISSING:
            return plan
        plan = builder()
        with self._lock:
            self.builds += 1
            return self._plans.setdefault(key, plan)

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def nbytes(self) -> int:
        """Total index-array bytes held by the cached plans."""
        return sum(p.nbytes for p in self._plans.values() if p is not None)

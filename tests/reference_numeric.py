"""Test-only references of the numeric phase: every task through the
selected variant's *own* loop, and the hand-written panel-solve loops
the shared ``panel_*`` functions of ``repro.kernels.gessm`` replaced.

:func:`replay_unplanned` walks the DAG in task-id order (a topological
order, and the order in which the sequential engine applies the updates
of any one block) and calls ``execute_task(..., plans=None,
panels=None)`` — no execution plan, no cached image, nothing kept
between tasks; with compression on, an SSSSM whose ``L(i,k)`` or
``U(k,j)`` carries an overlay runs ``ssssm_lr`` instead.  Planned and image-fed runs must reproduce its factors
bit for bit (``tests/test_plans.py``, ``tests/test_panel_cache.py``);
``benchmarks/bench_ablation_plans.py`` times it as the unplanned side.

:func:`dense_getrf_loop` is the dense no-pivot LU loop that
``repro.kernels.base.dense_getrf`` runs where LAPACK's ``getrf`` result
is refused, kept as the oracle of the accepted ones.

:data:`PANEL_ORACLE` holds the GESSM / TSTRF loops as they stood before
they were written once (``split_lu``, a ``searchsorted`` per pivot, one
sweep per family, one level-set loop per family): the kernels of
``repro.kernels.gessm`` / ``tstrf`` are held bit-identical to them, and
``repro.kernels.base.triangle`` to :func:`split_lu`
(``tests/test_kernels.py``).  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.numeric import (
    NumericOptions,
    execute_task,
    resolve_compress,
    task_features,
)
from repro.core.dag import TaskType
from repro.kernels import KernelType, SingularBlockError, Workspace
from repro.kernels.base import fix_pivot, gather_dense, scatter_dense, solve_levels
from repro.kernels.compress import ssssm_lr
from repro.sparse import CSCMatrix


def replay_unplanned(bm, dag, options: NumericOptions | None = None, *, tids=None):
    """Factorise ``bm`` in place without plan or panel cache.

    ``tids`` restricts the run to a predecessor-closed subset of task
    ids (what ``partial_factorize`` runs).  Returns ``{tid:
    "TYPE/VERSION"}`` as ``RunReport.kernel_choices`` would.
    """
    options = options or NumericOptions()
    policy = resolve_compress(options)
    ws = Workspace()
    keep = None if tids is None else set(tids)
    choices = {}
    for task in dag.tasks:
        if keep is not None and task.tid not in keep:
            continue
        if policy is not None and task.ttype is TaskType.SSSSM:
            coords = ((task.bi, task.k), (task.k, task.bj))
            overlays = [bm.compressed_block(*c) for c in coords]
            if any(cb is not None for cb in overlays):
                operands = [
                    bm.block(*c) if cb is None else cb
                    for c, cb in zip(coords, overlays)
                ]
                ssssm_lr(bm.block(task.bi, task.bj), *operands, ws)
                choices[task.tid] = "SSSSM/LR"
                continue
        ktype = KernelType[task.ttype.name]
        version = options.selector.select(ktype, task_features(bm, task))
        _, planned = execute_task(
            bm, task, version, ws, pivot_floor=options.pivot_floor,
            plans=None, panels=None, compress=policy,
        )
        assert not planned
        choices[task.tid] = f"{ktype.value}/{version}"
    return choices


def dense_getrf_loop(w: np.ndarray, pivot_floor: float, scale: float) -> int:
    """``repro.kernels.base.dense_getrf`` as it stood before it called
    LAPACK: in-place no-pivot LU of the dense square ``w`` by rank-1
    updates, :func:`~repro.kernels.base.fix_pivot` at every pivot.  The
    oracle its ``getrf`` path is held to, and the loop it falls back to,
    verbatim.  Returns the replaced-pivot count."""
    n = w.shape[0]
    replaced = 0
    for k in range(n):
        piv, rep = fix_pivot(float(w[k, k]), pivot_floor, scale)
        replaced += rep
        w[k, k] = piv
        if k + 1 < n:
            w[k + 1 :, k] /= piv
            w[k + 1 :, k + 1 :] -= np.outer(w[k + 1 :, k], w[k, k + 1 :])
    return replaced


# ----------------------------------------------------------------------
# the panel-solve loops as they were hand-written per family
# ----------------------------------------------------------------------
def split_lu(diag: CSCMatrix) -> tuple[CSCMatrix, CSCMatrix]:
    """Split a factored diagonal block into ``(L, U)``.

    ``L`` is unit-lower (unit diagonal stored explicitly), ``U`` is upper
    including the diagonal.  Both are fresh CSC matrices.
    """
    n = diag.ncols
    l_indptr = np.zeros(n + 1, dtype=np.int64)
    u_indptr = np.zeros(n + 1, dtype=np.int64)
    l_idx: list[np.ndarray] = []
    l_val: list[np.ndarray] = []
    u_idx: list[np.ndarray] = []
    u_val: list[np.ndarray] = []
    data = diag.data
    # the stored unit diagonal must be built in the factor dtype —
    # np.concatenate([[1.0], float32_vals]) would silently promote the
    # whole L value array to float64
    unit = np.ones(1, dtype=data.dtype)
    for j in range(n):
        sl = diag.col_slice(j)
        rows = diag.indices[sl]
        vals = data[sl]
        below = rows > j
        upto = rows <= j
        l_idx.append(np.concatenate([[j], rows[below]]))
        l_val.append(np.concatenate([unit, vals[below]]))
        u_idx.append(rows[upto])
        u_val.append(vals[upto])
        l_indptr[j + 1] = l_indptr[j] + l_idx[-1].size
        u_indptr[j + 1] = u_indptr[j] + u_idx[-1].size
    l = CSCMatrix(
        diag.shape,
        l_indptr,
        np.concatenate(l_idx) if l_idx else np.zeros(0, np.int64),
        np.concatenate(l_val) if l_val else np.zeros(0, dtype=data.dtype),
        check=False,
    )
    u = CSCMatrix(
        diag.shape,
        u_indptr,
        np.concatenate(u_idx) if u_idx else np.zeros(0, np.int64),
        np.concatenate(u_val) if u_val else np.zeros(0, dtype=data.dtype),
        check=False,
    )
    return l, u


def _strict_lower_cols(diag: CSCMatrix, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices/values of the strictly-lower part of column ``t`` of a
    factored diagonal block (the ``L`` multipliers of pivot ``t``)."""
    sl = diag.col_slice(t)
    rows = diag.indices[sl]
    start = int(np.searchsorted(rows, t + 1))
    return rows[start:], diag.data[sl][start:]


def gessm_c_v1(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Merge-addressed column solve (CPU V1).

    Pure sparse forward substitution; update targets are located by merging
    the pivot's L-column index list with the B-column index list
    (``numpy.intersect1d`` on sorted-unique arrays).
    """
    for c in range(b.ncols):
        sl = b.col_slice(c)
        rows_c = b.indices[sl]
        vals_c = b.data[sl]
        for p in range(rows_c.size):
            xt = vals_c[p]
            if xt == 0.0:
                continue
            t = int(rows_c[p])
            l_rows, l_vals = _strict_lower_cols(diag, t)
            if l_rows.size == 0:
                continue
            common, pos_l, pos_c = np.intersect1d(
                l_rows, rows_c, assume_unique=True, return_indices=True
            )
            if common.size:
                vals_c[pos_c] -= l_vals[pos_l] * xt


def gessm_g_v1(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Bin-search column solve (GPU V1, "warp-level column").

    Like :func:`gessm_c_v1` but targets are located with ``searchsorted``
    into the B column's pattern (binary search rather than a full merge) —
    cheaper when the L columns are much shorter than the B columns.
    """
    for c in range(b.ncols):
        sl = b.col_slice(c)
        rows_c = b.indices[sl]
        vals_c = b.data[sl]
        for p in range(rows_c.size):
            xt = vals_c[p]
            if xt == 0.0:
                continue
            t = int(rows_c[p])
            l_rows, l_vals = _strict_lower_cols(diag, t)
            if l_rows.size == 0:
                continue
            pos = np.searchsorted(rows_c, l_rows)
            valid = pos < rows_c.size
            np.minimum(pos, rows_c.size - 1, out=pos)
            valid &= rows_c[pos] == l_rows
            vals_c[pos[valid]] -= l_vals[valid] * xt


def gessm_g_v2(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Level-scheduled row solve (GPU V2, "un-sync warp-level row").

    Computes the level sets of the triangular-solve DAG of ``L`` and
    processes one level at a time on a dense panel; rows inside a level
    are independent (this is the synchronisation-free row algorithm of
    SFLU applied to the solve).
    """
    n, m = b.shape
    l, _ = split_lu(diag)
    lt = l.transpose()
    indptr, cols, vals = lt.indptr, lt.indices, lt.data
    levels = solve_levels(indptr, cols, n)
    w = ws.dense("a", (n, m), b.data.dtype)
    scatter_dense(b, w)
    for lev in levels:
        for r in lev:
            r = int(r)
            sl = slice(int(indptr[r]), int(indptr[r + 1]))
            cs = cols[sl]
            strict = cs < r
            if strict.any():
                w[r, :] -= vals[sl][strict] @ w[cs[strict], :]
    gather_dense(b, w)


def _forward_solve_nonunit(
    ut: CSCMatrix, bt: CSCMatrix, *, addressing: str
) -> None:
    """In-place forward substitution ``U^T · X = B^T`` on transposed blocks.

    ``addressing`` selects how update targets are located: ``"merge"``
    (sorted-list intersection) or ``"binsearch"`` (binary search), the two
    sparse methods of Table 1.
    """
    ut_indptr, ut_indices, ut_data = ut.indptr, ut.indices, ut.data
    for c in range(bt.ncols):
        sl = bt.col_slice(c)
        rows_c = bt.indices[sl]
        vals_c = bt.data[sl]
        for p in range(rows_c.size):
            t = int(rows_c[p])
            lo, hi = int(ut_indptr[t]), int(ut_indptr[t + 1])
            urows = ut_indices[lo:hi]
            uvals = ut_data[lo:hi]
            # diagonal of U^T column t is its first entry (smallest row = t)
            if urows.size == 0 or urows[0] != t or uvals[0] == 0.0:
                raise SingularBlockError(f"zero/missing U diagonal at {t}")
            xt = vals_c[p] / uvals[0]
            vals_c[p] = xt
            if xt == 0.0 or urows.size == 1:
                continue
            l_rows = urows[1:]
            l_vals = uvals[1:]
            if addressing == "merge":
                common, pos_l, pos_c = np.intersect1d(
                    l_rows, rows_c, assume_unique=True, return_indices=True
                )
                if common.size:
                    vals_c[pos_c] -= l_vals[pos_l] * xt
            else:
                pos = np.searchsorted(rows_c, l_rows)
                valid = pos < rows_c.size
                np.minimum(pos, rows_c.size - 1, out=pos)
                valid &= rows_c[pos] == l_rows
                vals_c[pos[valid]] -= l_vals[valid] * xt


def tstrf_g_v2(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
    """Level-scheduled solve (GPU V2, "un-sync warp-level row").

    Builds the level sets of the ``U^T`` solve DAG and processes levels on
    a dense panel of ``B^T``.
    """
    ut = split_lu(diag)[1].transpose()
    n = ut.ncols
    m = b.nrows
    utt = ut.transpose()
    indptr, cols, vals = utt.indptr, utt.indices, utt.data
    levels = solve_levels(indptr, cols, n)
    # dense panel of B^T: shape (n, m)
    w = ws.dense("a", (n, m), b.data.dtype)
    rows_b, cols_b = b.rows_cols()
    w[cols_b, rows_b] = b.data
    for lev in levels:
        for r in lev:
            r = int(r)
            sl = slice(int(indptr[r]), int(indptr[r + 1]))
            cs = cols[sl]
            vv = vals[sl]
            strict = cs < r
            if strict.any():
                w[r, :] -= vv[strict] @ w[cs[strict], :]
            dpos = int(np.searchsorted(cs, r))
            if dpos >= cs.size or cs[dpos] != r or vv[dpos] == 0.0:
                raise SingularBlockError(f"zero/missing U diagonal at {r}")
            w[r, :] /= vv[dpos]
    b.data[...] = w[cols_b, rows_b]


def _tstrf_sweep(addressing: str):
    def kernel(diag: CSCMatrix, b: CSCMatrix, ws: Workspace) -> None:
        bt = b.transpose()
        _forward_solve_nonunit(
            split_lu(diag)[1].transpose(), bt, addressing=addressing
        )
        b.data[...] = bt.transpose().data
    return kernel


#: ``(family, version) -> kernel(diag, b, ws)`` — the loops the shared
#: sweeps must reproduce bit for bit
PANEL_ORACLE = {
    (KernelType.GESSM, "C_V1"): gessm_c_v1,
    (KernelType.GESSM, "G_V1"): gessm_g_v1,
    (KernelType.GESSM, "G_V2"): gessm_g_v2,
    (KernelType.TSTRF, "C_V1"): _tstrf_sweep("merge"),
    (KernelType.TSTRF, "G_V1"): _tstrf_sweep("binsearch"),
    (KernelType.TSTRF, "G_V2"): tstrf_g_v2,
}

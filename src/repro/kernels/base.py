"""Shared infrastructure for the block sparse kernels.

Every numeric kernel operates on :class:`~repro.sparse.csc.CSCMatrix`
blocks whose pattern is *fixed* by the symbolic factorisation.  The fill
closure property (if ``F[r,t]`` and ``F[t,c]`` are present with
``t < min(r, c)`` then ``F[r,c]`` is present) guarantees that every value a
kernel produces has a preallocated slot, which is what makes the paper's
three addressing methods well-defined:

* **Direct / dense mapping** — scatter the block into a reusable dense
  workspace, compute with dense vectorised operations, gather back into
  the pattern.
* **Bin-search** — stay sparse and locate update targets with binary
  search (``numpy.searchsorted``) in the target column's sorted indices.
* **Merge** — locate targets by merging two sorted index lists
  (``numpy.intersect1d`` on sorted-unique arrays).

This module provides the kernel-family enum, the dense workspace,
scatter/gather helpers, the dense image of a block's occupied rows or
columns the dense-mapped GEMMs multiply (:func:`box_image`), the
static-pivot rule of GETRF, the dense
inverses the dense-mapped panel solves and the triangular solves'
diagonal tasks multiply by (a factored diagonal block's
:func:`invert_factors`, read back one triangle at a time by
:func:`inverse_triangle`), and the index view of either triangle of a factored
diagonal block (:func:`triangle`) the sparse panel solves walk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs

from ..sparse.csc import CSCMatrix

__all__ = [
    "KernelType",
    "Workspace",
    "fix_pivot",
    "dense_getrf",
    "scatter_dense",
    "gather_dense",
    "BOX_OCCUPANCY",
    "box_image",
    "box_index",
    "locate",
    "TargetImage",
    "triangle_inverse",
    "invert_factors",
    "inverse_triangle",
    "serial_matmul",
    "diagonal_positions",
    "Triangle",
    "triangle",
    "solve_levels",
    "SingularBlockError",
]


class KernelType(enum.Enum):
    """The four block-kernel roles of PanguLU's numeric factorisation."""

    GETRF = "GETRF"   # diagonal-block LU
    GESSM = "GESSM"   # lower triangular solve (block column of U)
    TSTRF = "TSTRF"   # upper triangular solve (block row of L)
    SSSSM = "SSSSM"   # sparse-sparse Schur update

    def __str__(self) -> str:  # pragma: no cover - display only
        return self.value


class SingularBlockError(ArithmeticError):
    """A diagonal pivot was exactly zero during GETRF.

    With MC64 preprocessing this indicates severe cancellation; callers may
    retry with a perturbed pivot (static pivoting à la SuperLU GESP).
    """


def fix_pivot(value: float, pivot_floor: float, scale: float) -> tuple[float, bool]:
    """Replace an exactly/near-zero pivot per static-pivoting policy.

    Returns ``(pivot, replaced)`` — the second flag feeds the GESP
    diagnostics (count of perturbed pivots) in the factorisation stats.
    """
    if value == 0.0 or abs(value) < pivot_floor * scale:
        if pivot_floor <= 0.0:
            raise SingularBlockError("zero pivot in GETRF (run MC64 first)")
        return (pivot_floor * scale if value >= 0 else -pivot_floor * scale), True
    return value, False


#: largest order at which LAPACK ``getrf`` runs on the calling thread
#: (this OpenBLAS: one CPU per wall second up to 128, about 2 from 144; see
#: ``docs/trsm_threading.md``).  A measured property of one BLAS, like
#: :data:`SERIAL_GEMM_WORK`, not a tuning knob: ``bench_fig07_kernels.py``
#: fails when a ``getrf`` of this order is threaded.
GETRF_SERIAL_ORDER = 128


def dense_getrf(w: np.ndarray, pivot_floor: float, scale: float) -> int:
    """In-place LU of the dense square array ``w`` without pivoting, with
    :func:`fix_pivot` against ``scale`` at every pivot.  What
    ``getrf_c_v1`` runs on a block's dense image and the supernodal
    baseline on its diagonal panels.  Returns the replaced-pivot count.

    Up to :data:`GETRF_SERIAL_ORDER` it is one LAPACK ``getrf``, kept
    when that LU is the no-pivot one and needs no GESP replacement: no
    row swapped (partial pivoting chose the diagonal at every step) and
    every ``|U[k,k]| ≥ pivot_floor · scale``.  Otherwise — and above that
    order — a rank-1-update loop: per pivot :func:`fix_pivot`, the
    column below divided, the trailing matrix updated.  Only the loop
    replaces pivots or raises :class:`SingularBlockError`."""
    n = w.shape[0]
    if 0 < n <= GETRF_SERIAL_ORDER:
        (getrf,) = get_lapack_funcs(("getrf",), (w,))
        lu, ipiv, info = getrf(w)
        unpivoted = info == 0 and np.array_equal(ipiv, np.arange(n))
        if unpivoted and np.abs(np.diagonal(lu)).min() >= pivot_floor * scale:
            w[...] = lu
            return 0
    replaced = 0
    for k in range(n):
        piv, rep = fix_pivot(float(w[k, k]), pivot_floor, scale)
        replaced += rep
        w[k, k] = piv
        if k + 1 < n:
            w[k + 1 :, k] /= piv
            w[k + 1 :, k + 1 :] -= np.outer(w[k + 1 :, k], w[k, k + 1 :])
    return replaced


@dataclass
class Workspace:
    """Reusable dense scratch space for the dense-mapping kernel variants.

    One instance per executing worker; kernels may freely overwrite the
    arrays.  Grown on demand, never shrunk.
    """

    _dense_a: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.float64))
    _dense_c: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.float64))
    _vec: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float64))
    _triangles: dict = field(default_factory=dict)

    def dense(
        self,
        which: str,
        shape: tuple[int, int],
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """Return a zeroed dense scratch array of at least ``shape``.

        ``which`` selects one of two independent buffers: ``"a"`` for
        the block or panel a kernel works on, ``"c"`` for an update's
        target.
        ``dtype`` must match the operand blocks' value dtype — computing
        dense in float64 and gathering back into float32 storage would
        round differently from the sparse variants of the same kernel and
        break cross-variant (and planned-vs-unplanned) bit identity.
        """
        dtype = np.dtype(dtype)
        attr = f"_dense_{which}"
        buf = getattr(self, attr)
        if buf.shape[0] < shape[0] or buf.shape[1] < shape[1] or buf.dtype != dtype:
            newshape = (max(buf.shape[0], shape[0]), max(buf.shape[1], shape[1]))
            buf = np.zeros(newshape, dtype=dtype)
            setattr(self, attr, buf)
        view = buf[: shape[0], : shape[1]]
        view[...] = 0.0
        return view

    def triangle(self, inv: np.ndarray, *, lower: bool) -> np.ndarray:
        """:func:`inverse_triangle` of a packed inverse ``inv`` into a
        buffer kept per order and triangle, so the zeros of the other
        triangle and ``L``'s unit diagonal are written once."""
        key = inv.shape[0], lower
        if key not in self._triangles:
            self._triangles[key] = np.eye(key[0], dtype=np.float64)
        return inverse_triangle(inv, lower=lower, out=self._triangles[key])

    def vector(self, n: int, dtype: np.dtype | type = np.float64) -> np.ndarray:
        """Zeroed 1-D scratch of length ``n`` and dtype ``dtype``."""
        dtype = np.dtype(dtype)
        if self._vec.size < n or self._vec.dtype != dtype:
            self._vec = np.zeros(n, dtype=dtype)
        v = self._vec[:n]
        v[...] = 0.0
        return v


def scatter_dense(block: CSCMatrix, out: np.ndarray) -> None:
    """Scatter the block values into ``out`` (must be zeroed, block-shaped)."""
    rows, cols = block.rows_cols()
    out[rows, cols] = block.data


def gather_dense(block: CSCMatrix, dense: np.ndarray) -> None:
    """Gather values from ``dense`` back into the block's fixed pattern."""
    rows, cols = block.rows_cols()
    block.data[...] = dense[rows, cols]


#: multiply-adds per GEMM call that OpenBLAS still runs on the calling
#: thread (measured threshold of this build: 2^20; see
#: ``docs/trsm_threading.md``), with a factor two to spare.  A measured
#: property of one BLAS, not a tuning knob: ``bench_fig07_kernels.py``
#: re-measures the threshold and fails when it has dropped below this.
SERIAL_GEMM_WORK = 1 << 19


#: occupied share of a block's rows (or columns) from which
#: :func:`box_image` returns the whole block: below it a dense-mapped
#: GEMM multiplies only the occupied box.  Measured like
#: :data:`SERIAL_GEMM_WORK`, not a tuning knob: of ¼, ½, ¾ and 1, ½ factored
#: the three sequential benchmark workloads' matrices fastest or within 1 %
#: of the fastest (EXPERIMENTS.md, "Occupied-box GEMMs").
BOX_OCCUPANCY = 0.5


def box_image(block: CSCMatrix, axis: int) -> tuple[np.ndarray | None, np.ndarray]:
    """``(pos, dense)``: the dense image of ``block`` on its occupied rows
    (``axis=0``) or occupied columns (``axis=1``) — what the dense-mapped
    variants multiply, so their GEMMs skip the padding zeros.

    ``dense`` holds the occupied rows (columns) in order and one zero
    row (column) after them, the sentinel; ``pos`` maps every row
    (column) of the block to its position in ``dense``, an unoccupied
    one to the sentinel.  A product gathered through ``pos`` thus reads
    0 wherever the box has no entry.  With at least
    :data:`BOX_OCCUPANCY` of them occupied the image is the whole block
    and ``pos`` is ``None`` (the identity; see :func:`box_index`).
    Nothing is kept: both arrays are O(size of the image) and die with
    it."""
    idx = list(block.rows_cols())
    occupied = np.zeros(block.shape[axis], dtype=bool)
    occupied[idx[axis]] = True
    k = int(np.count_nonzero(occupied))
    pos, shape = None, list(block.shape)
    if k < BOX_OCCUPANCY * occupied.size:
        pos = np.full(occupied.size, k, dtype=np.intp)
        pos[occupied] = np.arange(k)
        idx[axis], shape[axis] = pos[idx[axis]], k + 1
    dense = np.zeros(shape, dtype=block.dtype)
    dense[tuple(idx)] = block.data
    return pos, dense


def locate(keys: np.ndarray, pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` in the sorted, unique ``pattern`` and which
    of them are in it — Table 1's bin-search addressing, of the kernels
    and of the plans that replay them."""
    pos = np.minimum(np.searchsorted(pattern, keys), max(pattern.size - 1, 0))
    return pos, pattern[pos] == keys if pattern.size else np.zeros(keys.shape, bool)


def box_index(pos: np.ndarray | None, idx: np.ndarray) -> np.ndarray:
    """Positions in a :func:`box_image` of the rows (columns) ``idx``."""
    return idx if pos is None else pos[idx]


class TargetImage:
    """The dense image of one block, laid out as the block's readers
    multiply it: the :func:`box_image` of an ``L`` panel on its occupied
    rows (``axis=0``) or of a ``U`` panel on its occupied columns
    (``axis=1``), a diagonal block whole (``axis=None``), with the rows
    (columns) of the block it holds in its order, its sentinel not
    counted (``held``; ``None`` when it holds them all).

    ``ssssm_c_v1`` subtracts its products from ``dense`` in place, the
    dense-mapped panel task solves or factors ``dense`` and writes the
    block's values once, and a solved panel's image is then what its
    readers multiply: it reads as the ``(pos, dense, held)`` operand
    ``ssssm_c_v1`` takes.  :meth:`write_to` is that write for an image
    a sparse task needs back in the block.  An entry outside the
    block's pattern stays zero: fill closure makes every product there
    zero.  ``nbytes`` holds for the image's life: a solve replaces
    ``dense`` by a product of the same shape and dtype."""

    __slots__ = ("axis", "pos", "dense", "held")

    def __init__(self, block: CSCMatrix, axis: int | None) -> None:
        self.axis = axis
        if axis is None:
            self.pos, self.dense = None, block.to_dense()
        else:
            self.pos, self.dense = box_image(block, axis)
        pos, sentinel = self.pos, self.dense.shape[axis or 0] - 1
        self.held = None if pos is None else np.flatnonzero(pos < sentinel)

    def __getitem__(self, i):
        return (self.pos, self.dense, self.held)[i]

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.pos, self.dense, self.held) if a is not None)

    def index(self, held: np.ndarray | None, axis: int):
        """Where the block rows (``axis=0``) or columns ``held`` lie in
        the image — ``None`` is every one — as an array, or a slice
        when that is all of the image's."""
        if axis == self.axis and self.pos is not None:
            return self.pos if held is None else self.pos[held]
        return slice(None) if held is None else held

    def write_to(self, block: CSCMatrix) -> None:
        """The image's values into the block's pattern."""
        idx = list(block.rows_cols())
        if self.pos is not None:
            idx[self.axis] = self.pos[idx[self.axis]]
        block.data[...] = self.dense[tuple(idx)]


def serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` in column slabs small enough that BLAS keeps each GEMM
    on the calling thread.

    The task, not the BLAS call, is this solver's unit of parallelism:
    a *threaded* GEMM issued from a Python task loop has to wake a pool
    thread that then spins against the other lanes and ranks — measured
    on 104-wide blocks at 2 ranks × 2 cores, 2.5 s of numeric time became
    6.4–7.5 s with plain ``@`` and 0.6 s with this.  Products up to
    :data:`SERIAL_GEMM_WORK` (every block order below 80) are one call.
    """
    (m, k), n = a.shape, b.shape[1]
    if m * n * k <= SERIAL_GEMM_WORK:
        return a @ b
    out = np.empty((m, n), dtype=a.dtype)
    width = max(1, SERIAL_GEMM_WORK // (m * k))
    for j in range(0, n, width):
        np.matmul(a, b[:, j:j + width], out=out[:, j:j + width])
    return out


def triangle_inverse(
    diag: CSCMatrix, *, lower: bool, unit: bool | None = None
) -> np.ndarray:
    """Dense inverse of one triangle of a factored diagonal block: the
    lower ``L`` (``lower=True``) or the upper ``U``, in the block's value
    dtype (LAPACK ``trtri``).  ``unit`` is ``trtri``'s own flag — the
    stored diagonal is not the triangle's, which has ones there — and
    defaults to ``lower``: an LU block keeps a unit ``L`` and ``U``'s
    diagonal; a Cholesky block's ``L`` is ``lower=True, unit=False``.

    With it a panel solve is one GEMM — ``L⁻¹·B`` for GESSM, ``B·U⁻¹``
    for TSTRF — the ``DiagInv`` form of SuperLU_DIST.  A per-task
    ``trsm`` is *not* an alternative here: this OpenBLAS build threads
    ``trsm`` at any size (see ``docs/trsm_threading.md``).  The price is
    accuracy on ill-conditioned blocks: the forward error of ``B·U⁻¹``
    grows with ``cond(U)`` where substitution's grows with the (usually
    far smaller) backward-stable bound.

    A zero or structurally missing diagonal entry of a non-unit triangle
    raises :class:`SingularBlockError` naming the column.
    """
    unit = lower if unit is None else unit
    inv = _trtri(diag.to_dense(), lower=lower, unit=unit)
    return inverse_triangle(inv, lower=lower, unit=unit)


def invert_factors(d: np.ndarray) -> np.ndarray:
    """Overwrite a C-ordered dense LU-factored block with its packed
    inverse and return it: ``L⁻¹`` strictly below the diagonal (its unit
    diagonal implied), ``U⁻¹`` on and above it — two ``trtri`` calls,
    each on its own triangle; :func:`inverse_triangle` reads either
    back."""
    return _trtri(_trtri(d, lower=True, unit=True), lower=False, unit=False)


def _trtri(d: np.ndarray, *, lower: bool, unit: bool) -> np.ndarray:
    """``trtri`` of one triangle of ``d``, in place (the call on the
    transposed, Fortran-ordered view overwrites it: the inverse of the
    transpose is the transpose of the inverse); the other triangle, and
    a unit diagonal, are left as found."""
    (trtri,) = get_lapack_funcs(("trtri",), (d,))
    _, info = trtri(d.T, lower=not lower, unitdiag=unit, overwrite_c=True)
    if info > 0:
        raise SingularBlockError(
            f"zero/missing {'L' if lower else 'U'} diagonal at {info - 1}"
        )
    return d


@lru_cache(maxsize=64)
def _triangle_mask(n: int, lower: bool, unit: bool) -> np.ndarray:
    """Where one triangle of an order-``n`` block lies: the strict lower
    or upper part, with the diagonal unless ``unit``.  Read-only: it is
    shared."""
    mask = np.tri(n, k=-1, dtype=bool) == lower
    np.fill_diagonal(mask, not unit)
    mask.flags.writeable = False
    return mask


def inverse_triangle(
    inv: np.ndarray, *, lower: bool, unit: bool | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One triangle of an inverted dense block as a C-ordered matrix of
    its own: ``inv``'s entries under the triangle's mask copied into an
    identity, which gives the zeros of the other triangle and the ones
    of a ``unit`` diagonal (``unit`` defaults to ``lower``, as for
    :func:`triangle_inverse`).  ``out`` is that identity when the caller
    keeps one — or a buffer this call filled before for the same
    triangle: only the masked entries are written."""
    unit = lower if unit is None else unit
    n = inv.shape[0]
    out = np.eye(n, dtype=inv.dtype) if out is None else out
    np.copyto(out, inv, where=_triangle_mask(n, lower, unit))
    return out


def diagonal_positions(block: CSCMatrix) -> np.ndarray:
    """Position in ``block.data`` of each column's diagonal entry, −1
    where it is structurally missing."""
    rows, cols = block.rows_cols()
    on_diag = np.flatnonzero(rows == cols)
    pos = np.full(block.ncols, -1, dtype=np.int64)
    pos[cols[on_diag]] = on_diag
    return pos


@dataclass(frozen=True)
class Triangle:
    """The strict part of one triangle ``T`` of a factored diagonal block
    — its unit-lower ``L`` or its ``Uᵀ`` — as index ranges over the
    block's own values: column ``t`` (row ``t`` when built ``by_rows``)
    holds the indices ``indices[indptr[t]:indptr[t+1]]``, ascending, with
    values ``data[src[indptr[t]:indptr[t+1]]]``.  ``div[t]`` is the
    position in ``data`` of ``T``'s diagonal entry ``t`` (−1 where it is
    structurally missing); ``None`` for the unit ``L``, which divides by
    nothing.  ``data`` *is* ``diag.data``: nothing numeric is copied."""

    indptr: np.ndarray
    indices: np.ndarray
    src: np.ndarray
    div: np.ndarray | None
    data: np.ndarray


def triangle(diag: CSCMatrix, *, lower: bool, by_rows: bool = False) -> Triangle:
    """:class:`Triangle` of ``L`` (``lower=True``) or ``Uᵀ`` of a factored
    diagonal block, compressed by the triangle's columns — what a column
    forward sweep walks — or ``by_rows``, what a level-set or compiled
    row solve walks.  ``L`` by columns and ``Uᵀ`` by rows lie in the
    block's own column order; the other two are its transpose."""
    n = diag.ncols
    rows, cols = diag.rows_cols()
    src = np.flatnonzero(rows > cols if lower else rows < cols)
    major, minor = cols[src], rows[src]
    if lower == by_rows:
        # stable: within one row the block's columns stay ascending
        order = np.argsort(minor, kind="stable")
        src, major, minor = src[order], minor[order], major[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(major, minlength=n), out=indptr[1:])
    div = None if lower else diagonal_positions(diag)
    return Triangle(indptr, minor, src, div, diag.data)


def solve_levels(l_csr_indptr: np.ndarray, l_csr_cols: np.ndarray, n: int) -> list[np.ndarray]:
    """Level sets of a lower-triangular solve DAG given CSR of strict-L.

    ``level[r] = 1 + max(level[c])`` over the strictly-lower columns ``c``
    in row ``r``; rows with no dependencies are level 0.  Returns the rows
    grouped per level — rows within one level can be solved in parallel
    (the paper's "un-sync row" parallelisation).
    """
    level = np.zeros(n, dtype=np.int64)
    for r in range(n):
        cols = l_csr_cols[l_csr_indptr[r] : l_csr_indptr[r + 1]]
        cols = cols[cols < r]
        if cols.size:
            level[r] = int(level[cols].max()) + 1
    nlev = int(level.max()) + 1 if n else 0
    return [np.flatnonzero(level == d).astype(np.int64) for d in range(nlev)]

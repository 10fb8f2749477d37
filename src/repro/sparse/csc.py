"""Compressed Sparse Column matrix container.

This is the base storage substrate of the reproduction.  PanguLU stores the
matrix (and every sub-matrix block) in CSC form; both layers of its
"two-layer sparse structure" are CSC (Fig. 6 of the paper).  We implement our
own lightweight, NumPy-backed container rather than relying on
``scipy.sparse`` so that the solver controls the invariants it depends on:

* ``indptr`` is a monotone ``int64`` array of length ``ncols + 1``;
* ``indices`` holds row indices, **sorted and unique within each column**;
* ``data`` is a floating value array aligned with ``indices`` — ``float64``
  by default, ``float32`` on the mixed-precision factor path (any other
  input dtype is coerced to ``float64``).

Sorted-unique columns are what make the paper's "bin-search" kernel
addressing (``numpy.searchsorted`` into a fixed symbolic pattern) valid.
Conversions to/from SciPy and dense NumPy arrays are provided for testing
and for kernel variants that deliberately use a compiled fast path.

The O(nnz) passes run in SciPy's compiled ``_sparsetools`` routines on
the stored arrays, with the same results bit for bit as the per-entry
formulations: the products (``csc_matvec(s)``, and ``csr_matvec(s)`` for
``Aᵀ``), the transpose (``csr_tocsc``, :func:`transpose_arrays`) and the
row re-sort of :meth:`CSCMatrix.permute` (``csr_sort_indices``);
:func:`repro.sparse.patterns.symmetrize_pattern` adds ``csr_plus_csr``.
``tests/test_csc.py`` calls each of them by name.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

__all__ = ["CSCMatrix", "coo_to_csc", "concat_ranges", "transpose_arrays", "VALUE_DTYPES",
           "as_values"]

#: value dtypes the container stores natively; anything else is coerced
#: to float64 (ints, python floats, float16, …)
VALUE_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def as_values(values: np.ndarray, dtype: np.dtype | type | None = None) -> np.ndarray:
    """Normalise a value array: contiguous, float32/float64 preserved,
    every other real dtype coerced to float64; complex values are refused
    (a cast would keep the real part and solve a different system)."""
    arr = np.asarray(values)
    if arr.dtype.kind == "c":
        raise TypeError(f"complex values are not supported (dtype {arr.dtype})")
    if dtype is None:
        dtype = arr.dtype if arr.dtype in VALUE_DTYPES else np.dtype(np.float64)
    return np.ascontiguousarray(arr, dtype=dtype)


def transpose_arrays(
    indptr: np.ndarray, indices: np.ndarray, values: np.ndarray, nrows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, indices, values)`` of the transpose of the CSC arrays of
    a matrix with ``nrows`` rows: one compiled counting pass (SciPy's
    ``csr_tocsc`` on the arrays read as the CSR form of the transpose).
    The columns are walked left to right, so each row's entries arrive in
    increasing column order — what a stable argsort of the rows gives."""
    out = (np.empty(nrows + 1, np.int64), np.empty(indices.size, np.int64),
           np.empty_like(values))
    _sparsetools.csr_tocsc(indptr.size - 1, nrows, indptr, indices, values, *out)
    return out


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(starts[i], starts[i] + lengths[i])`` for every ``i``, back
    to back — the index array that gathers (or scatters) many contiguous
    stretches of one array in a single operation."""
    # slot k of range i holds starts[i] + k − (first slot of range i)
    out = (starts - lengths.cumsum() + lengths).repeat(lengths)
    out += np.arange(out.size, dtype=np.int64)
    return out


class CSCMatrix:
    """A sparse matrix in Compressed Sparse Column format.

    Examples
    --------
    >>> import numpy as np
    >>> m = CSCMatrix.from_dense(np.array([[2.0, 0.0], [1.0, 3.0]]))
    >>> m.nnz
    3
    >>> m.col(0)
    (array([0, 1]), array([2., 1.]))
    >>> m.transpose().to_dense()
    array([[2., 1.],
           [0., 3.]])

    Parameters
    ----------
    shape:
        ``(nrows, ncols)`` of the matrix.
    indptr:
        Column pointer array, length ``ncols + 1``, dtype coercible to int64.
    indices:
        Row indices, length ``nnz``; must be sorted and unique per column
        (validated when ``check=True``).
    data:
        Numeric values aligned with ``indices``.  ``float32`` and
        ``float64`` inputs keep their dtype; anything else is coerced to
        ``float64``.  May be ``None`` for a pattern-only (symbolic)
        matrix, in which case a zero array (of ``dtype``) is allocated
        lazily on first access.
    dtype:
        Value dtype for a pattern-only matrix (ignored when ``data`` is
        given).  Defaults to ``float64``.
    check:
        Validate invariants on construction.  Defaults to ``True``; internal
        hot paths pass ``False`` after constructing arrays that satisfy the
        invariants by design.
    """

    __slots__ = ("shape", "indptr", "indices", "_data", "_dtype", "_cols")

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray | None = None,
        *,
        dtype: np.dtype | type | None = None,
        check: bool = True,
    ) -> None:
        self.shape = (int(shape[0]), int(shape[1]))
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        if data is None:
            self._data = None
            self._dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
            if self._dtype not in VALUE_DTYPES:
                raise TypeError(f"unsupported value dtype {self._dtype}")
        else:
            self._data = as_values(data, None if dtype is None else np.dtype(dtype))
            self._dtype = self._data.dtype
        self._cols = None
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # invariants & basic properties
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        nrows, ncols = self.shape
        if nrows < 0 or ncols < 0:
            raise ValueError(f"negative shape {self.shape}")
        if self.indptr.shape != (ncols + 1,):
            raise ValueError(
                f"indptr has length {self.indptr.size}, expected {ncols + 1}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr[0] must be 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        nnz = int(self.indptr[-1])
        if self.indices.size != nnz:
            raise ValueError(f"indices has {self.indices.size} entries, expected {nnz}")
        if self._data is not None and self._data.size != nnz:
            raise ValueError(f"data has {self._data.size} entries, expected {nnz}")
        if nnz:
            if self.indices.min() < 0 or self.indices.max() >= nrows:
                raise ValueError("row index out of range")
            # sorted strictly increasing within each column
            d = np.diff(self.indices)
            col_starts = self.indptr[1:-1]
            interior = np.ones(nnz - 1, dtype=bool) if nnz > 1 else np.zeros(0, bool)
            if nnz > 1:
                interior[col_starts[(col_starts > 0) & (col_starts < nnz)] - 1] = False
                if np.any(d[interior] <= 0):
                    raise ValueError("row indices must be sorted unique per column")

    @property
    def data(self) -> np.ndarray:
        """Numeric values; allocated as zeros on first access for symbolic matrices."""
        if self._data is None:
            self._data = np.zeros(self.nnz, dtype=self._dtype)
        return self._data

    @data.setter
    def data(self, values: np.ndarray) -> None:
        values = as_values(values)
        if values.size != self.nnz:
            raise ValueError(f"data has {values.size} entries, expected {self.nnz}")
        self._data = values
        self._dtype = values.dtype

    @property
    def dtype(self) -> np.dtype:
        """Value dtype (meaningful even before a symbolic matrix's lazy
        zero array is materialised)."""
        return self._dtype

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def index_nbytes(self) -> int:
        """Exact bytes of the structural arrays (``indptr`` + ``indices``)
        at their actual dtypes — the layer-2 overhead of one block."""
        return self.indptr.nbytes + self.indices.nbytes

    @property
    def value_nbytes(self) -> int:
        """Exact bytes of the value array at its actual dtype, *without*
        materialising the lazy zero array of a symbolic matrix."""
        if self._data is not None:
            return self._data.nbytes
        return self.nnz * self._dtype.itemsize

    @property
    def density(self) -> float:
        """Fraction of stored entries relative to a dense matrix of this shape."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.density:.4f})"
        )

    # ------------------------------------------------------------------
    # column access
    # ------------------------------------------------------------------
    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(row_indices, values)`` views of column ``j``."""
        lo, hi = int(self.indptr[j]), int(self.indptr[j + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def col_slice(self, j: int) -> slice:
        """Return the ``data``/``indices`` slice covering column ``j``."""
        return slice(int(self.indptr[j]), int(self.indptr[j + 1]))

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray, *, drop_tol: float = 0.0) -> "CSCMatrix":
        """Build from a dense array, keeping entries with ``|a_ij| > drop_tol``.

        ``float32``/``float64`` inputs keep their dtype; everything else
        is coerced to ``float64``."""
        dense = as_values(dense)
        if dense.ndim != 2:
            raise ValueError("dense input must be 2-D")
        mask = np.abs(dense) > drop_tol
        # column-major walk so indices come out sorted per column
        cols, rows = np.nonzero(mask.T)
        vals = dense[rows, cols]
        indptr = np.zeros(dense.shape[1] + 1, dtype=np.int64)
        np.add.at(indptr, cols + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(dense.shape, indptr, rows, vals, check=False)

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix | sp.sparray) -> "CSCMatrix":
        """Build from any SciPy sparse matrix (duplicates summed, sorted)."""
        m = sp.csc_matrix(mat)
        m.sum_duplicates()
        m.sort_indices()
        return cls(m.shape, m.indptr, m.indices, m.data, check=False)

    @classmethod
    def from_views(
        cls,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> "CSCMatrix":
        """Wrap existing buffers **without copying** (no validation).

        The arena block layout (:mod:`repro.core.blocking`) depends on the
        returned matrix *aliasing* its inputs: every write through
        ``block.data[...]`` must land in the backing slab.  The regular
        constructor normalises via ``ascontiguousarray``, which silently
        copies on a dtype or layout mismatch and would decouple the block
        from its slab — so this constructor demands exact dtypes
        (``int64`` structure, ``float32`` or ``float64`` values) and
        raises instead of copying.
        """
        for arr, what in ((indptr, "indptr"), (indices, "indices")):
            if arr.dtype != np.int64:
                raise TypeError(
                    f"from_views requires {what} of dtype int64, "
                    f"got {arr.dtype} (would silently copy)"
                )
        if data.dtype not in VALUE_DTYPES:
            raise TypeError(
                "from_views requires data of dtype float32 or float64, "
                f"got {data.dtype} (would silently copy)"
            )
        m = cls.__new__(cls)
        m.shape = (int(shape[0]), int(shape[1]))
        m.indptr = indptr
        m.indices = indices
        m._data = data
        m._dtype = data.dtype
        m._cols = None
        return m

    @classmethod
    def eye(cls, n: int, *, dtype: np.dtype | type = np.float64) -> "CSCMatrix":
        """Identity matrix of order ``n``."""
        indptr = np.arange(n + 1, dtype=np.int64)
        indices = np.arange(n, dtype=np.int64)
        return cls((n, n), indptr, indices, np.ones(n, dtype=dtype), check=False)

    @classmethod
    def empty(
        cls, shape: tuple[int, int], *, dtype: np.dtype | type = np.float64
    ) -> "CSCMatrix":
        """All-zero matrix of the given shape."""
        return cls(
            shape,
            np.zeros(shape[1] + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=dtype),
            check=False,
        )

    def to_dense(self) -> np.ndarray:
        """Expand to a dense array of the matrix's value dtype."""
        out = np.zeros(self.shape, dtype=self._dtype)
        out[self.indices, self.cols_expanded()] = self.data
        return out

    def to_scipy(self) -> sp.csc_matrix:
        """Convert to ``scipy.sparse.csc_matrix`` (shares no data)."""
        return sp.csc_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    def copy(self) -> "CSCMatrix":
        """Deep copy (pattern and values)."""
        return CSCMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            None if self._data is None else self._data.copy(),
            dtype=self._dtype,
            check=False,
        )

    def pattern_copy(self) -> "CSCMatrix":
        """Copy of the pattern with zero values (same value dtype)."""
        return CSCMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            None,
            dtype=self._dtype,
            check=False,
        )

    def astype(self, dtype: np.dtype | type) -> "CSCMatrix":
        """Copy with values cast to ``dtype`` (``float32`` or ``float64``).

        The structural arrays are copied too, so the result shares no
        storage with ``self`` even when the dtype is unchanged.
        """
        dtype = np.dtype(dtype)
        if dtype not in VALUE_DTYPES:
            raise TypeError(f"unsupported value dtype {dtype}")
        return CSCMatrix(
            self.shape,
            self.indptr.copy(),
            self.indices.copy(),
            None if self._data is None else self._data.astype(dtype),
            dtype=dtype,
            check=False,
        )

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def transpose(self) -> "CSCMatrix":
        """Return the transpose (a CSC view of the CSR form of ``self``)."""
        return CSCMatrix(self.shape[::-1], *transpose_arrays(
            self.indptr, self.indices, self.data, self.nrows), check=False)

    def permute(self, row_perm: np.ndarray | None, col_perm: np.ndarray | None) -> "CSCMatrix":
        """Return ``A[row_perm, :][:, col_perm]`` — i.e. new[i, j] = old[row_perm[i], col_perm[j]].

        Either permutation may be ``None`` for identity.  ``row_perm`` and
        ``col_perm`` are "new-from-old" gather permutations.
        """
        nrows, ncols = self.shape
        if col_perm is None:
            col_perm = np.arange(ncols)
        col_perm = np.asarray(col_perm, dtype=np.int64)
        counts = np.diff(self.indptr)[col_perm]
        indptr = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        src = concat_ranges(self.indptr[:-1][col_perm], counts)
        indices, data = self.indices[src], self.data[src]
        if row_perm is not None:
            inv_row = np.empty(nrows, dtype=np.int64)
            inv_row[np.asarray(row_perm, dtype=np.int64)] = np.arange(nrows)
            indices = inv_row[indices]
            # the new rows of one column are distinct, so SciPy's compiled
            # per-column sort puts them (and their values) in one order
            _sparsetools.csr_sort_indices(ncols, indptr, indices, data)
        return CSCMatrix(self.shape, indptr, indices, data, check=False)

    def require_finite(self, name: str) -> None:
        """``ValueError`` naming the first NaN/Inf entry (``name`` is what
        the caller calls this matrix)."""
        bad = np.flatnonzero(~np.isfinite(self.data))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"matrix contains non-finite values (NaN/Inf): {name}.data[{i}] = "
                f"{self.data[i]} at ({self.indices[i]}, {self.cols_expanded()[i]})"
            )

    def diagonal(self) -> np.ndarray:
        """Extract the main diagonal as a dense vector."""
        out = np.zeros(min(self.shape), dtype=self._dtype)
        rows, cols = self.rows_cols()
        on = rows == cols
        out[rows[on]] = self.data[on]
        return out

    def scale(self, row_scale: np.ndarray | None, col_scale: np.ndarray | None) -> "CSCMatrix":
        """Return ``diag(row_scale) @ A @ diag(col_scale)`` (None = ones)."""
        out = self.copy()
        if row_scale is not None:
            out.data *= np.asarray(row_scale, dtype=np.float64)[out.indices]
        if col_scale is not None:
            out.data *= np.asarray(col_scale, dtype=np.float64)[out.cols_expanded()]
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ x`` for a dense vector ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError(f"x has shape {x.shape}, expected ({self.ncols},)")
        return self._product(x, transposed=False)

    def norm_1(self) -> float:
        """Matrix 1-norm (max absolute column sum)."""
        if self.nnz == 0:
            return 0.0
        sums = np.add.reduceat(np.abs(self.data), self.indptr[:-1])
        sums[np.diff(self.indptr) == 0] = 0.0
        return float(sums.max())

    def norm_inf(self) -> float:
        """Matrix ∞-norm (max absolute row sum)."""
        if self.nnz == 0:
            return 0.0
        sums = np.zeros(self.nrows, dtype=np.float64)
        np.add.at(sums, self.indices, np.abs(self.data).astype(np.float64, copy=False))
        return float(sums.max())

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Compute ``A @ X`` for a dense ``(ncols, k)`` array ``X``."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.ncols:
            raise ValueError(f"X has shape {x.shape}, expected ({self.ncols}, k)")
        return self._product(x, transposed=False)

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """Compute ``Aᵀ @ x`` for a dense vector or ``(nrows, k)`` array
        ``x`` — the transposed counterpart of :meth:`matvec` /
        :meth:`matmat`."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (1, 2) or x.shape[0] != self.nrows:
            raise ValueError(
                f"x has shape {x.shape}, expected ({self.nrows},) or "
                f"({self.nrows}, k)"
            )
        return self._product(x, transposed=True)

    def _product(self, x: np.ndarray, *, transposed: bool) -> np.ndarray:
        """``A @ x`` (``Aᵀ @ x`` when ``transposed``) for a checked float64
        vector or ``(·, k)`` array: SciPy's compiled CSC product (CSR of
        ``Aᵀ``) on the stored arrays, with no ``nnz × k`` temporary.  Each
        output row sums its terms from zero in storage order, the order a
        per-entry accumulation adds them in, so the bits are the same."""
        m, n = self.shape[::-1] if transposed else self.shape
        x = np.ascontiguousarray(x)
        y = np.zeros((m, *x.shape[1:]), dtype=np.float64)
        arrays = (self.indptr, self.indices, self.data.astype(np.float64, copy=False), x, y)
        matvec, matvecs = ((_sparsetools.csr_matvec, _sparsetools.csr_matvecs) if transposed
                           else (_sparsetools.csc_matvec, _sparsetools.csc_matvecs))
        if x.ndim == 1:
            matvec(m, n, *arrays)
        else:
            matvecs(m, n, x.shape[1], *arrays)
        return y

    def rows_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """Return COO ``(rows, cols)`` index arrays for the stored pattern.

        Returns *views/cached arrays* — callers must not mutate them.  The
        column expansion is cached on first use (patterns are immutable
        after construction), which makes the dense scatter/gather of the
        kernels O(nnz) with no repeated ``repeat``/``diff`` work.
        """
        return self.indices, self.cols_expanded()

    def cols_expanded(self) -> np.ndarray:
        """Column index of every stored entry (cached; do not mutate)."""
        if self._cols is None:
            self._cols = np.repeat(
                np.arange(self.ncols, dtype=np.int64), np.diff(self.indptr)
            )
        return self._cols

    def extract_submatrix(
        self, rows: np.ndarray, cols: Iterable[int]
    ) -> "CSCMatrix":
        """Extract the submatrix ``A[rows, cols]`` (rows must be sorted)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.fromiter(cols, dtype=np.int64)
        counts = np.diff(self.indptr)[cols]
        src = concat_ranges(self.indptr[:-1][cols], counts)
        row_pos = np.full(self.nrows, -1, dtype=np.int64)
        row_pos[rows] = np.arange(rows.size)
        new_rows = row_pos[self.indices[src]]
        keep = new_rows >= 0
        # the kept entries before each column's first: the new pointers
        indptr = np.r_[0, keep.cumsum()][np.r_[0, counts.cumsum()]]
        return CSCMatrix((rows.size, cols.size), indptr, new_rows[keep],
                         self.data[src[keep]], check=False)

    def __eq__(self, other: object) -> bool:
        """Exact structural and numerical equality."""
        if not isinstance(other, CSCMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing
        return id(self)


def coo_to_csc(
    shape: tuple[int, int],
    rows: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray | None = None,
    *,
    sum_duplicates: bool = True,
) -> CSCMatrix:
    """Assemble COO triplets into a :class:`CSCMatrix`.

    Duplicate ``(row, col)`` entries are summed (the Matrix Market
    convention for assembled FEM matrices) unless ``sum_duplicates=False``,
    in which case duplicates are an error.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if vals is None:
        vals = np.ones(rows.size, dtype=np.float64)
    else:
        vals = as_values(vals)
    if not (rows.size == cols.size == vals.size):
        raise ValueError("rows, cols, vals must have equal length")
    nrows, ncols = shape
    if rows.size and (rows.min() < 0 or rows.max() >= nrows):
        raise ValueError("row index out of range")
    if cols.size and (cols.min() < 0 or cols.max() >= ncols):
        raise ValueError("column index out of range")

    # sort by (col, row): one stable argsort on the fused key (several
    # times faster than a two-key lexsort; stability keeps duplicates in
    # input order, so their sums below are bit-reproducible)
    if nrows * ncols >= 2**63:
        raise ValueError(f"shape {shape} too large for an int64 sort key")
    order = np.argsort(cols * nrows + rows, kind="stable")
    rows = rows[order]
    cols = cols[order]
    vals = vals[order]
    if rows.size:
        dup = np.zeros(rows.size, dtype=bool)
        dup[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if dup.any():
            if not sum_duplicates:
                raise ValueError("duplicate entries present")
            # segment-sum duplicates into their first occurrence
            group = np.cumsum(~dup) - 1
            out_vals = np.zeros(int(group[-1]) + 1, dtype=vals.dtype)
            np.add.at(out_vals, group, vals)
            keep = ~dup
            rows, cols, vals = rows[keep], cols[keep], out_vals

    indptr = np.zeros(ncols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=ncols), out=indptr[1:])
    return CSCMatrix(shape, indptr, rows, vals, check=False)

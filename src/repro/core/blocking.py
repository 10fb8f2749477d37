"""2D blocking — PanguLU's two-layer sparse structure (Fig. 6).

The filled matrix (output of symbolic factorisation) is split into blocks
along one shared boundary array for rows and columns.  Layer 1 is a
*block-level CSC*: the arrays ``blk_colptr`` / ``blk_rowidx`` compress the
nonzero blocks of each block column, and ``blk_values`` holds the per-block
payloads.  Layer 2 is the CSC pattern *inside* each block.  Empty blocks
are not stored.

The boundary array is what a :class:`~repro.core.strategy.BlockingStrategy`
produces: regular blocking emits equispaced boundaries (one fixed block
size, last block possibly short), irregular blocking emits boundaries
aligned with the symbolic fill's supernode structure.  Everything below
the partition — storage, mapping, kernels, runtime — addresses blocks
through :meth:`BlockMatrix.block_start` / :meth:`BlockMatrix.block_order`
and never assumes a uniform spacing.

Because every block keeps its exact sparse pattern (no supernode padding),
the numeric kernels never compute with structural zeros — the central
storage claim of the paper (Fig. 1e vs 1d).

Two physical layouts back the same logical structure:

* **per-block** (legacy): every payload owns its three arrays —
  independently allocated, independently pickled, re-allocated on every
  refactorisation;
* **arena** (:class:`FactorArena`, the paper's Section 4.2
  "preallocates all block storage during preprocessing"): one contiguous
  ``indptr`` / ``indices`` / ``data`` slab for the whole factor, sized
  once from the symbolic fill, with every block a zero-copy
  :meth:`~repro.sparse.csc.CSCMatrix.from_views` slice addressed through
  a slot→offset table.  Kernels write through the views straight into
  the slab, so a refactorisation is a single in-place overwrite of the
  value slab and serialisation ships three buffers instead of thousands.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..kernels.base import GETRF_SERIAL_ORDER
from ..sparse.blockrep import CompressedBlock
from ..sparse.csc import CSCMatrix
from ..sparse.patterns import concat_ranges, run_starts

__all__ = [
    "BlockMatrix",
    "FactorArena",
    "BlockSizeDecision",
    "block_size_decision",
    "choose_block_size",
    "boundaries_from_block_size",
    "block_partition",
]

#: coarsening floor on the average dense block payload ``nnz(L+U) / nb²``
MIN_AVG_BLOCK_NNZ = 12.0
#: block order of the dense regime, and the filled entries per column at
#: which a matrix enters it: one GEMM / ``getrf`` per task of this order
#: outweighs the ≈ 10 µs fixed cost of a call
KERNEL_ORDER = 96
#: the dense regime never raises the order past ``ceil(n / MIN_BLOCK_COLUMNS)``
MIN_BLOCK_COLUMNS = 16


@dataclass(frozen=True)
class BlockSizeDecision:
    """Every input and intermediate of the block-size heuristic.

    :func:`choose_block_size` returns only ``bs``; this record makes the
    decision inspectable — which regime and which clamp fired, what the
    pre-clamp grid and block size were — for benches and tests.
    """

    n: int                  #: matrix order
    nnz_filled: int         #: nnz of the filled (post-symbolic) matrix
    min_bs: int             #: lower clamp on the block size
    max_bs: int             #: upper clamp on the block size
    nb_sqrt: int            #: sqrt(n) grid before the 4..128 grid clamp
    nb_grid: int            #: grid after the 4..128 clamp, before coarsening
    nb: int                 #: final grid after density-driven coarsening
    avg_block_nnz: float    #: nnz_filled / nb² at the final grid
    bs_floor: int           #: dense-regime floor on the order (0 when sparse)
    bs_raw: int             #: max(ceil(n / nb), bs_floor) before the clamp
    bs: int                 #: the chosen block size (what callers use)

    @property
    def grid_clamped(self) -> bool:
        """True when the 4..128 grid clamp changed ``nb_sqrt``."""
        return self.nb_grid != self.nb_sqrt

    @property
    def size_clamped(self) -> bool:
        """True when the ``[min_bs, max_bs]`` clamp changed ``bs_raw``."""
        return self.bs != self.bs_raw


def block_size_decision(
    n: int, nnz_filled: int, *, min_bs: int = 8, max_bs: int = GETRF_SERIAL_ORDER
) -> BlockSizeDecision:
    """The block-size heuristic with its full decision trace.

    Same computation as :func:`choose_block_size` (which delegates here);
    returns a :class:`BlockSizeDecision` instead of the bare scalar so
    callers can see the regime and whether — and which — clamp fired.
    """
    if n <= 0:
        raise ValueError("matrix order must be positive")
    nb_sqrt = int(round(np.sqrt(n)))
    nb = nb_grid = int(np.clip(nb_sqrt, 4, 128))
    while nb > 4 and nnz_filled / (nb * nb) < MIN_AVG_BLOCK_NNZ:
        nb = max(4, nb // 2)
    dense = nnz_filled >= KERNEL_ORDER * n
    bs_floor = min(KERNEL_ORDER, -(-n // MIN_BLOCK_COLUMNS)) if dense else 0
    bs_raw = max(-(-n // nb), bs_floor)
    bs = int(np.clip(bs_raw, min_bs, max(max_bs, min_bs)))
    return BlockSizeDecision(
        n=n,
        nnz_filled=nnz_filled,
        min_bs=min_bs,
        max_bs=max_bs,
        nb_sqrt=nb_sqrt,
        nb_grid=nb_grid,
        nb=nb,
        avg_block_nnz=nnz_filled / (nb * nb),
        bs_floor=bs_floor,
        bs_raw=bs_raw,
        bs=bs,
    )


def choose_block_size(
    n: int, nnz_filled: int, *, min_bs: int = 8, max_bs: int = GETRF_SERIAL_ORDER
) -> int:
    """Pick the regular block size from the matrix order and post-symbolic
    density (Section 4.1: "calculated from the matrix order and the density
    of the matrix after symbolic factorisation").

    The heuristic balances two pressures the paper names — computation
    (large blocks amortise per-kernel overheads) and communication /
    parallelism (many blocks expose concurrency to the process grid):

    * start from a grid of ``nb ≈ sqrt(n)`` block columns, which keeps the
      task count roughly linear in ``n``;
    * coarsen while the *average dense block payload*
      ``nnz(L+U) / nb²`` falls below :data:`MIN_AVG_BLOCK_NNZ`, so very
      sparse matrices get bigger blocks (more nonzeros per kernel call);
    * *dense regime*: when the filled pattern holds at least
      :data:`KERNEL_ORDER` (96) entries per column, raise the order to
      ``KERNEL_ORDER`` — but never past ``ceil(n / MIN_BLOCK_COLUMNS)``,
      so at least 16 block columns stay for the process grid.  Every task
      is one GEMM or ``getrf`` on dense images with ≈ 10 µs of fixed cost,
      so on a filled-dense matrix it pays to make each call large.
      Best-of-3 sequential ``factorize()`` over four runs of
      ``benchmarks/bench_ablation_blocksize.py`` (2-vCPU x86 box):
      ``audikw_1`` × 1.0 (406 filled entries per column) takes 236–316 ms
      at the √n order 47 (6 986 tasks) and 117–179 ms anywhere in
      80–112, where the best order moved from run to run; 96 runs 1 180
      tasks.  ``cage12`` × 2.0 (538 per column): 226–320 ms at 60,
      165–247 ms in 80–112.  The 2D grid ``ecology1`` × 4.0 (39 per
      column) stays at its √n order 104;
    * clamp the result to ``[min_bs, max_bs]``; ``max_bs`` defaults to
      :data:`~repro.kernels.base.GETRF_SERIAL_ORDER` (128), above which
      LAPACK ``getrf`` / ``potrf`` go multi-threaded
      (``docs/trsm_threading.md``): ``audikw_1`` × 1.0 takes 334–368 ms
      at order 192.

    Use :func:`block_size_decision` for the full decision trace (regime,
    clamp provenance, pre-clamp grid and size).
    """
    return block_size_decision(n, nnz_filled, min_bs=min_bs, max_bs=max_bs).bs


def boundaries_from_block_size(n: int, bs: int) -> np.ndarray:
    """Equispaced block boundaries ``[0, bs, 2·bs, …, n]`` (the regular
    layout: every block ``bs`` wide except a possibly short last one)."""
    if bs <= 0:
        raise ValueError("block size must be positive")
    nb = -(-n // bs)
    return np.minimum(np.arange(nb + 1, dtype=np.int64) * bs, n)


@dataclass
class FactorArena:
    """Preallocated contiguous factor storage (paper Section 4.2).

    The two-layer structure's promise — "preallocates all block storage
    during preprocessing" with only a handful of auxiliary arrays — made
    literal: three slabs hold every block's CSC arrays back to back in
    storage-slot (layer-1) order, and two offset tables address them.

    Attributes
    ----------
    indptr:
        Concatenated per-block column-pointer arrays (each block-local,
        starting at 0); block ``slot`` owns
        ``indptr[ptr_off[slot]:ptr_off[slot+1]]``.
    indices, data:
        Concatenated per-block row indices / values; block ``slot`` owns
        ``indices[val_off[slot]:val_off[slot+1]]`` and the matching
        ``data`` slice.
    ptr_off, val_off:
        Slot→offset tables (length ``num_blocks + 1``) — together with
        the layer-1 ``blk_colptr``/``blk_rowidx`` these are the paper's
        auxiliary access arrays.
    gather:
        Position in the parent filled matrix's ``data`` array of every
        slab entry (``data[i] == filled.data[gather[i]]``).  This is what
        makes :meth:`refill` — and therefore refactorisation — a single
        in-place overwrite of the value slab with zero new block
        allocations.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    ptr_off: np.ndarray
    val_off: np.ndarray
    gather: np.ndarray

    @property
    def nbytes(self) -> int:
        """Total slab + offset-table bytes (``gather`` included)."""
        return (
            self.indptr.nbytes + self.indices.nbytes + self.data.nbytes
            + self.ptr_off.nbytes + self.val_off.nbytes + self.gather.nbytes
        )

    def slot_view(self, slot: int, shape: tuple[int, int]) -> CSCMatrix:
        """Zero-copy :class:`CSCMatrix` over storage slot ``slot``."""
        p0, p1 = int(self.ptr_off[slot]), int(self.ptr_off[slot + 1])
        v0, v1 = int(self.val_off[slot]), int(self.val_off[slot + 1])
        return CSCMatrix.from_views(
            shape, self.indptr[p0:p1], self.indices[v0:v1], self.data[v0:v1]
        )

    @property
    def dtype(self) -> np.dtype:
        """Value dtype of the ``data`` slab (the factor dtype)."""
        return self.data.dtype

    def refill(self, filled_data: np.ndarray) -> None:
        """Overwrite the value slab in place from a filled-pattern data
        array (same symbolic pattern, new numeric values).  No block
        array is allocated or rebound — every view stays valid, so the
        plan cache and the solve DAGs survive untouched."""
        if filled_data.dtype == self.data.dtype:
            np.take(filled_data, self.gather, out=self.data)
        else:
            # np.take refuses cross-dtype `out`; fall back to a gathering
            # assignment, which casts (float64 fill → float32 slab) on
            # the mixed-precision path
            self.data[...] = filled_data[self.gather]


@dataclass
class BlockMatrix:
    """Two-layer block-sparse matrix.

    Attributes
    ----------
    n:
        Matrix order.
    bs:
        Nominal block size.  For a regular partition this is the uniform
        spacing (last block row/column may be smaller); for an irregular
        partition it is the widest block extent.  Layout-independent code
        must use :meth:`block_start` / :meth:`block_order` instead.
    nb:
        Number of block rows/columns (``len(boundaries) - 1``).
    boundaries:
        Block boundary array of length ``nb + 1`` with
        ``boundaries[0] == 0`` and ``boundaries[-1] == n``; block ``b``
        spans global rows/columns ``boundaries[b]:boundaries[b + 1]``.
        Shared by rows and columns, so diagonal blocks stay square.
    blk_colptr, blk_rowidx:
        Layer-1 CSC arrays over blocks: block column ``bj`` owns the block
        rows ``blk_rowidx[blk_colptr[bj]:blk_colptr[bj+1]]`` (sorted).
    blk_values:
        Per-block payloads aligned with ``blk_rowidx``; each is a
        :class:`CSCMatrix` with *local* indices — or ``None`` on a
        rank's :meth:`restricted` copy, for a stored block the rank
        neither owns nor has received.
    plan_cache:
        Lazily-created :class:`repro.kernels.plans.PlanCache` of
        fixed-pattern execution plans for this structure (managed by
        :func:`repro.core.numeric.resolve_plan_cache`).  Attached here —
        not to the options — because plans are keyed by storage slots,
        which only identify patterns within one block structure.
    arena:
        The :class:`FactorArena` backing ``blk_values`` when the
        structure was built with ``block_partition(..., arena=True)``;
        ``None`` for the legacy per-block layout.  With an arena, every
        payload is a zero-copy view into the slabs, serialisation ships
        the slabs instead of per-block arrays, and
        :meth:`FactorArena.refill` re-injects values without allocating.
    dtype:
        Value dtype of every block payload (``float64`` by default,
        ``float32`` on the mixed-precision factor path).  Set by
        :func:`block_partition`.
    lr_overlay:
        Low-rank *overlay*: ``(bi, bj) →``
        :class:`~repro.sparse.blockrep.CompressedBlock` for blocks that
        currently carry a truncated ``U @ V.T`` alongside their exact
        CSC payload.  Empty with compression disabled — the default path
        never consults it.  The CSC payload stays authoritative (the
        triangular solves and the to_csc reassembly read it unchanged);
        SSSSM consumers prefer the overlay via
        :meth:`compressed_block`.  Every overlay owns its ``u``/``v``
        arrays.
    owned:
        ``None`` on the full matrix; on a :meth:`restricted` copy the
        storage slots the rank owns (what :meth:`compression_stats`
        counts, and what unpickling re-attaches).
    blk_nnz:
        Stored entries of every slot, recorded by
        :func:`block_partition` — layer-1 data, so a rank knows the
        ``nnz`` of blocks it does not hold (:meth:`slot_structure`).
    """

    n: int
    bs: int
    nb: int
    blk_colptr: np.ndarray
    blk_rowidx: np.ndarray
    blk_values: list[CSCMatrix | None]
    plan_cache: object | None = field(default=None, repr=False)
    arena: FactorArena | None = field(default=None, repr=False)
    dtype: np.dtype = field(default_factory=lambda: np.dtype(np.float64))
    boundaries: np.ndarray | None = field(default=None, repr=False)
    lr_overlay: dict = field(default_factory=dict, repr=False)
    owned: frozenset | None = field(default=None, repr=False)
    blk_nnz: np.ndarray | None = field(default=None, repr=False)
    _index: dict | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.boundaries is None:
            # hand-built regular structures (tests, fixtures) may omit the
            # boundary array; derive the equispaced one from bs
            self.boundaries = boundaries_from_block_size(self.n, self.bs)

    # ------------------------------------------------------------------
    def block_start(self, b: int) -> int:
        """First global row/column of block index ``b``."""
        return int(self.boundaries[b])

    def block_order(self, b: int) -> int:
        """Row/column count of block index ``b``."""
        return int(self.boundaries[b + 1] - self.boundaries[b])

    def block_slice(self, b: int) -> slice:
        """Global row/column slice covered by block index ``b``."""
        return slice(int(self.boundaries[b]), int(self.boundaries[b + 1]))

    @property
    def max_block_order(self) -> int:
        """Widest block extent (workspace sizing for any block)."""
        return int(np.diff(self.boundaries).max()) if self.nb else 0

    @property
    def is_regular(self) -> bool:
        """True when every block (except possibly the last) spans ``bs``."""
        return bool(
            np.array_equal(
                self.boundaries, boundaries_from_block_size(self.n, self.bs)
            )
        )

    # ------------------------------------------------------------------
    # arena views & serialisation
    # ------------------------------------------------------------------
    def _attach_arena_views(self) -> None:
        """(Re)create ``blk_values`` as zero-copy views into the arena
        slabs (on a rank's copy: of the slots it owns)."""
        arena = self.arena
        assert arena is not None
        values: list[CSCMatrix | None] = []
        for bj in range(self.nb):
            for slot in range(int(self.blk_colptr[bj]), int(self.blk_colptr[bj + 1])):
                bi = int(self.blk_rowidx[slot])
                shape = (self.block_order(bi), self.block_order(bj))
                held = self.owned is None or slot in self.owned
                values.append(arena.slot_view(slot, shape) if held else None)
        self.blk_values = values

    def __getstate__(self) -> dict:
        """Serialise without the unpicklable/rebuildable parts.

        The plan cache (holds a lock, rebuilt lazily) and the slot index
        are always dropped.  With an arena, the per-block views are
        dropped too — the three slabs are the single source of truth, so
        pickling ships three contiguous buffers instead of thousands of
        small per-block arrays.
        """
        state = {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }
        state["plan_cache"] = None
        state["_index"] = None
        if self.arena is not None:
            state["blk_values"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        if self.arena is not None and self.blk_values is None:
            self._attach_arena_views()

    @property
    def num_blocks(self) -> int:
        """Number of stored (structurally nonzero) blocks."""
        return int(self.blk_colptr[-1])

    def block_slot(self, bi: int, bj: int) -> int:
        """Storage slot of block ``(bi, bj)`` or −1 if absent (O(1) via a
        lazily-built dictionary index)."""
        if self._index is None:
            index: dict[tuple[int, int], int] = {}
            for col in range(self.nb):
                lo, hi = int(self.blk_colptr[col]), int(self.blk_colptr[col + 1])
                for slot in range(lo, hi):
                    index[(int(self.blk_rowidx[slot]), col)] = slot
            self._index = index
        return self._index.get((bi, bj), -1)

    @property
    def blk_colidx(self) -> np.ndarray:
        """Block column of every storage slot (``blk_rowidx``'s
        counterpart, expanded from ``blk_colptr``)."""
        return np.repeat(np.arange(self.nb), np.diff(self.blk_colptr))

    def slots_of(self, bi: np.ndarray, bj: np.ndarray) -> np.ndarray:
        """:meth:`block_slot` of whole coordinate arrays: one binary
        search over the layer-1 keys (block-column major, rows sorted
        within a column), −1 where the block is absent."""
        keys = self.blk_colidx * self.nb + self.blk_rowidx
        wanted = np.asarray(bj) * self.nb + np.asarray(bi)
        slots = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        return np.where(keys[slots] == wanted, slots, -1)

    def slot_structure(self) -> np.recarray:
        """Per storage slot, the ``nnz`` / ``ncols`` / ``density`` a
        block's payload reports — from layer-1 data alone, so it covers
        the blocks a rank's :meth:`restricted` share does not hold."""
        if self.blk_nnz is None:  # a hand-built structure: all blocks held
            self.blk_nnz = np.asarray(
                [blk.nnz for blk in self.blk_values], dtype=np.int64
            )
        widths = np.diff(self.boundaries)
        ncols = widths[self.blk_colidx]
        cells = widths[self.blk_rowidx] * ncols
        return np.rec.fromarrays(
            [self.blk_nnz, ncols, self.blk_nnz / cells],
            names="nnz,ncols,density",
        )

    def block(self, bi: int, bj: int) -> CSCMatrix | None:
        """The block at block coordinates ``(bi, bj)``, or None if empty.
        On a rank's :meth:`restricted` copy a stored block the rank does
        not hold is a protocol bug and raises."""
        slot = self.block_slot(bi, bj)
        return None if slot < 0 else self.block_at(slot)

    def block_at(self, slot: int) -> CSCMatrix:
        """The block in storage slot ``slot`` (held or raises, as
        :meth:`block`)."""
        blk = self.blk_values[slot]
        if blk is None:
            raise RuntimeError(
                f"worker touched block ({self.blk_rowidx[slot]},"
                f"{self.blk_colidx[slot]}) it neither owns nor received"
            )
        return blk

    # ------------------------------------------------------------------
    # a rank's share
    # ------------------------------------------------------------------
    def restricted(self, owned_slots) -> BlockMatrix:
        """A distributed rank's share of this matrix: a shallow copy on
        the same layer-1 arrays, boundaries and arena that holds only
        the blocks in ``owned_slots`` (the same block objects — under a
        process transport the copy is the rank's own), with its own
        empty overlay and no plan cache (plans are rank-local)."""
        owned = frozenset(int(s) for s in owned_slots)
        return dataclasses.replace(
            self,
            blk_values=[
                blk if slot in owned else None
                for slot, blk in enumerate(self.blk_values)
            ],
            plan_cache=None, lr_overlay={}, owned=owned,
        )

    def install(
        self, bi: int, bj: int, indptr: np.ndarray, indices: np.ndarray,
        data: np.ndarray,
    ) -> CSCMatrix:
        """Put a received block into its slot, wrapping the arrays as
        they are (zero-copy)."""
        blk = CSCMatrix.from_views(
            (self.block_order(bi), self.block_order(bj)), indptr, indices, data
        )
        self.blk_values[self.block_slot(bi, bj)] = blk
        return blk

    # ------------------------------------------------------------------
    # low-rank overlay
    # ------------------------------------------------------------------
    def compressed_block(self, bi: int, bj: int) -> CompressedBlock | None:
        """The low-rank overlay of block ``(bi, bj)`` or ``None`` when
        the block is uncompressed (always ``None`` with compression
        disabled)."""
        return self.lr_overlay.get((bi, bj))

    def set_compressed(
        self, bi: int, bj: int, u: np.ndarray, v: np.ndarray
    ) -> CompressedBlock:
        """Install a low-rank overlay ``u @ v.T`` for block ``(bi, bj)``;
        the exact CSC payload is untouched."""
        cb = CompressedBlock(shape=(int(u.shape[0]), int(v.shape[0])), u=u, v=v)
        self.lr_overlay[(bi, bj)] = cb
        return cb

    def clear_compressed(self) -> None:
        """Drop every low-rank overlay (the refinement escalation path:
        back to exact CSC blocks everywhere)."""
        self.lr_overlay.clear()

    def compression_stats(self) -> dict[str, int]:
        """Counters for stats/benches: how many blocks carry an overlay,
        the low-rank payload bytes, and the exact value bytes those
        blocks would cost uncompressed.  A rank counts the overlays of
        the blocks it owns (a received copy is its owner's work)."""
        mine = [
            (cb, self.block(bi, bj)) for (bi, bj), cb in self.lr_overlay.items()
            if self.owned is None or self.block_slot(bi, bj) in self.owned
        ]
        return {
            "blocks_compressed": len(mine),
            "lr_value_bytes": sum(cb.value_nbytes for cb, _ in mine),
            "compressed_csc_bytes": sum(blk.value_nbytes for _, blk in mine),
        }

    def blocks_in_column(self, bj: int) -> tuple[np.ndarray, list[CSCMatrix]]:
        """(block-row indices, payloads) of block column ``bj``."""
        lo, hi = int(self.blk_colptr[bj]), int(self.blk_colptr[bj + 1])
        return self.blk_rowidx[lo:hi], self.blk_values[lo:hi]

    def blocks_in_row(self, bi: int) -> list[tuple[int, CSCMatrix]]:
        """List of ``(bj, payload)`` for stored blocks in block row ``bi``."""
        out = []
        for bj in range(self.nb):
            blk = self.block(bi, bj)
            if blk is not None:
                out.append((bj, blk))
        return out

    # ------------------------------------------------------------------
    def to_csc(self) -> CSCMatrix:
        """Reassemble the global matrix (for verification)."""
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        vals_parts: list[np.ndarray] = []
        for bj in range(self.nb):
            lo, hi = int(self.blk_colptr[bj]), int(self.blk_colptr[bj + 1])
            for slot in range(lo, hi):
                bi = int(self.blk_rowidx[slot])
                blk = self.blk_values[slot]
                r, c = blk.rows_cols()
                rows_parts.append(r + self.block_start(bi))
                cols_parts.append(c + self.block_start(bj))
                vals_parts.append(blk.data)
        from ..sparse.csc import coo_to_csc

        if not rows_parts:
            return CSCMatrix.empty((self.n, self.n))
        return coo_to_csc(
            (self.n, self.n),
            np.concatenate(rows_parts),
            np.concatenate(cols_parts),
            np.concatenate(vals_parts),
        )

    def nnz_stats(self) -> dict[str, float]:
        """Summary statistics used by reports and the block-size bench."""
        nnzs = np.asarray([b.nnz for b in self.blk_values], dtype=np.int64)
        dens = np.asarray([b.density for b in self.blk_values])
        return {
            "num_blocks": int(nnzs.size),
            "nnz_total": int(nnzs.sum()) if nnzs.size else 0,
            "nnz_mean": float(nnzs.mean()) if nnzs.size else 0.0,
            "density_mean": float(dens.mean()) if dens.size else 0.0,
            "grid": self.nb,
        }


def _validate_boundaries(n: int, boundaries: np.ndarray) -> np.ndarray:
    """Check a block-boundary array for matrix order ``n``."""
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if boundaries.ndim != 1 or boundaries.size < 2:
        raise ValueError("boundaries must be a 1-D array of length >= 2")
    if boundaries[0] != 0 or boundaries[-1] != n:
        raise ValueError(
            f"boundaries must run from 0 to n={n}, got "
            f"[{boundaries[0]}, ..., {boundaries[-1]}]"
        )
    if np.any(np.diff(boundaries) <= 0):
        raise ValueError("boundaries must be strictly increasing")
    return boundaries


def block_partition(
    filled: CSCMatrix,
    bs: int | np.ndarray,
    *,
    arena: bool = False,
    dtype: np.dtype | type | None = None,
) -> BlockMatrix:
    """Split a filled matrix into the two-layer block structure.

    ``bs`` is either a scalar block size (regular layout: equispaced
    boundaries, last block possibly short) or an explicit boundary array
    of length ``nb + 1`` running from 0 to ``n`` — the output of a
    :class:`~repro.core.strategy.BlockingStrategy`.  Both go through the
    same splitting arithmetic, so a boundary array with regular spacing
    produces a bit-identical structure to the scalar form.

    Every stored entry of ``filled`` lands in exactly one block; blocks
    keep local CSC patterns with sorted-unique columns (inherited from the
    parent).  One pass of array operations over the stored entries plus a
    sort of the (column, block row) runs — no per-column or per-block
    interpreter loop.

    With ``arena=True`` the payloads are laid out in one preallocated
    :class:`FactorArena` — three contiguous slabs in storage-slot order —
    and every block is a zero-copy view into them.  The per-block layout
    is cut from the same slabs, each block copying its slices
    (bit-identical contents; only the physical backing differs).  The
    slabs are sized from the per-block extents, so variable-width blocks
    need no changes below this point.

    ``dtype`` sets the value dtype of the payloads (and the arena's data
    slab); ``None`` inherits the filled matrix's dtype.  Passing
    ``float32`` casts the (float64) fill values once, here — the working
    storage of the mixed-precision factor path.
    """
    dtype = np.dtype(dtype) if dtype is not None else filled.dtype
    n = filled.ncols
    if filled.nrows != n:
        raise ValueError("block partition requires a square matrix")
    if np.ndim(bs) == 0:
        bs = int(bs)
        if bs <= 0:
            raise ValueError("block size must be positive")
        bounds = boundaries_from_block_size(n, bs)
    else:
        bounds = _validate_boundaries(n, bs)
        bs = int(np.diff(bounds).max())
    nb = bounds.size - 1

    # A *run* is a maximal stretch of stored entries in one column and one
    # block row.  Rows are sorted within a column, so a run is contiguous in
    # the parent arrays, and it is one local column of one block, so it is
    # contiguous in that block's CSC arrays too: sorting the runs — not the
    # entries — by storage slot lays out the slabs.
    widths = np.diff(bounds)
    block_of = np.repeat(np.arange(nb, dtype=np.int64), widths)
    nnz = filled.nnz
    entry_bi = block_of[filled.indices]
    new_run = run_starts(entry_bi)
    col_starts = filled.indptr[1:-1]
    new_run[col_starts[col_starts < nnz]] = True
    run_start = np.flatnonzero(new_run)
    run_len = np.diff(np.append(run_start, nnz))
    run_col = np.searchsorted(filled.indptr, run_start, side="right") - 1
    run_key = block_of[run_col] * nb + entry_bi[run_start]
    del entry_bi, new_run

    # storage-slot order is block column major; the stable sort keeps the
    # runs of one block in column order
    order = np.argsort(run_key, kind="stable")
    run_start, run_len, run_col, run_key = (
        run_start[order], run_len[order], run_col[order], run_key[order]
    )
    first = np.flatnonzero(run_starts(run_key))
    blk_bj, blk_bi = np.divmod(run_key[first], nb)
    num_blocks = first.size
    run_slot = np.repeat(
        np.arange(num_blocks, dtype=np.int64), np.diff(np.append(first, run_key.size))
    )
    blk_colptr = np.zeros(nb + 1, dtype=np.int64)
    np.cumsum(np.bincount(blk_bj, minlength=nb), out=blk_colptr[1:])
    run_dest = np.cumsum(run_len) - run_len
    val_off = np.append(run_dest[first], nnz)
    ptr_off = np.zeros(num_blocks + 1, dtype=np.int64)
    np.cumsum(widths[blk_bj] + 1, out=ptr_off[1:])

    # per-block indptr: a (block, local column) pair holds at most one run,
    # so its length goes one position further on, then a running sum
    # rebased to 0 at every block
    indptr = np.zeros(int(ptr_off[-1]), dtype=np.int64)
    indptr[ptr_off[run_slot] + run_col - bounds[blk_bj][run_slot] + 1] = run_len
    np.cumsum(indptr, out=indptr)
    indptr -= np.repeat(val_off[:-1], np.diff(ptr_off))

    # expand the runs to entries: slab position k reads parent position
    # gather[k]
    gather = concat_ranges(run_start, run_len)
    indices = filled.indices[gather]
    indices -= np.repeat(bounds[blk_bi], np.diff(val_off))
    data = filled.data[gather].astype(dtype, copy=False)

    out = BlockMatrix(
        n=n,
        bs=bs,
        nb=nb,
        blk_colptr=blk_colptr,
        blk_rowidx=blk_bi,
        blk_values=[],
        dtype=dtype,
        boundaries=bounds,
        blk_nnz=np.diff(val_off),
    )
    out.arena = FactorArena(
        indptr=indptr, indices=indices, data=data,
        ptr_off=ptr_off, val_off=val_off, gather=gather,
    )
    out._attach_arena_views()
    if not arena:
        # legacy layout: the same arrays, every block owning its slices
        out.arena = None
        out.blk_values = [blk.copy() for blk in out.blk_values]
    return out

"""Memory accounting for the two-layer block structure.

Section 4.2 of the paper notes that the two-layer sparse structure has
"no significant additional overhead, as we only need three additional
arrays to represent and access the block-level sparse structure", and
that PanguLU preallocates all block storage during preprocessing to
minimise consumption.  This module makes those claims checkable: exact
byte counts for the blocked factors, the layer-1 overhead, the equivalent
supernodal (padded dense-panel) storage, and the per-process footprint
under a mapping.

Every count is derived from the **actual dtypes of the stored arrays**
(``arr.nbytes`` / ``dtype.itemsize``), so the report stays truthful if
the index or value width ever changes — there are no hardcoded "8 bytes
per entry" constants.  For an arena-backed structure
(:class:`~repro.core.blocking.FactorArena`) the slot→offset tables are
counted as layer-1 overhead (they are the paper's block-payload pointer
array made literal) and the refactorisation gather map is reported
separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocking import BlockMatrix
from .placement import require_placement

__all__ = ["MemoryReport", "memory_report", "per_process_bytes"]

#: pointer width charged per stored block for the legacy layout's
#: payload-pointer array (one PyObject*/array pointer per block)
_PTR = np.dtype(np.int64).itemsize


@dataclass(frozen=True)
class MemoryReport:
    """Byte-level storage accounting of a blocked factor matrix.

    Attributes
    ----------
    values_bytes:
        Numeric payload of all blocks (exact ``data`` dtype).
    layer2_index_bytes:
        Within-block CSC overhead (indices + column pointers) at the
        arrays' actual dtypes.
    layer1_index_bytes:
        Block-level CSC overhead — the paper's auxiliary arrays
        (``blk_ColumnPointer``, ``blk_RowIndex`` and the block-payload
        pointers; for an arena these pointers are the ``ptr_off`` /
        ``val_off`` slot→offset tables).
    dense_equivalent_bytes:
        Storing every *stored* block as a dense panel (what a padded
        supernodal layout pays for the same coverage).
    plan_bytes:
        Index arrays of the cached fixed-pattern execution plans
        (:mod:`repro.kernels.plans`), when the structure carries a plan
        cache — the price of precomputed scatter addressing.
    arena_refill_bytes:
        The arena's ``gather`` map (filled-matrix position of every slab
        entry) — the price of in-place value re-injection on
        refactorisation.  0 for the per-block layout.
    lr_value_bytes:
        Numeric payload of the low-rank overlay (the ``U``/``V`` factor
        pairs of compressed GESSM/TSTRF panels).  0 with compression off.
    inverse_bytes:
        The kept packed inverses of the factored diagonal blocks
        (:attr:`BlockMatrix.inverses <repro.core.blocking.BlockMatrix.inverses>`:
        one dense float64 array per block, what every triangular solve
        multiplies by, and the copy of the block values it was made
        from) held in this process — a rank engine's stay on its ranks.
    compressed_csc_bytes:
        Exact CSC payload (values + within-block indices) of the blocks
        that also carry a low-rank overlay — what a consumer that reads
        the overlay *instead* of the CSC arrays avoids touching.
    panel_cache_peak_bytes:
        High-water mark of every dense image of the factorisation
        ``run``'s panel cache — block images still accumulating their
        Schur updates, solved panels' images and inverse triangles
        (largest rank's on the rank engines).  Transient working memory
        — the images are gone when the run ends — so it is reported
        beside :attr:`total_bytes`, not in it.
    """

    values_bytes: int
    layer2_index_bytes: int
    layer1_index_bytes: int
    dense_equivalent_bytes: int
    plan_bytes: int = 0
    arena_refill_bytes: int = 0
    lr_value_bytes: int = 0
    inverse_bytes: int = 0
    compressed_csc_bytes: int = 0
    panel_cache_peak_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """Full two-layer footprint, plans, refill map, low-rank overlay
        and kept inverses included (the overlay is *additive* storage
        locally: the exact CSC arrays stay authoritative underneath it)."""
        return (
            self.values_bytes
            + self.layer2_index_bytes
            + self.layer1_index_bytes
            + self.plan_bytes
            + self.arena_refill_bytes
            + self.lr_value_bytes
            + self.inverse_bytes
        )

    @property
    def effective_traffic_bytes(self) -> int:
        """Bytes a consumer actually reads with the overlay in force:
        every uncompressed block at its exact CSC size, every compressed
        block at its ``U``/``V`` size.  This — not :attr:`total_bytes` —
        is what shrinks in the filled regime, and it is what the wire
        accounting of the distributed engine realises (compressed panels
        ship as ``U``/``V`` only)."""
        return (
            self.values_bytes
            + self.layer2_index_bytes
            - self.compressed_csc_bytes
            + self.lr_value_bytes
        )

    @property
    def layer1_overhead(self) -> float:
        """Layer-1 arrays relative to the total — the paper's "no
        significant additional overhead" claim, as a number."""
        return self.layer1_index_bytes / self.total_bytes if self.total_bytes else 0.0

    @property
    def dense_ratio(self) -> float:
        """Dense-equivalent over two-layer storage (≥ 1 for sparse data)."""
        return (
            self.dense_equivalent_bytes / self.total_bytes
            if self.total_bytes
            else 1.0
        )


def memory_report(f: BlockMatrix, run=None) -> MemoryReport:
    """Account the storage of a blocked matrix exactly (including any
    execution plans cached on the structure), with every byte count
    derived from the actual array dtypes.  ``run`` — the
    :class:`~repro.runtime.scheduler.RunReport` of the factorisation that
    filled ``f`` — adds the working memory only a run knows."""
    values = 0
    layer2 = 0
    dense_eq = 0
    for blk in f.blk_values:
        val_itemsize = blk.value_nbytes // blk.nnz if blk.nnz else _PTR
        values += blk.value_nbytes
        layer2 += blk.index_nbytes
        dense_eq += blk.nrows * blk.ncols * val_itemsize
    layer1 = f.blk_colptr.nbytes + f.blk_rowidx.nbytes
    refill = 0
    if f.arena is not None:
        # the slot→offset tables are the block-payload pointer array of
        # the paper's layer 1; the gather map buys in-place refactorize
        layer1 += f.arena.ptr_off.nbytes + f.arena.val_off.nbytes
        refill = f.arena.gather.nbytes
    else:
        layer1 += f.num_blocks * _PTR  # one payload pointer per block
    plans = f.plan_cache
    lr_bytes = 0
    comp_csc = 0
    for (bi, bj), cb in f.lr_overlay.items():
        lr_bytes += cb.value_nbytes
        blk = f.block(bi, bj)
        if blk is not None:  # values + indices a pure-overlay reader skips
            comp_csc += blk.value_nbytes + blk.index_nbytes
    return MemoryReport(
        values_bytes=int(values),
        layer2_index_bytes=int(layer2),
        layer1_index_bytes=int(layer1),
        dense_equivalent_bytes=int(dense_eq),
        plan_bytes=int(plans.nbytes) if plans is not None else 0,
        arena_refill_bytes=int(refill),
        lr_value_bytes=int(lr_bytes),
        inverse_bytes=sum(v.nbytes + inv.nbytes for v, inv in f.inverses.values()),
        compressed_csc_bytes=int(comp_csc),
        panel_cache_peak_bytes=run.panel_cache_peak_bytes if run is not None else 0,
    )


def per_process_bytes(f: BlockMatrix, placement) -> np.ndarray:
    """Bytes of block storage owned by each process — the quantity that
    must fit in one device's memory.

    ``placement`` is a :class:`repro.core.placement.PlacementPolicy`
    (``CyclicPlacement(grid)`` for block-cyclic ownership).  Ownership is
    the storage layout; the load balancer migrates *tasks*, never block
    storage.  Counts are exact (``nbytes`` of the per-block arrays at
    their real dtypes).
    """
    out = np.zeros(require_placement(placement).nprocs, dtype=np.int64)
    for bj in range(f.nb):
        rows, blocks = f.blocks_in_column(bj)
        for bi, blk in zip(rows, blocks):
            owner = placement.owner(int(bi), bj)
            out[owner] += blk.value_nbytes + blk.index_nbytes
    return out

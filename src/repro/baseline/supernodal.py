"""Supernodal dense-panel LU — the SuperLU_DIST-role numeric baseline.

The comparator the paper measures against aggregates columns into
supernodes and computes with dense BLAS.  This module implements that
honestly over the supernode partition of the exact fill:

* the filled matrix is cut into an *uneven* 2D grid by the supernode
  column boundaries (heights = widths, so diagonal blocks are square);
* every structurally nonzero block is stored **dense** — including all
  padding zeros (this is the storage Fig. 1d depicts);
* numeric factorisation is the same right-looking block algorithm as
  PanguLU's, but with dense kernels on the same BLAS primitives
  (:mod:`repro.kernels.base`): dense LU on diagonal blocks, panels
  multiplied by the diagonal block's triangle inverses (``DiagInv``),
  and dense GEMM for Schur updates (wasting multiply-adds on every
  padding zero);
* per-GEMM statistics (operand densities, shapes, moved bytes) are
  recorded — they feed the Fig. 4 density histograms and the baseline's
  simulated task costs.

Correctness is identical to PanguLU (padding cells provably stay zero:
any position a kernel could make nonzero is fill, and fill is inside the
pattern), which the tests verify.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..kernels.base import dense_getrf, inverse_triangle, invert_factors, serial_matmul
from ..sparse.csc import CSCMatrix
from .supernodes import SupernodePartition

__all__ = ["SupernodalMatrix", "GEMMRecord", "SupernodalStats", "sn_partition", "sn_factorize"]


@dataclass(frozen=True)
class GEMMRecord:
    """Shape/density record of one dense Schur GEMM (``C −= A·B``)."""

    m: int
    n: int
    k: int
    density_a: float
    density_b: float
    density_c: float

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k

    @property
    def moved_bytes(self) -> float:
        """Gather + scatter traffic of the dense panels."""
        return 8.0 * (self.m * self.k + self.k * self.n + 2 * self.m * self.n)


@dataclass
class SupernodalStats:
    """Aggregated accounting of one supernodal factorisation.

    ``seconds_panel`` / ``seconds_schur`` are real wall-clock splits of
    the panel factorisation vs. Schur-complement work — the comparison of
    Table 4.  ``pivots_replaced`` counts static-pivot replacements.
    """

    gemms: list[GEMMRecord] = field(default_factory=list)
    panel_flops: float = 0.0
    schur_flops: float = 0.0
    moved_bytes: float = 0.0
    seconds_panel: float = 0.0
    seconds_schur: float = 0.0
    pivots_replaced: int = 0


@dataclass
class SupernodalMatrix:
    """Uneven dense-block matrix cut at supernode boundaries.

    ``dense[(i, j)]`` holds the dense payload of block ``(i, j)``;
    ``pattern_nnz[(i, j)]`` its structural (unpadded) nonzero count;
    ``diag_inv[k]`` the ``(L⁻¹, U⁻¹)`` pair of factored diagonal block
    ``k`` (filled by :func:`sn_factorize`, read by the solve).
    """

    n: int
    boundaries: np.ndarray
    dense: dict[tuple[int, int], np.ndarray]
    pattern_nnz: dict[tuple[int, int], int]
    diag_inv: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @functools.cached_property
    def step_blocks(self) -> tuple[list[list[int]], list[list[int]]]:
        """Per elimination step ``k``, ascending: the block rows ``i > k``
        with ``(i, k)`` stored and the block columns ``j > k`` with
        ``(k, j)`` stored."""
        below: list[list[int]] = [[] for _ in range(self.ns)]
        right: list[list[int]] = [[] for _ in range(self.ns)]
        for i, j in sorted(self.dense):
            if i > j:
                below[j].append(i)
            elif i < j:
                right[i].append(j)
        return below, right

    @property
    def ns(self) -> int:
        return len(self.boundaries) - 1

    def width(self, s: int) -> int:
        return int(self.boundaries[s + 1] - self.boundaries[s])

    def block(self, i: int, j: int) -> np.ndarray | None:
        return self.dense.get((i, j))

    def block_density(self, i: int, j: int) -> float:
        blk = self.dense.get((i, j))
        if blk is None:
            return 0.0
        return self.pattern_nnz[(i, j)] / blk.size

    def to_dense(self) -> np.ndarray:
        """Reassemble the global dense matrix (verification only)."""
        out = np.zeros((self.n, self.n))
        b = self.boundaries
        for (i, j), blk in self.dense.items():
            out[b[i] : b[i + 1], b[j] : b[j + 1]] = blk
        return out


def sn_partition(filled: CSCMatrix, part: SupernodePartition) -> SupernodalMatrix:
    """Cut the filled matrix into dense blocks at supernode boundaries."""
    n = filled.ncols
    b = part.boundaries
    ns = part.n_supernodes
    col_to_sn = part.supernode_of_column()
    dense: dict[tuple[int, int], np.ndarray] = {}
    nnz: dict[tuple[int, int], int] = {}
    data = filled.data
    for j in range(n):
        sj = int(col_to_sn[j])
        lc = j - int(b[sj])
        sl = filled.col_slice(j)
        rows = filled.indices[sl]
        vals = data[sl]
        if rows.size == 0:
            continue
        cut = np.searchsorted(rows, b[1:])
        start = 0
        for si in range(ns):
            end = int(cut[si])
            if end > start:
                blk = dense.get((si, sj))
                if blk is None:
                    blk = np.zeros(
                        (int(b[si + 1] - b[si]), int(b[sj + 1] - b[sj]))
                    )
                    dense[(si, sj)] = blk
                    nnz[(si, sj)] = 0
                blk[rows[start:end] - int(b[si]), lc] = vals[start:end]
                nnz[(si, sj)] += end - start
            start = end
    return SupernodalMatrix(n=n, boundaries=b.copy(), dense=dense, pattern_nnz=nnz)


def sn_factorize(
    m: SupernodalMatrix, *, pivot_floor: float = 1e-12
) -> SupernodalStats:
    """Right-looking supernodal factorisation in place, with accounting.

    Per supernode: the diagonal panel's LU (:func:`dense_getrf`, what
    PanguLU's ``getrf_c_v1`` runs: one LAPACK ``getrf`` where that pivots
    nowhere, else the no-pivot loop), its two triangle inverses (kept in
    ``m.diag_inv`` for the solve), every panel below and to the right as
    one product with an inverse — SuperLU_DIST's ``DiagInv`` — and one
    GEMM per Schur update, all on the calling thread
    (:func:`serial_matmul`) like the solver it is compared with.
    """
    import time

    stats = SupernodalStats()
    below, right = m.step_blocks
    for k in range(m.ns):
        diag = m.block(k, k)
        if diag is None:
            raise ValueError(f"empty diagonal supernode block ({k},{k})")
        w = m.width(k)
        t0 = time.perf_counter()
        stats.pivots_replaced += dense_getrf(
            diag, pivot_floor, float(np.abs(diag).max()) or 1.0
        )
        stats.panel_flops += (2.0 / 3.0) * w**3
        inv = invert_factors(diag.copy())
        linv, uinv = (inverse_triangle(inv, lower=lower) for lower in (True, False))
        m.diag_inv[k] = (linv, uinv)
        for i in below[k]:
            blk = m.dense[(i, k)]
            blk[...] = serial_matmul(blk, uinv)
            stats.panel_flops += float(blk.shape[0]) * w * w
        for j in right[k]:
            blk = m.dense[(k, j)]
            blk[...] = serial_matmul(linv, blk)
            stats.panel_flops += float(blk.shape[1]) * w * w
        stats.seconds_panel += time.perf_counter() - t0
        t0 = time.perf_counter()
        for i in below[k]:
            a = m.dense[(i, k)]
            for j in right[k]:
                bb = m.dense[(k, j)]
                c = m.dense.get((i, j))
                if c is None:
                    continue  # structurally empty target: product is zero
                c -= serial_matmul(a, bb)
                rec = GEMMRecord(
                    m=a.shape[0],
                    n=bb.shape[1],
                    k=w,
                    density_a=m.block_density(i, k),
                    density_b=m.block_density(k, j),
                    density_c=m.block_density(i, j),
                )
                stats.gemms.append(rec)
                stats.schur_flops += rec.flops
                stats.moved_bytes += rec.moved_bytes
        stats.seconds_schur += time.perf_counter() - t0
    return stats

"""Baseline solver facade — the SuperLU_DIST-role pipeline.

Mirrors :class:`repro.core.solver.PanguLU` phase for phase so every
comparison in the paper's evaluation has a like-for-like counterpart:

1. reordering — *identical* to PanguLU (MC64 + the same fill-reducing
   ordering), so differences downstream are attributable to the methods
   under test, not the permutation;
2. symbolic — Gilbert–Peierls column-DFS fill (the baseline's exact
   unsymmetric pattern) — slower than PanguLU's etree walk, as Fig. 11
   measures;
3. preprocessing — supernode detection with relaxation, dense-panel
   partitioning at the supernode boundaries;
4. numeric — right-looking dense-panel factorisation;
5. solve — dense forward/backward sweeps over the panels, the diagonal
   solves as products with the inverses the factorisation kept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.solver import reorder_and_scale
from ..kernels.base import serial_matmul
from ..sparse.csc import CSCMatrix
from ..symbolic import SymbolicResult
from .gp import symbolic_gilbert_peierls
from .supernodal import (
    SupernodalMatrix,
    SupernodalStats,
    sn_factorize,
    sn_partition,
)
from .supernodes import SupernodePartition, detect_supernodes

__all__ = ["BaselineOptions", "SuperLUBaseline"]


@dataclass
class BaselineOptions:
    """Configuration of the baseline pipeline: the fill-reducing
    ``ordering`` (a key of :data:`repro.core.solver.ORDERINGS`; MC64 always
    runs first, as in PanguLU) and the supernode width cap.  Supernode
    relaxation keeps :func:`~repro.baseline.supernodes.detect_supernodes`'
    defaults, as pivot replacement keeps
    :func:`~repro.baseline.supernodal.sn_factorize`'s floor."""

    ordering: str = "nd"
    max_supernode_width: int = 64


class SuperLUBaseline:
    """Supernodal dense-BLAS direct solver (the paper's comparator).

    Shares the reordering phase with PanguLU; diverges at symbolic
    factorisation (exact unsymmetric fill via column DFS), preprocessing
    (supernode aggregation with padding) and numeric factorisation (dense
    panels, level-set scheduling when simulated).
    """

    def __init__(self, a: CSCMatrix, options: BaselineOptions | None = None) -> None:
        if a.nrows != a.ncols:
            raise ValueError("baseline requires a square matrix")
        a.require_finite("a")
        self.a = a
        self.options = options or BaselineOptions()
        self.phase_seconds: dict[str, float] = {}
        self.row_scale: np.ndarray | None = None
        self.col_scale: np.ndarray | None = None
        self.row_perm: np.ndarray | None = None
        self.col_perm: np.ndarray | None = None
        self.symbolic: SymbolicResult | None = None
        self.partition: SupernodePartition | None = None
        self.panels: SupernodalMatrix | None = None
        self.numeric_stats: SupernodalStats | None = None
        self._factorized = False

    def reorder(self) -> CSCMatrix:
        """Phase 1 — PanguLU's, by the same function."""
        t0 = time.perf_counter()
        (
            self.row_scale, self.col_scale, self.row_perm, self.col_perm,
            self._reordered,
        ) = reorder_and_scale(self.a, self.options.ordering)
        self.phase_seconds["reorder"] = time.perf_counter() - t0
        return self._reordered

    def symbolic_factorize(self) -> SymbolicResult:
        """Phase 2 — Gilbert–Peierls exact unsymmetric fill."""
        if self.col_perm is None:
            self.reorder()
        t0 = time.perf_counter()
        self.symbolic = symbolic_gilbert_peierls(self._reordered)
        self.phase_seconds["symbolic"] = time.perf_counter() - t0
        return self.symbolic

    def preprocess(self) -> SupernodalMatrix:
        """Phase 3 — supernode detection + dense panel partitioning."""
        if self.symbolic is None:
            self.symbolic_factorize()
        t0 = time.perf_counter()
        self.partition = detect_supernodes(
            self.symbolic.filled, max_width=self.options.max_supernode_width
        )
        self.panels = sn_partition(self.symbolic.filled, self.partition)
        self.phase_seconds["preprocess"] = time.perf_counter() - t0
        return self.panels

    def factorize(self) -> SupernodalStats:
        """Phase 4 — dense-panel right-looking factorisation."""
        if self._factorized:
            return self.numeric_stats
        if self.panels is None:
            self.preprocess()
        t0 = time.perf_counter()
        self.numeric_stats = sn_factorize(self.panels)
        self.phase_seconds["numeric"] = time.perf_counter() - t0
        self._factorized = True
        return self.numeric_stats

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Phase 5 — dense panel forward/backward sweeps."""
        self.factorize()
        t0 = time.perf_counter()
        b = np.asarray(b, dtype=np.float64)
        if b.shape != (self.a.nrows,):
            raise ValueError(f"b has shape {b.shape}, expected ({self.a.nrows},)")
        m = self.panels
        bd = m.boundaries
        segs = [slice(lo, hi) for lo, hi in zip(bd[:-1], bd[1:])]
        below, right = m.step_blocks
        # one column, so every product is a GEMM on the calling thread
        y = (self.row_scale * b)[self.row_perm][:, None]
        # forward, by block columns: y_k = L_kk⁻¹ y_k, then pushed down
        for k in range(m.ns):
            y[segs[k]] = serial_matmul(m.diag_inv[k][0], y[segs[k]])
            for i in below[k]:
                y[segs[i]] -= serial_matmul(m.dense[(i, k)], y[segs[k]])
        # backward, by block rows: x_k = U_kk⁻¹ (y_k − Σ_j U_kj x_j)
        for k in range(m.ns - 1, -1, -1):
            for j in right[k]:
                y[segs[k]] -= serial_matmul(m.dense[(k, j)], y[segs[j]])
            y[segs[k]] = serial_matmul(m.diag_inv[k][1], y[segs[k]])
        z = np.empty(self.a.nrows)
        z[self.col_perm] = y[:, 0]
        x = self.col_scale * z
        self.phase_seconds["solve"] = time.perf_counter() - t0
        return x

    def residual_norm(self, x: np.ndarray, b: np.ndarray) -> float:
        """Relative residual ``‖A x − b‖₂ / ‖b‖₂``."""
        r = self.a.matvec(x) - b
        denom = float(np.linalg.norm(b)) or 1.0
        return float(np.linalg.norm(r)) / denom

"""The low-rank block overlay and the truncations that produce it.

The big separator blocks of filled matrices are nearly dense but
numerically low-rank (Zhu & Lai's recursive ND + low-rank LU; Li & Liu's
data-sparse factorisation survey), so a truncated ``U @ V.T``
factorisation stores and multiplies them at ``O((m + n) · rank)``
instead of ``O(nnz)`` / ``O(m · n)`` cost.  This module holds

* :class:`CompressedBlock` — a rank-``r`` approximation ``U @ V.T`` of a
  panel block, produced by :func:`repro.kernels.compress.try_compress`
  at a configurable relative tolerance;
* the numerical workhorses :func:`truncated_svd` and
  :func:`randomized_svd` (deterministic: the random range-finder is
  seeded from the block shape, so every engine and every rank computes
  bit-identical factors for the same block).

A compressed block is an **overlay**, not a replacement: the owning rank
keeps the exact CSC payload (the triangular solves and the master gather
read it unchanged), while SSSSM consumers — local or remote — multiply
against the low-rank form.  The resulting factors are approximate;
iterative refinement at solve time recovers full accuracy, with the
escalation path in :class:`~repro.core.solver.Factorization` dropping
the overlay and refactorising exactly when refinement stalls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CompressedBlock",
    "truncated_svd",
    "randomized_svd",
    "lr_profit_cap",
]


@dataclass
class CompressedBlock:
    """A rank-``r`` low-rank overlay ``U @ V.T`` of one panel block.

    Attributes
    ----------
    shape:
        ``(m, n)`` of the block it approximates.
    u, v:
        The factors — ``u`` is ``(m, r)``, ``v`` is ``(n, r)``, both in
        the factor dtype, owned by the overlay (a handle pickles them as
        they are).
    """

    shape: tuple[int, int]
    u: np.ndarray
    v: np.ndarray

    @property
    def nrows(self) -> int:
        return int(self.shape[0])

    @property
    def ncols(self) -> int:
        return int(self.shape[1])

    @property
    def rank(self) -> int:
        """The retained rank ``r``."""
        return int(self.u.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self.u.dtype

    @property
    def value_nbytes(self) -> int:
        """Real byte cost of the low-rank payload (``U`` plus ``V``)."""
        return int(self.u.nbytes + self.v.nbytes)


def lr_profit_cap(m: int, n: int, nnz: int) -> int:
    """Largest rank at which the low-rank form is strictly smaller than
    the sparse payload: ``rank · (m + n) < nnz``.  0 means compression
    can never pay for this block."""
    if m + n <= 0:
        return 0
    return max(0, (int(nnz) - 1) // (m + n))


def _truncation_rank(s: np.ndarray, tol: float, max_rank: int) -> int:
    """Retained rank under a relative spectral tolerance: keep the
    singular values ``s[i] > tol · s[0]``, capped at ``max_rank``."""
    if s.size == 0 or s[0] <= 0.0:
        return 0
    keep = int(np.count_nonzero(s > tol * s[0]))
    return min(keep, int(max_rank))


def truncated_svd(
    dense: np.ndarray, tol: float, max_rank: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Rank-revealing truncation of ``dense`` to ``U @ V.T``.

    Exact LAPACK SVD in the input dtype (dtype-generic per the
    mixed-precision rules: a float32 block is compressed in float32, so
    planned/unplanned and local/remote arithmetic stay bit-identical).
    Returns ``(u, v)`` with ``u (m, r)``, ``v (n, r)`` and
    ``‖dense − u vᵀ‖₂ ≤ tol · ‖dense‖₂``, or ``None`` when no rank in
    ``[1, max_rank]`` meets the tolerance.
    """
    if max_rank < 1:
        return None
    try:
        uu, s, vt = np.linalg.svd(dense, full_matrices=False)
    except np.linalg.LinAlgError:  # no convergence: skip, keep exact CSC
        return None
    r = _truncation_rank(s, tol, max_rank)
    if r < 1:
        return None
    # the dropped spectrum must actually satisfy the bound — with the
    # rank capped for profitability the tail may still be heavy
    if s.size > r and s[r] > tol * s[0]:
        return None
    u = np.ascontiguousarray(uu[:, :r] * s[:r])
    v = np.ascontiguousarray(vt[:r, :].T)
    return u, v


def _probe_matrix(n: int, k: int, dtype: np.dtype) -> np.ndarray:
    """Deterministic Gaussian test matrix for the randomised range
    finder, seeded from the dimensions alone — every rank and every
    engine draws the identical probe for the same block shape, which is
    what keeps the compressed factors (and therefore the numeric
    factorisation) bit-identical across engines."""
    rng = np.random.default_rng(0x5EED ^ (n << 20) ^ k)
    return rng.standard_normal((n, k)).astype(dtype, copy=False)


def randomized_svd(
    dense: np.ndarray,
    tol: float,
    max_rank: int,
    *,
    oversample: int = 8,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Halko-style randomised truncation of ``dense`` to ``U @ V.T``.

    Range-finding with a deterministic seeded probe (one power
    iteration), then an exact SVD of the small projected matrix.  Same
    return contract as :func:`truncated_svd`; the tolerance check is
    performed on the projected spectrum plus the residual of the range
    capture, so an accepted result honours the bound.
    """
    if max_rank < 1:
        return None
    m, n = dense.shape
    k = min(min(m, n), int(max_rank) + int(oversample))
    if k < 1:
        return None
    omega = _probe_matrix(n, k, dense.dtype)
    y = dense @ omega
    y = dense @ (dense.T @ y)  # one power iteration sharpens the range
    q, _ = np.linalg.qr(y)
    b = q.T @ dense
    try:
        ub, s, vt = np.linalg.svd(b, full_matrices=False)
    except np.linalg.LinAlgError:
        return None
    r = _truncation_rank(s, tol, max_rank)
    if r < 1:
        return None
    if s.size > r and s[r] > tol * s[0]:
        return None
    # residual of the range capture: ‖A − QQᵀA‖_F relative to ‖A‖_F —
    # if the probe missed part of the range the projected spectrum lies
    norm_a = float(np.linalg.norm(dense))
    if norm_a > 0.0:
        resid = float(np.linalg.norm(dense - q @ b))
        if resid > tol * norm_a:
            return None
    u = np.ascontiguousarray((q @ ub[:, :r]) * s[:r])
    v = np.ascontiguousarray(vt[:r, :].T)
    return u, v

"""Block→process mapping: 2D block-cyclic layout plus the paper's static
time-slice load balancing (Section 4.2, Fig. 6c/d).

The default assignment is the classic block-cyclic rule
``owner(bi, bj) = (bi mod P) · Q + (bj mod Q)`` over a ``P × Q`` process
grid.  The balancer then walks the elimination steps ("time slices") in
order, tracking each process's cumulative weight (task weight = structural
FLOPs), and for each slice swaps *all* slice tasks between the process
with the highest cumulative weight and the process with the lowest weight
inside the slice — exactly the migration illustrated in Fig. 6(c), where a
GESSM hops from the overloaded process to the underloaded one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dag import TaskDAG

__all__ = [
    "ProcessGrid",
    "task_weights",
    "balance_loads",
    "load_imbalance",
    "check_rank_speeds",
]


@dataclass(frozen=True)
class ProcessGrid:
    """A ``P × Q`` logical process grid (``nprocs = P · Q``).

    :meth:`square` factors a process count into the most-square grid, the
    convention both PanguLU and SuperLU_DIST use.

    >>> ProcessGrid.square(6)
    ProcessGrid(p=2, q=3)
    >>> ProcessGrid.square(6).owner(3, 4)
    4
    """

    p: int
    q: int

    @property
    def nprocs(self) -> int:
        return self.p * self.q

    @classmethod
    def square(cls, nprocs: int) -> "ProcessGrid":
        """Most-square factorisation ``P × Q = nprocs`` with ``P ≤ Q``.

        ``P`` is the **largest divisor of** ``nprocs`` **not exceeding**
        ``√nprocs`` (so ``Q − P`` is minimal among exact
        factorisations): perfect squares give ``√n × √n``, 12 gives
        ``3 × 4``, and a prime count degenerates to the ``1 × n`` row —
        there is no padding, every ``nprocs`` is covered exactly.  The
        square root is taken with :func:`math.isqrt`: a float root can
        land *below* the true integer root for large perfect squares,
        which would silently skip the square factorisation.  Zero and
        negative counts are rejected.
        """
        if nprocs <= 0:
            raise ValueError(
                f"process count must be positive, got {nprocs}"
            )
        p = math.isqrt(int(nprocs))
        while nprocs % p:
            p -= 1
        return cls(p, nprocs // p)

    def owner(self, bi: int, bj: int) -> int:
        """Block-cyclic owner of block ``(bi, bj)``."""
        return (bi % self.p) * self.q + (bj % self.q)


def task_weights(dag: TaskDAG, f=None) -> np.ndarray:
    """Per-task balancing weights: structural FLOPs with a per-block
    traffic floor.

    Structural FLOP counts alone under-weight small tasks — a GETRF or
    panel update on a tiny (or ragged trailing) block can have *zero*
    structural FLOPs while still costing a kernel launch and the block's
    memory traffic, so a pure-FLOP balancer treats those tasks as free
    and the imbalance metric under-reports.  With the blocked structure
    ``f`` the floor is the task's target-block traffic (read + write of
    every stored entry); without it, a unit floor still keeps every task
    visible to the balancer.
    """
    table = dag.table
    w = table.flops.astype(np.float64)
    if f is None:
        return np.maximum(w, 1.0)
    slots = f.slots_of(table.bi, table.bj)
    floor = np.where(slots >= 0, 2.0 * f.slot_structure().nnz[slots], 1.0)
    return np.maximum(w, np.maximum(floor, 1.0))


def check_rank_speeds(speeds, nprocs: int) -> tuple[float, ...] | None:
    """Validated per-rank speed factors as a tuple of floats (``None``
    passes through — homogeneous ranks)."""
    if speeds is None:
        return None
    out = tuple(float(s) for s in speeds)
    if len(out) != nprocs:
        raise ValueError(f"got {len(out)} rank speeds for {nprocs} ranks")
    if any(s <= 0.0 for s in out):
        raise ValueError("rank speeds must be positive")
    return out


def balance_loads(
    dag: TaskDAG,
    placement,
    assignment: np.ndarray | None = None,
    *,
    max_rounds: int = 1,
    weights: np.ndarray | None = None,
    speeds=None,
) -> np.ndarray:
    """Static time-slice load balancing.

    Returns a (new) assignment array.  For each elimination step ``k`` in
    order: if the process with the highest cumulative weight also works in
    this slice, swap its slice tasks with those of the process carrying
    the lowest cumulative weight, provided the swap reduces the eventual
    spread.  Runs in preprocessing — the "small time overhead compared to
    numeric factorisation" the paper notes.

    ``placement`` is the :class:`repro.core.placement.PlacementPolicy`
    whose ``assign(dag)`` is the default ``assignment`` (a bare
    :class:`ProcessGrid` is a shape, not an owner map: wrap it in
    ``CyclicPlacement``).  ``weights`` overrides the per-task
    weights (see :func:`task_weights` for the flop-with-traffic-floor
    weighting the solver passes); the default is the raw structural FLOP
    count.  ``speeds`` supplies per-rank speed factors for heterogeneous
    machines: loads are then compared in *time* (weight ÷ speed of the
    executing rank), so a fast rank absorbs proportionally more work;
    ``None`` keeps the homogeneous behaviour bit-identical.
    """
    from .placement import require_placement

    nprocs = require_placement(placement).nprocs
    if assignment is None:
        assignment = placement.assign(dag)
    assignment = assignment.copy()
    if nprocs == 1:
        return assignment

    if weights is None:
        flops = dag.table.flops.astype(np.float64)
    else:
        flops = np.asarray(weights, dtype=np.float64)
        if flops.shape != (len(dag.tasks),):
            raise ValueError("weights must have one entry per task")
    speed = check_rank_speeds(speeds, nprocs)
    # 1/speed per rank; exact ones when homogeneous, so every product
    # below is bit-identical to the historical speed-free arithmetic
    inv = 1.0 / np.asarray(speed or (1.0,) * nprocs, dtype=np.float64)
    slices = dag.table.k
    nslices = int(slices.max()) + 1 if len(dag.tasks) else 0

    for _ in range(max_rounds):
        changed = False
        cumulative = np.zeros(nprocs, dtype=np.float64)
        for k in range(nslices):
            in_slice = np.flatnonzero(slices == k)
            if in_slice.size == 0:
                continue
            slice_w = np.zeros(nprocs, dtype=np.float64)
            np.add.at(
                slice_w, assignment[in_slice],
                flops[in_slice] * inv[assignment[in_slice]],
            )
            # migrate the heaviest movable tasks from the most loaded to
            # the least loaded process while that closes the gap ("tasks
            # with high weights are migrated to less loaded processes")
            for _attempt in range(in_slice.size):
                loads = cumulative + slice_w
                heavy = int(np.argmax(loads))
                light = int(np.argmin(loads))
                gap = float(loads[heavy] - loads[light])
                if heavy == light or gap <= 0.0:
                    break
                cand = in_slice[assignment[in_slice] == heavy]
                if cand.size == 0:
                    break
                # the best single migration halves the gap at most; pick
                # the heaviest task whose cost *on the light rank* does
                # not exceed the gap
                w = flops[cand] * inv[light]
                movable = cand[w <= gap]
                if movable.size == 0:
                    break
                t = int(movable[int(np.argmax(flops[movable]))])
                assignment[t] = light
                slice_w[heavy] -= flops[t] * inv[heavy]
                slice_w[light] += flops[t] * inv[light]
                changed = True
            cumulative += slice_w
        if not changed:
            break
    return assignment


def load_imbalance(
    dag: TaskDAG,
    assignment: np.ndarray,
    nprocs: int,
    *,
    weights: np.ndarray | None = None,
    speeds=None,
) -> float:
    """Imbalance metric ``max(load) / mean(load)`` (1.0 = perfect).

    ``weights`` overrides the per-task weights (default: structural
    FLOPs; see :func:`task_weights`), and must match what the balancer
    optimised for the metric to be meaningful.  With ``speeds`` the
    loads are speed-scaled times (weight ÷ executing rank's speed), the
    quantity a heterogeneous placement minimises.
    """
    loads = np.zeros(nprocs, dtype=np.float64)
    if weights is None:
        flops = dag.table.flops.astype(np.float64)
    else:
        flops = np.asarray(weights, dtype=np.float64)
    np.add.at(loads, assignment, flops)
    loads /= np.asarray(check_rank_speeds(speeds, nprocs) or 1.0)
    mean = loads.mean()
    return float(loads.max() / mean) if mean > 0 else 1.0

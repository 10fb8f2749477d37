"""Pluggable block→rank placement policies.

Block ownership used to be a single hardcoded formula — the 2D
block-cyclic rule ``owner(bi, bj) = (bi mod P)·Q + (bj mod Q)`` baked
into every layer that needed an owner (mapping, the distributed engine,
the solve-DAG builder, the simulator bridges).  That rule assumes
*homogeneous* ranks; on a machine where some ranks are 2× faster than
others it provably loses (Tzovas et al.), because every rank receives
the same share of blocks regardless of how fast it can retire them.

This module lifts ownership into a first-class :class:`PlacementPolicy`
with exactly two methods the rest of the stack consumes — ``owner(bi,
bj)`` and ``assign(dag)`` — so every layer asks the *policy* instead of
recomputing the formula (the ``no-direct-owner`` lint rule keeps it that
way):

* :class:`CyclicPlacement` — the paper's regular 2D block-cyclic grid,
  bit-identical to the historical ``ProcessGrid.owner`` behaviour.  The
  default everywhere.
* :class:`CostModelPlacement` — heterogeneous-aware placement: per-block
  costs are aggregated from :func:`repro.core.mapping.task_weights`
  (structural FLOPs floored by block traffic) and blocks are assigned
  greedily, heaviest first, to the rank with the least *time* — load
  divided by the rank's speed factor (LPT over speed-scaled loads).
  Rank speeds come from ``SolverOptions.rank_speeds`` or a
  :class:`repro.runtime.machine.Platform`'s ``rank_speeds``.

Both are deterministic: identical inputs produce identical ownership
maps, which the sync-free protocol (and the tests) rely on.

Ownership is *storage* placement: a task always runs on the rank owning
its target block (remote writes do not exist in the message protocol),
while :func:`repro.core.mapping.balance_loads` may still migrate tasks
in the simulator, where that restriction does not apply.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .mapping import ProcessGrid, check_rank_speeds, task_weights

__all__ = [
    "PlacementPolicy",
    "CyclicPlacement",
    "CostModelPlacement",
    "available_placements",
    "get_placement",
    "resolve_placement",
    "require_placement",
]


class PlacementPolicy(ABC):
    """Block→rank ownership policy.

    Subclasses set ``name`` (the registry/CLI identifier) and implement
    :meth:`owner`.  :meth:`prepare` is the optional fitting hook: it
    receives the factor DAG and the blocked structure before any owner
    query, so data-dependent policies can compute their map once.
    ``speeds`` carries the per-rank speed factors the policy (and the
    speed-aware load balancer) should honour; ``None`` means
    homogeneous ranks.
    """

    name: str = ""

    def __init__(self, nprocs: int, speeds=None) -> None:
        if nprocs < 1:
            raise ValueError("placement needs at least one rank")
        self._nprocs = int(nprocs)
        self.speeds = check_rank_speeds(speeds, self._nprocs)

    @property
    def nprocs(self) -> int:
        """Number of ranks blocks are placed onto."""
        return self._nprocs

    def prepare(self, dag=None, blocks=None) -> "PlacementPolicy":
        """Fit the policy to a factor DAG and/or blocked structure
        (no-op for data-independent policies).  Returns ``self``."""
        return self

    @abstractmethod
    def owner(self, bi: int, bj: int) -> int:
        """Owning rank of block ``(bi, bj)``."""

    def assign(self, dag) -> np.ndarray:
        """Task→rank assignment: every task runs on the owner of its
        target block (the protocol's no-remote-writes rule)."""
        return np.asarray(
            [self.owner(t.bi, t.bj) for t in dag.tasks], dtype=np.int64
        )


def require_placement(placement) -> PlacementPolicy:
    """``placement`` itself — after refusing anything that is not a
    policy, a bare :class:`~repro.core.mapping.ProcessGrid` included: it
    is the ``P × Q`` shape inside :class:`CyclicPlacement`, not an owner
    map of its own."""
    if not isinstance(placement, PlacementPolicy):
        raise TypeError(
            f"expected a PlacementPolicy, got {type(placement).__name__} "
            "— wrap a ProcessGrid as CyclicPlacement(grid)"
        )
    return placement


class CyclicPlacement(PlacementPolicy):
    """The paper's regular 2D block-cyclic placement over a ``P × Q``
    grid — bit-identical to the historical ``ProcessGrid.owner`` rule.

    >>> CyclicPlacement(ProcessGrid.square(6)).owner(3, 4)
    4
    """

    name = "cyclic"

    def __init__(self, grid: ProcessGrid | int, speeds=None) -> None:
        if isinstance(grid, int):
            grid = ProcessGrid.square(grid)
        self.grid = grid
        super().__init__(grid.nprocs, speeds)

    def owner(self, bi: int, bj: int) -> int:
        return self.grid.owner(bi, bj)


class CostModelPlacement(PlacementPolicy):
    """Cost-model-driven placement for heterogeneous ranks.

    :meth:`prepare` aggregates a per-block cost from the factor DAG
    (:func:`repro.core.mapping.task_weights` summed over each block's
    tasks — structural FLOPs floored by the block's memory traffic) and
    assigns blocks greedily, heaviest first, each to the rank whose
    speed-scaled load ``(load + w) / speed`` is smallest — the classic
    LPT heuristic over machine speeds.  Ties break to the lowest rank,
    and equal-weight blocks are processed in ``(bi, bj)`` order, so the
    map is fully deterministic.

    Without a DAG (``prepare(blocks=...)`` alone, the solve-only path),
    per-block costs fall back to block traffic (``2 · nnz``).  Blocks
    never seen by :meth:`prepare` fall back to the cyclic rule — every
    query has a well-defined owner.
    """

    name = "cost"

    def __init__(self, nprocs: int, speeds=None) -> None:
        super().__init__(nprocs, speeds)
        self._owners: dict[tuple[int, int], int] = {}
        self._fallback = CyclicPlacement(ProcessGrid.square(nprocs))

    def prepare(self, dag=None, blocks=None) -> "CostModelPlacement":
        costs: dict[tuple[int, int], float] = {}
        if dag is not None:
            w = task_weights(dag, blocks)
            for i, t in enumerate(dag.tasks):
                key = (t.bi, t.bj)
                costs[key] = costs.get(key, 0.0) + float(w[i])
        if blocks is not None:
            # storage traffic keeps read-only / untargeted blocks visible
            for bj in range(blocks.nb):
                rows, blks = blocks.blocks_in_column(bj)
                for bi, blk in zip(rows, blks):
                    costs.setdefault((int(bi), bj), 2.0 * float(blk.nnz))
        if not costs:
            raise ValueError(
                "CostModelPlacement.prepare needs a DAG or a blocked "
                "structure to cost blocks from"
            )
        speeds = self.speeds or (1.0,) * self.nprocs
        loads = [0.0] * self.nprocs
        owners: dict[tuple[int, int], int] = {}
        # heaviest first; (bi, bj) tiebreak for a deterministic map
        for key in sorted(costs, key=lambda k: (-costs[k], k)):
            w = costs[key]
            best = min(
                range(self.nprocs),
                key=lambda r: ((loads[r] + w) / speeds[r], r),
            )
            owners[key] = best
            loads[best] += w
        self._owners = owners
        return self

    def owner(self, bi: int, bj: int) -> int:
        got = self._owners.get((bi, bj))
        if got is None:
            return self._fallback.owner(bi, bj)
        return got


_PLACEMENTS: dict[str, type[PlacementPolicy]] = {
    "cyclic": CyclicPlacement,
    "cost": CostModelPlacement,
}


def available_placements() -> list[str]:
    """Sorted names of the registered placement policies."""
    return sorted(_PLACEMENTS)


def get_placement(name: str, nprocs: int, *, speeds=None) -> PlacementPolicy:
    """A fresh policy instance by registry name (``"cyclic"`` /
    ``"cost"``); raises with the known names on a miss."""
    try:
        cls = _PLACEMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown placement {name!r}; available: {available_placements()}"
        ) from None
    return cls(nprocs, speeds)


def resolve_placement(spec, nprocs: int, *, speeds=None) -> PlacementPolicy:
    """Normalise a placement spec — a registry name or an already-built
    :class:`PlacementPolicy` — to a policy instance for ``nprocs`` ranks.

    An instance is returned as-is after a rank-count consistency check
    (a policy fitted for a different rank count would silently misroute
    every block).
    """
    if isinstance(spec, PlacementPolicy):
        if spec.nprocs != nprocs:
            raise ValueError(
                f"placement {spec.name!r} was built for {spec.nprocs} "
                f"ranks, but {nprocs} were requested"
            )
        return spec
    return get_placement(spec, nprocs, speeds=speeds)

"""Execution-engine registry.

One engine = one pool *shape* for draining a task DAG through the one
lane driver (:func:`repro.runtime.lanes.run_lanes`): ranks over a
message transport × threads per rank.  The registry maps the
``SolverOptions.engine`` string to a callable with the uniform signature

``engine(blocks, dag, solver_options, *, recorder=None, placement=None,
pool=None) -> RunReport``

so the :class:`~repro.core.solver.PanguLU` facade (and the CLI's
``--engine`` flag) dispatch by name instead of special-casing worker
counts.  ``placement`` is the fitted
:class:`~repro.core.placement.PlacementPolicy` deciding block→rank
ownership for the multi-rank engines, ``pool`` the
:class:`~repro.runtime.distributed.RankPool` of resident ranks they run
on (a handle's, kept across its calls); the local engines ignore both.

Phase 5 has a parallel registry: the same names map to
*triangular-solve* engines with the signature

``tsolve_engine(blocks, tdag, b, solver_options, *, recorder=None,
placement=None, pool=None) -> (x, RunReport)``

registered via :func:`register_tsolve_engine` and dispatched by the
:class:`~repro.core.solver.Factorization` handle, so one
``SolverOptions.engine`` string governs both the factorisation and every
subsequent solve.  Given the same factors every engine produces the
bit-identical solution (each RHS segment's block products are summed in
a fixed order, whoever computed them); the factors themselves agree
across engines only to rounding,
because the factor DAG leaves the Schur updates of one block unordered.

The built-ins of both registries come from one table,
:data:`~repro.runtime.scheduler.ENGINE_SHAPES` — a new built-in is one
row there:

========== ===== ======= ============================================
name        ranks threads substrate
========== ===== ======= ============================================
sequential  no    no      one thread, one core (the reference)
threaded    no    yes     ``options.n_workers`` threads sharing a core
distributed yes   no      ``options.nprocs`` ranks over a transport
hybrid      yes   yes     ``options.nprocs`` ranks × ``options.n_workers``
                          threads per rank, each rank's pool draining
                          one shared core (HYLU-style mixed parallelism)
========== ===== ======= ============================================
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.numeric import factorize
from ..core.tsolve import tsolve_lanes
from .distributed import factorize_distributed, tsolve_distributed
from .scheduler import ENGINE_SHAPES, EventRecorder, RunReport

__all__ = [
    "register_engine",
    "get_engine",
    "available_engines",
    "register_tsolve_engine",
    "get_tsolve_engine",
    "available_tsolve_engines",
]


def _registry(kind: str) -> tuple[Callable, Callable, Callable]:
    """``(register, get, available)`` over one fresh ``name → engine``
    table; ``kind`` names it in the lookup error."""
    table: dict[str, Callable] = {}

    def register(name: str) -> Callable[[Callable], Callable]:
        """Decorator registering an engine under ``name`` (last wins)."""

        def deco(fn: Callable) -> Callable:
            table[name] = fn
            return fn

        return deco

    def get(name: str) -> Callable:
        """The engine registered under ``name``; raises with the list of
        known names on a miss."""
        try:
            return table[name]
        except KeyError:
            raise ValueError(
                f"unknown {kind} {name!r}; available: {available()}"
            ) from None

    def available() -> list[str]:
        """Sorted names of all registered engines."""
        return sorted(table)

    return register, get, available


register_engine, get_engine, available_engines = _registry("engine")
(
    register_tsolve_engine, get_tsolve_engine, available_tsolve_engines,
) = _registry("tsolve engine")


# ----------------------------------------------------------------------
# the built-ins: one adapter per phase, one registry entry per table row
# ----------------------------------------------------------------------

def _pool(options, uses_ranks: bool, uses_threads: bool) -> tuple[int, int]:
    """``(ranks, lanes per rank)`` of an engine shape under ``options``
    (0 ranks: in this process, no transport)."""
    return (
        options.nprocs if uses_ranks else 0,
        options.n_workers if uses_threads else 1,
    )


def _factor_engine(shape: tuple[bool, bool]) -> Callable:
    def engine(
        f, dag, options, *, recorder: EventRecorder | None = None,
        placement=None, pool=None,
    ) -> RunReport:
        ranks, lanes = _pool(options, *shape)
        if ranks:
            return factorize_distributed(
                f, dag, ranks, options=options.numeric, recorder=recorder,
                placement=placement, n_threads=lanes, pool=pool,
            )
        return factorize(
            f, dag, options.numeric, recorder=recorder, n_lanes=lanes,
        )

    return engine


def _tsolve_engine(shape: tuple[bool, bool]) -> Callable:
    def engine(
        f, tdag, b, options, *, recorder: EventRecorder | None = None,
        placement=None, pool=None,
    ) -> tuple:
        ranks, lanes = _pool(options, *shape)
        if ranks:
            return tsolve_distributed(
                f, tdag, b, ranks, recorder=recorder, placement=placement,
                n_threads=lanes, pool=pool,
            )
        return tsolve_lanes(f, tdag, b, n_lanes=lanes, recorder=recorder)

    return engine


for _name, _shape in ENGINE_SHAPES.items():
    register_engine(_name)(_factor_engine(_shape))
    register_tsolve_engine(_name)(_tsolve_engine(_shape))

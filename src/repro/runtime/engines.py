"""Execution-engine registry.

One engine = one way of draining the task DAG through the shared
:class:`~repro.runtime.scheduler.SchedulerCore`.  The registry maps the
``SolverOptions.engine`` string to a callable with the uniform signature

``engine(blocks, dag, solver_options, *, recorder=None, placement=None)
-> FactorizeStats``

so the :class:`~repro.core.solver.PanguLU` facade (and the CLI's
``--engine`` flag) dispatch by name instead of special-casing worker
counts.  ``placement`` is the fitted
:class:`~repro.core.placement.PlacementPolicy` deciding block→rank
ownership for the multi-rank engines (the local engines ignore it).  A
future engine — async, sharded, multi-backend — is a transport plus one
:func:`register_engine` call.

Phase 5 has a parallel registry: the same names map to
*triangular-solve* engines with the signature

``tsolve_engine(blocks, tdag, b, solver_options, *, recorder=None,
placement=None) -> (x, TSolveStats)``

registered via :func:`register_tsolve_engine` and dispatched by the
:class:`~repro.core.solver.Factorization` handle, so one
``SolverOptions.engine`` string governs both the factorisation and every
subsequent solve.  All engines produce bit-identical solutions (the
solve DAG totally orders each RHS segment's writers).

Built-ins (both registries):

========== ==========================================================
name        substrate
========== ==========================================================
sequential  one thread, one core (the correctness reference)
threaded    ``options.n_workers`` threads sharing one core
distributed ``options.nprocs`` ranks over a message transport
hybrid      ``options.nprocs`` ranks × ``options.n_workers`` threads
            per rank, each rank's thread pool draining one shared
            scheduler core (HYLU-style mixed parallelism)
========== ==========================================================
"""

from __future__ import annotations

from collections.abc import Callable

from ..core.numeric import FactorizeStats, factorize, resolve_plan_cache
from ..core.tsolve import tsolve_sequential
from .distributed import factorize_distributed, tsolve_distributed
from .scheduler import EventRecorder
from .threaded import factorize_threaded, tsolve_threaded

__all__ = [
    "register_engine",
    "get_engine",
    "available_engines",
    "register_tsolve_engine",
    "get_tsolve_engine",
    "available_tsolve_engines",
]

_ENGINES: dict[str, Callable] = {}


def register_engine(name: str) -> Callable[[Callable], Callable]:
    """Decorator registering an engine under ``name`` (last wins)."""

    def deco(fn: Callable) -> Callable:
        _ENGINES[name] = fn
        return fn

    return deco


def get_engine(name: str) -> Callable:
    """The engine registered under ``name``; raises with the list of
    known names on a miss."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {available_engines()}"
        ) from None


def available_engines() -> list[str]:
    """Sorted names of all registered engines."""
    return sorted(_ENGINES)


def _resolve_checker(options, label: str):
    """A fresh :class:`~repro.devtools.racecheck.RaceChecker` when the
    options (or the ``REPRO_CHECK`` environment variable) request
    concurrency validation, else ``None``."""
    from ..devtools.racecheck import RaceChecker, validation_enabled

    if not validation_enabled(options):
        return None
    return RaceChecker(label=label)


@register_engine("sequential")
def _sequential(
    f, dag, options, *, recorder: EventRecorder | None = None,
    placement=None,
) -> FactorizeStats:
    return factorize(
        f, dag, options.numeric, recorder=recorder,
        checker=_resolve_checker(options, "sequential"),
    )


@register_engine("threaded")
def _threaded(
    f, dag, options, *, recorder: EventRecorder | None = None,
    placement=None,
) -> FactorizeStats:
    return factorize_threaded(
        f, dag, options.numeric,
        n_workers=max(1, options.n_workers), recorder=recorder,
        checker=_resolve_checker(options, "threaded"),
    )


@register_engine("distributed")
def _distributed(
    f, dag, options, *, recorder: EventRecorder | None = None,
    placement=None, n_threads: int = 1,
) -> FactorizeStats:
    from ..devtools.racecheck import validation_enabled

    return factorize_distributed(
        f, dag, max(1, options.nprocs),
        options=options.numeric, recorder=recorder,
        validate=validation_enabled(options), placement=placement,
        n_threads=n_threads,
    )


@register_engine("hybrid")
def _hybrid(
    f, dag, options, *, recorder: EventRecorder | None = None,
    placement=None,
) -> FactorizeStats:
    return _distributed(
        f, dag, options, recorder=recorder, placement=placement,
        n_threads=max(1, options.n_workers),
    )


# ----------------------------------------------------------------------
# phase-5 triangular-solve engines
# ----------------------------------------------------------------------

_TSOLVE_ENGINES: dict[str, Callable] = {}


def register_tsolve_engine(name: str) -> Callable[[Callable], Callable]:
    """Decorator registering a triangular-solve engine (last wins)."""

    def deco(fn: Callable) -> Callable:
        _TSOLVE_ENGINES[name] = fn
        return fn

    return deco


def get_tsolve_engine(name: str) -> Callable:
    """The solve engine registered under ``name``; raises with the list
    of known names on a miss."""
    try:
        return _TSOLVE_ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown tsolve engine {name!r}; "
            f"available: {available_tsolve_engines()}"
        ) from None


def available_tsolve_engines() -> list[str]:
    """Sorted names of all registered triangular-solve engines."""
    return sorted(_TSOLVE_ENGINES)


@register_tsolve_engine("sequential")
def _tsolve_sequential(
    f, tdag, b, options, *, recorder: EventRecorder | None = None,
    placement=None,
) -> tuple:
    return tsolve_sequential(
        f, b, tdag=tdag, plans=resolve_plan_cache(f, options.numeric),
        recorder=recorder,
        checker=_resolve_checker(options, "tsolve-sequential"),
    )


@register_tsolve_engine("threaded")
def _tsolve_threaded(
    f, tdag, b, options, *, recorder: EventRecorder | None = None,
    placement=None,
) -> tuple:
    return tsolve_threaded(
        f, tdag, b, n_workers=max(1, options.n_workers),
        plans=resolve_plan_cache(f, options.numeric), recorder=recorder,
        checker=_resolve_checker(options, "tsolve-threaded"),
    )


@register_tsolve_engine("distributed")
def _tsolve_distributed(
    f, tdag, b, options, *, recorder: EventRecorder | None = None,
    placement=None, n_threads: int = 1,
) -> tuple:
    from ..devtools.racecheck import validation_enabled

    return tsolve_distributed(
        f, tdag, b, max(1, options.nprocs),
        use_plans=options.numeric.use_plans, recorder=recorder,
        validate=validation_enabled(options), placement=placement,
        n_threads=n_threads,
    )


@register_tsolve_engine("hybrid")
def _tsolve_hybrid(
    f, tdag, b, options, *, recorder: EventRecorder | None = None,
    placement=None,
) -> tuple:
    return _tsolve_distributed(
        f, tdag, b, options, recorder=recorder, placement=placement,
        n_threads=max(1, options.n_workers),
    )

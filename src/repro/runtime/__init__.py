"""Distributed heterogeneous runtime substrate: the shared scheduler
core, platform/network models, kernel cost models, the discrete-event
simulator, the real threaded and distributed synchronisation-free
executors with pluggable transports, the engine registry, and
Chrome-trace export of simulated *and* real runs.

Re-exports resolve lazily (PEP 562): :mod:`repro.core` depends on
:mod:`repro.runtime.scheduler`, and the executors here depend on
:mod:`repro.core` — loading submodules on attribute access instead of at
package import keeps that mutual dependency acyclic.
"""

_EXPORTS = {
    # machine / cost models
    "Device": ".machine",
    "Platform": ".machine",
    "A100_PLATFORM": ".machine",
    "MI50_PLATFORM": ".machine",
    "CPU_PLATFORM": ".machine",
    "SimTask": ".costmodel",
    "VariantProfile": ".costmodel",
    "VARIANT_PROFILES": ".costmodel",
    "kernel_time": ".costmodel",
    "best_version": ".costmodel",
    "extract_sim_tasks": ".costmodel",
    "partition_flop_stats": ".costmodel",
    "simulated_trees": ".costmodel",
    "BYTES_PER_ENTRY": ".costmodel",
    # simulator + bridges
    "SimSpec": ".simulator",
    "SimResult": ".simulator",
    "simulate": ".simulator",
    "PanguLUSimulation": ".adapters",
    "simulate_pangulu": ".adapters",
    "simulate_tsolve": ".adapters",
    "price_tasks": ".adapters",
    # scheduler core + events
    "SchedulerCore": ".scheduler",
    "RunReport": ".scheduler",
    "EventRecorder": ".scheduler",
    "ready_entry": ".scheduler",
    # tracing
    "to_chrome_trace": ".trace",
    "write_chrome_trace": ".trace",
    "recorder_to_chrome_trace": ".trace",
    "write_recorder_trace": ".trace",
    # engines + transports
    "register_engine": ".engines",
    "get_engine": ".engines",
    "available_engines": ".engines",
    "register_tsolve_engine": ".engines",
    "get_tsolve_engine": ".engines",
    "available_tsolve_engines": ".engines",
    "Transport": ".transports",
    "MultiprocessingTransport": ".transports",
    "LoopbackTransport": ".transports",
    "FaultPlan": ".transports",
    "InjectedFault": ".transports",
    "factorize_distributed": ".distributed",
    "tsolve_distributed": ".distributed",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name, __name__), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))

"""Harness-side tracing: spans around the calls into each layer.

Nothing under ``src/`` is edited.  While a traced run is active, wrappers
are installed — and removed again in a ``finally`` — on the public
callables *where the facade looks them up*: the names imported into
``repro.core.solver``, the engine and tsolve-engine registry entries,
``Factorization.apply/solve/refactorize`` and ``CSCMatrix.matvec/matmat``.
``SolverOptions(trace_events=True)`` makes the program's own
``EventRecorder`` supply the per-task spans underneath the engine span.

A span is ``{name, layer, start, end, parent, run_id}``; spans stay in
memory and are written once, as a Chrome trace, when the run ends.  A
span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import repro.core.solver as solver_mod
from repro.core.memory import memory_report
from repro.core.solver import Factorization
from repro.kernels.plans import PLANNABLE_VERSIONS
from repro.runtime import engines as engines_mod
from repro.sparse import CSCMatrix

import probes
from measure import Ops, cold_pipeline, newton_step, warm_up
from workloads import Inputs

KERNEL_FAMILIES = ("GETRF", "GESSM", "TSTRF", "SSSSM")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float | None
    parent: int | None
    run_id: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store with a stack of open spans (main thread only:
    every wrapped callable is called by the facade, never by a worker)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        idx = len(self.spans)
        sp = Span(name, layer, time.perf_counter(), None,
                  self._open[-1] if self._open else None, self.run_id)
        self.spans.append(sp)
        self._open.append(idx)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)

        return traced

    # -- queries ---------------------------------------------------------
    def children(self, idx: int) -> list[Span]:
        return [s for s in self.spans if s.parent == idx]

    def self_seconds(self, idx: int) -> float:
        return self.spans[idx].seconds - sum(c.seconds for c in self.children(idx))

    def named(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.name == name]

    def median(self, name: str) -> float:
        """Median duration of the spans called ``name``."""
        return statistics.median(self.spans[i].seconds for i in self.named(name))

    def unattributed_frac(self, name: str) -> float:
        """Worst share of a ``name`` span not covered by child spans."""
        return max(self.self_seconds(i) / self.spans[i].seconds
                   for i in self.named(name))


# the names the facade imported into its own module, and their layers
_SOLVER_CALLABLES = {
    "mc64": "ordering",
    "nested_dissection": "ordering",
    "symbolic_symmetric": "symbolic",
    "build_dag": "core.dag",
    "resolve_placement": "core.placement",
    "balance_loads": "core.mapping",
    "build_tsolve_dag": "core.tsolve_dag",
}
_METHODS = (
    (Factorization, "apply", "core.tsolve"),
    (Factorization, "solve", "core.solver"),
    (Factorization, "refactorize", "core.solver"),
    (CSCMatrix, "matvec", "sparse"),
    (CSCMatrix, "matmat", "sparse"),
)


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers; every one is removed again on exit."""
    attrs: list[tuple[object, str, object]] = []
    factor_engines = {n: engines_mod.get_engine(n)
                      for n in engines_mod.available_engines()}
    tsolve_engines = {n: engines_mod.get_tsolve_engine(n)
                      for n in engines_mod.available_tsolve_engines()}

    def patch(obj, attr: str, replacement) -> None:
        attrs.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    get_strategy = solver_mod.get_blocking_strategy

    def traced_get_strategy(*args, **kwargs):
        strategy = get_strategy(*args, **kwargs)
        strategy.partition = tracer.wrap(
            strategy.partition, "partition", "core.blocking"
        )
        return strategy

    try:
        for name, layer in _SOLVER_CALLABLES.items():
            patch(solver_mod, name,
                  tracer.wrap(getattr(solver_mod, name), name, layer))
        patch(solver_mod, "get_blocking_strategy", traced_get_strategy)
        for cls, name, layer in _METHODS:
            patch(cls, name,
                  tracer.wrap(getattr(cls, name), f"{cls.__name__}.{name}", layer))
        for name, fn in factor_engines.items():
            engines_mod.register_engine(name)(
                tracer.wrap(fn, f"engine:{name}", "core.numeric"))
        for name, fn in tsolve_engines.items():
            engines_mod.register_tsolve_engine(name)(
                tracer.wrap(fn, f"tsolve:{name}", "core.tsolve"))
        yield
    finally:
        for obj, attr, original in reversed(attrs):
            setattr(obj, attr, original)
        for name, fn in factor_engines.items():
            engines_mod.register_engine(name)(fn)
        for name, fn in tsolve_engines.items():
            engines_mod.register_tsolve_engine(name)(fn)


# ----------------------------------------------------------------------
# Chrome trace
# ----------------------------------------------------------------------

def write_chrome_trace(path: Path, tracer: Tracer, recorder=None) -> None:
    """Harness spans on lane 0 of pid 0; the program's own task events
    (one lane per worker/rank) on pid 1."""
    t0 = min(s.start for s in tracer.spans)
    events = [
        {
            "name": s.name, "cat": s.layer, "ph": "X", "pid": 0, "tid": 0,
            "ts": (s.start - t0) * 1e6, "dur": s.seconds * 1e6,
            "args": {"span": i, "parent": s.parent, "run_id": s.run_id},
        }
        for i, s in enumerate(tracer.spans)
    ]
    if recorder is not None:
        events += [
            {
                "name": e.name, "cat": e.cat, "ph": "X", "pid": 1,
                "tid": e.worker, "ts": (e.t0 - t0) * 1e6,
                "dur": (e.t1 - e.t0) * 1e6, "args": {"task": e.tid},
            }
            for e in recorder.task_events
        ]
    path.write_text(json.dumps(events))


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------

def kernel_seconds(recorder) -> tuple[dict[str, float], int]:
    """Σ task spans by kernel family, and the number of lanes used."""
    by_family = dict.fromkeys(KERNEL_FAMILIES, 0.0)
    lanes = set()
    for e in recorder.task_events:
        if e.cat in by_family:
            by_family[e.cat] += e.t1 - e.t0
            lanes.add(e.worker)
    return by_family, max(1, len(lanes))


def kernel_shares(stats) -> dict[str, float]:
    """Regime split of the selector's choices (``TYPE/VERSION`` labels)."""
    plannable = {
        f"{ktype.value}/{v}"
        for ktype, versions in PLANNABLE_VERSIONS.items() for v in versions
    }
    n = max(1, len(stats.kernel_choices))
    sparse = sum(label in plannable for label in stats.kernel_choices.values())
    return {
        "kernels.share_sparse": sparse / n,
        "kernels.share_dense_mapped": 1.0 - sparse / n,
        "kernels.share_planned": stats.planned_tasks / n,
    }


def run_traced(inp: Inputs, *, trace_path: Path) -> tuple[Ops, dict[str, float]]:
    """One workload's traced run.  Returns the operation counts and the
    per-layer metric values by name."""
    wl = inp.workload
    med = statistics.median

    # reference round with tracing off: what trace.overhead_frac, the
    # anchor ratios and the probes' "over sequential" ratios are against,
    # and this run's reading of the ungated end-to-end timings
    warm_up(inp)
    ref = Ops(inp)
    newton_step(ref, cold_pipeline(ref, wl.options()).factorize(), 0)

    tracer = Tracer()
    ops = Ops(inp, tracer=tracer)
    with installed(tracer), tracer.span("round", "harness"):
        solver = cold_pipeline(ops, wl.options(trace_events=True))
        fact = solver.factorize()
        cold_stats = fact.stats
        newton_step(ops, fact, 0)
        ops.run("apply_s", lambda: fact.apply(inp.b))
        ops.run("apply_rhs16_s", lambda: fact.apply(inp.b16))
    tracer.run_id = 1      # the probes' spans
    kernel_s, lanes = kernel_seconds(solver.recorder)
    (engine,) = tracer.children(tracer.named("numeric_s")[0])

    s = {name: med(v) for name, v in ops.samples.items()}
    r = {name: med(v) for name, v in ref.samples.items()}
    sym, blocks, dag = solver.symbolic, solver.blocks, solver.dag
    mem = memory_report(blocks)
    matvec_per_solve = [
        sum(c.seconds for c in tracer.children(i) if c.layer == "sparse")
        for i in tracer.named("Factorization.solve")
    ]
    values = {
        **{name: r[name] for name in
           ("time_to_solution_s", "numeric_s", "refactorize_s", "solve_s",
            "solve_rhs16_s")},
        "sparse.generate_s": inp.generate_s,
        "sparse.matvec_s": med(matvec_per_solve),
        "ordering.mc64_s": tracer.median("mc64"),
        "ordering.nd_s": tracer.median("nested_dissection"),
        "ordering.fill_ratio": sym.nnz_lu / inp.a.nnz,
        "symbolic.fill_s": tracer.median("symbolic_symmetric"),
        "symbolic.nnz_lu": sym.nnz_lu,
        "blocking.partition_s": tracer.median("partition"),
        "blocking.block_order": blocks.max_block_order,
        "blocking.blocks_nonempty": blocks.num_blocks,
        "blocking.arena_bytes": blocks.arena.nbytes,
        "dag.build_s": tracer.median("build_dag"),
        "dag.tasks": len(dag),
        "dag.total_flops": dag.total_flops,
        "dag.critical_path_frac": dag.critical_path_flops() / dag.total_flops,
        **{f"numeric.kernel_s.{fam}": v for fam, v in kernel_s.items()},
        "numeric.overhead_s": engine.seconds - sum(kernel_s.values()) / lanes,
        "numeric.planned_tasks": cold_stats.planned_tasks,
        "numeric.plan_bytes": mem.plan_bytes,
        "numeric.pivots_replaced": cold_stats.pivots_replaced,
        "numeric.warm_over_cold": s["refactorize_s"] / s["numeric_s"],
        **kernel_shares(cold_stats),
        "tsolve.apply_s": s["apply_s"],
        "tsolve.apply_rhs16_s": s["apply_rhs16_s"],
        "tsolve.first_solve_extra_s": s["first_solve_s"] - s["solve_s"],
        "tsolve.tasks": fact.last_tsolve_stats.tasks_executed,
        "refine.self_s": s["solve_s"] - s["apply_s"],
        "memory.total_bytes": mem.total_bytes,
        "memory.layer1_overhead": mem.layer1_overhead,
        "anchor.splu_factor_s": inp.splu_factor_s,
        "anchor.splu_solve_s": inp.splu_solve_s,
        "anchor.tts_over_splu":
            r["time_to_solution_s"] / (inp.splu_factor_s + inp.splu_solve_s),
        "anchor.solve_over_splu": r["solve_s"] / inp.splu_solve_s,
        "trace.overhead_frac":
            s["time_to_solution_s"] / r["time_to_solution_s"] - 1.0,
        "trace.unattributed_frac": max(
            tracer.unattributed_frac("setup_s"),
            tracer.unattributed_frac("numeric_s"),
        ),
    }
    values.update(probes.run_all(solver, ops, r["numeric_s"]))
    values["refine.backward_error_max"] = ops.backward_error_max
    values["refine.fwd_err_vs_splu_max"] = ops.forward_error_max
    write_chrome_trace(trace_path, tracer, solver.recorder)
    return ops, values

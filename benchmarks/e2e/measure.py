"""The untraced timing run: closed loop, one client, this process.

What a user of a direct solver does for one pattern:

* a **cold pipeline** on a fresh ``PanguLU`` — ``preprocess()`` (reorder +
  symbolic + preprocess), ``factorize()`` (plans built lazily inside),
  first ``solve(b)``;
* a **Newton step** on that handle — ``refactorize(a_k)`` with the values
  perturbed, ``WARM_SOLVES`` warm single-RHS solves and one 16-column
  solve.

A run is cold pipelines back to back for ``--seconds`` — the gated metrics
are what the run's time is spent on, six or more samples each, so that a
burst of machine noise shorter than half the run does not move their
medians — and one Newton step, on the first pipeline's handle, for the
ungated timings.  Between the pipelines runs the **anchor**: ``scipy``'s
SuperLU (``splu``) factors the same matrix and solves the same right-hand
side.  The box this runs on changes speed by tens of percent for minutes
at a time; ``tts_over_splu`` — each pipeline's time to solution over the
anchor's, taken just before and just after it — is the reading of
``time_to_solution_s`` that such a spell cancels out of, and the one that
is gated.  ``run.py`` reports each metric's median.  Every solve is checked
against ``splu``'s solution and the residual rule; an operation that raises
or fails its check is counted and contributes no timing sample.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext

import numpy as np
import scipy.sparse.linalg as spla

from repro import PanguLU

from workloads import Inputs, make_inputs

RESIDUAL_TOL = 1e-10    # ‖b − A x‖ / ‖b‖
FORWARD_TOL = 1e-8      # ‖x − x_splu‖ / ‖x_splu‖
MIN_PIPELINES = 3       # the issue's R, however short ``--seconds``
#: ... of which the last is dropped once a run has taken this many times
#: ``--seconds``: a slow spell, and the driver caps the sum of all runs
OVERRUN = 1.5
WARM_SOLVES = 2
ANCHOR_SECONDS = 0.3    # one anchor sample repeats splu for about this long


def solution_errors(inp: Inputs, x: np.ndarray, k: int) -> tuple[float, float]:
    """``(backward, forward)`` error of ``x`` for matrix ``k`` (-1 is the
    base matrix, ``k >= 0`` a Newton step), worst column of a panel."""
    multi = x.ndim == 2
    b = inp.b16 if multi else inp.b
    ref = inp.x16_ref[k] if multi else inp.x_ref[k]
    r = b - inp.a_sp[k] @ x
    backward = np.linalg.norm(r, axis=0) / np.linalg.norm(b, axis=0)
    forward = np.linalg.norm(x - ref, axis=0) / np.linalg.norm(ref, axis=0)
    return float(np.max(backward)), float(np.max(forward))


class Ops:
    """Timing samples plus the attempted/failed operation count."""

    def __init__(self, inp: Inputs, tracer=None) -> None:
        self.inp = inp
        self.tracer = tracer    # layers.Tracer: one span per operation
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.backward_error_max = 0.0
        self.forward_error_max = 0.0
        self.last_end = 0.0

    def run(self, name: str, fn, *, solves: int | None = None):
        """Time ``fn()`` as one operation.  With ``solves=k`` the result
        is a solution of matrix ``k`` and is checked.  Returns the result,
        or ``None`` if the operation failed (no sample is kept)."""
        self.attempted += 1
        span = self.tracer.span(name, "harness") if self.tracer else nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.last_end = time.perf_counter()
        if solves is not None and not self.accept(out, solves):
            self.failed += 1
            return None
        self.samples[name].append(self.last_end - t0)
        return out

    def accept(self, x, k: int) -> bool:
        if not isinstance(x, np.ndarray) or not np.all(np.isfinite(x)):
            return False
        backward, forward = solution_errors(self.inp, x, k)
        self.backward_error_max = max(self.backward_error_max, backward)
        self.forward_error_max = max(self.forward_error_max, forward)
        return backward <= RESIDUAL_TOL and forward <= FORWARD_TOL


def cold_pipeline(ops: Ops, options):
    """Fresh solver → factorize → first solve.  Returns the solver (or
    ``None`` once a step failed); ``time_to_solution_s`` gets a sample
    only when all three steps succeeded."""
    inp = ops.inp
    t0 = time.perf_counter()
    solver = PanguLU(inp.a, options)
    if ops.run("setup_s", solver.preprocess) is None:
        return None
    fact = ops.run("numeric_s", solver.factorize)
    if fact is None:
        return None
    if ops.run("first_solve_s", lambda: fact.solve(inp.b), solves=-1) is None:
        return None
    ops.samples["time_to_solution_s"].append(ops.last_end - t0)
    return solver


def newton_step(ops: Ops, fact, k: int) -> None:
    """Refactorize with value set ``k``, then warm solves against it."""
    inp = ops.inp
    if ops.run("refactorize_s", lambda: fact.refactorize(inp.newton[k])) is None:
        return
    for _ in range(WARM_SOLVES):
        ops.run("solve_s", lambda: fact.solve(inp.b), solves=k)
    ops.run("solve_rhs16_s", lambda: fact.solve(inp.b16), solves=k)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its largest reaped child (the
    distributed engine's ranks), in MB."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def warm_up(inp: Inputs) -> None:
    """One unrecorded round on the workload's smoke-scale matrix: imports,
    numpy's lazy set-up and the engine's own first-use costs are paid once
    per process, not by the first sample."""
    small = make_inputs(inp.workload, inp.seed, smoke=True)
    ops = Ops(small)
    newton_step(ops, cold_pipeline(ops, small.workload.options()).factorize(), 0)


def splu_anchor(ops: Ops, reps: int) -> float:
    """``scipy``'s SuperLU on the workload's matrix and right-hand side,
    factor + solve: seconds per repetition."""
    inp = ops.inp
    t0 = time.perf_counter()
    for _ in range(reps):
        spla.splu(inp.a_sp[-1]).solve(inp.b)
    seconds = (time.perf_counter() - t0) / reps
    ops.samples["splu_tts_s"].append(seconds)
    return seconds


def another_pipeline(done: int, elapsed: float, longest: float,
                     seconds: float) -> bool:
    """One always; ``MIN_PIPELINES`` unless the run has overrun ``seconds``
    by ``OVERRUN``; then while one as long as the longest so far still
    fits."""
    if done < MIN_PIPELINES:
        return done == 0 or elapsed < OVERRUN * seconds
    return elapsed + longest <= seconds


def run_untraced(inp: Inputs, seconds: float) -> Ops:
    """Cold pipelines while they fit into ``seconds`` (``MIN_PIPELINES`` at
    least), the anchor between them, one Newton step after the first."""
    wl = inp.workload
    warm_up(inp)
    ops = Ops(inp)
    reps = max(1, round(ANCHOR_SECONDS / (inp.splu_factor_s + inp.splu_solve_s)))
    t_start = time.perf_counter()
    done = 0
    longest = 0.0
    before = splu_anchor(ops, reps)
    while another_pipeline(done, time.perf_counter() - t_start, longest, seconds):
        gc.collect()
        t0 = time.perf_counter()
        solver = cold_pipeline(ops, wl.options())
        longest = max(longest, time.perf_counter() - t0)
        after = splu_anchor(ops, reps)
        if solver is not None:
            ops.samples["tts_over_splu"].append(
                ops.samples["time_to_solution_s"][-1] / ((before + after) / 2)
            )
        if done == 0:
            if solver is not None:
                newton_step(ops, solver.factorize(), 0)
            # after a fixed amount of work, so that the reading does not
            # depend on how many pipelines the machine fitted into the run
            ops.samples["peak_rss_mb"].append(peak_rss_mb())
            after = splu_anchor(ops, reps)
        del solver      # freed before the next pipeline builds its own
        before = after
        done += 1
    return ops

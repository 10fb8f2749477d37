#!/usr/bin/env python3
"""Where does one solve (phase 5) spend its time?

``python scripts/profile_solve.py MATRIX [--scale S] [--top N]`` runs one
unrecorded warm-up pipeline (imports, BLAS start-up), then a fresh
``preprocess`` + ``factorize`` and prints, for that handle's first solve
and for a warm one after it, the split of ``Factorization.solve``: the
solve-DAG build, the diagonal products (``diag_seg``), the block
products (``segment_products``), what the lane driver and
``Factorization.apply`` spend around them, and the refinement (the
residuals and any further sweeps) — with the ``trtri`` calls the solve
made and the bytes of the kept diagonal inverses
(``memory_report(...).inverse_bytes``; a rank engine keeps them on its
ranks, where this count does not see them).  Then the cProfile top-N by
internal time of the first solve of another fresh handle and of a warm
solve.  cProfile taxes every Python call but not the work inside numpy,
so the table finds candidates; the numbers that count are the
unprofiled seconds and the repo benchmark's ``solve_s`` (``make
bench-e2e``).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.core.solver as solver_mod  # noqa: E402
import repro.core.tsolve as tsolve_mod  # noqa: E402
import repro.kernels.base as base_mod  # noqa: E402
from repro import PanguLU  # noqa: E402
from repro.core.memory import memory_report  # noqa: E402
from repro.core.solver import Factorization  # noqa: E402
from repro.sparse import generate  # noqa: E402

#: (owner, attribute, label) of the timed calls, outermost last
_TIMED = (
    (solver_mod, "build_tsolve_dag", "solve-DAG build"),
    (tsolve_mod, "diag_seg", "diagonal products"),
    (tsolve_mod, "segment_products", "block products"),
    (base_mod, "_trtri", "trtri"),
    (Factorization, "apply", "apply"),
    (Factorization, "solve", "solve"),
)


@contextmanager
def timed_calls():
    """Seconds and calls per label of :data:`_TIMED` while inside."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    saved = []

    def wrap(fn, label):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[label] += time.perf_counter() - t0
                calls[label] += 1
        return timed

    for owner, name, label in _TIMED:
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrap(getattr(owner, name), label))
    try:
        yield seconds, calls
    finally:
        for owner, name, fn in saved:
            setattr(owner, name, fn)


def fresh_handle(a, options=None):
    solver = PanguLU(a, options)
    solver.preprocess()
    return solver.factorize()


def report_solve(label: str, fact, b) -> None:
    with timed_calls() as (seconds, calls):
        fact.solve(b)
    parts = ["solve-DAG build", "diagonal products", "block products"]
    rows = [(p, seconds[p], calls[p]) for p in parts]
    rows.append(("lane driver and apply", seconds["apply"] - sum(s for _, s, _ in rows),
                 calls["apply"]))
    rows.append(("refinement", seconds["solve"] - seconds["apply"],
                 len(fact.last_tsolve_stats.residual_history)))
    rows.append(("solve", seconds["solve"], calls["solve"]))
    print(f"{label}: {calls['trtri']} trtri call(s)")
    for name, s, n in rows:
        print(f"  {name:<24s}{s * 1e3:9.2f} ms  ({n} call(s))")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("matrix", help="generator name (repro.sparse.paper_matrix_names())")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--top", type=int, default=15)
    args = ap.parse_args(argv)

    a = generate(args.matrix, scale=args.scale, seed=0)
    b = np.random.default_rng(0).standard_normal(a.nrows)
    fresh_handle(a).solve(b)                     # warm-up
    fact = fresh_handle(a)
    print(f"{args.matrix} x{args.scale}: n = {a.nrows}, "
          f"segments = {fact.blocks.nb}, blocks = {fact.blocks.num_blocks}")
    report_solve("first solve", fact, b)
    report_solve("warm solve", fact, b)
    print(f"kept inverses: {memory_report(fact.blocks).inverse_bytes} B")

    fact = fresh_handle(a)
    for label in ("first solve", "warm solve"):
        print(f"cProfile, {label}:")
        profile = cProfile.Profile()
        profile.runcall(fact.solve, b)
        pstats.Stats(profile).sort_stats("tottime").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Where does ``PanguLU.preprocess()`` spend its time?

``python scripts/profile_setup.py MATRIX [--scale S] [--top N]`` runs one
unrecorded warm-up ``preprocess()`` (imports, numpy's lazy set-up), then
prints the order phase 1 kept (``PanguLU.ordering_kept``: the asked
order, or the input order when the asked one passed the input order's
envelope) and the ``phase_seconds`` of a second, unprofiled one — with phase 1
(``reorder``) split into MC64, the fill-reducing ordering and the
``permute`` calls by timing wrappers, and the ordering split again into
the AMD core (seconds, calls, pivots), nested dissection's one batch of
minimum-degree leaves (seconds, leaves, vertices) and its
pseudo-peripheral level-structure searches (seconds, searches, BFS runs)
— and each ``symbolic_symmetric`` call on its
own line: its seconds, whether it was the capped pass (phase 1's
envelope test) or the kept one (phase 2's result), the column a tripped
cap reached, and the kept pass split into symmetrise / column sweep /
assembly — then the cProfile top-N by cumulative time of a third.
cProfile taxes every Python call but not the work inside numpy, so the
table finds candidates; the numbers that count are the unprofiled phase
seconds and the repo benchmark's ``setup_s`` (``make bench-e2e``).
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import pstats
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import repro.core.solver as solver_mod  # noqa: E402
import repro.ordering.nd as nd_mod  # noqa: E402
import repro.symbolic.fill as fill_mod  # noqa: E402
from repro import PanguLU  # noqa: E402
from repro.analysis import describe_ordering  # noqa: E402
from repro.sparse import CSCMatrix, generate  # noqa: E402

# the package re-exports the function `amd` under the submodule's name
amd_mod = importlib.import_module("repro.ordering.amd")
rcm_mod = importlib.import_module("repro.ordering.rcm")


@contextmanager
def timed_calls(targets, tallies=None):
    """Wrap each ``(owner, attribute)`` in a wall-clock accumulator for
    the duration of the block; yields ``{attribute: [seconds, calls,
    tallied, tallied]}``, where the two ``tallied`` sum the pair
    ``tallies[attribute](result)`` over the calls (0 without a tally) and
    owners sharing an attribute name share its entry.  The phase-1 code looks these names up when it calls
    them, the way the benchmark harness relies on."""
    tallies = tallies or {}
    stats = {attr: [0.0, 0, 0, 0] for _, attr in targets}
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]

    def wrap(attr, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            entry = stats[attr]
            entry[0] += time.perf_counter() - t0
            entry[1] += 1
            if attr in tallies:
                first, second = tallies[attr](result)
                entry[2] += first
                entry[3] += second
            return result
        return timed

    for owner, attr, fn in originals:
        setattr(owner, attr, wrap(attr, fn))
    try:
        yield stats
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


@contextmanager
def symbolic_passes():
    """Record every ``symbolic_symmetric`` call phase 1 makes (looked up in
    ``repro.core.solver``) for the duration of the block; yields a list of
    ``{"seconds", "limit", "kept", "symmetrise", "sweep", "reached", "n"}``
    per call.  ``symmetrise`` / ``sweep`` time the two helpers where
    ``repro.symbolic.fill`` looks them up.  For a pass whose cap tripped,
    ``reached`` is the column whose structure pushed the running count
    past the cap, found when the block exits by an uncapped sweep, so
    the phase timers never see it."""
    passes: list[dict] = []
    symbolic, symmetrise, sweep = (solver_mod.symbolic_symmetric,
                                   fill_mod.symmetrize_pattern, fill_mod.column_structures)

    def part(name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            passes[-1][name] += time.perf_counter() - t0
            return result
        return timed

    def timed_symbolic(a, *, limit=None):
        passes.append({"symmetrise": 0.0, "sweep": 0.0, "limit": limit, "n": a.ncols})
        t0 = time.perf_counter()
        result = symbolic(a, limit=limit)
        passes[-1].update(seconds=time.perf_counter() - t0, kept=result is not None, a=a)
        return result

    solver_mod.symbolic_symmetric = timed_symbolic
    fill_mod.symmetrize_pattern = part("symmetrise", symmetrise)
    fill_mod.column_structures = part("sweep", sweep)
    try:
        yield passes
    finally:
        solver_mod.symbolic_symmetric = symbolic
        fill_mod.symmetrize_pattern, fill_mod.column_structures = symmetrise, sweep
    for rec in passes:
        a = rec.pop("a")
        if not rec["kept"]:
            ptr = sweep(symmetrise(a))[1]
            rec["reached"] = int(np.searchsorted(ptr[1:], rec["limit"], side="right"))


def print_passes(passes: list[dict]) -> None:
    for k, rec in enumerate(passes, 1):
        role = "kept" if rec["limit"] is None else (
            "capped, kept" if rec["kept"] else "capped, thrown away")
        line = f"    pass {k} {role:<20s}{rec['seconds']:8.3f} s  "
        if rec["kept"]:
            assembly = rec["seconds"] - rec["symmetrise"] - rec["sweep"]
            line += (f"(symmetrise {rec['symmetrise']:.3f} / column sweep "
                     f"{rec['sweep']:.3f} / assembly {assembly:.3f})")
        else:
            line += f"(cap {rec['limit']} tripped at column {rec['reached']} of {rec['n']})"
        print(line)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("matrix", help="generator name (repro.sparse.paper_matrix_names())")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--top", type=int, default=15)
    args = ap.parse_args(argv)

    a = generate(args.matrix, scale=args.scale, seed=0)
    PanguLU(a).preprocess()

    solver = PanguLU(a)
    with timed_calls([(solver_mod, "mc64"), (solver_mod, "fill_reducing_ordering"),
                      (CSCMatrix, "permute"), (nd_mod, "_amd_order"),
                      (amd_mod, "_amd_order"), (nd_mod, "_minimum_degree_batch"),
                      (nd_mod, "level_structure"), (rcm_mod, "_bfs")],
                     # the AMD core returns (order, pivots), the batch each leaf's order
                     tallies={"_amd_order": lambda result: (result[1], 0),
                              "_minimum_degree_batch": lambda result: (
                                  len(result), sum(order.size for order in result))}) as split:
        with symbolic_passes() as passes:
            solver.preprocess()
    print(f"{args.matrix} x{args.scale}: n = {a.nrows}, nnz = {a.nnz}, "
          f"nnz(L+U) = {solver.symbolic.nnz_lu}")
    kept = describe_ordering(solver.options.ordering, solver.ordering_kept)
    print(f"  ordering    {kept}")
    for phase, seconds in solver.phase_seconds.items():
        print(f"  {phase:<12s}{seconds:8.3f} s")
        if phase == "reorder":
            # preprocess() calls permute in phase 1 only, and (ordering
            # "best" aside) not from inside the two functions above; the
            # symbolic passes that decide the order print as "symbolic"
            for part in ("mc64", "fill_reducing_ordering", "permute"):
                print(f"    {part:<24s}{split[part][0]:8.3f} s")
                if part != "fill_reducing_ordering":
                    continue
                amd_s, amd_calls, amd_pivots, _ = split["_amd_order"]
                leaf_s, batches, leaves, leaf_vertices = split["_minimum_degree_batch"]
                search_s, searches, *_ = split["level_structure"]
                print(f"      {'AMD core':<22s}{amd_s:8.3f} s  "
                      f"({amd_calls} calls, {amd_pivots} pivots)")
                print(f"      {'minimum-degree leaves':<22s}{leaf_s:8.3f} s  "
                      f"({batches} batch: {leaves} leaves, {leaf_vertices} vertices)")
                print(f"      {'level structures':<22s}{search_s:8.3f} s  "
                      f"({searches} searches, {split['_bfs'][1]} BFS runs)")
        if phase == "symbolic":
            print_passes(passes)
    print(f"  {'setup':<12s}{sum(solver.phase_seconds.values()):8.3f} s")

    profile = cProfile.Profile()
    profile.runcall(PanguLU(a).preprocess)
    pstats.Stats(profile).sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

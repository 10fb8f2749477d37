#!/usr/bin/env python3
"""Where does ``PanguLU.preprocess()`` spend its time?

``python scripts/profile_setup.py MATRIX [--scale S] [--top N]`` runs one
unrecorded warm-up ``preprocess()`` (imports, numpy's lazy set-up), then
prints the ``phase_seconds`` of a second, unprofiled one and the cProfile
top-N by cumulative time of a third.  cProfile taxes every Python call
but not the work inside numpy, so the table finds candidates; the numbers
that count are the unprofiled phase seconds and the repo benchmark's
``setup_s`` (``make bench-e2e``).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import PanguLU  # noqa: E402
from repro.sparse import generate  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("matrix", help="generator name (repro.sparse.paper_matrix_names())")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--top", type=int, default=15)
    args = ap.parse_args(argv)

    a = generate(args.matrix, scale=args.scale, seed=0)
    PanguLU(a).preprocess()

    solver = PanguLU(a)
    solver.preprocess()
    print(f"{args.matrix} x{args.scale}: n = {a.nrows}, nnz = {a.nnz}, "
          f"nnz(L+U) = {solver.symbolic.nnz_lu}")
    for phase, seconds in solver.phase_seconds.items():
        print(f"  {phase:<12s}{seconds:8.3f} s")
    print(f"  {'setup':<12s}{sum(solver.phase_seconds.values()):8.3f} s")

    profile = cProfile.Profile()
    profile.runcall(PanguLU(a).preprocess)
    pstats.Stats(profile).sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

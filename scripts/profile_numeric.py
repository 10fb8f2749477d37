#!/usr/bin/env python3
"""Where does one numeric factorisation (phase 4) spend its time?

``python scripts/profile_numeric.py MATRIX [--scale S] [--top N]``
preprocesses the matrix once, runs one unrecorded warm-up ``factorize``
(imports, BLAS start-up, the plan cache), then prints the split of a
second, unprofiled one on fresh values — building the job (task table
columns, slots, selector, kernel look-ups), building the scheduler core,
the summed task spans per kernel family (``job.execute``, as the lane
driver times them) and what the driver spends around them (pop,
complete, tally, plus the two clock reads and the label a timed run
adds) — in seconds and in µs per task, and the multiply-adds of its
dense-mapped tasks per family, on the full blocks against the occupied
boxes their GEMMs run on (a count that repeats exactly), the median
number of Schur updates a block receives (the DAG's sync-free array)
and the peak bytes of its panel cache's block images and inverse
triangles; then the cProfile top-N by cumulative time of a third.  cProfile taxes every
Python call but not the work inside numpy, so the table finds
candidates; the numbers that count are the unprofiled seconds and the
repo benchmark's ``numeric_s`` (``make bench-e2e``).
"""

from __future__ import annotations

import argparse
import cProfile
import math
import pstats
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import PanguLU  # noqa: E402
from repro.core.dag import build_dag, sync_free_array  # noqa: E402
from repro.core.numeric import FactorJob, NumericOptions  # noqa: E402
from repro.kernels.base import box_image  # noqa: E402
from repro.kernels.registry import IMAGE_VERSIONS, KernelType  # noqa: E402
from repro.runtime.lanes import run_lanes  # noqa: E402
from repro.runtime.scheduler import SchedulerCore  # noqa: E402
from repro.sparse import generate  # noqa: E402


def factorize_split(blocks, dag, options):
    """One sequential ``factorize`` in its three steps, each timed."""
    t0 = time.perf_counter()
    job = FactorJob(blocks, dag, options)
    t1 = time.perf_counter()
    core = SchedulerCore.from_dag(dag)
    t2 = time.perf_counter()
    report = run_lanes(core, job, timed=True)
    return t1 - t0, t2 - t1, report, job


def box_extent(block, axis: int) -> int:
    """Rows (``axis=0``) or columns of ``block`` its :func:`box_image`
    multiplies, the sentinel not counted."""
    pos, image = box_image(block, axis)
    return image.shape[axis] - (pos is not None)


def dense_mapped_madds(job, report) -> dict[str, tuple[int, int]]:
    """Per family, the multiply-adds of the tasks ``report`` ran on a
    dense-mapped variant: ``(full, box)`` — the GEMMs on the whole
    blocks, and those on the occupied boxes the variant multiplies."""
    out: dict[str, tuple[int, int]] = {}
    for tid, label in report.kernel_choices.items():
        family, version = label.split("/")
        if IMAGE_VERSIONS.get(KernelType(family)) != version:
            continue
        blocks = [job.f.blk_values[slot] for slot in job.args[tid]]
        if family == "SSSSM":     # A's rows x k x B's columns
            _, a, b = blocks
            full = (a.nrows, a.ncols, b.ncols)
            box = (box_extent(a, 0), a.ncols, box_extent(b, 1))
        elif family == "GESSM":   # the full L^-1 times B's columns
            n, b = blocks[0].ncols, blocks[1]
            full, box = (n, n, b.ncols), (n, n, box_extent(b, 1))
        else:                     # B's rows times the full U^-1
            n, b = blocks[0].ncols, blocks[1]
            full, box = (b.nrows, n, n), (box_extent(b, 0), n, n)
        was = out.get(family, (0, 0))
        out[family] = (was[0] + math.prod(full), was[1] + math.prod(box))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("matrix", help="generator name (repro.sparse.paper_matrix_names())")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--top", type=int, default=15)
    args = ap.parse_args(argv)

    a = generate(args.matrix, scale=args.scale, seed=0)
    solver = PanguLU(a)
    solver.preprocess()
    blocks, dag, options = solver.blocks, solver.dag, NumericOptions()
    pristine = [blk.data.copy() for blk in blocks.blk_values]

    def refill() -> None:
        """The unfactored values back into every block."""
        for blk, data in zip(blocks.blk_values, pristine):
            blk.data[...] = data

    factorize_split(blocks, dag, options)       # warm-up
    n = len(dag)
    print(f"{args.matrix} x{args.scale}: n = {a.nrows}, tasks = {n}, "
          f"blocks = {blocks.num_blocks}")

    refill()
    dag = build_dag(blocks)         # a fresh DAG: its table is charged to the job
    job_s, core_s, report, job = factorize_split(blocks, dag, options)
    spans = sum(report.seconds_by_type.values())
    rows = [("job (table, slots, selector)", job_s), ("scheduler core", core_s)]
    rows += [(f"task spans {fam}", s) for fam, s in sorted(report.seconds_by_type.items())]
    rows += [("driver remainder", report.seconds - spans),
             ("factorize", job_s + core_s + report.seconds)]
    for label, seconds in rows:
        print(f"  {label:<30s}{seconds:8.4f} s{seconds / n * 1e6:9.2f} us/task")
    print(f"  kernel choices: {dict(sorted(report.version_histogram().items()))}")
    print("  dense-mapped multiply-adds: full blocks -> occupied boxes")
    for family, (full, box) in sorted(dense_mapped_madds(job, report).items()):
        print(f"    {family:<6s}{full:12.3e} ->{box:10.3e}  ({box / max(full, 1):6.1%})")
    updates = sync_free_array(dag, blocks.nb).values()
    print(f"  Schur updates per block: median {statistics.median(updates):g}; "
          f"panel cache images: peak {job.panels.peak_bytes} B")

    refill()
    profile = cProfile.Profile()
    profile.runcall(factorize_split, blocks, dag, options)
    pstats.Stats(profile).sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

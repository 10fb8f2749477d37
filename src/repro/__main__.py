"""Command-line interface: ``python -m repro <command>``.

Mirrors the PanguLU artifact's workflow (feed a Matrix Market file to the
solver binary) plus conveniences for this reproduction:

``solve``     run the full pipeline on a ``.mtx`` file (or a named
              synthetic analogue) and report residual + phase times;
``info``      matrix statistics and symbolic-fill summary;
``generate``  write a synthetic analogue of a paper matrix to ``.mtx``;
``simulate``  simulated strong-scaling study on the modelled clusters.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import PanguLU, SolverOptions
from .analysis import format_table
from .core.solver import ORDERINGS
from .sparse import (
    generate,
    paper_matrix_names,
    read_matrix_market,
    write_matrix_market,
)


def _load(spec: str, scale: float):
    """A matrix from a file path or the name of a paper analogue."""
    if spec in paper_matrix_names():
        return generate(spec, scale=scale)
    return read_matrix_market(spec)


def _cmd_solve(args: argparse.Namespace) -> int:
    a = _load(args.matrix, args.scale)
    if a.nrows != a.ncols:
        print("error: need a square matrix", file=sys.stderr)
        return 2
    if args.engine == "distributed":
        nprocs = args.ranks or max(1, args.workers)
    elif args.engine == "hybrid":
        nprocs = args.ranks or 2
    else:
        nprocs = 1
    solver = PanguLU(
        a, SolverOptions(
            ordering=args.ordering,
            blocking=args.blocking,
            n_workers=args.workers,
            nprocs=nprocs,
            engine=args.engine,
            placement=args.placement,
            factor_dtype=args.dtype,
            trace_events=bool(args.trace),
            verify_schedule=bool(args.verify),
        )
    )
    rng = np.random.default_rng(0)
    b = np.ones(a.nrows) if args.rhs == "ones" else rng.standard_normal(a.nrows)
    x = solver.solve(b)
    blocks = solver.blocks
    if args.verify:
        from .core.verify import verify_dag

        print(verify_dag(solver.dag))
    if blocks.is_regular:
        shape = f"of {blocks.bs}"
    else:
        widths = np.diff(blocks.boundaries)
        shape = f"of {int(widths.min())}..{int(widths.max())} ({args.blocking})"
    print(f"n = {a.nrows}, nnz = {a.nnz}, "
          f"nnz(L+U) = {solver.symbolic.nnz_lu}, "
          f"blocks = {blocks.nb}×{blocks.nb} {shape}")
    print(f"engine = {solver.options.resolved_engine()}, "
          f"factor dtype = {solver.blocks.dtype}, "
          f"relative residual = {solver.residual_norm(x, b):.3e}")
    fact = solver.factorize()
    from .core.memory import memory_report

    run = fact.stats
    mem = memory_report(blocks, run)
    print(f"numeric: {run.tasks_executed} tasks ({run.planned_tasks} planned), "
          f"pivots replaced = {run.pivots_replaced}, "
          f"factor storage = {mem.total_bytes} B, "
          f"plan_bytes = {run.plan_bytes}, "
          f"panel_cache_peak_bytes = {mem.panel_cache_peak_bytes}")
    if fact.last_tsolve_stats is not None:
        ts = fact.last_tsolve_stats
        hist = ts.residual_history
        print(f"solve: {solver.solve_count} call(s), last "
              f"{solver.last_solve_seconds:.4f} s "
              f"({ts.tasks_executed} solve tasks via {ts.engine}; "
              f"{len(hist)} residual(s), last {hist[-1][1]:.3e})")
    for phase, seconds in solver.phase_seconds.items():
        print(f"  {phase:<12s} {seconds:8.4f} s")
    if args.trace:
        from .runtime import write_recorder_trace

        write_recorder_trace(args.trace, solver.recorder)
        print(f"chrome trace of the real run written to {args.trace}")
    if args.output:
        np.savetxt(args.output, x)
        print(f"solution written to {args.output}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    a = _load(args.matrix, args.scale)
    from .sparse import bandwidth, is_structurally_symmetric

    print(f"shape     : {a.nrows} × {a.ncols}")
    print(f"nnz       : {a.nnz}  (density {a.density:.5f})")
    print(f"symmetric : {is_structurally_symmetric(a)} (structurally)")
    print(f"bandwidth : {bandwidth(a)}")
    if args.symbolic and a.nrows == a.ncols:
        solver = PanguLU(a)
        sym = solver.symbolic_factorize()
        print(f"nnz(L+U)  : {sym.nnz_lu}  (fill ratio {sym.fill_ratio:.2f}, "
              f"after MC64 + {solver.options.ordering} ordering)")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    a = generate(args.name, scale=args.scale, seed=args.seed)
    write_matrix_market(args.output, a,
                        comment=f"analogue of {args.name}, scale={args.scale}")
    print(f"wrote {args.name} analogue (n={a.nrows}, nnz={a.nnz}) to {args.output}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    a = _load(args.matrix, args.scale)
    solver = PanguLU(a, SolverOptions(blocking=args.blocking))
    est = solver.estimate(proc_counts=tuple(args.procs))
    print(f"n = {est['n']}, nnz = {est['nnz']}, nnz(L+U) = {est['nnz_lu']} "
          f"(fill {est['fill_ratio']:.2f}x)")
    print(f"flops = {est['flops']:,}, tasks = {est['tasks']}, "
          f"blocks {est['block_grid']}×{est['block_grid']} of {est['block_size']}"
          f" ({est['blocking']})")
    print(f"factor storage = {est['factor_bytes'] / 1024:.1f} KiB")
    rows = [
        [plat, p, v["seconds"] * 1e3, v["gflops"], 100 * v["sync_ratio"]]
        for (plat, p), v in est["predicted"].items()
    ]
    print(format_table(
        ["platform", "procs", "pred. time (ms)", "pred. GFLOP/s", "sync %"],
        rows, float_fmt="{:.3f}",
    ))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .runtime import (
        A100_PLATFORM, MI50_PLATFORM, EventRecorder, simulate_pangulu,
        write_recorder_trace,
    )

    a = _load(args.matrix, args.scale)
    solver = PanguLU(a)
    solver.preprocess()
    platform = {"a100": A100_PLATFORM, "mi50": MI50_PLATFORM}[args.platform]
    procs = [p for p in (1, 2, 4, 8, 16, 32, 64, 128) if p <= args.max_procs]
    rows = []
    recorder = None
    for p in procs:
        if args.trace and p == procs[-1]:
            recorder = EventRecorder()  # the largest run is traced
        sim = simulate_pangulu(
            solver.blocks, solver.dag, platform, p, recorder=recorder
        )
        rows.append([p, sim.gflops, sim.result.makespan * 1e3,
                     sim.result.mean_sync * 1e3])
    print(format_table(
        ["procs", "GFLOP/s", "makespan (ms)", "sync (ms)"], rows,
        float_fmt="{:.3f}",
    ))
    if recorder is not None:
        write_recorder_trace(args.trace, recorder)
        print(f"chrome trace of the largest run written to {args.trace}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PanguLU reproduction — sparse direct solver toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve A x = b for a .mtx file or analogue")
    p.add_argument("matrix", help=".mtx path or a paper matrix name")
    p.add_argument("--ordering", default="nd", choices=list(ORDERINGS))
    p.add_argument("--blocking", default="regular",
                   choices=["regular", "irregular"],
                   help="blocking strategy: one uniform block size "
                        "(regular, the paper's layout) or supernode-guided "
                        "variable-width boundaries (irregular)")
    p.add_argument("--dtype", default="float64", choices=["float64", "float32"],
                   help="working precision of the factors; float32 halves "
                        "factor storage and recovers accuracy by iterative "
                        "refinement in float64")
    p.add_argument("--rhs", default="ones", choices=["ones", "random"])
    p.add_argument("--scale", type=float, default=0.3, help="analogue size knob")
    p.add_argument("--output", help="write the solution vector to this file")
    p.add_argument("--workers", type=int, default=1,
                   help="worker threads (threaded engine), ranks "
                        "(distributed engine), or threads per rank "
                        "(hybrid engine) for the numeric phase and "
                        "the triangular solves")
    p.add_argument("--ranks", type=int, default=None,
                   help="process-rank count for the distributed and "
                        "hybrid engines (default: --workers for "
                        "distributed, 2 for hybrid)")
    p.add_argument("--engine", default=None,
                   choices=["sequential", "threaded", "distributed",
                            "hybrid"],
                   help="execution engine for the numeric phase AND the "
                        "triangular solves (default: threaded when "
                        "--workers > 1, else sequential); hybrid runs "
                        "--ranks processes each driving --workers "
                        "threads over one shared scheduler")
    p.add_argument("--placement", default="cyclic",
                   choices=["cyclic", "cost"],
                   help="block-to-rank placement policy for the "
                        "distributed/hybrid engines: the paper's 2D "
                        "block-cyclic map, or the cost-model placement "
                        "that greedily packs speed-scaled block loads")
    p.add_argument("--trace", help="write a chrome://tracing JSON of the real "
                                   "numeric + solve run to this path")
    p.add_argument("--verify", action="store_true",
                   help="statically verify every built DAG before "
                        "execution (acyclicity, counter=indegree, "
                        "single-writer chains, solve segment ordering) "
                        "and print the schedule report")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("info", help="matrix statistics")
    p.add_argument("matrix")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--symbolic", action="store_true",
                   help="also run reordering + symbolic factorisation")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("generate", help="write a synthetic analogue to .mtx")
    p.add_argument("name", choices=paper_matrix_names())
    p.add_argument("output")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("estimate", help="plan a factorisation (no numeric work)")
    p.add_argument("matrix")
    p.add_argument("--blocking", default="regular",
                   choices=["regular", "irregular"])
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--procs", type=int, nargs="+", default=[1, 4, 16, 64])
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="simulated strong-scaling study")
    p.add_argument("matrix")
    p.add_argument("--platform", default="a100", choices=["a100", "mi50"])
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--max-procs", type=int, default=128)
    p.add_argument("--trace", help="write a chrome://tracing JSON of the "
                                   "largest simulated run")
    p.set_defaults(func=_cmd_simulate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - direct invocation
    sys.exit(main())

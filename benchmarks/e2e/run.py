#!/usr/bin/env python3
"""End-to-end benchmark of the PanguLU reproduction.

``python benchmarks/e2e/run.py``                       every workload, untraced
``python benchmarks/e2e/run.py --trace``               ... plus the traced run
``python benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
                                                       one run, in this process

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding every ``end_to_end`` metric of ``BENCHMARK.json``
(``--trace 0``) or every ``per_layer`` metric (``--trace 1``).  Without it
each workload runs in a fresh subprocess (own caches, own ``ru_maxrss``),
every metric is printed by name with its unit, and the exit code is
non-zero if any check failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"


def declared() -> dict:
    """``BENCHMARK.json``: the single declaration of workloads and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarise(samples: dict[str, list[float]]) -> dict[str, dict]:
    """Per metric: the reported ``value`` — the median — with min, max and
    sample count beside it."""
    return {
        name: {"value": statistics.median(v), "min": min(v), "max": max(v),
               "n": len(v)}
        for name, v in samples.items() if v
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------

def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, make_inputs

    spec = declared()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    gated = [m["name"] for m in spec["end_to_end"]]
    workload = WORKLOADS[args.workload]
    inp = make_inputs(workload, args.seed, smoke=args.smoke)

    if args.trace:
        from layers import run_traced

        OUT.mkdir(exist_ok=True)
        ops, values = run_traced(
            inp, trace_path=OUT / f"trace-{workload.name}.json"
        )
        stats = summarise({k: [v] for k, v in values.items()})
        reported = [m["name"] for m in spec["per_layer"]]
        printed = reported
    else:
        from measure import run_untraced

        ops = run_untraced(inp, args.seconds)
        stats = summarise(ops.samples)
        reported = gated
        # the gated metrics and the timings BENCHMARK.json carries ungated
        printed = [name for name in stats if name in units]

    missing = sorted(set(reported) - set(stats))
    correct = ops.failed == 0 and not missing
    for name in printed:
        s = stats[name]
        print(f"{workload.name:16s} {name:34s} {s['value']:14.6g} {units[name]:6s}"
              f" min {s['min']:.6g} max {s['max']:.6g} n {s['n']}"
              + ("" if args.trace or name in gated else "  ungated"))
    print(f"{workload.name:16s} ops_attempted {ops.attempted} ops_failed {ops.failed}"
          + (f" MISSING {missing}" if missing else ""))

    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {
            name: {"value": stats[name]["value"], "unit": units[name]}
            for name in reported if name in stats
        },
    }
    if args.out:
        detail = {
            "workload": workload.name, "trace": args.trace, "seed": args.seed,
            "n": inp.a.nrows, "nnz": inp.a.nnz,
            "ops_attempted": ops.attempted, "ops_failed": ops.failed,
            "stats": {k: stats[k] for k in printed},
            "samples": dict(ops.samples),
        }
        Path(args.out).write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ----------------------------------------------------------------------

def provenance(seed: int) -> dict:
    """Git SHA (``unstamped`` off a clean checkout), seed, machine and
    library versions, UTC time."""
    import numpy
    import scipy

    def git(*cmd: str) -> str | None:
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), *cmd], capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain")
    return {
        "git_sha": sha if sha and dirty == "" else "unstamped",
        "git_dirty": None if dirty is None else bool(dirty),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_all(args) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS     # the declared ones and the ungated

    OUT.mkdir(exist_ok=True)
    report = {"provenance": provenance(args.seed), "workloads": {}}
    failed = False

    def child(name: str, seed: int, trace: int) -> dict:
        nonlocal failed
        detail = OUT / f"detail-{name}-{seed}-{trace}.json"
        detail.unlink(missing_ok=True)
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(args.seconds),
            "--trace", str(trace), "--out", str(detail),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print("\n".join(proc.stdout.splitlines()[:-1]), flush=True)
        failed |= proc.returncode != 0
        return json.loads(detail.read_text()) if detail.exists() else {}

    for name in WORKLOADS:
        runs = [child(name, args.seed + r, 0) for r in range(args.runs)]
        runs = [r for r in runs if r]
        if not runs:
            continue
        entry = report["workloads"][name] = {
            "ops_attempted": sum(r["ops_attempted"] for r in runs),
            "ops_failed": sum(r["ops_failed"] for r in runs),
            "runs": runs,
        }
        # per metric the runs' values: their median is what the driver
        # takes, their range and quartiles what compare.py judges it by
        per_run = {
            m: [r["stats"][m]["value"] for r in runs if m in r["stats"]]
            for m in runs[0]["stats"]
        }
        entry["stats"] = summarise(per_run)
        for m, st in entry["stats"].items():
            st["values"] = per_run[m]
        if args.trace:
            entry["traced"] = child(name, args.seed, 1)
    report["ok"] = not failed
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    if report["provenance"]["git_sha"] == "unstamped":
        print("unstamped (dirty tree or no git): not appended to history.jsonl")
    else:
        with HISTORY.open("a") as fh:
            fh.write(json.dumps(report) + "\n")
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--runs", type=int, default=1,
                    help="without --workload: fresh runs per workload, on "
                         "seeds --seed, --seed+1, ...")
    ap.add_argument("--out", help="write the detailed result as JSON")
    ap.add_argument("--smoke", action="store_true",
                    help="n ≈ 300 matrices (harness self-test only)")
    args = ap.parse_args()
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: {SRC}/repro or BENCHMARK.json not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(declared()["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two result files written by ``run.py --runs N --out``.

``python benchmarks/e2e/compare.py A.json B.json`` prints one row per
declared workload × end-to-end metric — both medians over the file's runs
with their min/max, the ratio B/A (base: A) — and a verdict against the
metric's bound in BENCHMARK.json, or against ``UNGATED_BOUND`` for the
end-to-end timings BENCHMARK.json carries without a bound (``ungated``
rows: for the reader, never for the exit code):

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  it is worse by more than the bound, but on one side the
                runs' own spread (interquartile range over median of the
                per-run values) is wider than the bound and the two sides'
                runs interleave, so they cannot tell the commits apart

The spread is taken over the same statistic the verdict is about — one
value per run — so a file needs several runs (``--runs 4`` or more) to
ever earn ``unresolved``; with fewer, worse than the bound is ``regressed``.

Exits non-zero on any ``regressed`` row, or if B failed a larger share of
its operations than A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_RUNS_FOR_SPREAD = 4
UNGATED_BOUND = 0.15    # the widest bound the issue allows a gate


def spread(values: list[float]) -> float:
    """Interquartile range over median, as the driver computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], bound: float, better: str
            ) -> tuple[float, str]:
    """``(ratio B/A of the medians, verdict)`` for one metric's per-run
    values on either side."""
    ratio = statistics.median(b) / statistics.median(a)
    worse_by = ratio - 1.0 if better == "lower" else 1.0 / ratio - 1.0
    if worse_by <= bound:
        return ratio, "ok"
    if min(len(a), len(b)) < MIN_RUNS_FOR_SPREAD:
        return ratio, "regressed"
    interleave = max(a) >= min(b) and max(b) >= min(a)
    noisy = max(spread(a), spread(b)) > bound
    return ratio, "unresolved" if noisy and interleave else "regressed"


def compare(a: dict, b: dict, spec: dict) -> int:
    bad = 0
    print(f"base A: {a['provenance']['git_sha']} seed {a['provenance']['seed']}"
          f"   B: {b['provenance']['git_sha']} seed {b['provenance']['seed']}")
    print(f"{'workload':16s} {'metric':20s} {'A median [min, max]':>32s} "
          f"{'B median [min, max]':>32s} {'B/A':>7s}  verdict")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for wl in (w["name"] for w in spec["workloads"]):
        ua, ub = (r["workloads"][wl] for r in (a, b))
        for name, sa in ua["stats"].items():
            sb = ub["stats"][name]
            ratio, v = verdict(sa["values"], sb["values"],
                               bounds.get(name, UNGATED_BOUND), better[name])
            bad += v == "regressed" and name in bounds
            cells = [f"{s['value']:.4g} [{s['min']:.4g}, {s['max']:.4g}]"
                     for s in (sa, sb)]
            print(f"{wl:16s} {name:20s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{ratio:7.3f}  {v}" + ("" if name in bounds else " (ungated)"))
        fa, fb = (u["ops_failed"] / u["ops_attempted"] for u in (ua, ub))
        if fb > fa:
            bad += 1
            print(f"{wl:16s} failed share rose: {fa:.4f} -> {fb:.4f}  regressed")
    return 1 if bad else 0


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(a, b, spec)


if __name__ == "__main__":
    sys.exit(main())

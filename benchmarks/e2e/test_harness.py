"""Self-test of the benchmark harness (``pytest benchmarks/e2e -q``).

Runs every workload at ``--smoke`` scale (n ≈ 300) and checks the harness,
not the solver: every declared metric is emitted exactly once, counts
repeat for a fixed seed, the span tree is well-formed, a wrong solution is
counted as a failed operation, and no wrapper outlives its traced run.
Not collected by tier-1 (whose ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import collections
import functools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import repro.core.solver as solver_mod  # noqa: E402
import repro.ordering  # noqa: E402
from repro.core.solver import Factorization  # noqa: E402
from repro.runtime import engines  # noqa: E402

import compare  # noqa: E402
from layers import Tracer, installed  # noqa: E402
from measure import Ops  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = list(WORKLOADS)
E2E = ("setup_s", "numeric_s", "time_to_solution_s", "refactorize_s",
       "solve_s", "solve_rhs16_s", "peak_rss_mb")
SEQ = [n for n in NAMES if n.endswith("_seq")]


def run_cli(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int, repeat: int = 0):
    """One smoke-scale run; ``repeat`` only makes a second, uncached run."""
    proc = run_cli("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_every_workload_is_declared():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_declared_metric_exactly_once(workload, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    lines, result = smoke(workload, trace)
    printed = collections.Counter(
        line.split()[1] for line in lines if line.startswith(workload + " ")
    )
    for m in declared:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"])
        assert printed[m["name"]] == 1, m["name"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:       # the issue's seven, gated or not, by name
        assert all(printed[name] == 1 for name in E2E)


@pytest.mark.parametrize("workload", SEQ)
def test_counts_repeat_for_a_fixed_seed(workload):
    first, second = (smoke(workload, 1, r)[1]["metrics"] for r in (0, 1))
    for m in SPEC["per_layer"]:
        if m["unit"] in ("count", "bytes"):
            assert first[m["name"]] == second[m["name"]], m["name"]


@pytest.mark.parametrize("workload", NAMES)
def test_span_tree_is_well_formed(workload):
    smoke(workload, 1)
    events = json.loads((HERE / "out" / f"trace-{workload}.json").read_text())
    spans = [e for e in events if e["pid"] == 0]
    assert [e["args"]["span"] for e in spans] == list(range(len(spans)))
    child_time = collections.Counter()
    eps = 1e-3   # µs: float rounding of the rebased timestamps
    for e in spans:
        parent = e["args"]["parent"]
        if parent is None:
            continue
        p = spans[parent]
        assert parent < e["args"]["span"]
        assert p["ts"] - eps <= e["ts"]
        assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + eps
        assert e["args"]["run_id"] == p["args"]["run_id"]
        child_time[parent] += e["dur"]
    for parent, total in child_time.items():
        assert spans[parent]["dur"] - total >= -eps      # self time ≥ 0
    assert any(e["pid"] == 1 for e in events)            # EventRecorder lanes


def test_corrupted_solution_is_a_failed_operation():
    inp = make_inputs(WORKLOADS["fem3d_seq"], seed=3, smoke=True)
    ops = Ops(inp)
    assert ops.run("solve_s", lambda: inp.x_ref[-1], solves=-1) is not None
    assert ops.run("solve_s", lambda: inp.x_ref[-1] * (1 + 1e-6), solves=-1) is None
    assert ops.run("solve_s", lambda: 1 / 0, solves=-1) is None
    assert (ops.attempted, ops.failed) == (3, 2)
    assert len(ops.samples["solve_s"]) == 1


def test_wrappers_are_uninstalled_even_on_error():
    originals = {
        "engine": engines.get_engine("sequential"),
        "tsolve": engines.get_tsolve_engine("distributed"),
        "solve": Factorization.solve,
        "strategy": solver_mod.get_blocking_strategy,
    }
    with pytest.raises(ZeroDivisionError), installed(Tracer()):
        assert solver_mod.mc64 is not repro.ordering.mc64
        assert engines.get_engine("sequential") is not originals["engine"]
        1 / 0
    assert solver_mod.mc64 is repro.ordering.mc64
    assert solver_mod.nested_dissection is repro.ordering.nested_dissection
    assert engines.get_engine("sequential") is originals["engine"]
    assert engines.get_tsolve_engine("distributed") is originals["tsolve"]
    assert Factorization.solve is originals["solve"]
    assert solver_mod.get_blocking_strategy is originals["strategy"]


def test_compare_verdicts():
    a = [0.98, 0.99, 1.0, 1.0, 1.01, 1.02]
    steady = lambda x: [x * v for v in a]
    assert compare.verdict(a, steady(1.05), 0.10, "lower")[1] == "ok"
    assert compare.verdict(a, steady(1.3), 0.10, "lower")[1] == "regressed"
    # worse by more than the bound, but B's own runs span 0.9–1.7
    assert compare.verdict(a, [0.9, 1.0, 1.25, 1.35, 1.5, 1.7],
                           0.10, "lower")[1] == "unresolved"
    # a 2x regression is never excused by one slow outlier in A ...
    assert compare.verdict(a + [2.5], steady(2.0), 0.10, "lower")[1] == "regressed"
    # ... nor by single runs, which carry no spread at all
    assert compare.verdict([1.0], [2.0], 0.10, "lower")[1] == "regressed"
    assert compare.verdict(a, steady(0.7), 0.10, "higher")[1] == "regressed"


def test_refuses_to_run_outside_a_checkout(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: non-zero exit,
    no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_cli("--workload", "fem3d_seq", "--seed", "0", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path, script=bench / "run.py")
    assert proc.returncode != 0
    assert not proc.stdout.strip()

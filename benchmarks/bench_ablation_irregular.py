"""Design ablation — regular vs structure-aware irregular blocking.

The paper's mapping (Section 4.1) cuts the filled matrix on a uniform
grid; the supernode-guided :class:`~repro.core.IrregularBlocking`
strategy instead aligns block boundaries with the fill pattern (thin
supernodes merged up to the width cap, dense separators split).  This
bench compares the two strategies on four structurally different
matrices and reports the work profile of each partition — dense-mapped
("padded") FLOPs, padding ratio, the flop-weighted load imbalance of
the static block-cyclic assignment — plus the real sequential
factorise time.

The claim under test: on skewed structures (saddle-point KKT systems,
cage DNA-electrophoresis chains, jittered grids) the irregular blocker
cuts both the padded work and the imbalance the balancer has to repair;
on structure-free patterns it gracefully degenerates to roughly the
regular grid.
"""

from __future__ import annotations

import time

from common import SCALE, banner, matrix
from repro import PanguLU, SolverOptions
from repro.analysis import format_table
from repro.core import (
    CyclicPlacement,
    ProcessGrid,
    build_dag,
    get_blocking_strategy,
    load_imbalance,
    task_weights,
)
from repro.runtime import partition_flop_stats
from repro.symbolic import symbolic_symmetric

MATRICES = ("nlpkkt80", "cage12", "ecology1", "ASIC_680k")
#: families where the structure-aware blocker must win on both padded
#: FLOPs and cyclic imbalance (the ISSUE's ">= 2 skewed families" gate)
SKEWED = ("nlpkkt80", "cage12")
NPROCS = 4


def _profile(name: str):
    filled = symbolic_symmetric(matrix(name)).filled
    out = {}
    for blocking in ("regular", "irregular"):
        blocks = get_blocking_strategy(blocking).partition(filled)
        dag = build_dag(blocks)
        stats = partition_flop_stats(blocks, dag)
        weights = task_weights(dag, blocks)
        cyclic = CyclicPlacement(ProcessGrid.square(NPROCS)).assign(dag)
        stats["imbalance"] = load_imbalance(
            dag, cyclic, NPROCS, weights=weights
        )
        t0 = time.perf_counter()
        PanguLU(matrix(name), SolverOptions(blocking=blocking)).factorize()
        stats["factorize_s"] = time.perf_counter() - t0
        out[blocking] = stats
    return out


def test_ablation_irregular_blocking(benchmark):
    banner("Ablation — regular grid vs supernode-guided irregular blocking")
    results = {name: _profile(name) for name in MATRICES}
    for name, prof in results.items():
        rows = [
            [
                blocking,
                st["grid"],
                st["tasks"],
                st["dense_flops"] / 1e6,
                st["padding_ratio"],
                st["imbalance"],
                st["factorize_s"] * 1e3,
            ]
            for blocking, st in prof.items()
        ]
        print(f"\n{name} (n = {matrix(name).nrows}, scale={SCALE}):")
        print(format_table(
            ["strategy", "nb", "tasks", "padded MFLOP", "pad ratio",
             "imbalance", "factorize (ms)"],
            rows,
            float_fmt="{:.3f}",
        ))
    benchmark.pedantic(
        lambda: _profile(MATRICES[0]), rounds=1, iterations=1
    )
    # the acceptance gate: on the skewed families the irregular blocker
    # reduces both the dense-mapped (padded) work and the flop-weighted
    # imbalance of the raw block-cyclic assignment
    for name in SKEWED:
        reg, irr = results[name]["regular"], results[name]["irregular"]
        assert irr["dense_flops"] < reg["dense_flops"], name
        assert irr["imbalance"] < reg["imbalance"], name

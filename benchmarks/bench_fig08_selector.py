"""Fig. 8 — the decision trees for kernel selection.

The paper constructs four decision trees from a large pool of measured
kernel times and selects variants by nnz (panel kernels) or FLOPs
(SSSSM).  This bench (re-)derives trees from the Fig. 7 sweep — the
dense-mapped variants handed their cached images, as the factorisation
runs them — with the CART calibrator, prints the learned thresholds next
to the shipped defaults, and quantifies the selection quality: total time
of the tree-selected kernels vs the oracle (per-sample best) and vs every
fixed single-variant policy.

``default_trees()`` is refitted from this output.  A dense image costs
``n³`` whatever the nnz or the FLOPs, so next to the paper's feature
every tree may split on the block order (and GETRF and SSSSM on the
target's density) — ``FEATURES`` below: GETRF's dense variant is one
LAPACK call only up to ``GETRF_SERIAL_ORDER``.
"""

from __future__ import annotations

from bench_fig07_kernels import run_sweep
from common import banner
from repro.kernels import KernelType, Split, calibrate, default_trees

#: features each refitted tree may split on
FEATURES = {
    KernelType.GETRF: ("n", "nnz_a", "density"),
    KernelType.GESSM: ("n", "nnz_b"),
    KernelType.TSTRF: ("n", "nnz_b"),
    KernelType.SSSSM: ("n", "density", "flops"),
}


def _tree_str(node, depth=0) -> str:
    pad = "  " * depth
    if isinstance(node, Split):
        return (
            f"{pad}{node.feature} < {node.threshold:.4g}?\n"
            + _tree_str(node.left, depth + 1)
            + "\n"
            + _tree_str(node.right, depth + 1)
        )
    return f"{pad}→ {node}"


def test_fig08_decision_trees(benchmark):
    banner("Fig. 8 — decision-tree kernel selection (calibrated from Fig. 7 sweep)")
    sweep = run_sweep(images=True, repeats=5)
    measurements = {KernelType[family]: s for family, s in sweep.items()}
    learned = calibrate(measurements, feature_by_type=FEATURES)
    benchmark.pedantic(
        lambda: calibrate(measurements, feature_by_type=FEATURES),
        rounds=3, iterations=1,
    )

    for ktype, tree in learned.items():
        print(f"\n{ktype.value}: learned tree")
        print(_tree_str(tree.root))
        oracle = sum(min(t.values()) for _, t in measurements[ktype])
        tree_total = sum(
            t[tree.select(f)] for f, t in measurements[ktype]
        )
        fixed_best = min(
            sum(t[v] for _, t in measurements[ktype])
            for v in measurements[ktype][0][1]
        )
        print(
            f"  sweep time: oracle {oracle * 1e3:.2f} ms | "
            f"tree {tree_total * 1e3:.2f} ms | "
            f"best fixed variant {fixed_best * 1e3:.2f} ms"
        )
        # a tree fitted on the sweep must beat or match every fixed policy
        assert tree_total <= fixed_best + 1e-12
        # and come close to the oracle
        assert tree_total <= 1.6 * oracle
        shipped = default_trees()[ktype]
        shipped_total = sum(t[shipped.select(f)] for f, t in measurements[ktype])
        print(f"  shipped default tree on the same sweep: "
              f"{shipped_total * 1e3:.2f} ms")
        print(_tree_str(shipped.root, 1))

"""Decision-tree kernel selection (Fig. 8 of the paper).

PanguLU picks one of the 17 kernel variants per task from cheap structural
features: ``nnz`` of the operand for the panel kernels (GETRF / GESSM /
TSTRF) and the FLOP count for SSSSM.  The paper derives its thresholds
from a large sweep of measured kernel times on the target GPU; this module

* represents such trees as explicit data (:class:`DecisionTree` /
  :class:`Split` / leaf strings) so the paper's topology is preserved;
* ships :func:`default_trees` with thresholds fitted to *this*
  implementation's kernels (the absolute crossover points of CUDA kernels
  on an A100 obviously differ from NumPy kernels — what is reproduced is
  the mechanism and its effect, see the Fig. 14 ablation bench);
* provides :func:`calibrate` to rebuild the thresholds from fresh
  measurements, mirroring the paper's data-driven construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .base import GETRF_SERIAL_ORDER
from .registry import KernelType

__all__ = [
    "Split",
    "DecisionTree",
    "TaskFeatures",
    "default_trees",
    "calibrate",
    "SelectorPolicy",
]


@dataclass(frozen=True)
class TaskFeatures:
    """Structural features available to the selector before numeric work.

    Attributes
    ----------
    nnz_a:
        nnz of the primary operand (the block for GETRF, the factored
        diagonal block for GESSM/TSTRF, the L-block for SSSSM).
    nnz_b:
        nnz of the secondary operand (0 when not applicable).
    flops:
        structural FLOP count of the task.
    n:
        block order (rows of the diagonal block).
    density:
        nnz of the *output* block over its dense capacity.
    """

    nnz_a: int
    nnz_b: int = 0
    flops: int = 0
    n: int = 1
    density: float = 0.0

    def _field(self, feature: str):
        value = getattr(self, feature, None)
        if value is None:
            raise KeyError(f"unknown feature {feature!r}")
        return value

    def get(self, feature: str) -> float:
        return float(self._field(feature))

    def column(self, feature: str, n: int) -> np.ndarray:
        """:meth:`get` where the fields hold arrays over ``n`` tasks (a
        scalar field stands for every task): the ``float64`` column."""
        column = np.asarray(self._field(feature), dtype=np.float64)
        return np.broadcast_to(column, (n,))


Node = Union["Split", str]


@dataclass(frozen=True)
class Split:
    """Internal decision node: go ``left`` when ``feature < threshold``."""

    feature: str
    threshold: float
    left: Node
    right: Node


@dataclass(frozen=True)
class DecisionTree:
    """A per-kernel-type decision tree selecting a kernel version string.

    >>> tree = DecisionTree(Split("nnz_a", 100.0, "C_V1", "G_V1"))
    >>> tree.select(TaskFeatures(nnz_a=10))
    'C_V1'
    >>> tree.select(TaskFeatures(nnz_a=1000))
    'G_V1'
    """

    root: Node

    def select(self, feats: TaskFeatures) -> str:
        node: Node = self.root
        while isinstance(node, Split):
            node = node.left if feats.get(node.feature) < node.threshold else node.right
        return node

    def select_many(self, feats: TaskFeatures, n: int) -> np.ndarray:
        """:meth:`select` for ``n`` tasks at once — ``feats`` holds one
        array per feature (:meth:`TaskFeatures.column`): every split is
        one ``<`` over the tasks that reach it.  Returns the version
        strings as an array.

        >>> tree = DecisionTree(Split("nnz_a", 100.0, "C_V1", "G_V1"))
        >>> tree.select_many(TaskFeatures(nnz_a=np.array([10, 100])), 2).tolist()
        ['C_V1', 'G_V1']
        """
        names = sorted(set(self.leaves()))
        leaf = np.empty(n, dtype=np.int64)
        stack: list[tuple[Node, np.ndarray]] = [(self.root, np.arange(n))]
        while stack:
            node, tasks = stack.pop()
            if isinstance(node, Split):
                left = feats.column(node.feature, n)[tasks] < node.threshold
                stack += [(node.left, tasks[left]), (node.right, tasks[~left])]
            else:
                leaf[tasks] = names.index(node)
        return np.asarray(names)[leaf]

    def leaves(self) -> list[str]:
        """All version strings reachable from this tree."""
        out: list[str] = []
        stack: list[Node] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Split):
                stack.extend([node.left, node.right])
            else:
                out.append(node)
        return out


def default_trees() -> dict[KernelType, DecisionTree]:
    """Default selection trees.

    Topology follows Fig. 8 (small-nnz → CPU-class sparse kernels,
    mid-range → bin-search/level GPU kernels, large/dense → dense-mapped or
    compiled kernels); thresholds are fitted to this implementation by
    ``benchmarks/bench_fig08_selector.py``.
    """
    # Thresholds fitted by the bench_fig08_selector.py sweep (CART over
    # bench_fig07_kernels.py's 26 points: random fill at block orders
    # 16–256, densities 0.01–1.0, banded at orders 52–512; best of 5;
    # dense-mapped variants handed their cached images, as the
    # factorisation runs them; GETRF over (n, nnz_a, density), panel
    # trees over (n, nnz_b), SSSSM over (n, density, flops)).  GESSM /
    # SSSSM 2026-09-29, GETRF / TSTRF 2026-10-15.  Valid for block orders
    # up to 512; dense panels above order 256 are not in the sweep (a
    # sparse variant takes seconds there), their dense leaf extrapolated.
    # GETRF: C_V1 is one LAPACK getrf up to GETRF_SERIAL_ORDER (0.25 ms
    # at order 128 against 2.5 for G_V2) and wins the blocks of 100 or
    # more stored entries there (fitted: 68; one random-fill block that
    # row-swaps, so runs the loop, loses 0.99 ms to 0.69).  Above that
    # order it is the rank-1 loop, which still wins dense blocks (40 ms
    # against 64 at order 384, density 0.24) but loses sparse ones to
    # G_V2 (fitted between densities 0.09 and 0.24: 3.9 ms against 12.7
    # at order 256, density 0.03).  280 ms over the sweep, the oracle's
    # 280; the tree with C_V1 everywhere above 100 entries, 615.  The
    # branch above GETRF_SERIAL_ORDER is there for Fig. 8 fidelity only:
    # no benchmark workload has a GETRF block of order 129 or more, so on
    # them this tree is Split("nnz_a", 100, "G_V1", "C_V1").
    getrf = DecisionTree(
        Split(
            "n",
            GETRF_SERIAL_ORDER + 1.0,
            Split("nnz_a", 100.0, "G_V1", "C_V1"),
            Split("density", 0.16, "G_V2", "C_V1"),
        )
    )
    # GESSM / TSTRF (one tree: TSTRF is GESSM on the transposed pair).
    # With one GEMM per dense-mapped task the dense path wins everywhere
    # but on sparse panels of large blocks, where the n³ of the GEMM (in
    # slabs above order 80, see ``serial_matmul``) meets a cost
    # proportional to nnz: from order 144 up, below 500 stored entries,
    # the sparse G_V1 (GESSM 0.26 ms against 1.02 at order 256, 0.43
    # against 14.9 at 512; TSTRF 0.44 against 1.06 and 0.48 against
    # 13.9).  TSTRF over the sweep 30.9 ms, oracle 28.8; 39.4 when its
    # sparse leaf started at order 448.  The compiled G_V3 leaves are
    # gone (9.5 ms against 1.9 ms on a dense 256-panel).
    panel = DecisionTree(
        Split("nnz_b", 500.0, Split("n", 144.0, "C_V2", "G_V1"), "C_V2")
    )
    # SSSSM: a dense image costs n³ whatever the FLOPs, so the block
    # order guards the paper's FLOP split: below 176 (the fitted
    # split) the GEMM on dense images wins at any density —
    # 0.06 ms against 0.19 ms for G_V1 at n = 104, density 0.07; 1.0 ms
    # against 0.24 ms at n = 256.  Above it the bin-search kernels take
    # targets less than a third full (fitted: 0.32; 0.8 ms against 7.0
    # at n = 384, density 0.24); the FLOP split under that is as fitted
    # before (C_V2 and G_V1 are within 10 % of each other on the
    # sweep's five samples below it).
    ssssm = DecisionTree(
        Split(
            "n",
            176.0,
            "C_V1",
            Split(
                "density",
                0.32,
                Split("flops", 100.0, "C_V2", "G_V1"),
                "C_V1",
            ),
        )
    )
    return {
        KernelType.GETRF: getrf,
        KernelType.GESSM: panel,
        KernelType.TSTRF: panel,
        KernelType.SSSSM: ssssm,
    }


def fixed_trees(versions: dict[KernelType, str]) -> dict[KernelType, DecisionTree]:
    """Degenerate trees that always pick one version per type — the paper's
    "baseline" configuration in the Fig. 14 ablation."""
    return {k: DecisionTree(v) for k, v in versions.items()}


@dataclass
class SelectorPolicy:
    """Kernel selection policy used by the numeric driver: one decision
    tree per kernel type (:meth:`fixed` builds degenerate ones — the
    ablation mode)."""

    trees: dict[KernelType, DecisionTree]

    @classmethod
    def default(cls) -> "SelectorPolicy":
        return cls(trees=default_trees())

    @classmethod
    def fixed(cls, versions: dict[KernelType, str] | None = None) -> "SelectorPolicy":
        """The non-adaptive baseline of the Fig. 14 ablation."""
        if versions is None:
            versions = {
                KernelType.GETRF: "G_V1",
                KernelType.GESSM: "G_V1",
                KernelType.TSTRF: "G_V1",
                KernelType.SSSSM: "C_V2",
            }
        return cls(trees=fixed_trees(versions))

    def select(self, ktype: KernelType, feats: TaskFeatures) -> str:
        """The version its tree picks for one task's features."""
        return self.trees[ktype].select(feats)


def calibrate(
    measurements: dict[KernelType, list[tuple[TaskFeatures, dict[str, float]]]],
    *,
    feature_by_type: dict[KernelType, str | tuple[str, ...]] | None = None,
    max_depth: int = 3,
) -> dict[KernelType, DecisionTree]:
    """Rebuild decision trees from measured per-variant kernel times.

    ``measurements[ktype]`` is a list of ``(features, {version: seconds})``
    samples.  A small exact CART greedily picks thresholds minimising the
    total time of the selected kernels — over one feature per type by
    default (the paper uses nnz for panel kernels, FLOPs for SSSSM), over
    the best of several where ``feature_by_type`` gives a tuple.
    """
    if feature_by_type is None:
        feature_by_type = {
            KernelType.GETRF: "nnz_a",
            KernelType.GESSM: "nnz_b",
            KernelType.TSTRF: "nnz_b",
            KernelType.SSSSM: "flops",
        }

    def best_leaf(samples: list[tuple[TaskFeatures, dict[str, float]]]) -> tuple[str, float]:
        totals: dict[str, float] = {}
        for _, times in samples:
            for v, t in times.items():
                totals[v] = totals.get(v, 0.0) + t
        version = min(totals, key=totals.get)  # type: ignore[arg-type]
        return version, totals[version]

    def build(samples, features, depth) -> Node:
        leaf, leaf_cost = best_leaf(samples)
        if depth >= max_depth or len(samples) < 4:
            return leaf
        best: tuple[float, Node] = (leaf_cost, leaf)
        for feature in features:
            xs = sorted({s.get(feature) for s, _ in samples})
            for i in range(1, len(xs)):
                thr = 0.5 * (xs[i - 1] + xs[i])
                left = [s for s in samples if s[0].get(feature) < thr]
                right = [s for s in samples if s[0].get(feature) >= thr]
                _, cl = best_leaf(left)
                _, cr = best_leaf(right)
                if cl + cr < best[0] - 1e-12:
                    best = (
                        cl + cr,
                        Split(
                            feature,
                            thr,
                            build(left, features, depth + 1),
                            build(right, features, depth + 1),
                        ),
                    )
        return best[1]

    out: dict[KernelType, DecisionTree] = {}
    for ktype, samples in measurements.items():
        if not samples:
            raise ValueError(f"no samples for {ktype}")
        features = feature_by_type[ktype]
        if isinstance(features, str):
            features = (features,)
        out[ktype] = DecisionTree(build(samples, features, 0))
    return out

"""Tests for the decision-tree kernel selector and its calibrator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import (
    KERNEL_REGISTRY,
    DecisionTree,
    KernelType,
    SelectorPolicy,
    Split,
    TaskFeatures,
    calibrate,
    default_trees,
)


class TestDecisionTree:
    def test_split_routing(self):
        tree = DecisionTree(Split("nnz_a", 100.0, "C_V1", "G_V1"))
        assert tree.select(TaskFeatures(nnz_a=50)) == "C_V1"
        assert tree.select(TaskFeatures(nnz_a=100)) == "G_V1"
        assert tree.select(TaskFeatures(nnz_a=500)) == "G_V1"

    def test_nested(self):
        tree = DecisionTree(
            Split("nnz_a", 100.0, Split("density", 0.5, "A", "B"), "C")
        )
        assert tree.select(TaskFeatures(nnz_a=10, density=0.1)) == "A"
        assert tree.select(TaskFeatures(nnz_a=10, density=0.9)) == "B"
        assert tree.select(TaskFeatures(nnz_a=200, density=0.9)) == "C"

    def test_leaves(self):
        tree = DecisionTree(Split("flops", 1.0, "X", Split("flops", 2.0, "Y", "Z")))
        assert sorted(tree.leaves()) == ["X", "Y", "Z"]

    def test_unknown_feature(self):
        tree = DecisionTree(Split("bogus", 1.0, "A", "B"))
        with pytest.raises(KeyError):
            tree.select(TaskFeatures(nnz_a=1))
        with pytest.raises(KeyError):
            tree.select_many(TaskFeatures(nnz_a=np.ones(2)), 2)

    def test_array_evaluation_is_select_per_task(self):
        # random features, a third of them exactly on a threshold of the
        # tree they go through (`<` sends those right)
        rng = np.random.default_rng(0)
        n = 400
        for ktype, tree in default_trees().items():
            cols = {
                "nnz_a": rng.integers(0, 2000, n), "nnz_b": rng.integers(0, 2000, n),
                "flops": rng.integers(0, 400, n), "n": rng.integers(1, 600, n),
                "density": rng.random(n),
            }
            stack = [tree.root]
            while stack:
                node = stack.pop()
                if isinstance(node, Split):
                    hit = rng.random(n) < 0.33 / len(cols)
                    cols[node.feature] = np.where(
                        hit, node.threshold, cols[node.feature]
                    ).astype(cols[node.feature].dtype)
                    stack += [node.left, node.right]
            got = tree.select_many(TaskFeatures(**cols), n)
            want = [
                tree.select(TaskFeatures(**{k: v[i].item() for k, v in cols.items()}))
                for i in range(n)
            ]
            assert got.tolist() == want, ktype
            assert len(set(want)) == len(set(tree.leaves())), ktype
        # a scalar field stands for every task; no task, no answer
        tree = DecisionTree(Split("nnz_b", 1.0, "A", "B"))
        assert tree.select_many(TaskFeatures(nnz_a=np.arange(3)), 3).tolist() == ["A"] * 3
        assert tree.select_many(TaskFeatures(nnz_a=np.arange(0)), 0).size == 0


class TestDefaults:
    def test_all_types_covered(self):
        trees = default_trees()
        assert set(trees) == set(KernelType)

    def test_leaves_are_registered_versions(self):
        trees = default_trees()
        for ktype, tree in trees.items():
            for leaf in tree.leaves():
                assert leaf in KERNEL_REGISTRY[ktype], (ktype, leaf)

    def test_small_tasks_avoid_compiled_kernels(self):
        pol = SelectorPolicy.default()
        # tiny product on a large sparse block: the cheap bin-search path
        v = pol.select(
            KernelType.SSSSM,
            TaskFeatures(nnz_a=5, nnz_b=5, flops=10, n=256, density=0.01),
        )
        assert v == "C_V2"
        # tiny product on a small block: the dense GEMM is essentially free
        v = pol.select(
            KernelType.SSSSM,
            TaskFeatures(nnz_a=5, nnz_b=5, flops=10, n=32, density=0.05),
        )
        assert v == "C_V1"


class TestFixedPolicy:
    def test_fixed_always_same(self):
        pol = SelectorPolicy.fixed()
        for feats in (
            TaskFeatures(nnz_a=1, flops=1),
            TaskFeatures(nnz_a=10**6, flops=10**9, density=1.0),
        ):
            assert pol.select(KernelType.GETRF, feats) == "G_V1"
            assert pol.select(KernelType.SSSSM, feats) == "C_V2"

    def test_fixed_custom(self):
        pol = SelectorPolicy.fixed({k: "C_V1" for k in KernelType})
        assert pol.select(KernelType.GETRF, TaskFeatures(nnz_a=1)) == "C_V1"


class TestCalibrate:
    def _samples(self):
        # variant "SLOW" is best below 100 nnz, "FAST" above
        samples = []
        for nnz in [10, 20, 50, 80, 150, 300, 700, 1000]:
            times = {
                "SLOW": 1.0 + nnz / 100.0,
                "FAST": 3.0 + nnz / 1000.0,
            }
            samples.append((TaskFeatures(nnz_a=nnz), times))
        return samples

    def test_learns_crossover(self):
        trees = calibrate({KernelType.GETRF: self._samples()})
        tree = trees[KernelType.GETRF]
        assert tree.select(TaskFeatures(nnz_a=10)) == "SLOW"
        assert tree.select(TaskFeatures(nnz_a=1000)) == "FAST"

    def test_single_variant_collapses_to_leaf(self):
        samples = [
            (TaskFeatures(nnz_a=n), {"ONLY": float(n)}) for n in range(1, 9)
        ]
        trees = calibrate({KernelType.GESSM: samples})
        assert trees[KernelType.GESSM].root == "ONLY"

    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="no samples"):
            calibrate({KernelType.TSTRF: []})

    def test_calibrated_total_not_worse_than_any_fixed(self):
        samples = self._samples()
        trees = calibrate({KernelType.GETRF: samples})
        tree = trees[KernelType.GETRF]
        total_tree = sum(t[tree.select(f)] for f, t in samples)
        for v in ("SLOW", "FAST"):
            total_fixed = sum(t[v] for _, t in samples)
            assert total_tree <= total_fixed + 1e-12

    def test_several_features_split_on_the_one_that_separates(self):
        """A dense image costs n³ whatever the nnz: the crossover of the
        dense-mapped panel kernels is in the block order, which a tree
        over nnz alone cannot express."""
        samples = [
            (TaskFeatures(nnz_a=0, nnz_b=nnz, n=n),
             {"DENSE": (n / 100.0) ** 3, "SPARSE": 1.0 + nnz / 1000.0})
            for n in (50, 100, 200, 400)
            for nnz in (10, 100)
        ]
        by_nnz = calibrate({KernelType.TSTRF: samples})[KernelType.TSTRF]
        both = calibrate(
            {KernelType.TSTRF: samples},
            feature_by_type={KernelType.TSTRF: ("nnz_b", "n")},
        )[KernelType.TSTRF]
        assert both.root.feature == "n" and both.root.threshold == 150.0
        assert both.select(TaskFeatures(nnz_a=0, nnz_b=10, n=50)) == "DENSE"
        assert both.select(TaskFeatures(nnz_a=0, nnz_b=10, n=400)) == "SPARSE"
        totals = [
            sum(t[tree.select(f)] for f, t in samples) for tree in (both, by_nnz)
        ]
        assert totals[0] < totals[1]


class TestDefaultTreesGuardWideBlocks:
    """The dense leaves are fitted on block orders up to 512 with sparse
    panels in the sweep: near-empty panels of wide blocks must not pay
    the n³ of a GEMM in slabs."""

    @pytest.mark.parametrize("ktype", [KernelType.GESSM, KernelType.TSTRF])
    def test_near_empty_panel_of_a_wide_block_goes_sparse(self, ktype):
        pol = SelectorPolicy.default()
        wide = TaskFeatures(nnz_a=2000, nnz_b=6, flops=40, n=512, density=2e-5)
        assert pol.select(ktype, wide) in ("C_V1", "G_V1")
        dense = TaskFeatures(nnz_a=2000, nnz_b=90_000, n=512, density=0.4)
        assert pol.select(ktype, dense) == "C_V2"
        narrow = TaskFeatures(nnz_a=500, nnz_b=6, flops=40, n=64, density=1e-3)
        assert pol.select(ktype, narrow) == "C_V2"

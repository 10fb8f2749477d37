"""Unit tests for runtime helpers not covered by the larger suites."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baseline import SuperLUBaseline, sn_etree_levels
from repro.kernels.base import solve_levels
from repro.runtime import A100_PLATFORM, MI50_PLATFORM, CPU_PLATFORM
from repro.sparse import random_sparse


class TestPlatforms:
    def test_message_time_components(self):
        p = A100_PLATFORM
        lat_only = p.message_time(0, 1, 0.0)
        assert lat_only == pytest.approx(p.intra_latency)
        big = p.message_time(0, 1, 1e9)
        assert big == pytest.approx(p.intra_latency + 1e9 / p.intra_bandwidth)

    def test_node_boundary(self):
        p = A100_PLATFORM  # 4 procs per node
        assert p.message_time(3, 4, 1e6) > p.message_time(0, 3, 1e6)
        assert p.message_time(4, 7, 1e6) == p.message_time(0, 3, 1e6)

    def test_platform_orderings(self):
        assert A100_PLATFORM.gpu.flops_peak > MI50_PLATFORM.gpu.flops_peak
        assert CPU_PLATFORM.gpu.flops_peak == CPU_PLATFORM.cpu.flops_peak


class TestSolveLevels:
    def test_diagonal_only_single_level(self):
        indptr = np.array([0, 1, 2, 3])
        cols = np.array([0, 1, 2])
        levels = solve_levels(indptr, cols, 3)
        assert len(levels) == 1
        np.testing.assert_array_equal(levels[0], [0, 1, 2])

    def test_chain_gives_one_row_per_level(self):
        # row r depends on r-1 (bidiagonal)
        indptr = np.array([0, 1, 3, 5])
        cols = np.array([0, 0, 1, 1, 2])
        levels = solve_levels(indptr, cols, 3)
        assert [list(l) for l in levels] == [[0], [1], [2]]

    def test_empty(self):
        assert solve_levels(np.array([0]), np.array([], dtype=int), 0) == []


class TestSupernodeEtree:
    def test_levels_consistent_with_parents(self):
        a = random_sparse(60, 0.07, seed=2)
        bl = SuperLUBaseline(a)
        bl.preprocess()
        levels = sn_etree_levels(bl.partition)
        assert levels.shape == (bl.partition.n_supernodes,)
        assert levels.min() >= 0
        # a parent's level strictly exceeds each child's
        col_to_sn = bl.partition.supernode_of_column()
        for k in range(bl.partition.n_supernodes):
            rows = bl.partition.panel_rows[k]
            if rows.size:
                parent = int(col_to_sn[int(rows[0])])
                assert levels[parent] > levels[k]


class TestChromeTrace:
    def test_events_well_formed(self, tmp_path):
        import json

        from repro.runtime import (
            EventRecorder, SimSpec, simulate, write_recorder_trace,
        )

        spec = SimSpec(
            durations=np.asarray([1e-3, 2e-3]),
            owner=np.asarray([0, 1]),
            out_bytes=np.asarray([800.0, 0.0]),
            n_deps=np.asarray([0, 1]),
            successors=[[1], []],
            priority=np.asarray([0.0, 1.0]),
            nprocs=2,
        )
        rec = EventRecorder()
        res = simulate(
            spec, CPU_PLATFORM, recorder=rec,
            label=lambda tid: ("ab"[tid], ("GETRF", "SSSSM")[tid]),
        )
        path = tmp_path / "trace.json"
        write_recorder_trace(path, rec)
        events = json.loads(path.read_text())["traceEvents"]
        tasks = [e for e in events if e["ph"] == "X"]
        assert [(e["name"], e["cat"], e["tid"]) for e in tasks] == [
            ("a", "GETRF", 0), ("b", "SSSSM", 1),
        ]
        assert tasks[0]["ts"] == 0.0 and tasks[0]["dur"] == pytest.approx(1e3)
        # the cross-process edge is one flow arrow, from a's end to the
        # message's arrival, which b's start does not precede
        send, recv = (
            next(e for e in events if e["ph"] == ph) for ph in ("s", "f")
        )
        assert send["id"] == recv["id"] and res.messages == 1
        assert (send["tid"], recv["tid"]) == (0, 1)
        assert send["ts"] == pytest.approx(tasks[0]["dur"])
        assert recv["ts"] == pytest.approx(
            send["ts"] + CPU_PLATFORM.message_time(0, 1, 800.0) * 1e6
        )
        assert tasks[1]["ts"] >= recv["ts"] - 1e-6


class TestNorms:
    def test_norm_1_and_inf(self):
        from repro.sparse import CSCMatrix

        d = np.array([[1.0, -2.0], [3.0, 0.0]])
        m = CSCMatrix.from_dense(d)
        assert m.norm_1() == 4.0
        assert m.norm_inf() == 3.0
        assert CSCMatrix.empty((2, 2)).norm_1() == 0.0

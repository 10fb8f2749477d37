"""Tests for the analysis/report helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    DENSITY_BIN_LABELS,
    format_table,
    gemm_density_histogram,
    geometric_mean,
    speedup_summary,
)
from repro.baseline.supernodal import GEMMRecord


class TestGeometricMean:
    def test_basic(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([5.0]) == pytest.approx(5.0)

    def test_matches_paper_style_aggregate(self):
        speedups = [1.10, 11.70, 2.0, 3.0]
        gm = geometric_mean(speedups)
        assert np.exp(np.mean(np.log(speedups))) == pytest.approx(gm)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestDensityHistogram:
    def _rec(self, da, db, dc):
        return GEMMRecord(m=4, n=4, k=4, density_a=da, density_b=db, density_c=dc)

    def test_bins_sum_to_100(self):
        gemms = [self._rec(0.05, 0.5, 0.95), self._rec(0.15, 0.55, 1.0)]
        hist = gemm_density_histogram(gemms)
        for key in ("A", "B", "C"):
            assert hist[key].sum() == pytest.approx(100.0)
            assert hist[key].shape == (10,)

    def test_bin_placement(self):
        gemms = [self._rec(0.05, 0.5, 1.0)]
        hist = gemm_density_histogram(gemms)
        assert hist["A"][0] == 100.0
        assert hist["B"][5] == 100.0
        assert hist["C"][9] == 100.0  # density exactly 1.0 → last bin

    def test_empty(self):
        hist = gemm_density_histogram([])
        for key in ("A", "B", "C"):
            np.testing.assert_array_equal(hist[key], np.zeros(10))

    def test_labels(self):
        assert len(DENSITY_BIN_LABELS) == 10
        assert DENSITY_BIN_LABELS[0] == "[0,10)"


class TestFormatting:
    def test_format_table_alignment(self):
        out = format_table(["name", "x"], [["a", 1.5], ["long-name", 20.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "long-name" in lines[3]
        assert "1.50" in lines[2]

    def test_empty_rows(self):
        out = format_table(["h1", "h2"], [])
        assert "h1" in out

    def test_speedup_summary(self):
        s = speedup_summary({"a": 2.0, "b": 8.0})
        assert "geomean 4.00x" in s
        assert "range 2.00x" in s and "8.00x" in s


class TestGantt:
    """``render_gantt`` draws a recorder: a simulated run here, a real
    one in ``test_real_run``."""

    def _recorder(self):
        from repro.runtime import CPU_PLATFORM, EventRecorder, SimSpec, simulate

        spec = SimSpec(
            durations=np.asarray([1.0, 2.0, 1.0]),
            owner=np.asarray([0, 1, 0]),
            out_bytes=np.zeros(3),
            n_deps=np.asarray([0, 0, 1]),
            successors=[[2], [], []],
            priority=np.arange(3, dtype=float),
            nprocs=2,
        )
        rec = EventRecorder()
        cats = ("GETRF", "GESSM", "TSTRF")
        simulate(spec, CPU_PLATFORM, recorder=rec,
                 label=lambda tid: (f"t{tid}", cats[tid]))
        return rec

    def test_render_shape(self):
        from repro.analysis import render_gantt

        out = render_gantt(self._recorder(), width=40)
        lines = out.splitlines()
        assert len(lines) == 3  # 2 procs + time legend
        assert lines[0].startswith("p0")
        # p0 runs 2 s of the 2 s makespan, p1 all of it
        assert "100.0% busy" in lines[0] and "100.0% busy" in lines[1]
        assert "2000.000 ms" in lines[2]

    def test_kinds_glyphs(self):
        from repro.analysis import render_gantt

        out = render_gantt(self._recorder(), width=40)
        p0, p1, legend = out.splitlines()
        assert set(p0.split("|")[1]) == {"F", "U"}
        assert set(p1.split("|")[1]) == {"L"}
        assert "F=GETRF L=GESSM U=TSTRF" in legend

    def test_max_procs_truncation(self):
        from repro.analysis import render_gantt

        out = render_gantt(self._recorder(), width=20, max_procs=1)
        assert "more processes not shown" in out

    def test_real_run(self):
        from repro.analysis import render_gantt
        from repro.core import block_partition, build_dag, factorize
        from repro.runtime import EventRecorder
        from repro.sparse import random_sparse
        from repro.symbolic import symbolic_symmetric

        a = random_sparse(48, 0.08, seed=3)
        f = block_partition(symbolic_symmetric(a).filled, 8)
        dag = build_dag(f)
        rec = EventRecorder()
        factorize(f, dag, n_lanes=2, recorder=rec)
        out = render_gantt(rec, width=30)
        assert out.splitlines()[0].startswith("p0")
        assert "GETRF" in out.splitlines()[-1]

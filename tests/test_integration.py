"""Cross-module integration tests: the full pipeline end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro import PanguLU, SolverOptions
from repro.baseline import SuperLUBaseline, simulate_superlu
from repro.core import factorize
from repro.runtime import (
    A100_PLATFORM,
    MI50_PLATFORM,
    simulate_pangulu,
)
from repro.sparse import generate, read_matrix_market, write_matrix_market


class TestFullPipeline:
    def test_mtx_file_to_solution(self, tmp_path):
        """Matrix Market ingestion → reorder → symbolic → numeric → solve,
        the exact workflow of PanguLU's artifact."""
        a = generate("CoupCons3D", scale=0.1)
        path = tmp_path / "coupcons.mtx"
        write_matrix_market(path, a)
        loaded = read_matrix_market(path)
        s = PanguLU(loaded)
        b = np.sin(np.arange(loaded.nrows))
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-8

    def test_both_solvers_same_answer(self):
        a = generate("cage12", scale=0.15)
        b = np.ones(a.nrows)
        x_pg = PanguLU(a).solve(b)
        x_bl = SuperLUBaseline(a).solve(b)
        np.testing.assert_allclose(x_pg, x_bl, atol=1e-6)

    def test_threaded_solution_matches(self):
        a = generate("ldoor", scale=0.1)
        s = PanguLU(a)
        s.preprocess()
        factorize(s.blocks, s.dag, n_lanes=4)
        s._factorized = True
        from repro.runtime import RunReport

        s.numeric_stats = RunReport()
        b = np.ones(a.nrows)
        x = s.solve(b)
        assert s.residual_norm(x, b) < 1e-8

    def test_simulated_speedup_shape(self):
        """Scaling up processes must not slow down a flop-heavy matrix by
        more than noise, and the 16-proc run must beat 1 proc."""
        a = generate("Si87H76", scale=0.35)
        s = PanguLU(a)
        s.preprocess()
        g1 = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 1).gflops
        g16 = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 16).gflops
        assert g16 > g1

    def test_two_platforms_differ(self):
        a = generate("ecology1", scale=0.25)
        s = PanguLU(a)
        s.preprocess()
        t_a100 = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 4).result.makespan
        t_mi50 = simulate_pangulu(s.blocks, s.dag, MI50_PLATFORM, 4).result.makespan
        assert t_a100 != t_mi50

    def test_headline_comparison_irregular(self):
        """ASIC-like matrix: PanguLU wins the simulated head-to-head and
        its symbolic phase is faster in real wall-clock (Figs. 11/12)."""
        a = generate("ASIC_680k", scale=0.3)
        s = PanguLU(a)
        s.preprocess()
        bl = SuperLUBaseline(a)
        bl.preprocess()
        # real symbolic wall-clock: etree walk beats column DFS
        assert s.phase_seconds["symbolic"] < bl.phase_seconds["symbolic"]
        # simulated 8-process numeric factorisation
        pg = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 8)
        res_bl, _ = simulate_superlu(bl.panels, bl.partition, A100_PLATFORM, 8)
        assert pg.result.makespan < res_bl.makespan

    def test_load_balancing_helps_or_neutral(self):
        a = generate("nlpkkt80", scale=0.25)
        s = PanguLU(a)
        s.preprocess()
        on = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 8, load_balance=True)
        off = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 8, load_balance=False)
        # balancing must not catastrophically regress the makespan
        assert on.result.makespan < off.result.makespan * 1.5


class TestReproducibility:
    def test_pipeline_deterministic(self):
        a = generate("G3_circuit", scale=0.2, seed=3)
        b = np.arange(1.0, a.nrows + 1)
        x1 = PanguLU(a, SolverOptions()).solve(b)
        x2 = PanguLU(a, SolverOptions()).solve(b)
        np.testing.assert_array_equal(x1, x2)

    def test_simulation_deterministic(self):
        a = generate("apache2", scale=0.2)
        s = PanguLU(a)
        s.preprocess()
        m1 = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 8).result.makespan
        m2 = simulate_pangulu(s.blocks, s.dag, A100_PLATFORM, 8).result.makespan
        assert m1 == m2

"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.__main__ import main
from repro.sparse import generate, read_matrix_market, write_matrix_market


class TestSolve:
    def test_solve_analogue(self, capsys):
        rc = main(["solve", "ecology1", "--scale", "0.15"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "relative residual" in out
        assert re.search(r"numeric: .*pivots replaced = \d+,", out)

    def test_solve_mtx_file(self, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        write_matrix_market(path, generate("G3_circuit", scale=0.15))
        rc = main(["solve", str(path), "--ordering", "amd"])
        assert rc == 0
        assert "residual" in capsys.readouterr().out

    @pytest.mark.parametrize("ordering", ["colamd", "best"])
    def test_solve_takes_every_ordering_the_options_accept(self, ordering, capsys):
        """``--ordering`` reads its choices from the solver's own table."""
        rc = main(["solve", "ecology1", "--scale", "0.12", "--ordering", ordering])
        assert rc == 0
        assert "relative residual" in capsys.readouterr().out

    def test_solve_writes_solution(self, tmp_path, capsys):
        out_path = tmp_path / "x.txt"
        rc = main(["solve", "ecology1", "--scale", "0.12",
                   "--output", str(out_path)])
        assert rc == 0
        x = np.loadtxt(out_path)
        a = generate("ecology1", scale=0.12)
        assert np.linalg.norm(a.matvec(x) - 1.0) < 1e-8

    def test_solve_rejects_rectangular(self, tmp_path, capsys):
        from repro.sparse import CSCMatrix

        path = tmp_path / "rect.mtx"
        d = np.ones((2, 3))
        write_matrix_market(path, CSCMatrix.from_dense(d))
        rc = main(["solve", str(path)])
        assert rc == 2


class TestInfo:
    def test_info(self, capsys):
        rc = main(["info", "cage12", "--scale", "0.15"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "nnz" in out and "bandwidth" in out

    def test_info_symbolic(self, capsys):
        rc = main(["info", "ecology1", "--scale", "0.12", "--symbolic"])
        assert rc == 0
        assert "nnz(L+U)" in capsys.readouterr().out


class TestGenerate:
    def test_generate_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "gen.mtx"
        rc = main(["generate", "apache2", str(path), "--scale", "0.12"])
        assert rc == 0
        a = read_matrix_market(path)
        b = generate("apache2", scale=0.12)
        assert a == b

    def test_generate_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "bogus", "out.mtx"])


class TestSimulate:
    def test_simulate_table(self, capsys):
        rc = main(["simulate", "ecology1", "--scale", "0.12",
                   "--max-procs", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "GFLOP/s" in out
        assert "procs" in out

    def test_simulate_mi50(self, capsys):
        rc = main(["simulate", "G3_circuit", "--scale", "0.1",
                   "--platform", "mi50", "--max-procs", "2"])
        assert rc == 0


class TestEstimate:
    def test_estimate_table(self, capsys):
        rc = main(["estimate", "ecology1", "--scale", "0.12",
                   "--procs", "1", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pred. GFLOP/s" in out
        assert "factor storage" in out


class TestSolveWorkers:
    def test_threaded_solve(self, capsys):
        rc = main(["solve", "G3_circuit", "--scale", "0.12",
                   "--workers", "3"])
        assert rc == 0
        assert "residual" in capsys.readouterr().out


class TestSimulateTrace:
    def test_trace_written(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["simulate", "ecology1", "--scale", "0.1",
                   "--max-procs", "2", "--trace", str(out)])
        assert rc == 0
        import json

        events = json.loads(out.read_text())["traceEvents"]
        # the 2-process run, through the exporter real runs use: task
        # slices on both process lanes, labelled as the engines label
        # factor tasks, and its messages as paired flow arrows
        tasks = [e for e in events if e["ph"] == "X"]
        assert {e["tid"] for e in tasks} == {0, 1}
        assert "GETRF(k=0,0,0)" in {e["name"] for e in tasks}
        sends = [e for e in events if e["ph"] == "s"]
        recvs = [e for e in events if e["ph"] == "f"]
        assert sends and len(sends) == len(recvs)


class TestEngineFlag:
    @pytest.mark.parametrize("engine", ["sequential", "threaded", "distributed"])
    def test_engine_selected(self, engine, capsys):
        rc = main(["solve", "ecology1", "--scale", "0.12",
                   "--engine", engine, "--workers", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"engine = {engine}" in out
        assert "relative residual" in out

    def test_real_run_trace_written(self, tmp_path, capsys):
        import json

        out = tmp_path / "real.json"
        rc = main(["solve", "ecology1", "--scale", "0.12",
                   "--engine", "threaded", "--workers", "2",
                   "--trace", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        tasks = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert tasks and all("dur" in e for e in tasks)

    def test_distributed_trace_has_flow_events(self, tmp_path, capsys):
        import json

        out = tmp_path / "dist.json"
        rc = main(["solve", "ecology1", "--scale", "0.12",
                   "--engine", "distributed", "--workers", "2",
                   "--trace", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        phases = {e["ph"] for e in data["traceEvents"]}
        assert {"X", "s", "f"} <= phases

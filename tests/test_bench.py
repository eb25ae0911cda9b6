import os
import subprocess
import sys
from pathlib import Path

import pytest

import degmatch
import degmatch.bench as bench
import degmatch.matcher as matcher
from degmatch.bench import GridSpec, parse_grid, run_scaling


class TestParseGrid:
    def test_full_spec(self):
        grid = parse_grid("n=1024,2048,k=1,2,4,sigma=8,reps=6,m=32")
        assert grid.n_values == (1024, 2048)
        assert grid.k_values == (1, 2, 4)
        assert grid.sigma == 8 and grid.reps == 6 and grid.m == 32

    def test_defaults(self):
        grid = parse_grid("n=512,k=2")
        assert grid.sigma == 4 and grid.reps == 5 and grid.m == 64

    @pytest.mark.parametrize("bad", [
        "k=1",                  # n missing
        "n=10,k=1,sigma=2,4",   # sigma is scalar
        "n=abc,k=1",            # not an integer
        "10,k=1",               # value before any key
        "n=10,k=1,zap=3",       # unknown key
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_grid(bad)

    def test_reps_minimum(self):
        with pytest.raises(ValueError):
            GridSpec(n_values=(100,), k_values=(1,), reps=3)


class TestRunScaling:
    def test_small_grid_reports_all_cells(self):
        grid = GridSpec(n_values=(256, 512), k_values=(1, 2), m=16, reps=5)
        report = run_scaling(grid)
        assert len(report.cells) == 4
        for cell in report.cells:
            assert cell.build_ms >= 0 and cell.search_ms >= 0
            # solid text: every alignment takes exactly k+1 queries
            assert cell.lce_queries == cell.query_bound == (cell.k + 1) * (cell.n - cell.m + 1)

    def test_single_alignment_boundary(self):
        grid = GridSpec(n_values=(48,), k_values=(2,), m=48, reps=5)
        report = run_scaling(grid)
        cell = report.cell(48, 2)
        assert cell.query_bound == 3  # n == m leaves one alignment
        assert cell.lce_queries == 3

    def test_tsv_shape(self):
        grid = GridSpec(n_values=(128,), k_values=(1,), m=16, reps=5)
        lines = run_scaling(grid).to_tsv().splitlines()
        assert len(lines) == 2
        header = lines[0].split("\t")
        row = lines[1].split("\t")
        assert len(header) == len(row) == 10
        assert header[0] == "n" and row[0] == "128"

    def test_times_the_production_stages(self, monkeypatch):
        assert bench.prepare is matcher.prepare and bench.search is matcher.search
        calls = {"prepare": 0, "search": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bench, "prepare", counted("prepare", matcher.prepare))
        monkeypatch.setattr(bench, "search", counted("search", matcher.search))
        grid = GridSpec(n_values=(128, 256), k_values=(1, 2, 3), m=16, reps=6)
        run_scaling(grid)
        assert calls == {"prepare": 6 * 6, "search": 6 * 6}

    def test_query_bound_checked_under_optimize(self):
        # the check must not be an assert statement, which python -O drops
        script = (
            "import dataclasses, degmatch.bench as bench\n"
            "search = bench.search\n"
            "def over(*args, **kwargs):\n"
            "    report = search(*args, **kwargs)\n"
            "    return dataclasses.replace(report, lce_queries=report.lce_queries + 10**6)\n"
            "bench.search = over\n"
            "bench.run_scaling(bench.GridSpec(n_values=(128,), k_values=(1,), m=16, reps=5))\n"
        )
        path = [str(Path(degmatch.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode != 0
        assert "AssertionError: LCE query count" in result.stderr
        assert "exceeds (k+1)(n-m+1) = 226 at n=128, k=1" in result.stderr

    def test_cell_lookup_missing(self):
        grid = GridSpec(n_values=(128,), k_values=(1,), m=16, reps=5)
        report = run_scaling(grid)
        with pytest.raises(KeyError):
            report.cell(999, 1)

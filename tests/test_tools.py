"""The ``tools/bench_*.py`` timing scripts import private names of
polyaspec, so each is run here on one cheap row, with one timed call, in a
fresh interpreter on this checkout's ``src``: its output is one JSON object
with the row's name, the quartiles of its samples and the row's own fields."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_SUMMARY = {"row", "median", "q1", "q3", "n", "times_ms"}


@pytest.mark.parametrize("tool, row, fields", [
    ("bench_exact_sweep", "interval-1-dirichlet-1e5-build",
     {"peak_mb", "runs", "shift", "int64", "below_2_53"}),
    ("bench_exact_sweep", "sphere-pi24-dirichlet-1e5-cli",
     {"runs", "shift", "int64", "below_2_53"}),
    ("bench_counting", "seeley-7/2x9/2", {"result"}),
    ("bench_io", "read-7/2x9/2", {"values", "same"}),
    ("bench_riesz", "scale-lambdas-1-g1.5", {"values", "lambdas", "fsum"}),
])
def test_bench_tool_times_one_row(tool, row, fields):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / f"{tool}.py"), "--row", row, "--repeat", "1"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        check=True, timeout=300)
    out = json.loads(proc.stdout)
    assert set(out) == _SUMMARY | fields
    assert out["row"] == row and out["n"] == 1 and len(out["times_ms"]) == 1
    assert out["q1"] == out["median"] == out["q3"] == round(out["times_ms"][0], 4)

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from reachidx import IndexParams

ROOT = Path(__file__).resolve().parent.parent
SMALL_GRAPH = ["--n", "64", "--m", "160", "--queries", "20"]


@pytest.mark.parametrize(
    "script,args,header",
    [
        (
            "desk_eval.py",
            ["--reps", "1", "--index-seeds", "0", "--algos", "index+pbibfs", "bfs"],
            "algorithm\tquery_set\tn_queries\tavg_us\t",
        ),
        (
            "param_sweep.py",
            ["--t-grid", "2", "--k-grid", "4"],
            "t\tk\tp\tbytes_per_vertex\tbuild_ms\tfallback_neg\tfallback_pos",
        ),
        (  # k=0 is a valid index: no supports, so no budget to divide
            "param_sweep.py",
            ["--t-grid", "2", "--k-grid", "0", "16"],
            "t\tk\tp\tbytes_per_vertex\tbuild_ms\tfallback_neg\tfallback_pos",
        ),
    ],
    ids=["desk_eval-index+pbibfs-bfs", "param_sweep-t2-k4", "param_sweep-t2-k0-16"],
)
def test_script_runs_and_prints_tsv(script, args, header):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SMALL_GRAPH, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(header)


def test_desk_eval_index_params():
    script = str(ROOT / "scripts" / "desk_eval.py")
    d = IndexParams()
    a = runpy.run_path(script)["build_parser"]().parse_args([])
    assert (a.t, a.k, a.p, a.h) == (d.t, d.k, d.p, d.h)
    for bad, message in [
        (["--k", "-3"], "index parameter k must be >= 0, got -3"),
        (["--reps", "0", "--algos", "matrix"], "repetitions must be >= 1, got 0"),
    ]:
        proc = subprocess.run(
            [sys.executable, script, *SMALL_GRAPH, *bad],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 2
        assert f"error: {message}" in proc.stderr
        assert proc.stdout == ""

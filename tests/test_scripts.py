from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    ],
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

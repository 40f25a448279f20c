"""Self-check of the benchmark at tiny sizes; run from the root of a checkout:

    python3 perfbench/selfcheck.py

Checks that every workload prints every metric of BENCHMARK.json with its
unit (untraced and traced), that an injected wrong answer is counted as a
failure, that a seed reproduces its graph and pair files byte for byte and
another seed changes them, and that the benchmark refuses to run without
the program's sources.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import run

TINY = {
    "large-random": {"n": 300, "m": 1200, "pairs": 300, "setup_reps": 1, "load_reps": 1,
                     "rounds": 1},
    "small-mixed": {"graphs": 2, "n": 200, "m": 800, "pairs": 100, "setup_reps": 1, "load_reps": 1,
                    "rounds": 1},
    "cli-cyclic": {"n": 300, "m": 1200, "cycles": 20, "id_range": 100000, "pairs": 200,
                   "setup_reps": 1, "min_query_runs": 1, "replay_passes": 1, "rounds": 1},
}


def run_tiny(workload: str, seed: int, trace: int, tamper=None) -> tuple[dict, dict]:
    buf = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.05",
            "--trace", str(trace)]
    with contextlib.redirect_stdout(buf):
        code = run.main(argv, overrides=TINY[workload], tamper=tamper)
    lines = buf.getvalue().strip().splitlines()
    if code != 0 or len(lines) < 2:
        raise SystemExit(f"FAIL {workload} seed={seed} trace={trace}: exit {code}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def flip_first(ans):
    ans[0] ^= 1
    return ans


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in bench["workloads"]:
        name = w["name"]
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            _meta, res = run_tiny(name, 1, trace)
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{name} trace={trace}: every {group} metric with its unit")
            check(res["correct"] and res["failed"] == 0, f"{name} trace={trace}: all answers right")
        _meta, bad = run_tiny(name, 1, 0, tamper=flip_first)
        check(bad["failed"] > 0 and not bad["correct"]
              and bad["metrics"]["correct_frac"]["value"] < 1,
              f"{name}: an injected wrong answer raises the failed fraction")
        a, _ = run_tiny(name, 1, 0)
        b, _ = run_tiny(name, 1, 0)
        c, _ = run_tiny(name, 2, 0)
        check(a["inputs_sha256"] == b["inputs_sha256"], f"{name}: same seed, same input files")
        differ = all(a["inputs_sha256"][k] != c["inputs_sha256"][k] for k in a["inputs_sha256"])
        check(differ, f"{name}: another seed changes the graph and the pairs file")

    bare = os.path.join(".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small-mixed",
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    check(p.returncode != 0 and '"metrics"' not in p.stdout,
          "without the program's sources: nonzero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded benchmark of reachidx through its library API and its CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and their inputs are described in perfbench/spec.json; metric
names, units and bounds in BENCHMARK.json.  The run makes its inputs from
--seed, computes the expected answers with its own oracle (perfbench/gen.py)
before any timing, serves the workload in a separate process
(perfbench/serve.py, or the `reachidx` CLI), checks every answer, and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Times are scaled to a reference machine speed
(perfbench/calib.py); the raw ones are in the metadata, the line before
the result.  Work files go to .perfbench/ in the checkout; the metadata and
the spans of a traced run stay there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import gen
from calib import REF_PROBE_S

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 170


class Run:
    """One finished process: wall time, exit code and peak RSS in MB.  For a
    process started through perfbench/launch.py, raw is the wall time less
    its speed probes and norm that time scaled as perfbench/calib.py does."""

    def __init__(self, wall: float, code: int, rss_mb: float, probes: list[float]):
        self.wall, self.code, self.rss_mb = wall, code, rss_mb
        self.raw = wall - sum(probes)
        self.norm = self.raw * REF_PROBE_S / statistics.median(probes) if probes else self.raw


def run_process(argv: list[str], env: dict, stdout_path: str, probe_path: str | None = None) -> Run:
    """Run one process to completion.  With probe_path, argv is a module and
    its arguments, run through perfbench/launch.py."""
    if probe_path is not None:
        argv = [sys.executable, os.path.join(HERE, "launch.py"), probe_path, *argv]
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    probes = []
    if probe_path is not None and os.path.exists(probe_path):
        with open(probe_path, encoding="utf-8") as f:
            probes = json.load(f)
        os.remove(probe_path)
    return Run(wall, proc.returncode, usage.ru_maxrss / 1024, probes)


# ---------------------------------------------------------------------------
# inputs


def make_inputs(kind: str, wl: dict, seed: int, wd: str) -> dict:
    """Write the workload's graph and pair files; return their names and the
    expected bits, in pair order across the files."""
    rng = np.random.default_rng([seed, {"random": 1, "mixed": 2, "cyclic": 3}[kind]])
    n, m = wl["n"], wl["m"]
    if kind == "cyclic":
        return cyclic_inputs(wl, rng, wd)
    inp: dict = {"graphs": [], "pairs": [], "n_input": 0}
    expected = []
    for i in range(wl["graphs"]):
        u, v = gen.random_dag_edges(n, m, rng)
        if kind == "random":
            s, t = gen.random_pairs(n, wl["pairs"], rng)
            expected.append(gen.reach_answers(n, u, v, s, t))
        else:
            s, t, exp = gen.mixed_pairs(n, u, v, wl["pairs"], rng)
            expected.append(exp)
        inp["graphs"].append(f"graph{i}.gra")
        inp["pairs"].append(f"pairs{i}.txt")
        gen.write_gra(os.path.join(wd, inp["graphs"][-1]), n, u, v)
        gen.write_pairs(os.path.join(wd, inp["pairs"][-1]), s, t, None)
        inp["n_input"] += n
    inp["expected"] = np.concatenate(expected)
    return inp


def cyclic_inputs(wl: dict, rng: np.random.Generator, wd: str) -> dict:
    u, v = gen.random_dag_edges(wl["n"], wl["m"], rng)
    cu, cv, n = gen.folded_cycles(wl["n"], wl["cycles"], wl["cycle_fresh"], rng)
    order = rng.permutation(u.size + cu.size)
    U, V = np.r_[u, cu][order], np.r_[v, cv][order]
    comp, c, cu, cv = gen.condense(n, U, V)
    present = np.unique(np.r_[U, V])
    ids = rng.choice(wl["id_range"], size=n, replace=False)
    gen.write_edge_list(os.path.join(wd, "graph.txt"), ids[U], ids[V])
    # Uniform pairs over the vertices in the file, plus pairs inside one
    # non-trivial SCC so that 0:B3 answers some of them.
    n_same = int(wl["pairs"] * wl["same_scc_frac"])
    a, b = gen.random_pairs(present.size, wl["pairs"] - n_same, rng)
    s, t = present[a], present[b]
    sizes = np.bincount(comp[present], minlength=c)
    inner = present[sizes[comp[present]] > 1]
    if inner.size and n_same:
        inner = inner[np.argsort(comp[inner], kind="stable")]
        first = np.searchsorted(comp[inner], comp[inner])
        pick = rng.integers(0, inner.size, size=n_same)
        size = sizes[comp[inner[pick]]]
        off = (pick - first[pick] + rng.integers(1, size)) % size
        s = np.r_[s, inner[pick]]
        t = np.r_[t, inner[first[pick] + off]]
        order = rng.permutation(s.size)
        s, t = s[order], t[order]
    exp = gen.reach_answers(c, cu, cv, comp[s], comp[t])
    gen.write_pairs(os.path.join(wd, "pairs.txt"), ids[s], ids[t], exp)
    open(os.path.join(wd, "empty.txt"), "w").close()
    return {"expected": exp, "n_input": int(present.size), "graphs": ["graph.txt"],
            "pairs": ["pairs.txt"]}


# ---------------------------------------------------------------------------
# serving


class Tally:
    """Queries and processes attempted, and how many of them failed."""

    def __init__(self, expected: np.ndarray, tamper=None):
        self.expected = expected
        self.tamper = tamper
        self.attempted = 0
        self.failed = 0

    def answers(self, idx: np.ndarray, ans: np.ndarray) -> None:
        if self.tamper is not None:
            ans = self.tamper(ans.copy())
        self.attempted += int(idx.size)
        self.failed += int(np.count_nonzero(ans != self.expected[idx]))

    def process(self, code: int) -> None:
        self.attempted += 1
        self.failed += code != 0


def serve(job: dict, wd: str, env: dict, tally: Tally) -> tuple[dict, float]:
    """Run perfbench/serve.py on the job; (its results, its peak RSS in MB)."""
    with open(os.path.join(wd, "job.json"), "w", encoding="utf-8") as f:
        json.dump(job, f)
    argv = [sys.executable, os.path.join(HERE, "serve.py"), wd]
    proc = run_process(argv, env, os.path.join(wd, "serve.out"))
    if proc.code != 0:
        with open(os.path.join(wd, "serve.out.err"), encoding="utf-8", errors="replace") as f:
            sys.stderr.write(f.read()[-4000:])
        raise RuntimeError(f"serve.py exited with {proc.code}")
    with open(os.path.join(wd, "serve.json"), encoding="utf-8") as f:
        out = json.load(f)
    with np.load(os.path.join(wd, "answers.npz")) as z:
        tally.answers(z["idx"], z["ans"])
    return out, proc.rss_mb


def cli_answers(path: str, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Answer column of `reachidx query` output; a missing row reads as 2."""
    ans = np.full(count, 2, dtype=np.uint8)
    with open(path, encoding="utf-8") as f:
        for i, line in enumerate(f):
            if i < count:
                ans[i] = int(line.split("\t")[2])
    return np.arange(count), ans


def serve_job(wl: dict, inp: dict, args) -> dict:
    return {"api": wl["api"], "graphs": inp["graphs"], "pairs": inp["pairs"],
            "index": "index.ridx", "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds if wl["api"] == "library" else 0.0,
            "min_passes": wl.get("replay_passes", 1), "setup_reps": wl["setup_reps"],
            "load_reps": wl.get("load_reps", 0), "rounds": wl["rounds"]}


def run_library(wl: dict, inp: dict, args, wd: str, env: dict, tally: Tally) -> tuple[dict, dict]:
    out, rss = serve(serve_job(wl, inp, args), wd, env, tally)
    return {
        "setup_s": statistics.median(out["setup_s"]),
        "load_s": statistics.median(out["load_s"]),
        "query_us_p50": out["query_ns_p50"] / 1e3,
        "query_us_p99": out["query_ns_p99"] / 1e3,
        "queries_per_s": out["queries"] / out["query_wall_s"],
        "index_bytes_per_vertex": out["index_bytes"] / inp["n_input"],
        "peak_rss_mb": rss,
    }, {"samples": {"query_us": out["queries"], "setup_s": len(out["setup_s"]),
                    "load_s": len(out["load_s"])},
        "raw_s": out["raw"], "probe_s_quartiles": out["probe_s"]}


def run_cli(wl: dict, inp: dict, args, wd: str, env: dict, tally: Tally) -> tuple[dict, dict]:
    """`reachidx build` setup_reps times, then `reachidx query` on the empty
    and on the full pairs file in turn until --seconds have gone by, then the
    replay of the query loop for per-query latencies."""
    graph = os.path.join(wd, inp["graphs"][0])
    index = os.path.join(wd, "index.ridx")
    probes = os.path.join(wd, "probes.json")
    runs: dict[str, list[Run]] = {"setup_s": [], "load_s": [], "query_s": []}
    for _ in range(wl["setup_reps"]):
        runs["setup_s"].append(run_process(
            ["reachidx.cli", "build", "--graph", graph, "--seed", str(args.seed),
             "--out-index", index], env, os.path.join(wd, "build.out"), probes))
    P = inp["expected"].size
    raw = 0.0
    while len(runs["query_s"]) < wl["min_query_runs"] or raw < args.seconds:
        for pairs, key in (("empty.txt", "load_s"), (inp["pairs"][0], "query_s")):
            out_path = os.path.join(wd, "query.out")
            r = run_process(["reachidx.cli", "query", "--graph", graph, "--index", index,
                             "--pairs", os.path.join(wd, pairs)], env, out_path, probes)
            runs[key].append(r)
            raw += r.wall
            if key == "query_s":
                tally.answers(*cli_answers(out_path, P))
    for r in (r for v in runs.values() for r in v):
        tally.process(r.code)
    out, _ = serve(serve_job(wl, inp, args), wd, env, tally)
    med = {k: statistics.median(r.norm for r in v) for k, v in runs.items()}
    return {
        "setup_s": med["setup_s"],
        "load_s": med["load_s"],
        "query_us_p50": out["query_ns_p50"] / 1e3,
        "query_us_p99": out["query_ns_p99"] / 1e3,
        "queries_per_s": P / med["query_s"],
        "index_bytes_per_vertex": os.path.getsize(index) / inp["n_input"],
        "peak_rss_mb": max(r.rss_mb for v in runs.values() for r in v),
    }, {"samples": {"query_us": out["queries"], **{k: len(v) for k, v in runs.items()}},
        "raw_s": {k: [r.raw for r in v] for k, v in runs.items()},
        "wall_s": {k: [r.wall for r in v] for k, v in runs.items()}}


def run_traced(wl: dict, inp: dict, args, wd: str, env: dict, tally: Tally) -> tuple[dict, dict]:
    out, _ = serve(serve_job(wl, inp, args), wd, env, tally)
    if not out["replay_identical"]:
        # The stage numbers would describe other work than build_index's.
        print("error: replayed build is not byte-identical to build_index", file=sys.stderr)
        tally.process(1)
    return out["layers"], {k: out[k] for k in ("samples", "setup_untraced_s", "setup_traced_s")}


# ---------------------------------------------------------------------------
# metadata and result


def metadata(args, wl: dict, inp: dict, wd: str, detail: dict) -> dict:
    try:
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                                  capture_output=True, text=True, check=True).stdout.split()
        if os.path.realpath(top) != os.path.realpath(os.getcwd()):
            sha = None  # the checkout sits inside some other repository
    except (OSError, ValueError, subprocess.CalledProcessError):
        sha = None  # a checkout without git history
    tree = hashlib.sha256()
    src = os.path.join("src", "reachidx")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                tree.update(name.encode() + b"\0" + f.read())

    def digest(name: str) -> str:
        with open(os.path.join(wd, name), "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": tree.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "params": wl, "n_input": inp["n_input"],
        "inputs_sha256": {name: digest(name) for name in inp["graphs"] + inp["pairs"]},
        "detail": detail,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, overrides: dict | None = None, tamper=None) -> int:
    """`overrides` replaces workload parameters and `tamper` rewrites answers
    before they are checked; both exist for perfbench/selfcheck.py."""
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "reachidx", "__init__.py")):
        print(f"error: no reachidx sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = {**workloads[args.workload], **(overrides or {})}
    wl.pop("why", None)

    wd = os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(wd, ignore_errors=True)
    os.makedirs(wd)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    inp = make_inputs(wl["kind"], wl, args.seed, wd)
    tally = Tally(inp["expected"], tamper)
    runner = run_traced if args.trace else run_library if wl["api"] == "library" else run_cli
    try:
        metrics, detail = runner(wl, inp, args, wd, env, tally)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not args.trace:
        metrics["correct_frac"] = 1 - tally.failed / tally.attempted

    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    meta = metadata(args, wl, inp, wd, detail)
    with open(os.path.join(wd, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=1)
    for name in inp["graphs"] + ["index.ridx", "index.ridx.remap", "answers.npz"]:
        if os.path.exists(os.path.join(wd, name)):
            os.remove(os.path.join(wd, name))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Serving side of the benchmark: one workload against reachidx, in a process
of its own so that its peak memory is the program's and not the oracle's.

Usage: python3 perfbench/serve.py <workdir>

Reads <workdir>/job.json and the graph and pair files it names, never the
expected bits.  Writes <workdir>/serve.json (timings, layer numbers) and
<workdir>/answers.npz (pair number and answer of every query asked; 2 marks
a query that raised).  Pairs are numbered across the job's inputs in order.
One client, closed loop: the next query is asked only after the previous
one returned.  Every time is scaled to the reference speed of
perfbench/calib.py.

An untraced run (job "trace": 0) measures the end-to-end figures.  A traced
run measures each layer from outside, with spans around calls to the public
functions of the module the layer is named after, and replays build_index
stage by stage with the same substream seeds.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import random
import statistics
import sys
import time

import numpy as np

import reachidx.index as index_mod
from calib import REF_PROBE_S, Speedometer
from reachidx.graph import load_graph, scc_condense, topological_levels, weak_components
from reachidx.index import (
    PBIBFS,
    PLAIN_BFS,
    IndexParams,
    ObservationStats,
    ReachIndex,
    _substream,
    build_index,
    deserialize_index,
    query,
    serialize_index,
    try_observations,
)
from reachidx.supportive import pick_supports, select_candidates
from reachidx.toporder import extended_topsort, extended_topsort_backward, start_sequence
from spans import Tracer, now_ns

pc = time.perf_counter

FAILED = 2  # answer code of a query that raised
CHUNK = 1000  # queries between two speed probes


def read_pairs(path: str) -> tuple[list[int], list[int]]:
    """First two columns of a pairs file; a third (expected bit) is ignored."""
    s, t = [], []
    with open(path, encoding="utf-8") as f:
        for line in f:
            a, b = line.split()[:2]
            s.append(int(a))
            t.append(int(b))
    return s, t


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def load_input(path: str, cli: bool, tr: Tracer | None = None):
    """The DAG to index and, for the CLI path, its (id_map, scc_of).  With a
    tracer, both steps are spans, and the library path also runs the SCC
    check a library caller would make on an untrusted file."""
    span = tr.span if tr else lambda _name: contextlib.nullcontext()
    with span("graph.load_graph"):
        res = load_graph(path)
    if not cli and tr is None:
        return res.graph, None
    with span("graph.scc_condense"):
        cond = scc_condense(res.graph)
    return (cond.dag, (res.id_map, cond.scc_of)) if cli else (res.graph, None)


class Segment:
    """One index and its pairs, asked the way the workload's client asks.

    Library workloads call query() on dense ids.  The CLI workload replays
    the loop of `reachidx query`: original id -> dense id -> SCC, distinct
    vertices of one SCC answered reachable without the index (0:B3).
    """

    def __init__(self, ix: ReachIndex, pairs_path: str, translate=None):
        self.ix = ix
        self.S, self.T = read_pairs(pairs_path)
        self.translate = translate  # (id_map, scc_of) for the CLI path

    def index_pairs(self) -> tuple[list[int], list[int]]:
        """Pairs in index ids; a B3 pair becomes (-1, -1)."""
        if self.translate is None:
            return self.S, self.T
        id_map, scc_of = self.translate
        cs = [scc_of[id_map[s]] for s in self.S]
        ct = [scc_of[id_map[t]] for t in self.T]
        b3 = [a == b and s != t for a, b, s, t in zip(cs, ct, self.S, self.T)]
        return ([-1 if x else a for a, x in zip(cs, b3)],
                [-1 if x else b for b, x in zip(ct, b3)])

    def ask(self, lo: int, hi: int, lat: list[int], ans: bytearray) -> None:
        """Pairs lo..hi-1, one at a time, each timed.  One loop per path, so
        that the timed loop itself takes no branch on the path."""
        ix = self.ix
        S, T = self.S[lo:hi], self.T[lo:hi]
        if self.translate is None:
            for s, t in zip(S, T):
                a = now_ns()
                try:
                    r = query(ix, s, t).answer
                except Exception:
                    r = FAILED
                lat.append(now_ns() - a)
                ans.append(r)
            return
        id_map, scc_of = self.translate
        for s, t in zip(S, T):
            a = now_ns()
            try:
                cs, ct = scc_of[id_map[s]], scc_of[id_map[t]]
                r = True if cs == ct and s != t else query(ix, cs, ct).answer
            except Exception:
                r = FAILED
            lat.append(now_ns() - a)
            ans.append(r)


def closed_loop(speedo: Speedometer, segments: list[Segment], seconds: float,
                min_passes: int = 1):
    """Whole passes over every segment's pairs until `seconds` of raw wall
    time have gone by.  The speed probe runs inline before every chunk of
    CHUNK queries, never inside a query; a chunk's latencies are scaled by
    the median of the four probes nearest to it.
    Returns (scaled latencies in ns, answers, raw and scaled seconds)."""
    speedo.stop()
    chunks: list[list[int]] = []
    walls: list[float] = []
    probes: list[float] = []
    ans = bytearray()
    passes = 0
    while passes < min_passes or sum(walls) < seconds:
        gc.collect()
        for seg in segments:
            for lo in range(0, len(seg.S), CHUNK):
                speedo.probe()
                probes.append(speedo.durations[-1])
                chunks.append([])
                t0 = pc()
                seg.ask(lo, lo + CHUNK, chunks[-1], ans)
                walls.append(pc() - t0)
        passes += 1
    speedo.probe()
    probes.append(speedo.durations[-1])
    speedo.start()
    lat = []
    norm = 0.0
    for j, (one, wall) in enumerate(zip(chunks, walls)):
        scale = REF_PROBE_S / statistics.median(probes[max(0, j - 1) : j + 3])
        lat.append(np.asarray(one, dtype=np.float64) * scale)
        norm += wall * scale
    return np.concatenate(lat), ans, sum(walls), norm


# ---------------------------------------------------------------------------
# untraced run


def measure(job: dict, speedo: Speedometer, out: dict, answers: list) -> None:
    wd = job["workdir"]
    params = IndexParams()
    seed = job["seed"]
    samples: dict[str, list] = {"setup_s": [], "load_s": []}
    if job["api"] == "library":
        dags = [load_input(os.path.join(wd, g), False)[0] for g in job["graphs"]]
        data = [b""] * len(dags)
        for _ in range(job["setup_reps"]):
            for i, dag in enumerate(dags):
                gc.collect()
                with speedo.sample() as smp:
                    data[i] = serialize_index(build_index(dag, params, seed))
                samples["setup_s"].append(smp)
        ixs = [None] * len(dags)
        for _ in range(job["load_reps"]):
            for i, dag in enumerate(dags):
                gc.collect()
                with speedo.sample() as smp:
                    ixs[i] = deserialize_index(data[i], dag)
                samples["load_s"].append(smp)
        segments = [Segment(ix, os.path.join(wd, p)) for ix, p in zip(ixs, job["pairs"])]
        out.update(index_bytes=sum(map(len, data)))
    else:  # replay of `reachidx query` on the index file the CLI wrote
        dag, translate = load_input(os.path.join(wd, job["graphs"][0]), True)
        with open(os.path.join(wd, job["index"]), "rb") as f:
            ix = deserialize_index(f.read(), dag)
        segments = [Segment(ix, os.path.join(wd, job["pairs"][0]), translate)]
    lat, ans, raw_q, norm_q = closed_loop(speedo, segments, job["seconds"],
                                          job.get("min_passes", 1))
    out.update(
        query_ns_p50=percentile(lat, 50), query_ns_p99=percentile(lat, 99), queries=lat.size,
        query_wall_s=norm_q,
        **{k: [p.norm for p in v] for k, v in samples.items()},
        raw={"query_wall_s": raw_q, **{k: [p.raw for p in v] for k, v in samples.items()}},
        probe_s=np.percentile(speedo.durations, [0, 25, 50, 75, 100]).tolist(),
    )
    total = sum(len(seg.S) for seg in segments)
    answers.append((np.arange(len(ans)) % total, np.frombuffer(bytes(ans), dtype=np.uint8)))


# ---------------------------------------------------------------------------
# traced run


def replay_build(tr: Tracer, dag, params: IndexParams, seed: int) -> ReachIndex:
    """build_index, stage by stage through the public functions, with the
    substream seeds build_index derives (hence the private _substream).  The
    caller checks that the result serializes to build_index's bytes."""
    with tr.span("graph.weak_components"):
        wcc = weak_components(dag)
    with tr.span("graph.topological_levels"):
        levels = topological_levels(dag)
    orderings = []
    for j in range((params.t + 1) // 2):
        s = _substream(seed, "fwd", j)
        rng = random.Random(s)
        with tr.span("toporder.extended_topsort"):
            orderings.append(extended_topsort(dag, start_sequence(dag, rng), rng, seed=s))
    for j in range(params.t // 2):
        s = _substream(seed, "bwd", j)
        rng = random.Random(s)
        with tr.span("toporder.extended_topsort_backward"):
            orderings.append(extended_topsort_backward(dag, rng, seed=s))
    crng = random.Random(_substream(seed, "cand"))
    with tr.span("supportive.select_candidates"):
        pool = select_candidates(dag, levels, params.k, params.p, params.h, crng)
    with tr.span("supportive.pick_supports"):
        supports = pick_supports(pool, dag, params.k, levels)
    return ReachIndex(dag, wcc, levels, orderings, supports, params, seed)


SETUP_LAYERS = ("graph.weak_components", "graph.topological_levels",
                "toporder.extended_topsort", "toporder.extended_topsort_backward",
                "supportive.select_candidates", "supportive.pick_supports",
                "index.serialize_index")
LOAD_LAYERS = ("graph.load_graph", "graph.scc_condense", "graph.graph_checksum",
               "index.deserialize_index")


def traced(job: dict, speedo: Speedometer, out: dict, answers: list) -> None:
    wd = job["workdir"]
    params = IndexParams()
    seed = job["seed"]
    cli = job["api"] == "cli"
    paths = [os.path.join(wd, g) for g in job["graphs"]]
    tr = Tracer()

    def scaled(m: int, smp) -> dict[str, float]:
        return {k: v * smp.scale for k, v in tr.self_times(m).items()}

    def checksums():
        return tr.patched(index_mod, "graph_checksum", "graph.graph_checksum")

    inputs, load = [], []
    if not cli:
        # The library workloads load each DAG once, outside setup and load.
        for path in paths:
            m = tr.mark()
            with speedo.sample() as smp:
                inputs.append(load_input(path, False, tr))
            load.append(scaled(m, smp))
    setup, setup_untraced, setup_traced = [], [], []
    identical = True
    ixs = [None] * len(paths)
    for _ in range(job["rounds"]):
        for i, path in enumerate(paths):
            gc.collect()
            with speedo.sample() as smp:
                dag, translate = load_input(path, True) if cli else inputs[i]
                ref = serialize_index(build_index(dag, params, seed))
            setup_untraced.append(smp.norm)

            gc.collect()
            m = tr.mark()
            with speedo.sample() as smp, tr.span("setup"), checksums():
                dag, translate = load_input(path, True, tr) if cli else inputs[i]
                ix = replay_build(tr, dag, params, seed)
                with tr.span("index.serialize_index"):
                    data = serialize_index(ix)
            identical &= data == ref
            setup.append(scaled(m, smp))
            setup_traced.append(tr.seconds(m) * smp.scale)

            gc.collect()
            m = tr.mark()
            with speedo.sample() as smp, tr.span("load"), checksums():
                dag, translate = load_input(path, True, tr) if cli else inputs[i]
                with tr.span("index.deserialize_index"):
                    ixs[i] = deserialize_index(ref, dag)
            load.append(scaled(m, smp))
    if cli:
        inputs = [(dag, translate)]

    layers: dict[str, float] = {}
    for name in SETUP_LAYERS:
        layers[name + "_s"] = statistics.median(r.get(name, 0.0) for r in setup)
    for name in LOAD_LAYERS:
        layers[name + "_s"] = statistics.median(r[name] for r in load if name in r)
    untraced_s = statistics.median(setup_untraced)
    children_s = statistics.median(t - r["setup"] for t, r in zip(setup_traced, setup))
    layers["trace.setup_unattributed_s"] = untraced_s - children_s
    layers["trace.overhead_setup_s"] = statistics.median(setup_traced) - untraced_s

    # Queries: an untraced pass, then pass A (query), pass B (observations,
    # then the fallback on the pairs they leave open) and pass C (plain BFS
    # on those same open pairs).
    segments = [Segment(ix, os.path.join(wd, p), tl)
                for ix, p, (_dag, tl) in zip(ixs, job["pairs"], inputs)]
    P = sum(len(seg.S) for seg in segments)
    _lat, ans0, _raw, norm0 = closed_loop(speedo, segments, 0.0)
    answers.append((np.arange(P), np.frombuffer(bytes(ans0), dtype=np.uint8)))

    asked = []  # (pair number, index, s, t) of every pair that reaches the index
    base = 0
    for seg in segments:
        qs, qt = seg.index_pairs()
        asked += [(base + j, seg.ix, s, t) for j, (s, t) in enumerate(zip(qs, qt)) if s >= 0]
        base += len(seg.S)

    ans_a = bytearray(b"\x01" * P)  # B3 pairs: reachable without the index
    gc.collect()
    m = tr.mark()
    with speedo.sample() as smp:
        for i, ix, s, t in asked:
            sid = tr.begin("index.query", i)
            ans_a[i] = query(ix, s, t).answer
            tr.end(sid)
    layers["index.query_s"] = scaled(m, smp).get("index.query", 0.0)
    layers["trace.overhead_query_us"] = (smp.norm - norm0) / P * 1e6
    answers.append((np.arange(P), np.frombuffer(bytes(ans_a), dtype=np.uint8)))

    stats = ObservationStats()
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return try_observations(*args, **kwargs)

    undecided, work, ans_b = [], [], []
    gc.collect()
    m = tr.mark()
    with speedo.sample() as smp:
        for i, ix, s, t in asked:
            sid = tr.begin("index.try_observations", i)
            a, _tag = try_observations(ix, s, t, stats)
            tr.end(sid)
            if a is None:
                undecided.append((i, ix, s, t))
                index_mod.try_observations = counting
                sid = tr.begin("index.fallback", i)
                try:
                    a, w = PBIBFS.run(ix, s, t)
                finally:
                    tr.end(sid)
                    index_mod.try_observations = try_observations
                work.append(w)
            ans_b.append(a)
    obs_us = [d * smp.scale for d in tr.durations_us("index.try_observations", m)]
    fb_us = [d * smp.scale for d in tr.durations_us("index.fallback", m)]
    answers.append((np.asarray([a[0] for a in asked], dtype=np.int64),
                    np.asarray(ans_b, dtype=np.uint8)))

    gc.collect()
    m = tr.mark()
    ans_c = []
    with speedo.sample() as smp:
        for i, ix, s, t in undecided:
            sid = tr.begin("index.fallback_bfs", i)
            ans_c.append(PLAIN_BFS.run(ix, s, t)[0])
            tr.end(sid)
    bfs_us = [d * smp.scale for d in tr.durations_us("index.fallback_bfs", m)]
    answers.append((np.asarray([u[0] for u in undecided], dtype=np.int64),
                    np.asarray(ans_c, dtype=np.uint8)))

    nf = len(undecided)
    layers["index.try_observations_us_p50"] = percentile(obs_us, 50)
    layers["index.decided_frac"] = (len(asked) - nf) / len(asked) if asked else 0.0
    for k in range(1, 8):
        hits = sum(c for tag, c in stats.first_hit.items() if tag.startswith(f"{k}:"))
        layers[f"index.first_hit_frac.{k}"] = hits / P
    layers["index.fallback_frac"] = nf / P
    layers["index.fallback_us_p50"] = percentile(fb_us, 50)
    layers["index.fallback_us_p99"] = percentile(fb_us, 99)
    layers["index.fallback_work_p50"] = percentile(work, 50)
    layers["index.fallback_work_p99"] = percentile(work, 99)
    layers["index.fallback_work_max"] = float(max(work, default=0))
    layers["index.observe_calls_per_fallback"] = calls / nf if nf else 0.0
    layers["index.fallback_bfs_us_p50"] = percentile(bfs_us, 50)

    out.update(layers=layers, replay_identical=bool(identical),
               samples={"setup_rounds": len(setup), "index.try_observations_us": len(obs_us),
                        "index.fallback_us": len(fb_us), "index.fallback_work": len(work),
                        "index.fallback_bfs_us": len(bfs_us)},
               setup_untraced_s=setup_untraced, setup_traced_s=setup_traced)
    tr.dump(os.path.join(wd, "spans.jsonl"))


def main(workdir: str) -> int:
    with open(os.path.join(workdir, "job.json"), encoding="utf-8") as f:
        job = json.load(f)
    job["workdir"] = workdir
    out: dict = {}
    answers: list = []
    speedo = Speedometer()
    speedo.start()
    (traced if job["trace"] else measure)(job, speedo, out, answers)
    speedo.stop()
    np.savez(os.path.join(workdir, "answers.npz"),
             idx=np.concatenate([a for a, _ in answers]).astype(np.int64),
             ans=np.concatenate([b for _, b in answers]).astype(np.uint8))
    with open(os.path.join(workdir, "serve.json"), "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

#!/usr/bin/env python3
"""Fallback-rate sweep over ordering count t and support count k.

Holds the candidate budget k*p roughly constant while varying (t, k), builds
one index per cell, and reports the fraction of negative and positive queries
that still needed the fallback, alongside bytes/vertex and build time.

Example:
    python scripts/param_sweep.py --n 4096 --m 16384 --queries 5000
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from reachidx import (
    IndexParams,
    build_index,
    build_oracle,
    gen_queries,
    gen_random_dag,
    observation_table,
)
from reachidx.index import payload_bytes_per_vertex


def fallback_rate(ix, pairs) -> float:
    """Share of pairs that no observation decides."""
    S, T = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    decided = np.logical_or.reduce([mask for _, _, mask in observation_table(ix, S, T)])
    return int(np.count_nonzero(~decided)) / len(S) if len(S) else 0.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--m", type=int, default=16384)
    ap.add_argument("--graph-seed", type=int, default=0)
    ap.add_argument("--index-seed", type=int, default=0)
    ap.add_argument("--query-seed", type=int, default=1)
    ap.add_argument("--queries", type=int, default=5000)
    ap.add_argument("--budget", type=int, default=1200, help="candidate pool k*p")
    ap.add_argument("--t-grid", type=int, nargs="+", default=[2, 4, 8])
    ap.add_argument("--k-grid", type=int, nargs="+", default=[4, 16, 64])
    a = ap.parse_args()

    g = gen_random_dag(a.n, a.m, a.graph_seed)
    oracle = build_oracle(g)
    neg = gen_queries(g, "negative", a.queries, a.query_seed, oracle)
    pos = gen_queries(g, "positive", a.queries, a.query_seed + 1, oracle)

    print("t\tk\tp\tbytes_per_vertex\tbuild_ms\tfallback_neg\tfallback_pos")
    for t in a.t_grid:
        for k in a.k_grid:
            p = max(1, a.budget // k) if k else 1  # k=0 draws no candidates
            params = IndexParams(t=t, k=k, p=p)
            t0 = time.perf_counter()
            ix = build_index(g, params, seed=a.index_seed)
            build_ms = (time.perf_counter() - t0) * 1e3
            print(
                f"{t}\t{k}\t{p}\t{payload_bytes_per_vertex(t, k)}\t"
                f"{build_ms:.1f}\t{fallback_rate(ix, neg.pairs):.4f}\t"
                f"{fallback_rate(ix, pos.pairs):.4f}"
            )


if __name__ == "__main__":
    main()

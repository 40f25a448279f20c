#!/usr/bin/env python3
"""Desk-scale evaluation on one random DAG.

Generates G(n, m), samples positive/negative/random query sets against an
exact oracle, times the selected algorithms over them, and prints the bench
table followed by the observation breakdown of each index run.

Example:
    python scripts/desk_eval.py --n 4096 --m 16384 --queries 2000
"""

from __future__ import annotations

import argparse

from reachidx import (
    IndexParams,
    bench,
    build_oracle,
    gen_queries,
    gen_random_dag,
    stats_report,
)
from reachidx.workbench import ALGORITHM_NAMES


def run(a: argparse.Namespace, params: IndexParams) -> None:
    g = gen_random_dag(a.n, a.m, a.graph_seed)
    oracle = build_oracle(g)
    sets = [
        gen_queries(g, kind, a.queries, a.query_seed + i, oracle)
        for i, kind in enumerate(a.kinds)
    ]
    report = bench(g, a.algos, sets, a.reps, a.index_seeds, params)
    print(report.to_tsv(), end="")
    for (algo, label), stats in sorted(report.stats.items()):
        print()
        print(stats_report(stats, query_set=f"{algo}:{label}"), end="")


def build_parser() -> argparse.ArgumentParser:
    d = IndexParams()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=4096)
    ap.add_argument("--m", type=int, default=16384)
    ap.add_argument("--graph-seed", type=int, default=0)
    ap.add_argument("--query-seed", type=int, default=1)
    ap.add_argument("--queries", type=int, default=2000)
    ap.add_argument("--t", type=int, default=d.t)
    ap.add_argument("--k", type=int, default=d.k)
    ap.add_argument("--p", type=int, default=d.p)
    ap.add_argument("--h", type=int, default=d.h)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--index-seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument(
        "--algos",
        nargs="+",
        choices=ALGORITHM_NAMES,
        default=["index+pbibfs", "matrix"],
        metavar="ALGO",
        help="any of: %(choices)s",
    )
    ap.add_argument(
        "--kinds", nargs="+", default=["positive", "negative", "random"]
    )
    return ap


def main() -> None:
    ap = build_parser()
    a = ap.parse_args()
    try:  # bad parameters or counts: a usage error, not a traceback
        run(a, IndexParams(t=a.t, k=a.k, p=a.p, h=a.h))
    except ValueError as e:
        ap.error(str(e))


if __name__ == "__main__":
    main()

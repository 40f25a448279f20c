"""Command-line interface.

Inputs may be arbitrary digraphs: every command condenses its input first
and answers original-vertex queries through the SCC map, so two vertices of
one strongly connected component are mutually reachable without consulting
the index (observation B3).
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import Callable, Sequence

from .baselines import DEFAULT_MATRIX_CAP
from .graph import (
    CondensationMap,
    ParseResult,
    load_graph,
    scc_condense,
    write_edge_list,
    write_gra,
    write_remap,
)
from .index import (
    PBIBFS,
    IndexParams,
    ObservationStats,
    QueryOutcome,
    RESOLVERS,
    Resolver,
    build_index,
    deserialize_index,
    query,
    serialize_index,
)
from .workbench import (
    ALGORITHM_NAMES,
    QuerySet,
    bench,
    build_oracle,
    gen_queries,
    gen_random_dag,
    load_query_file,
    save_query_set,
    standard_algorithms,
    stats_report,
)


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _load(path: str, fmt: str | None) -> ParseResult:
    res = load_graph(path, fmt)
    if res.dropped_self_loops:
        _warn(f"{path}: dropped {res.dropped_self_loops} self-loop(s)")
    if res.dropped_duplicates:
        _warn(f"{path}: dropped {res.dropped_duplicates} duplicate edge(s)")
    return res


def _translate(
    res: ParseResult, cond: CondensationMap, s: int, t: int
) -> tuple[int, int]:
    try:
        ds, dt = res.id_map[s], res.id_map[t]
    except KeyError as e:
        raise SystemExit(f"error: unknown vertex id {e.args[0]}") from None
    return cond.scc_of[ds], cond.scc_of[dt]


def _cmd_gen_graph(args: argparse.Namespace) -> int:
    g = gen_random_dag(args.n, args.m, args.seed)
    with open(args.out, "w", encoding="utf-8") as f:
        if args.format == "gra":
            write_gra(g, f)
        else:
            write_edge_list(g, f)
    print(f"wrote {args.format} graph n={g.n} m={g.m} to {args.out}")
    return 0


def _cmd_gen_queries(args: argparse.Namespace) -> int:
    res = _load(args.graph, args.format)
    oracle = build_oracle(res.graph, args.matrix_cap)
    qs = gen_queries(res.graph, args.kind, args.count, args.seed, oracle)
    with open(args.out, "w", encoding="utf-8") as f:
        save_query_set(qs, f, res.original_ids)
    print(f"wrote {len(qs.pairs)} {args.kind} queries to {args.out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    res = _load(args.graph, args.format)
    dag = scc_condense(res.graph).dag
    n_input = res.graph.n
    remap = None
    if res.is_sparse:
        remap = io.StringIO()
        write_remap(res, remap)
    del res  # the input graph would only raise the peak memory of the build
    params = IndexParams(t=args.t, k=args.k, p=args.p, h=args.h)
    ix = build_index(dag, params, args.seed)
    data = serialize_index(ix)
    with open(args.out_index, "wb") as f:
        f.write(data)
    if remap is not None:
        remap_path = args.remap_out or args.out_index + ".remap"
        with open(remap_path, "w", encoding="utf-8") as f:
            f.write(remap.getvalue())
        print(f"wrote sparse-id remap table to {remap_path}")
    print(
        f"indexed {dag.n} SCC(s) of {n_input} vertices: "
        f"{len(data)} bytes to {args.out_index}"
    )
    return 0


def _open_answerer(
    args: argparse.Namespace, resolver: Resolver
) -> Callable[[int, int, ObservationStats], QueryOutcome]:
    """Load the graph and its index; return a function that answers one
    original-id pair through resolver and records it in the given stats."""
    res = _load(args.graph, args.format)
    cond = scc_condense(res.graph)
    with open(args.index, "rb") as f:
        ix = deserialize_index(f.read(), cond.dag)

    def answer(s: int, t: int, stats: ObservationStats) -> QueryOutcome:
        cs, ct = _translate(res, cond, s, t)
        if cs == ct and s != t:
            # distinct originals in one SCC: mutually reachable, no index needed
            stats.queries += 1
            stats.first_hit["0:B3"] += 1
            stats.outcomes["reachable"] += 1
            return QueryOutcome(True, "0:B3", 0)
        return query(ix, cs, ct, resolver, stats)

    return answer


def _cmd_query(args: argparse.Namespace) -> int:
    answer = _open_answerer(args, RESOLVERS[args.fallback])
    stats = ObservationStats()
    mismatches = 0
    for s, t, exp in load_query_file(args.pairs):
        outcome = answer(s, t, stats)
        print(f"{s}\t{t}\t{int(outcome.answer)}\t{outcome.answered_by}\t{outcome.work}")
        if exp is not None and outcome.answer != exp:
            mismatches += 1
            _warn(f"({s}, {t}): answered {int(outcome.answer)}, expected {int(exp)}")
    rate = stats.fallback_rate
    print(
        f"queries={stats.queries} fallbacks={stats.fallbacks}"
        + (f" fallback_rate={rate:.4f}" if rate is not None else ""),
        file=sys.stderr,
    )
    if mismatches:
        print(f"error: {mismatches} answer mismatch(es)", file=sys.stderr)
        return 1
    return 0


def _load_query_sets(args, res: ParseResult, cond: CondensationMap) -> list[QuerySet]:
    sets = []
    for path in args.queries:
        rows = load_query_file(path)
        pairs = []
        expected: list[bool] | None = []
        for s, t, exp in rows:
            pairs.append(_translate(res, cond, s, t))
            expected.append(exp)
        if all(e is None for e in expected):
            expected = None
        name = path.rsplit("/", 1)[-1]
        sets.append(QuerySet(pairs, "file", 0, expected, name=name))
    return sets


def _cmd_bench(args: argparse.Namespace) -> int:
    res = _load(args.graph, args.format)
    cond = scc_condense(res.graph)
    query_sets = _load_query_sets(args, res, cond)
    params = IndexParams(t=args.t, k=args.k, p=args.p, h=args.h)
    algos = standard_algorithms(args.algos, params, args.matrix_cap)
    report = bench(cond.dag, algos, query_sets, args.reps, args.seeds)
    tsv = report.to_tsv()
    if args.out_tsv:
        with open(args.out_tsv, "w", encoding="utf-8") as f:
            f.write(tsv)
        print(f"wrote {len(report.rows)} result rows to {args.out_tsv}")
    else:
        print(tsv, end="")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    # stats rows hold no work or resolver name, and every resolver is exact
    answer = _open_answerer(args, PBIBFS)
    first = True
    for path in args.queries:
        stats = ObservationStats(track_overlap=True)
        for s, t, _exp in load_query_file(path):
            answer(s, t, stats)
        text = stats_report(stats, query_set=path.rsplit("/", 1)[-1])
        if not first:  # drop the repeated header line
            text = text.split("\n", 1)[1]
        print(text, end="")
        first = False
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachidx",
        description="DAG reachability index toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", required=True, help="graph file")
        p.add_argument(
            "--format",
            choices=("edge-list", "gra"),
            default=None,
            help="input format (default: sniff from suffix)",
        )

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--t", type=int, default=4, help="topological orderings")
        p.add_argument("--k", type=int, default=16, help="supportive vertices")
        p.add_argument("--p", type=int, default=75, help="candidate multiplier")
        p.add_argument("--h", type=int, default=8, help="slim-level threshold")

    p = sub.add_parser("gen-graph", help="generate a uniform random DAG")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("edge-list", "gra"), default="edge-list")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_graph)

    p = sub.add_parser("gen-queries", help="sample a query set with expected bits")
    add_graph_arg(p)
    p.add_argument("--kind", choices=("positive", "negative", "random", "mixed"),
                   required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--matrix-cap", type=int, default=DEFAULT_MATRIX_CAP,
                   help="oracle matrix byte cap; larger graphs use per-pair BFS")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_queries)

    p = sub.add_parser("build", help="build and serialize the index")
    add_graph_arg(p)
    add_params(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-index", required=True)
    p.add_argument("--remap-out", default=None,
                   help="remap table path for sparse ids (default: <index>.remap)")
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("query", help="answer query pairs from a file")
    add_graph_arg(p)
    p.add_argument("--index", required=True)
    p.add_argument("--pairs", required=True, help="query file: 's t [expected]'")
    p.add_argument("--fallback", choices=tuple(RESOLVERS), default="pbibfs")
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("bench", help="time algorithms over query sets")
    add_graph_arg(p)
    add_params(p)
    p.add_argument("--queries", nargs="+", required=True)
    p.add_argument(
        "--algos",
        nargs="+",
        choices=ALGORITHM_NAMES,
        default=["index+pbibfs", "matrix", "bfs"],
        metavar="ALGO",
        help="any of: %(choices)s",
    )
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    p.add_argument("--matrix-cap", type=int, default=DEFAULT_MATRIX_CAP)
    p.add_argument("--out-tsv", default=None)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("stats", help="observation effectiveness breakdown")
    add_graph_arg(p)
    p.add_argument("--index", required=True)
    p.add_argument("--queries", nargs="+", required=True)
    p.set_defaults(fn=_cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

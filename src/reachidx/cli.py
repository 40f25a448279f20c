"""Command-line interface.

Inputs may be arbitrary digraphs: every command condenses its input first
and answers original-vertex queries through the SCC map, so two vertices of
one strongly connected component are mutually reachable without consulting
the index (observation B3).

`build` also writes the condensation next to the index, as a bundle keyed
by a digest of the graph file's bytes and format, so that `query` and
`stats` need not parse the graph and run Tarjan again.  A bundle that is
missing, stale or damaged is ignored and the graph is parsed as `build`
parsed it; deleting one is always safe.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import struct
import sys
import zlib
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .baselines import DEFAULT_MATRIX_CAP
from .graph import (
    DiGraph,
    ParseResult,
    _digraph,
    graph_format,
    load_graph,
    scc_condense,
    write_edge_list,
    write_gra,
    write_remap,
)
from .index import (
    IndexParams,
    QueryOutcome,
    RESOLVERS,
    ReachIndex,
    build_index,
    deserialize_index,
    observation_stats,
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


def _warn_dropped(path: str, self_loops: int, duplicates: int) -> None:
    if self_loops:
        _warn(f"{path}: dropped {self_loops} self-loop(s)")
    if duplicates:
        _warn(f"{path}: dropped {duplicates} duplicate edge(s)")


def _load(path: str, fmt: str | None) -> ParseResult:
    res = load_graph(path, fmt)
    _warn_dropped(path, res.dropped_self_loops, res.dropped_duplicates)
    return res


def _translate(
    id_map: dict[int, int], scc_of: list[int], s: int, t: int
) -> tuple[int, int]:
    try:
        ds, dt = id_map[s], id_map[t]
    except KeyError as e:
        raise SystemExit(f"error: unknown vertex id {e.args[0]}") from None
    return scc_of[ds], scc_of[dt]


# ---------------------------------------------------------------------------
# condensation bundle: <index>.cond
#
# header, then original_ids (<i8, n), scc_of (<u4, n), the condensed DAG as
# CSR offsets (<u4, c + 1) and targets (<u4, m), then a CRC32 (<u4) of all
# bytes before it.  The digest covers the graph format and the graph file's
# bytes, so an edited file or another format makes the bundle stale.

BUNDLE_SUFFIX = ".cond"
BUNDLE_MAGIC = b"RIDC"
BUNDLE_VERSION = 1
# magic, version, source digest, n, c, m, dropped self-loops, dropped duplicates
BUNDLE_HEADER = struct.Struct("<4sI32s5Q")


def _source_digest(path: str, fmt: str) -> bytes:
    h = hashlib.blake2b(fmt.encode() + b"\n", digest_size=32)
    with open(path, "rb") as f:
        h.update(f.read())
    return h.digest()


def _write_bundle(
    path: str,
    digest: bytes,
    original_ids: np.ndarray,
    scc_of: np.ndarray,
    dag: DiGraph,
    dropped: tuple[int, int],
) -> None:
    degs = np.fromiter(map(len, dag.out_adj), np.int64, dag.n)
    offsets = np.r_[0, np.cumsum(degs)].astype("<u4")
    targets = np.fromiter(chain.from_iterable(dag.out_adj), "<u4", dag.m)
    header = BUNDLE_HEADER.pack(
        BUNDLE_MAGIC, BUNDLE_VERSION, digest, len(original_ids), dag.n, dag.m, *dropped
    )
    body = b"".join(
        [header, original_ids.tobytes(), scc_of.tobytes(), offsets.tobytes(), targets.tobytes()]
    )
    with open(path, "wb") as f:
        f.write(body)
        f.write(struct.pack("<I", zlib.crc32(body)))


def _read_bundle(
    path: str, digest: bytes
) -> tuple[DiGraph, list[int], list[int], tuple[int, int]] | None:
    """(condensed DAG, original_ids, scc_of, dropped self-loops and
    duplicates) from the bundle at path, or None unless it is whole, intact
    and written for the graph bytes and format that digest names."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:  # a bundle that cannot be read is one not written
        return None
    if len(data) < BUNDLE_HEADER.size:
        return None
    magic, version, source, n, c, m, *dropped = BUNDLE_HEADER.unpack_from(data)
    if (magic, version, source) != (BUNDLE_MAGIC, BUNDLE_VERSION, digest):
        return None
    end = len(data) - 4
    if end != BUNDLE_HEADER.size + 12 * n + 4 * (c + 1) + 4 * m:
        return None
    if zlib.crc32(memoryview(data)[:end]) != int.from_bytes(data[end:], "little"):
        return None
    at = BUNDLE_HEADER.size
    original_ids = np.frombuffer(data, "<i8", n, at)
    scc_of = np.frombuffer(data, "<u4", n, at + 8 * n)
    offsets = np.frombuffer(data, "<u4", c + 1, at + 12 * n).astype(np.int64)
    targets = np.frombuffer(data, "<u4", m, at + 12 * n + 4 * (c + 1)).astype(np.int64)
    sources = np.repeat(np.arange(c), np.diff(offsets))
    dag = _digraph(c, sources, targets)
    return dag, original_ids.tolist(), scc_of.tolist(), tuple(dropped)


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
    fmt = graph_format(args.graph, args.format)
    digest = _source_digest(args.graph, fmt)
    res = _load(args.graph, fmt)
    cond = scc_condense(res.graph)
    dag = cond.dag
    n_input = res.graph.n
    remap = None
    if res.is_sparse:
        remap = io.StringIO()
        write_remap(res, remap)
    try:
        original_ids = np.array(res.original_ids, dtype="<i8")
    except OverflowError:
        original_ids = None  # ids beyond 64 bits: no bundle, query re-parses
    scc_of = np.array(cond.scc_of, dtype="<u4")
    dropped = (res.dropped_self_loops, res.dropped_duplicates)
    del res, cond  # the input graph would only raise the peak memory of the build
    ix = build_index(dag, args.params, args.seed)
    data = serialize_index(ix)
    with open(args.out_index, "wb") as f:
        f.write(data)
    bundle = args.out_index + BUNDLE_SUFFIX
    if original_ids is not None:
        _write_bundle(bundle, digest, original_ids, scc_of, dag, dropped)
    elif os.path.exists(bundle):
        os.remove(bundle)
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


def _open_index(
    args: argparse.Namespace,
) -> tuple[ReachIndex, Callable[[int, int], tuple[int, int]]]:
    """Load the condensed graph, from the index's bundle when it matches the
    graph file, and the index; return the index and a function that
    translates an original-id pair to the pair of their SCCs."""
    fmt = graph_format(args.graph, args.format)
    bundle = _read_bundle(args.index + BUNDLE_SUFFIX, _source_digest(args.graph, fmt))
    if bundle is None:
        res = _load(args.graph, fmt)
        cond = scc_condense(res.graph)
        dag, id_map, scc_of = cond.dag, res.id_map, cond.scc_of
    else:
        dag, original_ids, scc_of, dropped = bundle
        _warn_dropped(args.graph, *dropped)
        id_map = dict(zip(original_ids, range(len(original_ids))))
    with open(args.index, "rb") as f:
        ix = deserialize_index(f.read(), dag)
    return ix, lambda s, t: _translate(id_map, scc_of, s, t)


# distinct originals in one SCC: mutually reachable, no index needed
SAME_SCC = QueryOutcome(True, "0:B3", 0)


def _cmd_query(args: argparse.Namespace) -> int:
    ix, translate = _open_index(args)
    resolver = RESOLVERS[args.fallback]
    queries = fallbacks = mismatches = 0
    for s, t, exp in load_query_file(args.pairs):
        cs, ct = translate(s, t)
        outcome = SAME_SCC if cs == ct and s != t else query(ix, cs, ct, resolver)
        queries += 1
        fallbacks += outcome.answered_by.startswith("fallback:")
        print(f"{s}\t{t}\t{int(outcome.answer)}\t{outcome.answered_by}\t{outcome.work}")
        if exp is not None and outcome.answer != exp:
            mismatches += 1
            _warn(f"({s}, {t}): answered {int(outcome.answer)}, expected {int(exp)}")
    print(
        f"queries={queries} fallbacks={fallbacks}"
        + (f" fallback_rate={fallbacks / queries:.4f}" if queries else ""),
        file=sys.stderr,
    )
    if mismatches:
        print(f"error: {mismatches} answer mismatch(es)", file=sys.stderr)
        return 1
    return 0


def _load_query_sets(args, res: ParseResult, scc_of: list[int]) -> list[QuerySet]:
    sets = []
    for path in args.queries:
        rows = load_query_file(path)
        pairs = []
        expected: list[bool] | None = []
        for s, t, exp in rows:
            pairs.append(_translate(res.id_map, scc_of, s, t))
            expected.append(exp)
        if all(e is None for e in expected):
            expected = None
        name = path.rsplit("/", 1)[-1]
        sets.append(QuerySet(pairs, "file", 0, expected, name=name))
    return sets


def _cmd_bench(args: argparse.Namespace) -> int:
    res = _load(args.graph, args.format)
    cond = scc_condense(res.graph)
    query_sets = _load_query_sets(args, res, cond.scc_of)
    algos = standard_algorithms(args.algos, args.params, args.matrix_cap)
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
    ix, translate = _open_index(args)
    for i, path in enumerate(args.queries):
        pairs = [(s != t, *translate(s, t)) for s, t, _exp in load_query_file(path)]
        rest = [(cs, ct) for distinct, cs, ct in pairs if not (distinct and cs == ct)]
        S, T = np.array(rest, dtype=np.int64).reshape(-1, 2).T
        stats = observation_stats(ix, S, T)
        if same := len(pairs) - len(rest):  # pairs answered 0:B3
            stats.queries += same
            stats.first_hit[SAME_SCC.answered_by] += same
            stats.outcomes["reachable"] += same
        text = stats_report(stats, query_set=path.rsplit("/", 1)[-1])
        if i:  # drop the repeated header line
            text = text.split("\n", 1)[1]
        print(text, end="")
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
        d = IndexParams()
        p.add_argument("--t", type=int, default=d.t, help="topological orderings")
        p.add_argument("--k", type=int, default=d.k, help="supportive vertices")
        p.add_argument("--p", type=int, default=d.p, help="candidate multiplier")
        p.add_argument("--h", type=int, default=d.h, help="slim-level threshold")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    if "t" in vars(args):  # a command that takes the index parameters
        try:
            args.params = IndexParams(t=args.t, k=args.k, p=args.p, h=args.h)
        except ValueError as e:
            parser.error(str(e))
    try:
        return args.fn(args)
    except ValueError as e:  # the generators and bench reject bad counts
        if args.command not in ("gen-graph", "gen-queries", "bench"):
            raise
        parser.error(str(e))


if __name__ == "__main__":
    sys.exit(main())

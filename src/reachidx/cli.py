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

`query` answers its pairs file in bulk.  It reads the whole file first and
translates every original id to its SCC with one search of the sorted ids,
so an unknown id fails the command before any answer is printed.  It then
answers QUERY_CHUNK pairs at a time with index.query_batch, which gives
each pair the outcome query() gives it (with a spare CPU, half of a
chunk's fallbacks run in a forked worker), and writes each chunk's rows
as one string, cut into WRITE_PIECE pieces.  A chunk costs no per-call
conversion of the support masks: the table reads them as the rows the
index file held.

Only gen-graph, gen-queries, bench and stats use the workbench, and each
imports it when it runs, so `build` and `query` start without it (and
without the statistics module it loads).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import os
import struct
import sys
import zlib
from typing import IO, Iterator, Sequence

import numpy as np

from .baselines import ALGORITHM_NAMES, DEFAULT_MATRIX_CAP, QUERY_KINDS, InfeasibleError
from .graph import (
    DiGraph,
    GraphFormatError,
    ParseResult,
    _csr_graph,
    graph_format,
    load_graph,
    load_pairs,
    scc_condense,
    write_edge_list,
    write_gra,
)
from .index import (
    PBIBFS,
    IndexFormatError,
    IndexParams,
    ReachIndex,
    build_index,
    deserialize_index,
    observation_stats,
    query_batch,
    serialize_index,
)


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _warn_dropped(path: str, self_loops: int, duplicates: int) -> None:
    if self_loops:
        _warn(f"{path}: dropped {self_loops} self-loop(s)")
    if duplicates:
        _warn(f"{path}: dropped {duplicates} duplicate edge(s)")


def _load(path: str, fmt: str | None) -> ParseResult:
    try:
        res = load_graph(path, fmt)
    except GraphFormatError as e:  # say which input file is at fault
        raise GraphFormatError(f"{path}: {e}") from None
    _warn_dropped(path, res.dropped_self_loops, res.dropped_duplicates)
    return res


def _load_condensed(path: str, fmt: str | None) -> tuple[DiGraph, np.ndarray, np.ndarray]:
    """The condensed DAG of the graph at path, its original ids ascending,
    and the SCC of each."""
    res = _load(path, fmt)
    cond = scc_condense(res.graph)
    try:
        ids = np.array(res.original_ids, dtype=np.int64)
    except OverflowError:  # ids beyond 64 bits compare as Python ints
        ids = np.array(res.original_ids, dtype=object)
    return cond.dag, ids, np.array(cond.scc_of, dtype=np.uint32)


def _read_pairs(
    path: str, ids: np.ndarray, scc_of: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pairs file at path as (S, T, SCC of S, SCC of T, expected bit,
    -1 for none), all read and translated before a command prints any
    answer.  ids are the graph's original ids, ascending, and scc_of[i] is
    the SCC of ids[i]; an id not among them fails the whole file, naming
    the first one in reading order."""
    S, T, expected = load_pairs(path)
    ends = np.column_stack((S, T)).ravel()  # s, t of each pair in turn
    if ends.dtype != ids.dtype:  # ids beyond 64 bits on one side: compare as ints
        ends, ids = ends.astype(object), ids.astype(object)
    at = np.searchsorted(ids, ends)
    known = at < len(ids)
    known[known] = ids[at[known]] == ends[known]
    if not known.all():
        raise GraphFormatError(f"{path}: unknown vertex id {ends[known.argmin()]}")
    scc = scc_of[at]
    return S, T, scc[0::2], scc[1::2], expected


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
    f: IO[bytes],
    digest: bytes,
    original_ids: np.ndarray,
    scc_of: np.ndarray,
    dag: DiGraph,
    dropped: tuple[int, int],
) -> None:
    offsets = np.frombuffer(dag.out_off, np.uint32).astype("<u4")
    targets = np.frombuffer(dag.out_tg, np.uint32).astype("<u4")
    header = BUNDLE_HEADER.pack(
        BUNDLE_MAGIC, BUNDLE_VERSION, digest, len(original_ids), dag.n, dag.m, *dropped
    )
    body = b"".join(
        [header, original_ids.tobytes(), scc_of.tobytes(), offsets.tobytes(), targets.tobytes()]
    )
    f.write(body)
    f.write(struct.pack("<I", zlib.crc32(body)))


def _read_bundle(
    path: str, digest: bytes
) -> tuple[DiGraph, np.ndarray, np.ndarray, tuple[int, int]] | None:
    """(condensed DAG, original ids ascending, the SCC of each, dropped
    self-loops and duplicates) from the bundle at path, or None unless it is
    whole, intact and written for the graph bytes and format that digest
    names."""
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
    targets = np.frombuffer(data, "<u4", m, at + 12 * n + 4 * (c + 1))
    if not _sound_condensation(original_ids, scc_of, offsets, targets):
        return None
    return _csr_graph(offsets, targets), original_ids, scc_of, tuple(dropped)


def _sound_condensation(
    original_ids: np.ndarray, scc_of: np.ndarray, off: np.ndarray, tg: np.ndarray
) -> bool:
    """Whether a bundle's arrays hold what `build` writes, in O(n + m): the
    ids strictly increasing, every SCC id below c, and CSR rows of a simple
    graph on c vertices (offsets rising from 0 to m, each row strictly
    increasing, in range and free of its own vertex).  A CRC only tells an
    intact file from a damaged one, not sound contents from unsound."""
    c, m = len(off) - 1, len(tg)
    if (original_ids[1:] <= original_ids[:-1]).any() or (scc_of >= c).any():
        return False
    degrees = np.diff(off)
    if off[0] != 0 or off[-1] != m or (degrees < 0).any():
        return False
    row_start = np.zeros(m + 1, dtype=bool)
    row_start[off] = True
    rising = (tg[1:] > tg[:-1]) | row_start[1:m]
    sources = np.repeat(np.arange(c), degrees)
    return bool(rising.all() and (tg < c).all() and (tg != sources).all())


def _cmd_gen_graph(args: argparse.Namespace) -> int:
    from .workbench import gen_random_dag

    g = gen_random_dag(args.n, args.m, args.seed)
    with open(args.out, "w", encoding="utf-8") as f:
        if args.format == "gra":
            write_gra(g, f)
        else:
            write_edge_list(g, f)
    print(f"wrote {args.format} graph n={g.n} m={g.m} to {args.out}")
    return 0


def _cmd_gen_queries(args: argparse.Namespace) -> int:
    from .workbench import build_oracle, gen_queries, save_query_set

    res = _load(args.graph, args.format)
    oracle = build_oracle(res.graph, args.matrix_cap)
    qs = gen_queries(res.graph, args.kind, args.count, args.seed, oracle)
    with open(args.out, "w", encoding="utf-8") as f:
        save_query_set(qs, f, res.original_ids)
    print(f"wrote {len(qs.pairs)} {args.kind} queries to {args.out}")
    return 0


@contextlib.contextmanager
def _replacing(path: str) -> Iterator[IO[bytes]]:
    """A new file beside path, renamed onto path when the block succeeds and
    removed when it fails, so that path holds its old bytes or all the new."""
    if os.path.isdir(path):  # os.replace would fail only after the build
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.getpid()}.tmp"  # not mkstemp: its files are private to the user
    try:
        f = open(tmp, "wb")
    except OSError as e:  # name the path asked for, not the temporary
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # either is missing
        return False


def _cmd_build(args: argparse.Namespace) -> int:
    fmt = graph_format(args.graph, args.format)
    bundle = args.out_index + BUNDLE_SUFFIX
    for path in (args.out_index, bundle):
        if _same_file(path, args.graph):
            raise OSError(f"{path} is the graph file: the build would overwrite its input")
    # an unwritable path fails here, before the graph is read
    with _replacing(args.out_index) as out, _replacing(bundle) as out_bundle:
        digest = _source_digest(args.graph, fmt)
        res = _load(args.graph, fmt)
        cond = scc_condense(res.graph)
        dag = cond.dag
        n_input = res.graph.n
        try:
            original_ids = np.array(res.original_ids, dtype="<i8")
        except OverflowError:
            original_ids = None  # ids beyond 64 bits: no bundle, query re-parses
        scc_of = np.array(cond.scc_of, dtype="<u4")
        dropped = (res.dropped_self_loops, res.dropped_duplicates)
        del res, cond  # the input graph would only raise the peak memory of the build
        data = serialize_index(build_index(dag, args.params, args.seed))
        out.write(data)
        if original_ids is not None:
            _write_bundle(out_bundle, digest, original_ids, scc_of, dag, dropped)
    if original_ids is None:  # drop the empty bundle the block renamed into place
        os.remove(bundle)
    print(
        f"indexed {dag.n} SCC(s) of {n_input} vertices: "
        f"{len(data)} bytes to {args.out_index}"
    )
    return 0


def _open_index(args: argparse.Namespace) -> tuple[ReachIndex, np.ndarray, np.ndarray]:
    """Load the condensed graph, from the index's bundle when it matches the
    graph file, and the index; return the index, the original vertex ids
    ascending and the SCC of each."""
    fmt = graph_format(args.graph, args.format)
    bundle = _read_bundle(args.index + BUNDLE_SUFFIX, _source_digest(args.graph, fmt))
    if bundle is None:
        dag, ids, scc_of = _load_condensed(args.graph, fmt)
    else:
        dag, ids, scc_of, dropped = bundle
        _warn_dropped(args.graph, *dropped)
    with open(args.index, "rb") as f:
        ix = deserialize_index(f.read(), dag)
    return ix, ids, scc_of


# distinct originals in one SCC: mutually reachable, no index needed
SAME_SCC = "0:B3"
# pairs that query answers with one query_batch call, so that the
# observation table stays a few MB whatever the file's length.  A call
# reads the support masks as the index's rows, without converting all n
# of them, so its cost beyond its own pairs is at most one fork for its
# fallbacks.
QUERY_CHUNK = 1 << 16
# characters of a chunk's rows per stdout write.  A stdout that writes
# through (PYTHONUNBUFFERED, -u) drops the rest of a short write unseen, as
# when the reader leaves during it, so one write of all the rows could end
# with status 0 and rows missing; the next piece's write fails instead.
WRITE_PIECE = 1 << 16


def _cmd_query(args: argparse.Namespace) -> int:
    ix, ids, scc_of = _open_index(args)
    S, T, CS, CT, expected = _read_pairs(args.pairs, ids, scc_of)
    fallbacks = mismatches = 0
    for lo in range(0, len(S), QUERY_CHUNK):
        chunk = slice(lo, lo + QUERY_CHUNK)
        answer, tags, work = query_batch(ix, CS[chunk], CT[chunk])
        s, t = S[chunk].tolist(), T[chunk].tolist()
        for i in np.flatnonzero((CS[chunk] == CT[chunk]) & (S[chunk] != T[chunk])).tolist():
            tags[i] = SAME_SCC  # answered True with no work by 1:EQ of the SCCs
        bits = answer.astype(np.uint8).tolist()
        text = "".join([
            f"{a}\t{b}\t{bit}\t{tag}\t{w}\n"
            for a, b, bit, tag, w in zip(s, t, bits, tags, work.tolist())
        ])
        for i in range(0, len(text), WRITE_PIECE):
            sys.stdout.write(text[i : i + WRITE_PIECE])
        fallbacks += tags.count(PBIBFS.tag)
        exp = expected[chunk]
        for i in np.flatnonzero((exp >= 0) & (answer != (exp == 1))).tolist():
            mismatches += 1
            _warn(f"({s[i]}, {t[i]}): answered {bits[i]}, expected {int(exp[i])}")
    queries = len(S)
    print(
        f"queries={queries} fallbacks={fallbacks}"
        + (f" fallback_rate={fallbacks / queries:.4f}" if queries else ""),
        file=sys.stderr,
    )
    if mismatches:
        print(f"error: {mismatches} answer mismatch(es)", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .workbench import QuerySet, bench

    dag, ids, scc_of = _load_condensed(args.graph, args.format)
    query_sets = []
    for path in args.queries:
        _S, _T, CS, CT, exp = _read_pairs(path, ids, scc_of)
        pairs = list(zip(CS.tolist(), CT.tolist()))
        expected = None if (exp < 0).all() else [None if e < 0 else e == 1 for e in exp.tolist()]
        query_sets.append(QuerySet(pairs, "file", 0, expected, name=path.rsplit("/", 1)[-1]))
    report = bench(dag, args.algos, query_sets, args.reps, args.seeds, args.params, args.matrix_cap)
    tsv = report.to_tsv()
    if args.out_tsv:
        with open(args.out_tsv, "w", encoding="utf-8") as f:
            f.write(tsv)
        print(f"wrote {len(report.rows)} result rows to {args.out_tsv}")
    else:
        print(tsv, end="")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .workbench import stats_report

    # stats rows hold no work or fallback tag: only the count of undecided pairs
    ix, ids, scc_of = _open_index(args)
    files = [(path, _read_pairs(path, ids, scc_of)) for path in args.queries]
    for i, (path, (S, T, CS, CT, _exp)) in enumerate(files):
        rest = (S == T) | (CS != CT)
        stats = observation_stats(ix, CS[rest], CT[rest])
        if same := len(S) - int(np.count_nonzero(rest)):  # pairs answered 0:B3
            stats.queries += same
            stats.first_hit[SAME_SCC] += same
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
    p.add_argument("--kind", choices=QUERY_KINDS, required=True)
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
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("query", help="answer query pairs from a file")
    add_graph_arg(p)
    p.add_argument("--index", required=True)
    p.add_argument("--pairs", required=True, help="query file: 's t [expected]'")
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
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: not an input error.  Point
        # it at devnull, so that Python's flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 1
    # a bad, missing or unwritable file, or a graph without enough pairs of
    # the asked kind: not a bad count
    except (GraphFormatError, IndexFormatError, InfeasibleError, OSError) as e:
        raise SystemExit(f"error: {e}") from None
    except ValueError as e:  # the generators and bench reject bad counts
        if args.command not in ("gen-graph", "gen-queries", "bench"):
            raise
        parser.error(str(e))


if __name__ == "__main__":
    sys.exit(main())

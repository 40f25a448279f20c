"""Command-line interface: files, warnings and printing.

Inputs may be arbitrary digraphs on arbitrary integer ids.  Every command
answers them through index.Condensed, the graph's SCC condensation, which
owns the original ids: it translates each pair to its SCCs, refuses an
unknown id before any pair is answered, and answers two distinct ids of
one strongly connected component without the index (observation B3).

`build` also writes the condensation next to the index, as a bundle keyed
by a digest of the graph file's bytes and format, so that `query` and
`stats` need not parse the graph and run Tarjan again.  A bundle that is
missing, stale or damaged is ignored and the graph is parsed as `build`
parsed it; deleting one is always safe.

`query` reads the whole pairs file and answers it with Condensed.query,
QUERY_CHUNK pairs to an index.query_batch call, which gives each pair the
outcome query() gives it (with a spare CPU, half of a chunk's fallbacks
run in a forked worker).  It writes each chunk's rows as one string, cut
into WRITE_PIECE pieces.

Each command loads the modules it runs.  Importing this one loads core
(the graph, the pairs reader and the index's columns), baselines and
index.  The parser, and Tarjan's condensation in Condensed.from_parse, are
imported from graph where a graph is parsed: by `build`, and by `query`
and `stats` when the bundle is missing or stale.  `build_index` imports
the build stages (graph, toporder, supportive) when it runs.  So `query`
over a valid bundle compiles no build stage.  Only gen-graph, gen-queries,
bench and stats use the workbench, and each imports it when it runs, so
`build` and `query` start without it (and without the statistics module
it loads).
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import os
import struct
import sys
import zlib
from _blake2 import blake2b  # hashlib's blake2b, without the OpenSSL module hashlib loads
from typing import IO, TYPE_CHECKING, Iterator, Sequence

import numpy as np

from .baselines import ALGORITHM_NAMES, DEFAULT_MATRIX_CAP, QUERY_KINDS, InfeasibleError
from .core import GraphFormatError, _csr_graph, graph_format, load_pairs
from .index import (
    PBIBFS,
    QUERY_CHUNK,
    Condensed,
    IndexFormatError,
    IndexParams,
    ReachIndex,
    build_index,
    deserialize_index,
    serialize_index,
)

if TYPE_CHECKING:
    from .graph import ParseResult


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _warn_dropped(path: str, self_loops: int, duplicates: int) -> None:
    if self_loops:
        _warn(f"{path}: dropped {self_loops} self-loop(s)")
    if duplicates:
        _warn(f"{path}: dropped {duplicates} duplicate edge(s)")


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


@contextlib.contextmanager
def _in_file(path: str) -> Iterator[None]:
    """Say which input file is at fault in a GraphFormatError of the block."""
    try:
        yield
    except GraphFormatError as e:
        raise GraphFormatError(f"{path}: {e}") from None


def _load(path: str, fmt: str | None, data: bytes) -> ParseResult:
    """The graph file at path, whose bytes are data, parsed.  Its original
    ids are int64, or Python ints (dtype object) when one is beyond 64
    bits: those compare as ints, and no bundle can hold them."""
    from .graph import parse_graph

    with _in_file(path):
        res = parse_graph(data, graph_format(path, fmt))
    _warn_dropped(path, res.dropped_self_loops, res.dropped_duplicates)
    return res


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


def _source_digest(data: bytes, fmt: str) -> bytes:
    """The digest of a graph file's bytes, data, read in format fmt."""
    h = blake2b(fmt.encode() + b"\n", digest_size=32)
    h.update(data)
    return h.digest()


def _write_bundle(f: IO[bytes], digest: bytes, cond: Condensed, dropped: tuple[int, int]) -> None:
    dag = cond.dag
    offsets = np.frombuffer(dag.out_off, np.uint32).astype("<u4")
    targets = np.frombuffer(dag.out_tg, np.uint32).astype("<u4")
    header = BUNDLE_HEADER.pack(
        BUNDLE_MAGIC, BUNDLE_VERSION, digest, len(cond.ids), dag.n, dag.m, *dropped
    )
    body = b"".join(
        [header, cond.ids.astype("<i8", copy=False).tobytes(),
         cond.scc_of.astype("<u4", copy=False).tobytes(), offsets.tobytes(), targets.tobytes()]
    )
    f.write(body)
    f.write(struct.pack("<I", zlib.crc32(body)))


def _read_bundle(path: str, digest: bytes) -> tuple[Condensed, tuple[int, int]] | None:
    """The condensation and the dropped self-loops and duplicates from the
    bundle at path, or None unless it is whole, intact and written for the
    graph bytes and format that digest names."""
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
    return Condensed(original_ids, scc_of, _csr_graph(offsets, targets)), tuple(dropped)


def _sound_condensation(
    original_ids: np.ndarray, scc_of: np.ndarray, off: np.ndarray, tg: np.ndarray
) -> bool:
    """Whether a bundle's arrays hold what `build` writes, in O(n + m): the
    ids strictly increasing, every SCC id below c and the SCC of some
    original vertex, and CSR rows of a simple graph on c vertices (offsets
    rising from 0 to m, each row strictly increasing, in range and free of
    its own vertex).  A CRC only tells an intact file from a damaged one,
    not sound contents from unsound."""
    c, m = len(off) - 1, len(tg)
    if (original_ids[1:] <= original_ids[:-1]).any() or (scc_of >= c).any():
        return False
    if not np.bincount(scc_of, minlength=c).all():  # an SCC of no vertex
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
    from .graph import write_edge_list, write_gra
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

    res = _load(args.graph, args.format, _read(args.graph))
    oracle = build_oracle(res.graph, args.matrix_cap)
    qs = gen_queries(res.graph, args.kind, args.count, args.seed, oracle)
    with open(args.out, "w", encoding="utf-8") as f:
        save_query_set(qs, f, res.ids)
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
        source = _read(args.graph)
        digest = _source_digest(source, fmt)
        res = _load(args.graph, fmt, source)
        cond = Condensed.from_parse(res)
        dropped = (res.dropped_self_loops, res.dropped_duplicates)
        # the file's bytes and the input graph would only raise the peak memory of the build
        del source, res
        data = serialize_index(build_index(cond.dag, args.params, args.seed))
        out.write(data)
        if cond.ids.dtype != object:
            _write_bundle(out_bundle, digest, cond, dropped)
    if cond.ids.dtype == object:  # no bundle, query re-parses: drop the empty one
        os.remove(bundle)
    print(
        f"indexed {cond.dag.n} SCC(s) of {len(cond.ids)} vertices: "
        f"{len(data)} bytes to {args.out_index}"
    )
    return 0


def _open_index(args: argparse.Namespace) -> tuple[ReachIndex, Condensed]:
    """The index and the condensation of the graph file, read from the
    index's bundle when that matches the graph file."""
    fmt = graph_format(args.graph, args.format)
    source = _read(args.graph)
    bundle = _read_bundle(args.index + BUNDLE_SUFFIX, _source_digest(source, fmt))
    if bundle is None:
        cond = Condensed.from_parse(_load(args.graph, fmt, source))
    else:
        cond, dropped = bundle
        _warn_dropped(args.graph, *dropped)
    del source
    with open(args.index, "rb") as f:
        return deserialize_index(f.read(), cond.dag), cond


# characters of a chunk's rows per stdout write.  A stdout that writes
# through (PYTHONUNBUFFERED, -u) drops the rest of a short write unseen, as
# when the reader leaves during it, so one write of all the rows could end
# with status 0 and rows missing; the next piece's write fails instead.
WRITE_PIECE = 1 << 16


def _cmd_query(args: argparse.Namespace) -> int:
    ix, cond = _open_index(args)
    S, T, expected = load_pairs(args.pairs)
    with _in_file(args.pairs):
        answer, tags, work = cond.query(ix, S, T)
    bits = answer.astype(np.uint8)
    for lo in range(0, len(S), QUERY_CHUNK):  # the rows of a chunk at a time
        chunk = slice(lo, lo + QUERY_CHUNK)
        text = "".join([
            f"{a}\t{b}\t{bit}\t{tag}\t{w}\n"
            for a, b, bit, tag, w in zip(
                S[chunk].tolist(), T[chunk].tolist(), bits[chunk].tolist(), tags[chunk],
                work[chunk].tolist(),
            )
        ])
        for i in range(0, len(text), WRITE_PIECE):
            sys.stdout.write(text[i : i + WRITE_PIECE])
    mismatches = np.flatnonzero((expected >= 0) & (answer != (expected == 1))).tolist()
    for i in mismatches:
        _warn(f"({S[i]}, {T[i]}): answered {bits[i]}, expected {expected[i]}")
    fallbacks, queries = tags.count(PBIBFS.tag), len(S)
    print(
        f"queries={queries} fallbacks={fallbacks}"
        + (f" fallback_rate={fallbacks / queries:.4f}" if queries else ""),
        file=sys.stderr,
    )
    if mismatches:
        print(f"error: {len(mismatches)} answer mismatch(es)", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .workbench import QuerySet, bench

    cond = Condensed.from_parse(_load(args.graph, args.format, _read(args.graph)))
    query_sets = []
    for path in args.queries:
        S, T, exp = load_pairs(path)
        with _in_file(path):
            CS, CT = cond.sccs(S, T)
        pairs = list(zip(CS.tolist(), CT.tolist()))
        expected = None if (exp < 0).all() else [None if e < 0 else e == 1 for e in exp.tolist()]
        query_sets.append(QuerySet(pairs, "file", 0, expected, name=path.rsplit("/", 1)[-1]))
    report = bench(cond.dag, args.algos, query_sets, args.reps, args.seeds, args.params, args.matrix_cap)
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
    ix, cond = _open_index(args)
    files = []
    for path in args.queries:  # every file's stats, before any is printed
        S, T, _exp = load_pairs(path)
        with _in_file(path):
            files.append((path, cond.stats(ix, S, T)))
    for i, (path, stats) in enumerate(files):
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


def entry() -> int:
    """The process entry of `reachidx` (its console script, and `python -m
    reachidx.cli`): main() on the process's arguments, then, however main
    ends, gc.freeze(), so that the interpreter's collection at exit skips
    every object made so far, numpy's and reachidx's modules among them
    (~15 ms of an empty `query`).  main() itself leaves the collector
    alone, for callers in a process that goes on: tests rely on
    collection to find a leaked file."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry())

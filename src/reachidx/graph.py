"""Directed-graph core: adjacency storage, file ingestion, SCC condensation,
weakly connected components, and topological levels.

Vertices are dense integers 0..n-1.  All containers here are immutable by
convention after construction and safe for concurrent readers.

Building a graph creates n adjacency lists per direction in one go.  Each
new list counts towards CPython's cyclic-GC thresholds, so on large graphs
construction would set off full collections that walk every list alive,
for nothing: lists of ints cannot form a reference cycle.  `_split` pauses
the collector while it creates them and restores the caller's setting.
"""

from __future__ import annotations

import gc
import zlib
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable

import numpy as np


class GraphFormatError(ValueError):
    """Malformed graph, query, or remap file."""


class AcyclicityError(ValueError):
    """An operation that requires a DAG was handed a cyclic graph."""


class DiGraph:
    """Simple directed graph (no self-loops, no parallel edges).

    Neighbor lists are kept sorted so that equal graphs have identical
    representations regardless of edge input order.  Build one with
    `from_edges`; the parsers and `scc_condense` return graphs as well.
    """

    __slots__ = ("out_adj", "in_adj", "n", "m")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DiGraph":
        pairs = list(edges)
        e = _index_array(chain.from_iterable(pairs), n)
        if len(e) != 2 * len(pairs):
            raise ValueError("edges must be (u, v) pairs")
        return _digraph(n, e[0::2], e[1::2])

    def reverse(self) -> "DiGraph":
        """The transposed graph, sharing this graph's adjacency lists."""
        g = DiGraph.__new__(DiGraph)
        g.out_adj, g.in_adj, g.n, g.m = self.in_adj, self.out_adj, self.n, self.m
        return g

    def edges(self) -> Iterable[tuple[int, int]]:
        for u, nbrs in enumerate(self.out_adj):
            for v in nbrs:
                yield u, v

    def __repr__(self) -> str:  # pragma: no cover
        return f"DiGraph(n={self.n}, m={self.m})"


def check_ids(n: int, s: int, t: int) -> None:
    """Raise IndexError unless s and t are both vertex ids in [0, n)."""
    if not (0 <= s < n and 0 <= t < n):
        bad = t if 0 <= s < n else s
        raise IndexError(f"vertex id {bad} out of range for n={n}")


def _index_array(values: Iterable[int], n: int) -> np.ndarray:
    try:
        return np.fromiter(values, np.int64)
    except OverflowError:
        raise ValueError(f"vertex id out of range 0..{n - 1}") from None


def _digraph(n: int, u: np.ndarray, v: np.ndarray) -> DiGraph:
    g = DiGraph.__new__(DiGraph)
    _fill(g, n, u, v)
    return g


def _fill(g: DiGraph, n: int, u: np.ndarray, v: np.ndarray) -> None:
    """The one construction path: validate the edges (u[i], v[i]) and set
    g's sorted adjacency lists.  The first error is the one a scan of the
    sources in input order, then of the edges in (u, v) order, meets."""
    bad = (u < 0) | (u >= n)
    if bad.any():
        raise ValueError(f"edge source {u[bad.argmax()]} out of range 0..{n - 1}")
    in_range = bool(((v >= 0) & (v < n)).all())
    # with every target in range, u * n + v orders edges as (u, v) does
    order = np.argsort(u * n + v, kind="stable") if in_range else np.lexsort((v, u))
    u, v = u[order], v[order]
    bad = v == u
    bad[1:] |= (v[1:] == v[:-1]) & (u[1:] == u[:-1])
    if not in_range or bad.any():
        bad |= (v < 0) | (v >= n)
        i = int(bad.argmax())
        a, b = int(u[i]), int(v[i])
        if not 0 <= b < n:
            raise ValueError(f"edge target {b} out of range 0..{n - 1}")
        if a == b:
            raise ValueError(f"self-loop at vertex {a}")
        raise ValueError(f"parallel edge ({a}, {b})")
    ids = np.arange(n).astype(object)  # one int object per vertex, shared
    g.out_adj = _split(ids[v], np.bincount(u, minlength=n))
    g.in_adj = _split(ids[u[np.argsort(v * n + u)]], np.bincount(v, minlength=n))
    g.n = n
    g.m = len(u)


def _split(flat: np.ndarray, counts: np.ndarray) -> list[list[int]]:
    items = flat.tolist()
    ends = np.cumsum(counts).tolist()
    enabled = gc.isenabled()
    gc.disable()  # the lists hold only ints: no cycles to find
    try:
        return [items[a:b] for a, b in zip([0, *ends], ends)]
    finally:
        if enabled:
            gc.enable()


def graph_checksum(g: DiGraph) -> int:
    """CRC32 over a canonical little-endian encoding of (n, m, adjacency)."""
    h = zlib.crc32(np.array([g.n, g.m], dtype="<u8").tobytes())
    if g.n:
        degs = np.fromiter(map(len, g.out_adj), dtype="<u4", count=g.n)
        h = zlib.crc32(degs.tobytes(), h)
    if g.m:
        flat = np.fromiter(chain.from_iterable(g.out_adj), dtype="<u4", count=g.m)
        h = zlib.crc32(flat.tobytes(), h)
    return h


# ---------------------------------------------------------------------------
# parsing


@dataclass
class ParseResult:
    graph: DiGraph
    original_ids: list[int]  # dense id -> original id
    id_map: dict[int, int]  # original id -> dense id
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0

    @property
    def is_sparse(self) -> bool:
        return self.original_ids != list(range(len(self.original_ids)))


# Code points that str.split() and str.strip() treat as whitespace; none
# lies above U+3000.  The last slot stands for every code point above that.
_WS_TABLE = np.zeros(0x3002, dtype=bool)
_WS_TABLE[[c for c in range(0x3001) if chr(c).isspace()]] = True
_MAX_DIGITS = 18  # any 18-digit decimal fits an int64


def parse_edge_list(lines: Iterable[str]) -> ParseResult:
    """One edge per line as two whitespace-separated integer ids.

    Blank lines and lines whose first non-blank character is '#' or '%' are
    skipped.  An id is any string int() accepts: optional sign, decimal
    digits, underscores between digits, no size limit."""
    lines = list(lines)
    lens = np.fromiter(map(len, lines), np.int64, len(lines))
    starts = np.r_[0, np.cumsum(lens + 1)[:-1]]
    return _parse_edge_text("\n".join(lines), starts)


def _parse_edge_text(text: str, line_starts: np.ndarray | None = None) -> ParseResult:
    """Edge-list text, split into lines at '\\n' unless line_starts gives the
    offset of each line.  The whole text is tokenized at once on an array of
    its code points; the tokens are the ones str.split() would return."""
    try:
        codes = np.frombuffer(text.encode("latin-1"), np.uint8)
    except UnicodeEncodeError:
        codes = np.minimum(np.frombuffer(text.encode("utf-32-le"), np.uint32), 0x3001)
    if line_starts is None:
        line_starts = np.r_[0, np.flatnonzero(codes == 10) + 1]
    n_lines = len(line_starts)
    word = ~_WS_TABLE[codes]
    starts = np.flatnonzero(word & np.r_[True, ~word[:-1]])
    ends = np.flatnonzero(word & np.r_[~word[1:], True]) + 1
    del word
    line = np.searchsorted(line_starts, starts, side="right") - 1
    opener = np.isin(codes[starts], (ord("#"), ord("%")))
    opener[1:] &= line[1:] != line[:-1]  # only a line's first token opens a comment
    skip = np.zeros(n_lines, dtype=bool)
    skip[line[opener]] = True
    counts = np.bincount(line, minlength=n_lines)
    bad = (counts != 0) & (counts != 2) & ~skip
    first_bad = int(bad.argmax()) if bad.any() else n_lines
    # the lines before the first malformed one may still hold a bad id,
    # which the line-by-line reading order reports first
    keep = ~skip[line] & (line < first_bad)
    vals = _parse_ids(text, codes, starts[keep], ends[keep], line[keep])
    if first_bad < n_lines:
        hi = line_starts[first_bad + 1] if first_bad + 1 < n_lines else len(text)
        raw = text[line_starts[first_bad]:hi].strip()
        raise GraphFormatError(f"line {first_bad + 1}: expected 'u v', got {raw!r}")
    del codes, starts, ends, line, keep
    uniq, dense = np.unique(vals, return_inverse=True)
    original_ids = uniq.tolist()
    id_map = dict(zip(original_ids, range(len(original_ids))))
    dense = dense.reshape(-1)
    return _finish_parse(len(original_ids), dense[0::2], dense[1::2], original_ids, id_map)


def _parse_ids(
    text: str, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray, line: np.ndarray
) -> np.ndarray:
    """int() of each token text[starts[i]:ends[i]].  Tokens of an optional
    sign and up to 18 ASCII digits are converted digit column by digit
    column; int() converts the rest one by one."""
    sign = np.isin(codes[starts], (ord("+"), ord("-")))
    first = starts + sign
    n_digits = ends - first
    simple = (n_digits >= 1) & (n_digits <= _MAX_DIGITS)
    vals = np.zeros(len(starts), dtype=np.int64)
    for k in range(min(int(n_digits.max(initial=0)), _MAX_DIGITS)):
        live = n_digits > k
        d = codes.take(first + k, mode="clip").astype(np.int64) - ord("0")
        simple &= ~live | ((d >= 0) & (d <= 9))
        vals = np.where(live, vals * 10 + d, vals)
    vals[codes[starts] == ord("-")] *= -1
    rest = np.flatnonzero(~simple)
    fixes = []
    for i in rest.tolist():
        try:
            fixes.append((i, int(text[starts[i]:ends[i]])))
        except ValueError:
            raise GraphFormatError(f"line {line[i] + 1}: non-integer vertex id") from None
    if any(not -(2**63) <= x < 2**63 for _, x in fixes):
        vals = vals.astype(object)  # ids beyond 64 bits compare as Python ints
    for i, x in fixes:
        vals[i] = x
    return vals


def _clean_lines(lines: Iterable[str]) -> Iterable[tuple[int, str]]:
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        yield lineno, line


def parse_gra(lines: Iterable[str]) -> ParseResult:
    """Adjacency format: vertex count first, then one 'i: j1 j2 ... #' line per vertex.

    An optional literal header line before the count is tolerated and skipped.
    """
    it = iter(_clean_lines(lines))
    try:
        lineno, line = next(it)
    except StopIteration:
        raise GraphFormatError("empty gra file") from None
    if not line.lstrip("-").isdigit():
        # tolerated header line, e.g. a tool name
        try:
            lineno, line = next(it)
        except StopIteration:
            raise GraphFormatError("gra file ends before vertex count") from None
    try:
        n = int(line)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: bad vertex count {line!r}") from None
    if n < 0:
        raise GraphFormatError(f"line {lineno}: negative vertex count")

    seen: set[int] = set()  # grows with the lines read, not with n
    sources: list[int] = []
    degrees: list[int] = []
    targets: list[int] = []
    for lineno, line in it:
        head, sep, rest = line.partition(":")
        if not sep:
            raise GraphFormatError(f"line {lineno}: expected 'i: ... #'")
        try:
            u = int(head)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: bad vertex id {head!r}") from None
        if not 0 <= u < n:
            raise GraphFormatError(
                f"line {lineno}: vertex {u} inconsistent with declared count {n}"
            )
        if u in seen:
            raise GraphFormatError(f"line {lineno}: duplicate adjacency line for {u}")
        seen.add(u)
        parts = rest.split()
        if not parts or parts[-1] != "#":
            raise GraphFormatError(f"line {lineno}: adjacency not terminated by '#'")
        for tok in parts[:-1]:
            try:
                v = int(tok)
            except ValueError:
                raise GraphFormatError(
                    f"line {lineno}: bad neighbor id {tok!r}"
                ) from None
            if not 0 <= v < n:
                raise GraphFormatError(
                    f"line {lineno}: neighbor {v} inconsistent with declared count {n}"
                )
            targets.append(v)
        sources.append(u)
        degrees.append(len(parts) - 1)
    if len(seen) != n:
        raise GraphFormatError(f"expected {n} adjacency lines, found {len(seen)}")
    u = np.repeat(np.array(sources, dtype=np.int64), degrees)
    v = np.array(targets, dtype=np.int64)
    return _finish_parse(n, u, v, list(range(n)), {i: i for i in range(n)})


def _finish_parse(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    original_ids: list[int],
    id_map: dict[int, int],
) -> ParseResult:
    """Drop self-loops and repeated edges from the dense edges (u[i], v[i]),
    counting both, and build the graph."""
    loop = u == v
    keys = u[~loop] * n + v[~loop]
    kept = _sorted_unique(keys)
    g = _digraph(n, kept // n, kept % n)
    return ParseResult(g, original_ids, id_map, int(loop.sum()), len(keys) - len(kept))


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    a = np.sort(a)
    return a[np.r_[True, a[1:] != a[:-1]]] if len(a) else a


def parse_graph(lines: Iterable[str], fmt: str) -> ParseResult:
    if fmt == "edge-list":
        return parse_edge_list(lines)
    if fmt == "gra":
        return parse_gra(lines)
    raise ValueError(f"unknown graph format {fmt!r}")


def graph_format(path: str, fmt: str | None = None) -> str:
    """fmt, or when it is None the format named by path's suffix."""
    if fmt is not None:
        return fmt
    return "gra" if str(path).endswith(".gra") else "edge-list"


def load_graph(path: str, fmt: str | None = None) -> ParseResult:
    """Parse a graph file; the format is sniffed from the suffix unless given."""
    fmt = graph_format(path, fmt)
    with open(path, "r", encoding="utf-8") as f:
        if fmt == "edge-list":
            return _parse_edge_text(f.read())
        return parse_graph(f, fmt)


def write_edge_list(g: DiGraph, f: IO[str], original_ids: list[int] | None = None) -> None:
    ids = original_ids or range(g.n)
    for u, v in g.edges():
        f.write(f"{ids[u]} {ids[v]}\n")


def write_gra(g: DiGraph, f: IO[str]) -> None:
    f.write(f"{g.n}\n")
    for u in range(g.n):
        nbrs = " ".join(str(v) for v in g.out_adj[u])
        f.write(f"{u}: {nbrs} #\n" if nbrs else f"{u}: #\n")


def write_remap(res: ParseResult, f: IO[str]) -> None:
    """Two-column 'original dense' table for sparse-id inputs."""
    for dense, orig in enumerate(res.original_ids):
        f.write(f"{orig} {dense}\n")


# ---------------------------------------------------------------------------
# components and levels


@dataclass
class CondensationMap:
    scc_of: list[int]  # original vertex -> SCC id
    dag: DiGraph  # condensation
    rep_of: list[int]  # SCC id -> representative original vertex


def scc_condense(g: DiGraph) -> CondensationMap:
    """Tarjan condensation; non-recursive to avoid Python's recursion limit.

    Roots are tried in vertex order and neighbors in adjacency order, so SCC
    ids are numbered in the order the components complete."""
    n = g.n
    out = g.out_adj
    index = [-1] * n  # DFS number; n once the vertex has its SCC
    low = [0] * n
    stack: list[int] = []
    scc_of = [-1] * n
    rep_of: list[int] = []
    next_index = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = next_index
        next_index += 1
        stack.append(root)
        work = [(root, iter(out[root]))]
        while work:
            v, nbrs = work[-1]
            for w in nbrs:
                if index[w] == -1:
                    index[w] = low[w] = next_index
                    next_index += 1
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
                if index[w] < low[v]:  # w is on the stack: finished ones read n
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                if low[v] == index[v]:
                    cid = len(rep_of)
                    rep_of.append(v)
                    while True:
                        w = stack.pop()
                        index[w] = n
                        scc_of[w] = cid
                        if w == v:
                            break

    c = len(rep_of)
    degs = np.fromiter(map(len, out), np.int64, n)
    scc = np.array(scc_of, dtype=np.int64)
    cu = np.repeat(scc, degs)
    cv = scc[np.fromiter(chain.from_iterable(out), np.int64, g.m)]
    cross = cu != cv
    keys = _sorted_unique(cu[cross] * c + cv[cross])
    return CondensationMap(scc_of, _digraph(c, keys // c, keys % c), rep_of)


def weak_components(g: DiGraph) -> list[int]:
    """Component ids, dense in order of first discovery from vertex 0 upward."""
    comp = [-1] * g.n
    c = 0
    for start in range(g.n):
        if comp[start] != -1:
            continue
        comp[start] = c
        dq = deque((start,))
        while dq:
            u = dq.popleft()
            for v in g.out_adj[u]:
                if comp[v] == -1:
                    comp[v] = c
                    dq.append(v)
            for v in g.in_adj[u]:
                if comp[v] == -1:
                    comp[v] = c
                    dq.append(v)
        c += 1
    return comp


@dataclass
class LevelAssignment:
    fwd: list[int]  # longest-path distance from any source
    bwd: list[int]  # longest-path distance to any sink
    fwd_max: int
    bwd_max: int


def _kahn_levels(out_adj: list[list[int]], in_adj: list[list[int]]) -> list[int]:
    n = len(out_adj)
    indeg = [len(x) for x in in_adj]
    level = [0] * n
    dq = deque(v for v in range(n) if indeg[v] == 0)
    seen = 0
    while dq:
        u = dq.popleft()
        seen += 1
        nxt = level[u] + 1
        for v in out_adj[u]:
            if level[v] < nxt:
                level[v] = nxt
            indeg[v] -= 1
            if indeg[v] == 0:
                dq.append(v)
    if seen != n:
        raise AcyclicityError("graph contains a cycle; levels undefined")
    return level


def topological_levels(g: DiGraph) -> LevelAssignment:
    fwd = _kahn_levels(g.out_adj, g.in_adj)
    bwd = _kahn_levels(g.in_adj, g.out_adj)
    return LevelAssignment(fwd, bwd, max(fwd, default=0), max(bwd, default=0))

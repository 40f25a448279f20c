"""Directed-graph core: adjacency storage, file ingestion, SCC condensation,
weakly connected components, and topological levels.

Vertices are dense integers 0..n-1.  All containers here are immutable by
convention after construction and safe for concurrent readers.

A graph is one layout: compressed sparse rows (CSR) in each direction, an
offsets array of n + 1 cells and a targets array of m cells, all four
array('I').  Python loops walk a vertex's neighbours as a slice of the
targets; numpy code reads whole arrays in place through np.frombuffer.
Beside the 4(2n + 2m + 2) bytes of cells there is no per-vertex or
per-edge object, so a large graph costs the collector nothing and a
forked process shares its pages until it writes them.

The two whole-graph stages of an index build run as numpy rounds over
these arrays and return their per-vertex columns as array('I') too, each
with the output of the one-vertex-at-a-time loop it replaced: `weak_components` hooks and compresses trees of vertices in
at most ceil(log2 n) rounds, and `topological_levels` removes Kahn's ready
set one level per round while it is wide, then finishes one vertex at a
time, so a long path stays O(n + m).  Tarjan's condensation stays a
Python loop.  `level_fold` pushes per-vertex rows down those levels, up to
their top one, in the same two regimes (one numpy step per wide level, a
loop over long runs of narrow ones): the support masks and each ordering's
Max are such folds.  Its loop shares the mask codec with the index.
"""

from __future__ import annotations

import operator
import zlib
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable

import numpy as np


class GraphFormatError(ValueError):
    """Malformed graph or query file."""


class AcyclicityError(ValueError):
    """An operation that requires a DAG was handed a cyclic graph."""


class DiGraph:
    """Simple directed graph (no self-loops, no parallel edges) in compressed
    sparse rows, both directions.

    The out-neighbours of v are out_tg[out_off[v]:out_off[v + 1]], ascending,
    and its in-neighbours in_tg[in_off[v]:in_off[v + 1]], ascending, so that
    equal graphs have identical representations regardless of edge input
    order.  All four are array('I'); numpy reads them in place through
    np.frombuffer.  Build one with `from_edges`; the parsers and
    `scc_condense` return graphs as well.  `checksum` caches
    `graph_checksum`'s value: None until its first call.
    """

    __slots__ = ("out_off", "out_tg", "in_off", "in_tg", "n", "m", "checksum")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DiGraph":
        """The graph on vertices 0..n-1 with the given (u, v) edges; raises
        ValueError on n < 0, an id that is not an integer or not in [0, n),
        a self-loop or a parallel edge."""
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        pairs = list(edges)
        e = _index_array(chain.from_iterable(pairs), n)
        if len(e) != 2 * len(pairs):
            raise ValueError("edges must be (u, v) pairs")
        return _digraph(n, e[0::2], e[1::2])

    def reverse(self) -> "DiGraph":
        """The transposed graph, sharing this graph's arrays."""
        g = DiGraph.__new__(DiGraph)
        g.out_off, g.out_tg, g.in_off, g.in_tg = self.in_off, self.in_tg, self.out_off, self.out_tg
        g.n, g.m = self.n, self.m
        g.checksum = None
        return g

    def __repr__(self) -> str:  # pragma: no cover
        return f"DiGraph(n={self.n}, m={self.m})"


def check_ids(n: int, s: int, t: int) -> None:
    """Raise IndexError unless s and t are both vertex ids in [0, n)."""
    if not (0 <= s < n and 0 <= t < n):
        bad = t if 0 <= s < n else s
        raise IndexError(f"vertex id {bad} out of range for n={n}")


def _vertex_id(x) -> int:
    try:
        return operator.index(x)  # refuses floats, which int64 would truncate
    except TypeError:
        raise ValueError(f"vertex id {x!r} is not an integer") from None


def _index_array(values: Iterable[int], n: int) -> np.ndarray:
    try:
        return np.fromiter(map(_vertex_id, values), np.int64)
    except OverflowError:
        raise ValueError(f"vertex id out of range 0..{n - 1}") from None


def _digraph(n: int, u: np.ndarray, v: np.ndarray) -> DiGraph:
    """The one path from edges to a graph: validate the edges (u[i], v[i])
    and sort them into rows.  The first error is the one a scan of the
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
    return _csr_graph(_offsets(np.bincount(u, minlength=n)), v)


def _csr_graph(off: np.ndarray, tg: np.ndarray) -> DiGraph:
    """The graph on len(off) - 1 vertices whose out-rows are tg[off[v]:off[v + 1]].

    The caller vouches for the rows: off starts at 0, never decreases and
    ends at len(tg); each row is strictly increasing, in range and free of
    its own vertex.  The edges are then in (source, target) order, so a
    stable sort of the targets lists each in-row's sources ascending.  That
    sort is a least-significant-digit radix sort on 16-bit digits, as
    numpy's stable argsort of uint16 is a counting sort: one pass when every
    target fits in 16 bits, else a second on the high digit.  On 2^18 random
    uint32 targets (numpy 2.4, min of 9) one stable argsort took 18.4 ms;
    the one pass took 1.7-2.0 ms on targets below 2^16, and the two passes
    4.0-4.5 ms on targets below 2^17, with the same permutation."""
    n = len(off) - 1
    tg = np.asarray(tg).astype(np.uint32, copy=False)
    src = np.repeat(np.arange(n, dtype=np.uint32), np.diff(off))
    order = np.argsort(tg.astype(np.uint16), kind="stable")  # the low digit
    if n > 1 << 16:
        order = order[np.argsort((tg[order] >> 16).astype(np.uint16), kind="stable")]
    g = DiGraph.__new__(DiGraph)
    g.out_off, g.out_tg = _uint_array(off), _uint_array(tg)
    g.in_off = _uint_array(_offsets(np.bincount(tg, minlength=n)))
    g.in_tg = _uint_array(src[order])
    g.n = n
    g.m = len(tg)
    g.checksum = None
    return g


def _keyed_graph(n: int, keys: np.ndarray) -> DiGraph:
    """The graph whose edges (u, v) are the ascending, distinct keys u * n + v,
    each with u != v and both ids in range."""
    return _csr_graph(_offsets(np.bincount(keys // n, minlength=n)), keys % n)


def _offsets(degrees: np.ndarray) -> np.ndarray:
    return np.r_[0, np.cumsum(degrees)]


def _concat_rows(off: np.ndarray, tg: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cat, starts): the rows tg[off[v]:off[v + 1]] of the vertices vs,
    concatenated in that order, and where each row begins in cat."""
    first = off[vs]
    deg = off[vs + 1] - first
    starts = np.cumsum(deg) - deg
    return tg[np.arange(deg.sum()) + np.repeat(first - starts, deg)], starts


assert array("I").itemsize == 4  # CSR arrays and index columns are read and written as <u4


def _uint_array(values: np.ndarray) -> array:
    out = array("I")
    out.frombytes(np.asarray(values, dtype=np.uint32).tobytes())
    return out


def _checksum(off: array, tg: array) -> int:
    """CRC32 of n and m as <u8, the out-degrees as <u4, then the out-rows,
    concatenated, as <u4."""
    h = zlib.crc32(np.array([len(off) - 1, len(tg)], dtype="<u8").tobytes())
    h = zlib.crc32(np.diff(np.frombuffer(off, np.uint32)).astype("<u4").tobytes(), h)
    return zlib.crc32(np.frombuffer(tg, np.uint32).astype("<u4").tobytes(), h)


def graph_checksum(g: DiGraph) -> int:
    """CRC32 over a canonical little-endian encoding of (n, m, adjacency),
    computed on the first call and cached on the graph (racing first calls
    store the same value)."""
    if g.checksum is None:
        g.checksum = _checksum(g.out_off, g.out_tg)
    return g.checksum


# ---------------------------------------------------------------------------
# parsing


@dataclass
class ParseResult:
    graph: DiGraph
    original_ids: list[int]  # dense id -> original id
    id_map: dict[int, int]  # original id -> dense id
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0


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


@dataclass
class _Tokens:
    """The tokens of a text, line by line, as str.split() returns them."""

    text: str
    codes: np.ndarray  # per code point; those above U+3000 read as U+3001
    line_starts: np.ndarray  # per line: offset of its first code point
    starts: np.ndarray  # per token: offset of its first code point
    ends: np.ndarray  # per token: offset past its last code point
    line: np.ndarray  # per token: its line, ascending
    counts: np.ndarray  # per line: its tokens

    def line_text(self, i: int) -> str:
        """Line i, stripped."""
        ls = self.line_starts
        return self.text[ls[i] : ls[i + 1] if i + 1 < len(ls) else len(self.text)].strip()


def _tokenize(text: str, comments: str, line_starts: np.ndarray | None = None) -> _Tokens:
    """The tokens of text, split into lines at '\\n' unless line_starts gives
    the offset of each line.  A line whose first token starts with a
    character of comments is a comment and holds none.  The whole text is
    tokenized at once on an array of its code points."""
    try:
        codes = np.frombuffer(text.encode("latin-1"), np.uint8)
    except UnicodeEncodeError:
        codes = np.minimum(np.frombuffer(text.encode("utf-32-le"), np.uint32), 0x3001)
    if line_starts is None:
        line_starts = np.r_[0, np.flatnonzero(codes == 10) + 1]
    word = ~_WS_TABLE[codes]
    starts = np.flatnonzero(word & np.r_[True, ~word[:-1]])
    ends = np.flatnonzero(word & np.r_[~word[1:], True]) + 1
    del word
    line = np.searchsorted(line_starts, starts, side="right") - 1
    opener = np.isin(codes[starts], [ord(c) for c in comments])
    opener[1:] &= line[1:] != line[:-1]  # only a line's first token opens a comment
    comment = np.zeros(len(line_starts), dtype=bool)
    comment[line[opener]] = True
    keep = ~comment[line]
    starts, ends, line = starts[keep], ends[keep], line[keep]
    counts = np.bincount(line, minlength=len(line_starts))
    return _Tokens(text, codes, line_starts, starts, ends, line, counts)


def _parse_edge_text(text: str, line_starts: np.ndarray | None = None) -> ParseResult:
    """Edge-list text, split into lines at '\\n' unless line_starts gives the
    offset of each line (see _tokenize)."""
    tk = _tokenize(text, "#%", line_starts)
    bad = (tk.counts != 0) & (tk.counts != 2)
    first_bad = int(bad.argmax()) if bad.any() else len(bad)
    # the lines before the first malformed one may still hold a bad id,
    # which the line-by-line reading order reports first
    before = tk.line < first_bad
    vals, i = _parse_ids(text, tk.codes, tk.starts[before], tk.ends[before])
    if i < len(vals):
        raise GraphFormatError(f"line {tk.line[i] + 1}: non-integer vertex id")
    if first_bad < len(bad):
        raise GraphFormatError(f"line {first_bad + 1}: expected 'u v', got {tk.line_text(first_bad)!r}")
    del tk, before
    uniq, dense = np.unique(vals, return_inverse=True)
    original_ids = uniq.tolist()
    id_map = dict(zip(original_ids, range(len(original_ids))))
    dense = dense.reshape(-1)
    return _finish_parse(len(original_ids), dense[0::2], dense[1::2], original_ids, id_map)


def _parse_ids(
    text: str, codes: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, int]:
    """(vals, i): vals[j] is int() of the token text[starts[j]:ends[j]], for
    each j before i, the first token int() refuses (len(starts) when none
    does).  Tokens of an optional sign and up to 18 ASCII digits are
    converted digit column by digit column; int() converts the rest one by
    one.  vals holds objects when some id needs more than 64 bits."""
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
    fixes = []
    for i in np.flatnonzero(~simple).tolist():
        try:
            fixes.append((i, int(text[starts[i]:ends[i]])))
        except ValueError:
            return vals, i
    if any(not -(2**63) <= x < 2**63 for _, x in fixes):
        vals = vals.astype(object)  # ids beyond 64 bits compare as Python ints
    for i, x in fixes:
        vals[i] = x
    return vals, len(starts)


def load_pairs(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The query file at path, read at once, as (S, T, expected): the pair
    (S[i], T[i]) and its expected bit, 1 or 0, or -1 when it has none.

    One pair per line, 's t [expected]': two ids as int() reads them, then
    an optional 0 or 1.  Blank lines and lines whose first non-blank
    character is '#' are skipped.  S and T hold objects when some id needs
    more than 64 bits.  Raises GraphFormatError for the first line that is
    not a pair, as a line-by-line reading meets it."""
    with open(path, "r", encoding="utf-8") as f:
        tk = _tokenize(f.read(), "#")
    n_lines, counts, line = len(tk.counts), tk.counts, tk.line
    shape_bad = (counts != 0) & (counts != 2) & (counts != 3)
    col = np.arange(len(line)) - (np.cumsum(counts) - counts)[line]  # place in its line
    shaped = ~shape_bad[line]
    bit = shaped & (col == 2)
    bit_bad = bit & ((tk.ends - tk.starts != 1) | ~np.isin(tk.codes[tk.starts], (48, 49)))
    first = int(shape_bad.argmax()) if shape_bad.any() else n_lines
    if bit_bad.any():
        first = min(first, int(line[bit_bad.argmax()]))
    ids = shaped & (col < 2) & (line < first)
    vals, i = _parse_ids(tk.text, tk.codes, tk.starts[ids], tk.ends[ids])
    if i < len(vals):
        first = int(line[ids][i])
    if first < n_lines:
        if shape_bad[first]:
            got = tk.line_text(first)
            raise GraphFormatError(f"{path}:{first + 1}: expected 's t [expected]', got {got!r}")
        raise GraphFormatError(f"{path}:{first + 1}: bad token")
    expected = np.full(len(vals) // 2, -1, dtype=np.int8)
    expected[counts[line[col == 0]] == 3] = tk.codes[tk.starts[bit]] - ord("0")
    return vals[0::2], vals[1::2], expected


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
    g = _keyed_graph(n, kept)
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


def write_edge_list(g: DiGraph, f: IO[str]) -> None:
    off, tg = g.out_off, g.out_tg
    for u in range(g.n):
        for v in tg[off[u]:off[u + 1]]:
            f.write(f"{u} {v}\n")


def write_gra(g: DiGraph, f: IO[str]) -> None:
    f.write(f"{g.n}\n")
    off, tg = g.out_off, g.out_tg
    for u in range(g.n):
        nbrs = " ".join(map(str, tg[off[u]:off[u + 1]]))
        f.write(f"{u}: {nbrs} #\n" if nbrs else f"{u}: #\n")


# ---------------------------------------------------------------------------
# components and levels


@dataclass
class CondensationMap:
    scc_of: list[int]  # original vertex -> SCC id
    dag: DiGraph  # condensation


def scc_condense(g: DiGraph) -> CondensationMap:
    """Tarjan condensation; non-recursive to avoid Python's recursion limit.

    Roots are tried in vertex order and neighbors in adjacency order, so SCC
    ids are numbered in the order the components complete."""
    n = g.n
    off, tg = g.out_off, g.out_tg
    index = [-1] * n  # DFS number; n once the vertex has its SCC
    low = [0] * n
    stack: list[int] = []
    scc_of = [-1] * n
    c = 0  # SCCs completed
    next_index = 0

    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = next_index
        next_index += 1
        stack.append(root)
        work = [(root, iter(tg[off[root]:off[root + 1]]))]
        while work:
            v, nbrs = work[-1]
            for w in nbrs:
                if index[w] == -1:
                    index[w] = low[w] = next_index
                    next_index += 1
                    stack.append(w)
                    work.append((w, iter(tg[off[w]:off[w + 1]])))
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
                    while True:
                        w = stack.pop()
                        index[w] = n
                        scc_of[w] = c
                        if w == v:
                            break
                    c += 1

    scc = np.array(scc_of, dtype=np.int64)
    cu = np.repeat(scc, np.diff(np.frombuffer(off, np.uint32)))
    cv = scc[np.frombuffer(tg, np.uint32)]
    cross = cu != cv
    keys = _sorted_unique(cu[cross] * c + cv[cross])
    return CondensationMap(scc_of, _keyed_graph(c, keys))


def weak_components(g: DiGraph) -> array:
    """Component ids, dense in order of each component's smallest vertex,
    which is the order a scan from vertex 0 upward first meets them.

    The components come from _hook_and_compress over the edge arrays, in
    O(log n) whole-array rounds; the first occurrence of each root in the
    vertex order is its component's smallest vertex."""
    n = g.n
    u = np.repeat(np.arange(n, dtype=np.int64), np.diff(np.frombuffer(g.out_off, np.uint32)))
    v = np.frombuffer(g.out_tg, np.uint32).astype(np.int64)
    root, _ = _hook_and_compress(n, np.minimum(u, v), np.maximum(u, v))
    _, first = np.unique(root, return_index=True)
    first.sort()
    comp = np.empty(n, np.int64)
    comp[root[first]] = np.arange(len(first))
    return _uint_array(comp[root])


def _hook_and_compress(n: int, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, int]:
    """(root, rounds): root[x] is one vertex of x's component in the
    undirected graph of the edges (lo[i], hi[i]), lo[i] < hi[i], found by
    Shiloach-Vishkin hooking in `rounds` rounds.

    Every tree is a star (each vertex points at its root) at the start of
    a round, and the edges are kept as pairs of distinct roots, the smaller
    first.  A round hooks, then compresses:
    - each root that is some edge's larger end hooks onto the smaller end
      of one such edge (any one);
    - a root that neither hooked nor was hooked onto, though it has an
      edge, hooks onto a neighbour, which hooked already: no cycle forms;
    - pointer jumping turns the trees back into stars, and the edges are
      mapped to their new roots, dropping those inside one star.
    So every star with an edge merges with at least one other, the stars of
    an unfinished component at least halve, and there are at most
    ceil(log2 n) rounds."""
    parent = np.arange(n, dtype=np.int64)
    hooked = np.zeros(n, dtype=bool)
    rounds = 0
    while len(lo):
        rounds += 1
        parent[hi] = lo
        hooked[:] = False
        hooked[hi] = True
        hooked[parent[hi]] = True  # hooked onto
        idle = ~hooked[lo]
        parent[lo[idle]] = hi[idle]
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        lo, hi = parent[lo], parent[hi]
        cross = lo != hi
        lo, hi = lo[cross], hi[cross]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    return parent, rounds


@dataclass
class LevelAssignment:
    """A DAG's two level columns; a stage that needs a top level reads it."""

    fwd: array  # longest-path distance from any source
    bwd: array  # longest-path distance to any sink


# Below this many ready vertices a Kahn round stops being a whole-array
# round: its fixed numpy cost (~60 us), spread over fewer vertices, exceeds
# the cost of removing them one at a time.  On 65536 vertices as parallel
# chains, rounds of 64 took 65 ms against the scalar loop's 48 ms, rounds
# of 128 took 34 ms against 71 ms.
_NARROW = 128


def _kahn_levels(g: DiGraph) -> array:
    """Longest-path distance of each vertex from any source of g, by Kahn's
    algorithm: a vertex's level is max(level(pred)) + 1, final once its last
    predecessor is removed.

    While at least _NARROW vertices are ready, a round removes all of them
    at once in numpy: they have the round number as their level, the only
    value max(level(pred)) + 1 can take there, and each vertex reached by
    their out-edges loses one in-degree per edge.  Then the vertices left
    are removed one at a time from a queue, as max(level(pred)) + 1.  A
    vertex not yet ready at the switch has a predecessor still queued or
    waiting, whose level is at least the last round's, so its removed
    predecessors cannot set its level and it starts the queue at 0.  A
    wide graph thus takes one round per level, and a long path O(n + m)
    steps, not n rounds."""
    n = g.n
    off = np.frombuffer(g.out_off, np.uint32).astype(np.int64)
    tg = np.frombuffer(g.out_tg, np.uint32).astype(np.int64)
    indeg = np.diff(np.frombuffer(g.in_off, np.uint32)).astype(np.int64)
    level = np.zeros(n, dtype=np.int64)
    ready = np.flatnonzero(indeg == 0)
    seen = 0
    r = 0
    while len(ready) >= _NARROW:
        level[ready] = r
        seen += len(ready)
        reached, count = np.unique(_concat_rows(off, tg, ready)[0], return_counts=True)
        indeg[reached] -= count
        ready = reached[indeg[reached] == 0]
        r += 1
    level[ready] = r
    level = level.tolist()
    if len(ready):
        off, tg = g.out_off, g.out_tg  # array('I') slices iterate faster than numpy's
        indeg = indeg.tolist()
        dq = deque(ready.tolist())
        while dq:
            u = dq.popleft()
            seen += 1
            nxt = level[u] + 1
            for v in tg[off[u]:off[u + 1]]:
                if level[v] < nxt:
                    level[v] = nxt
                indeg[v] -= 1
                if indeg[v] == 0:
                    dq.append(v)
    if seen != n:
        raise AcyclicityError("graph contains a cycle; levels undefined")
    return array("I", level)  # a list above: the loop reads it faster


def topological_levels(g: DiGraph) -> LevelAssignment:
    """Longest-path levels in both directions (see _kahn_levels for how),
    as two columns only; raises AcyclicityError when g has a cycle."""
    return LevelAssignment(_kahn_levels(g), _kahn_levels(g.reverse()))


# A level that folds fewer than _FOLD_NARROW predecessor rows is narrow,
# and a run of at least _FOLD_RUN consecutive narrow levels is folded by
# _fold_run's Python loop rather than one numpy step per level.  A numpy
# step costs ~1-6 us whatever its size, the loop ~0.1-0.3 us per row, and
# setting up a run ~15-20 us.  On 65536 vertices (the fold of Max / of
# 1200 candidate masks, in ms), numpy steps alone against these cutoffs:
# a path 81 / 174 against 20 / 58, layered_dag width 1 57 / 135 against
# 29 / 69, width 2 33 / 86 against 28 / 61, width 4 20 / 56 against
# 21 / 58; a star and G(2^16, 2^18) have no narrow run.
_FOLD_NARROW = 24
_FOLD_RUN = 16


def level_fold(
    off: array,
    tg: array,
    level: np.ndarray,
    rows: np.ndarray,
    ufunc: np.ufunc,
) -> np.ndarray:
    """rows folded down the levels, in place: the row of each vertex w above
    level 0 becomes ufunc over its own row and the final rows of its
    predecessors tg[off[w]:off[w + 1]], and rows is returned.

    level must be the longest-path levels along these predecessor rows, so
    that every predecessor sits on a lower level and every level from 1 to
    the top one, level.max(), has a vertex.  ufunc is np.maximum or
    np.bitwise_or; rows is one integer per vertex, or (n, w) "<u8" words
    of one bitmask per vertex for np.bitwise_or.

    Vertices are taken in (level, id) order with their predecessor rows
    concatenated, so the predecessors of one vertex are one run, which one
    ufunc.reduceat folds for a whole level.  Long runs of narrow levels go
    through _fold_run's loop instead (see _FOLD_NARROW), so a long path
    costs O(n + m) in a few numpy calls, not one numpy step per level."""
    if ufunc not in (np.maximum, np.bitwise_or):
        raise ValueError(f"level_fold folds with np.maximum or np.bitwise_or, not {ufunc}")
    top = int(level.max(initial=0))
    if top == 0:
        return rows
    dst = np.argsort(level, kind="stable")  # (level, id) order
    bounds = np.searchsorted(level[dst], np.arange(1, top + 2))
    dst = dst[bounds[0]:]  # level-0 vertices have no predecessors
    bounds = bounds - bounds[0]
    off64 = np.frombuffer(off, np.uint32).astype(np.int64)
    src, heads = _concat_rows(off64, np.frombuffer(tg, np.uint32).astype(np.int64), dst)
    edge_bounds = np.r_[heads, len(src)][bounds]
    local = heads - np.repeat(edge_bounds[:-1], np.diff(bounds))  # heads within a level
    narrow = np.diff(edge_bounds) < _FOLD_NARROW
    # the levels where a run of narrow or of wide levels starts, then top
    cuts = np.r_[0, np.flatnonzero(narrow[1:] != narrow[:-1]) + 1, top].tolist()
    bounds, edge_bounds = bounds.tolist(), edge_bounds.tolist()
    for lo, hi in zip(cuts, cuts[1:]):
        if narrow[lo] and hi - lo >= _FOLD_RUN:
            x, y, a = bounds[lo], bounds[hi], edge_bounds[lo]
            _fold_run(rows, ufunc, dst[x:y], src[a:edge_bounds[hi]], heads[x:y] - a)
            continue
        for li in range(lo, hi):
            x, y = bounds[li], bounds[li + 1]
            a, b = edge_bounds[li], edge_bounds[li + 1]
            folded = rows[src[a:b]]
            if b - a > y - x:  # some vertex has several predecessors here
                folded = ufunc.reduceat(folded, local[x:y], axis=0)
            w = dst[x:y]
            rows[w] = ufunc(rows[w], folded, out=folded)
    return rows


def _fold_run(
    rows: np.ndarray, ufunc: np.ufunc, dst: np.ndarray, src: np.ndarray, heads: np.ndarray
) -> None:
    """level_fold over consecutive levels one vertex at a time, on Python
    ints: dst the levels' vertices in (level, id) order, src their
    predecessors concatenated, heads where each vertex's begin in src.
    Each vertex involved gets one slot: its row, or its words as one int
    through the mask codec."""
    ids, slot = np.unique(np.r_[dst, src], return_inverse=True)
    sub = rows[ids]
    vals = sub.tolist() if sub.ndim == 1 else masks_from_rows(sub.view(np.uint8))
    own, pred = slot[: len(dst)].tolist(), slot[len(dst):].tolist()
    ends = np.r_[heads[1:], len(src)].tolist()
    a = 0
    if ufunc is np.maximum:
        for d, b in zip(own, ends):
            acc = vals[d]
            for p in pred[a:b]:
                if vals[p] > acc:
                    acc = vals[p]
            vals[d] = acc
            a = b
    else:
        for d, b in zip(own, ends):
            acc = vals[d]
            for p in pred[a:b]:
                acc |= vals[p]
            vals[d] = acc
            a = b
    folded = [vals[d] for d in own]
    rows[dst] = folded if rows.ndim == 1 else mask_rows(folded, 8 * rows.shape[1]).view("<u8")


# The mask codec: a bitmask column (one int per vertex, bit i = the i-th
# support or candidate) as (n, w) uint8 rows of w little-endian bytes, for
# the index's stored masks and _fold_run's multi-word rows.  Each direction
# takes the faster method at the row's width: numpy over 64-bit word
# columns, or one int.from_bytes / int.to_bytes per row.  In ms for 2^16
# rows (min of 9; a 2-core Xeon, Python 3.11, numpy 2.4):
#
#   words   to ints: word columns / per row   to rows: word columns / per row
#     1          1.3 / 10.1                       1.7 / 4.4
#     2          5.4 /  9.8                       7.6 / 4.3
#     3         10.3 / 10.1                      12.3 / 4.8
#     4         13.1 / 10.4                      13.9 / 5.1
#    19         80.2 / 14.9                      74.6 / 10.5
#
# A row of 1, 2, 4 or 8 bytes is one unsigned cell, read in place as one
# column on its way to ints: the two mask directions of a G(2^16, 2^18)
# index at k = 16 took 0.66 against 1.13 ms through zero-padded words (min
# of 31).


def mask_rows(masks: list[int], w: int) -> np.ndarray:
    """The (len(masks), w) uint8 rows holding each mask in w little-endian
    bytes; raises ValueError for a mask that is negative or does not fit."""
    if w > 8:  # wider than one word: per row
        try:
            buf = b"".join([m.to_bytes(w, "little") for m in masks])
        except OverflowError:
            raise ValueError(f"mask does not fit in {w} bytes") from None
        return np.frombuffer(buf, np.uint8).reshape(len(masks), w)
    if masks and (max(masks) >> (8 * w) or min(masks) < 0):
        raise ValueError(f"mask does not fit in {w} bytes")
    words = np.zeros((len(masks), 1), dtype="<u8")
    words[:, 0] = masks
    return words.view(np.uint8)[:, :w]


def masks_from_rows(rows: np.ndarray) -> list[int]:
    """Inverse of mask_rows: the masks held in (n, w) little-endian byte rows."""
    n, w = rows.shape
    if w == 0:
        return [0] * n
    if w in (1, 2, 4, 8):  # each row one unsigned cell, read in place
        return np.ascontiguousarray(rows).view(f"<u{w}")[:, 0].tolist()
    nwords = -(-w // 8)
    if nwords > 3:  # per row
        buf = rows.tobytes()
        return [int.from_bytes(buf[i : i + w], "little") for i in range(0, n * w, w)]
    padded = np.zeros((n, 8 * nwords), dtype=np.uint8)
    padded[:, :w] = rows
    words = padded.view("<u8")
    if nwords == 1:
        return words[:, 0].tolist()
    big = words[:, 0].astype(object)
    for j in range(1, nwords):
        big |= words[:, j].astype(object) << (64 * j)
    return big.tolist()

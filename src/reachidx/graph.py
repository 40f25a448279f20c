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
Python loop.
"""

from __future__ import annotations

import zlib
from array import array
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
    """Simple directed graph (no self-loops, no parallel edges) in compressed
    sparse rows, both directions.

    The out-neighbours of v are out_tg[out_off[v]:out_off[v + 1]], ascending,
    and its in-neighbours in_tg[in_off[v]:in_off[v + 1]], ascending, so that
    equal graphs have identical representations regardless of edge input
    order.  All four are array('I'); numpy reads them in place through
    np.frombuffer.  Build one with `from_edges`; the parsers and
    `scc_condense` return graphs as well.  `checksum` is `graph_checksum`'s
    value, computed from the rows when the graph was built.
    """

    __slots__ = ("out_off", "out_tg", "in_off", "in_tg", "n", "m", "checksum", "_reverse_checksum")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DiGraph":
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
        g.checksum, g._reverse_checksum = self._reverse_checksum, self.checksum
        return g

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
    its own vertex.  The in-rows come from one stable argsort of the
    targets: the edges are in (source, target) order, so each in-row lists
    its sources ascending."""
    n = len(off) - 1
    src = np.repeat(np.arange(n, dtype=np.uint32), np.diff(off))
    g = DiGraph.__new__(DiGraph)
    g.out_off, g.out_tg = _uint_array(off), _uint_array(tg)
    g.in_off = _uint_array(_offsets(np.bincount(tg, minlength=n)))
    g.in_tg = _uint_array(src[np.argsort(tg, kind="stable")])
    g.n = n
    g.m = len(tg)
    g.checksum = _checksum(g.out_off, g.out_tg)
    g._reverse_checksum = _checksum(g.in_off, g.in_tg)
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
    computed once when the graph was built."""
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


def write_edge_list(g: DiGraph, f: IO[str], original_ids: list[int] | None = None) -> None:
    ids = original_ids or range(g.n)
    off, tg = g.out_off, g.out_tg
    for u in range(g.n):
        for v in tg[off[u]:off[u + 1]]:
            f.write(f"{ids[u]} {ids[v]}\n")


def write_gra(g: DiGraph, f: IO[str]) -> None:
    f.write(f"{g.n}\n")
    off, tg = g.out_off, g.out_tg
    for u in range(g.n):
        nbrs = " ".join(map(str, tg[off[u]:off[u + 1]]))
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
    fwd: array  # longest-path distance from any source
    bwd: array  # longest-path distance to any sink
    fwd_max: int
    bwd_max: int


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
    """Longest-path levels in both directions (see _kahn_levels for how);
    raises AcyclicityError when g has a cycle."""
    fwd = _kahn_levels(g)
    bwd = _kahn_levels(g.reverse())
    return LevelAssignment(fwd, bwd, max(fwd, default=0), max(bwd, default=0))

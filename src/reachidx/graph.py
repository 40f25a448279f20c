"""The graph stages of an index build and of a re-parse: file parsing,
SCC condensation, weakly connected components, topological levels, and
the level fold.

The graph itself, its checksum, the byte tokenizer, the pairs reader and
the mask codec live in core, which `reachidx query` imports without this
module.  Vertices are dense integers 0..n-1.
All containers are immutable by convention after construction and safe
for concurrent readers.

The two whole-graph stages of an index build run as numpy rounds over
the CSR arrays (see core) and return their per-vertex columns as
array('I') too, each with the output of the one-vertex-at-a-time loop it
replaced: `weak_components` hooks and compresses trees of vertices in at
most ceil(log2 n) rounds, and `topological_levels` removes Kahn's ready
set one level per round while it is wide, then finishes one vertex at a
time, so a long path stays O(n + m).  Tarjan's condensation stays a
Python loop.  `level_fold` pushes per-vertex rows down those levels, up to
their top one, in the same two regimes (one numpy step per wide level, a
loop over long runs of narrow ones): the support masks and each ordering's
Max are such folds.  Its loop shares the mask codec with the index.

The parsers read a file's tokens (core's `_tokenize`), and its ids by
`_parse_ids`, or for a plain edge list by one np.fromstring call
(`_plain_ids`).  The ids of an edge list stay in the sorted array
np.unique gives (`ParseResult.ids`).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import IO

import numpy as np

from .core import (
    _MAX_DIGITS,
    DiGraph,
    GraphFormatError,
    LevelAssignment,
    _csr_graph,
    _offsets,
    _parse_ids,
    _tokenize,
    _Tokens,
    _uint_array,
    graph_format,
    mask_rows,
    masks_from_rows,
)


class AcyclicityError(ValueError):
    """An operation that requires a DAG was handed a cyclic graph."""


def _keyed_graph(n: int, keys: np.ndarray) -> DiGraph:
    """The graph whose edges (u, v) are the ascending, distinct keys u * n + v,
    each with u != v and both ids in range."""
    return _csr_graph(_offsets(np.bincount(keys // n, minlength=n)), keys % n)


def _concat_rows(off: np.ndarray, tg: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cat, starts): the rows tg[off[v]:off[v + 1]] of the vertices vs,
    concatenated in that order, and where each row begins in cat."""
    first = off[vs]
    deg = off[vs + 1] - first
    starts = np.cumsum(deg) - deg
    return tg[np.arange(deg.sum()) + np.repeat(first - starts, deg)], starts


# ---------------------------------------------------------------------------
# parsing


@dataclass(eq=False)
class ParseResult:
    """A parsed graph: the graph on dense ids 0..n-1, the original id of
    each in ids, and what parsing dropped.

    ids is ascending, int64, or Python ints (dtype object) when some id
    needs more than 64 bits.  id_map gives the same ids as a dict
    (original id -> dense id), built on its first read: an index build
    does not read it."""

    graph: DiGraph
    ids: np.ndarray
    dropped_self_loops: int = 0
    dropped_duplicates: int = 0

    @cached_property
    def id_map(self) -> dict[int, int]:
        return dict(zip(self.ids.tolist(), range(len(self.ids))))


def _parse_edge_text(data: bytes) -> ParseResult:
    """An edge list (see parse_graph) from its file's bytes."""
    tk = _tokenize(data, "#%")
    bad = (tk.counts != 0) & (tk.counts != 2)
    first_bad = int(bad.argmax()) if bad.any() else len(bad)
    vals = _plain_ids(tk) if first_bad == len(bad) else None
    if vals is None:
        # the lines before the first malformed one may still hold a bad id,
        # which the line-by-line reading order reports first
        before = int(np.searchsorted(tk.line, first_bad))
        vals, i = _parse_ids(tk.text, tk.codes, tk.starts[:before], tk.ends[:before])
        if i < len(vals):
            raise GraphFormatError(f"line {tk.line[i] + 1}: non-integer vertex id")
        if first_bad < len(bad):
            got = tk.line_text(first_bad)
            raise GraphFormatError(f"line {first_bad + 1}: expected 'u v', got {got!r}")
    del tk
    ids, dense = np.unique(vals, return_inverse=True)
    dense = dense.reshape(-1)
    return _finish_parse(ids, dense[0::2], dense[1::2])


def _plain_ids(tk: _Tokens) -> np.ndarray | None:
    """The int64 ids of every token of tk, read at once by np.fromstring,
    when its text is plain bytes (see _tokenize) whose every token is an
    optional sign and 1 to 18 digits, with no comment line and no byte
    28-31 (whitespace that fromstring does not skip); else None."""
    codes, starts = tk.codes, tk.starts
    if not isinstance(tk.text, bytes) or not len(starts):
        return None
    sign = np.isin(codes[starts], (ord("+"), ord("-")))
    n_digits = tk.ends - starts - sign
    if n_digits.min() < 1 or n_digits.max() > _MAX_DIGITS:
        return None
    # each byte above 32 is a digit or a token's sign: a comment's '#' or
    # '%', any other byte or a sign inside a token fails this
    digits = np.count_nonzero(codes - np.uint8(ord("0")) < 10)
    if digits + np.count_nonzero(sign) != np.count_nonzero(codes > 32):
        return None
    if np.count_nonzero(codes - np.uint8(28) < 4):
        return None
    return np.fromstring(tk.text, np.int64, sep=" ")


def _gra_edges(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, u, v) of a gra file: its vertices 0..n-1 and its edges (u[i],
    v[i]).  Each line is cut at its first ':' into head and neighbours.  The
    checks run on arrays, and the first line failing one gives the error a
    line-by-line reading meets first."""
    tk = _tokenize(data, "#%")
    held = np.flatnonzero(tk.counts)  # lines that are neither blank nor comments
    if not len(held):
        raise GraphFormatError("empty gra file")
    at = int(not tk.line_text(held[0]).lstrip("-").isdigit())  # past a header, e.g. a tool name
    if at == len(held):
        raise GraphFormatError("gra file ends before vertex count")
    count = tk.line_text(held[at])
    try:
        n = int(count)
    except ValueError:
        raise GraphFormatError(f"line {held[at] + 1}: bad vertex count {count!r}") from None
    if n < 0:
        raise GraphFormatError(f"line {held[at] + 1}: negative vertex count")

    lines = held[at + 1 :]  # the adjacency lines: "per line" below
    text, codes, starts, ends = tk.text, tk.codes, tk.starts, tk.ends
    t0 = int(tk.counts[: held[at] + 1].sum())
    last = t0 + np.cumsum(tk.counts[lines]) - 1  # per line: its last token
    first = last - tk.counts[lines] + 1
    # per line: its first ':' (cut) and its token (ct), or its end and last token
    colons = np.flatnonzero(codes == ord(":"))
    tok = np.searchsorted(starts, colons, "right") - 1
    inside = (tok >= t0) & (colons < ends[tok])  # not in a comment line or above the lines
    colons, tok = colons[inside], tok[inside]
    line, where = np.unique(np.searchsorted(first, tok, "right") - 1, return_index=True)
    cut, ct = ends[last], last.copy()
    cut[line], ct[line] = colons[where], tok[where]
    has_colon = cut < ends[last]
    split = starts[ct] < cut  # the head ends in the token holding the ':'
    hs = np.where(split, starts[ct], starts[ct - 1])  # per line: its head's bounds
    he = np.where(split, cut, ends[ct - 1])
    head_ok = has_colon & (ct - first + split == 1)
    seps = np.flatnonzero((codes >= 28) & (codes <= 31))
    if len(seps):  # int() strips no U+001C..U+001F from a head's end
        head_ok &= np.searchsorted(seps, hs) == np.searchsorted(seps, cut)
    tail = np.where(ct == last, cut + 1, starts[last])  # per line: its last piece
    closed = has_colon & (ends[last] - tail == 1) & (codes.take(tail, mode="clip") == ord("#"))
    shape = head_ok & closed
    f = len(lines) if shape.all() else int(shape.argmin())  # the first of the wrong shape

    # the heads up to line f, and the neighbours of the lines before it: the
    # tokens from the ':' one, read from past the ':', up to the last ('#')
    nh = f + (f < len(lines) and bool(head_ok[f]))
    hv, ih = _parse_ids(text, codes, hs[:nh], he[:nh])
    end = first[f] if f < len(lines) else len(starts)
    ns, ne = starts[:end].copy(), ends[:end]
    ns[ct[:f]] = cut[:f] + 1
    mark = np.zeros(end, np.int8)
    mark[ct[:f]] = 1
    mark[last[:f]] -= 1
    nbr = np.cumsum(mark, dtype=np.int8).view(bool) & (ne > ns)
    ns, ne = ns[nbr], ne[nbr]
    nv, i = _parse_ids(text, codes, ns, ne)
    deg = last - ct - ((ct < last) & (ends[ct] <= cut + 1))  # per line: its neighbours

    bad_head = _bad_ids(hv, ih, n)  # or read on an earlier line
    order = np.argsort(hv[:ih], kind="stable")
    bad_head[order[1:][hv[order[1:]] == hv[order[:-1]]]] = True
    bad_nbr = _bad_ids(nv, i, n)
    k = int(bad_nbr.argmax()) if bad_nbr.any() else None
    e = min(f, int(bad_head.argmax()) if bad_head.any() else f,
            f if k is None else int(np.searchsorted(starts[first], ns[k], "right") - 1))
    if e < len(lines):  # the checks of line e in their line-by-line order
        head, _, rest = tk.line_text(lines[e]).partition(":")
        if not has_colon[e]:
            why = "expected 'i: ... #'"
        elif not head_ok[e] or e == ih:
            why = f"bad vertex id {head!r}"
        elif bad_head[e]:  # a repeated head passed the range check on its first line
            why = (f"duplicate adjacency line for {hv[e]}" if hv[e] in hv[:e]
                   else f"vertex {hv[e]} inconsistent with declared count {n}")
        elif not closed[e]:
            why = "adjacency not terminated by '#'"
        elif k == i:
            why = f"bad neighbor id {rest.split()[k - deg[:e].sum()]!r}"
        else:
            why = f"neighbor {nv[k]} inconsistent with declared count {n}"
        raise GraphFormatError(f"line {lines[e] + 1}: {why}")
    if len(lines) != n:
        raise GraphFormatError(f"expected {n} adjacency lines, found {len(lines)}")
    return np.arange(n), np.repeat(hv.astype(np.int64), deg), nv.astype(np.int64)


def _bad_ids(vals: np.ndarray, i: int, n: int) -> np.ndarray:
    """Per id of vals, as _parse_ids gives them: whether it is outside
    0..n-1, for those before i; vals[i] is refused, those after it unread."""
    top = n - 1 if vals.dtype == object else min(n - 1, 2**63 - 1)
    bad = np.arange(len(vals)) == i
    bad[:i] = (vals[:i] < 0) | (vals[:i] > top)
    return bad


def _finish_parse(ids: np.ndarray, u: np.ndarray, v: np.ndarray) -> ParseResult:
    """Drop self-loops and repeated edges from the dense edges (u[i], v[i])
    between the vertices of the original ids, counting both, and build the
    graph."""
    n = len(ids)
    loop = u == v
    keys = u[~loop] * n + v[~loop]
    kept = _sorted_unique(keys)
    g = _keyed_graph(n, kept)
    return ParseResult(g, ids, int(loop.sum()), len(keys) - len(kept))


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    a = np.sort(a)
    return a[np.r_[True, a[1:] != a[:-1]]] if len(a) else a


def parse_graph(data: bytes | str, fmt: str) -> ParseResult:
    """The graph in data, a file's bytes or its text (read as the file
    holding it), in format fmt, "edge-list" or "gra" (README.md, "File
    formats").  Raises GraphFormatError at the first line that breaks the
    format, ValueError for an unknown fmt."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if fmt == "edge-list":
        return _parse_edge_text(data)
    if fmt == "gra":
        return _finish_parse(*_gra_edges(data))
    raise ValueError(f"unknown graph format {fmt!r}")


def load_graph(path: str, fmt: str | None = None) -> ParseResult:
    """Parse a graph file; the format is sniffed from the suffix unless given."""
    with open(path, "rb") as f:
        return parse_graph(f.read(), graph_format(path, fmt))


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
    ufunc.reduceat folds for a whole level.  That order is a stable argsort
    of the levels as uint16 whenever the top level is below 2^16, which
    numpy runs as one counting sort (0.22 against 1.57 ms for the uint32
    timsort on the 2^16 heights of G(2^16, 2^18), min of 15, a 2-core
    Xeon, numpy 2.4), and of uint32 levels on deeper graphs.  Long runs
    of narrow levels go through _fold_run's loop instead (see
    _FOLD_NARROW), so a long path costs O(n + m) in a few numpy calls, not
    one numpy step per level."""
    if ufunc not in (np.maximum, np.bitwise_or):
        raise ValueError(f"level_fold folds with np.maximum or np.bitwise_or, not {ufunc}")
    top = int(level.max(initial=0))
    if top == 0:
        return rows
    # (level, id) order
    dst = np.argsort(level.astype(np.uint16 if top < 1 << 16 else np.uint32), kind="stable")
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

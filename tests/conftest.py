from __future__ import annotations

from array import array
from collections import deque

from hypothesis import strategies as st

from reachidx.graph import AcyclicityError, DiGraph


def diamond() -> DiGraph:
    return DiGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def path_graph(n: int) -> DiGraph:
    return DiGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# A cyclic edge list with sparse ids, both comment styles, a self-loop, a
# duplicate edge and a tab; its condensation and index bytes are pinned.
PINNED_EDGE_LIST = """\
# cyclic graph with sparse ids
% a second comment style
70 10
10 70
10 40
40 55
55 40

70 90
90 12
12 90
-3 70
8 8
10 40
   7\t8
8 55
1000 -3
40 12
"""


class NoShuffle:
    """random.Random stand-in that keeps child order as stored (sorted): its
    keys are all zero, and the orderings' keyed sorts are stable."""

    def randbytes(self, k):
        return bytes(k)


def successors(g: DiGraph, v: int) -> list[int]:
    return g.out_tg[g.out_off[v]:g.out_off[v + 1]].tolist()


def predecessors(g: DiGraph, v: int) -> list[int]:
    return g.in_tg[g.in_off[v]:g.in_off[v + 1]].tolist()


def edge_pairs(g: DiGraph) -> list[tuple[int, int]]:
    """g's edges in (source, target) order."""
    return [(u, v) for u in range(g.n) for v in successors(g, u)]


def reach_sets(g: DiGraph, v: int) -> tuple[int, int]:
    """(R+(v), R-(v)) as int bitsets, both including v itself: one BFS per
    direction, the reference the supports' mask columns must equal."""
    return _bfs_bits(g, v), _bfs_bits(g.reverse(), v)


def _bfs_bits(g: DiGraph, v: int) -> int:
    bits = 1 << v
    dq = deque((v,))
    while dq:
        u = dq.popleft()
        for w in successors(g, u):
            b = 1 << w
            if not bits & b:
                bits |= b
                dq.append(w)
    return bits


def brute_reach_sets(g: DiGraph) -> list[set[int]]:
    """Independent closure oracle: plain DFS from every vertex."""
    out = []
    for s in range(g.n):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in successors(g, u):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        out.append(seen)
    return out


def ref_weak_components(g: DiGraph) -> array:
    """Reference for graph.weak_components: one BFS over both edge
    directions from each vertex not yet labelled, vertex 0 upward, so
    component ids are dense in order of first discovery."""
    comp = [-1] * g.n
    c = 0
    rows = ((g.out_off, g.out_tg), (g.in_off, g.in_tg))
    for start in range(g.n):
        if comp[start] != -1:
            continue
        comp[start] = c
        dq = deque((start,))
        while dq:
            u = dq.popleft()
            for off, tg in rows:
                for v in tg[off[u]:off[u + 1]]:
                    if comp[v] == -1:
                        comp[v] = c
                        dq.append(v)
        c += 1
    return array("I", comp)


def ref_kahn_levels(g: DiGraph) -> array:
    """Reference for graph._kahn_levels: Kahn's algorithm one vertex at a
    time, each vertex's level the longest-path distance from any source."""
    n = g.n
    off, tg = g.out_off, g.out_tg
    indeg = [g.in_off[v + 1] - g.in_off[v] for v in range(n)]
    level = [0] * n
    dq = deque(v for v in range(n) if indeg[v] == 0)
    seen = 0
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
    return array("I", level)


@st.composite
def dags(draw, max_n: int = 16, min_n: int = 1):
    """Random DAG with arbitrary (relabeled) vertex ids."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    perm = draw(st.permutations(range(n)))
    return DiGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def digraphs(draw, max_n: int = 10):
    """Random digraph, cycles allowed."""
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return DiGraph.from_edges(n, edges)

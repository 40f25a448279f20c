from __future__ import annotations

from hypothesis import strategies as st

from reachidx.graph import DiGraph


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
    """random.Random stand-in that keeps child order as stored (sorted)."""

    def shuffle(self, x):
        pass


def brute_reach_sets(g: DiGraph) -> list[set[int]]:
    """Independent closure oracle: plain DFS from every vertex."""
    out = []
    for s in range(g.n):
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in g.out_adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        out.append(seen)
    return out


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

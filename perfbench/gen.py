"""Seeded benchmark inputs and an exact reachability oracle.

Nothing here imports reachidx: the graphs, the query pairs and the expected
bits come from this file alone, so a defect in the index cannot hide in its
own reference answers.  Every function takes its randomness from a
numpy Generator built from the workload seed.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components


def random_dag_edges(n: int, m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform G(n, m) DAG: m distinct unordered pairs, each edge pointing from
    the smaller to the larger id (so id order is topological)."""
    if m > n * (n - 1) // 2:
        raise ValueError(f"m={m} exceeds n(n-1)/2")
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        a = rng.integers(0, n, size=2 * m)
        b = rng.integers(0, n, size=2 * m)
        keep = a != b
        lo = np.minimum(a, b)[keep]
        hi = np.maximum(a, b)[keep]
        keys = np.unique(np.concatenate([keys, lo * n + hi]))
    keys = rng.choice(keys, size=m, replace=False)
    return keys // n, keys % n


def folded_cycles(
    n: int, count: int, max_fresh: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int]:
    """`count` directed cycles, each through one distinct vertex of 0..n-1 and
    1..max_fresh fresh vertices numbered from n up.  Each cycle folds into
    one strongly connected component that condenses back to its old vertex,
    so the condensation of the DAG plus the cycles is the DAG itself.
    Returns the cycle edges and the new vertex count."""
    U: list[int] = []
    V: list[int] = []
    nxt = n
    anchors = rng.choice(n, size=count, replace=False).tolist()
    for a, k in zip(anchors, rng.integers(1, max_fresh + 1, size=count).tolist()):
        ring = [a, *range(nxt, nxt + k)]
        nxt += k
        U += ring
        V += ring[1:] + ring[:1]
    return np.asarray(U, dtype=np.int64), np.asarray(V, dtype=np.int64), nxt


def _csr(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(u, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=n), out=indptr[1:])
    return indptr, v[order]


def condense(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Strongly connected components: (component of each vertex, component
    count, DAG edges between components, deduplicated)."""
    adj = csr_matrix((np.ones(u.size, dtype=np.int8), (u, v)), shape=(n, n))
    c, comp = connected_components(adj, directed=True, connection="strong")
    cu, cv = comp[u].astype(np.int64), comp[v].astype(np.int64)
    keep = cu != cv
    keys = np.unique(cu[keep] * c + cv[keep])
    return comp.astype(np.int64), int(c), keys // c, keys % c


def heights(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Longest-path distance to a sink of every vertex of a DAG."""
    h = np.zeros(n, dtype=np.int64)
    for _ in range(n + 1):
        nh = h.copy()
        np.maximum.at(nh, u, h[v] + 1)
        if np.array_equal(nh, h):
            return h
        h = nh
    raise ValueError("graph has a cycle")


def reach_answers(
    n: int, u: np.ndarray, v: np.ndarray, src: np.ndarray, dst: np.ndarray, chunk: int = 4096
) -> np.ndarray:
    """Exact answer of every pair (src[i], dst[i]) on the DAG (u, v).

    Bit-parallel over the distinct targets, `chunk` at a time: bit j of
    row w is set when w reaches target j.  Rows are finished in order of
    height, so a row is read only once it is final.
    """
    h = heights(n, u, v)
    order = np.lexsort((u, h[u]))
    eu, ev, eh = u[order], v[order], h[u[order]]
    bounds = np.searchsorted(eh, np.arange(1, int(h.max(initial=0)) + 2))
    targets = np.unique(dst)
    out = np.zeros(src.size, dtype=bool)
    for c0 in range(0, targets.size, chunk):
        tg = targets[c0 : c0 + chunk]
        words = (tg.size + 63) // 64
        M = np.zeros((n, words), dtype=np.uint64)
        j = np.arange(tg.size)
        M[tg, j >> 6] |= np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))
        for a, b in zip(bounds[:-1], bounds[1:]):
            if a == b:
                continue
            us = eu[a:b]
            starts = np.flatnonzero(np.r_[True, us[1:] != us[:-1]])
            M[us[starts]] |= np.bitwise_or.reduceat(M[ev[a:b]], starts, axis=0)
        sel = np.flatnonzero((dst >= tg[0]) & (dst <= tg[-1]))
        jj = np.searchsorted(tg, dst[sel])
        word = M[src[sel], jj >> 6]
        out[sel] = (word >> (jj & 63).astype(np.uint64)) & np.uint64(1) == 1
    return out


def random_pairs(n: int, count: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """`count` uniform ordered pairs over 0..n-1 with s != t."""
    s = rng.integers(0, n, size=count)
    t = rng.integers(0, n - 1, size=count)
    t = t + (t >= s)  # uniform over the n-1 vertices other than s
    return s, t


def mixed_pairs(
    n: int, u: np.ndarray, v: np.ndarray, count: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`count` reachable and `count` unreachable pairs, in shuffled order."""
    pos_s, pos_t, neg_s, neg_t = [], [], [], []
    npos = nneg = 0
    while npos < count or nneg < count:
        s, t = random_pairs(n, 8 * count, rng)
        ans = reach_answers(n, u, v, s, t)
        pos_s.append(s[ans]), pos_t.append(t[ans])
        neg_s.append(s[~ans]), neg_t.append(t[~ans])
        npos += int(ans.sum())
        nneg += int((~ans).sum())
    s = np.concatenate([np.concatenate(pos_s)[:count], np.concatenate(neg_s)[:count]])
    t = np.concatenate([np.concatenate(pos_t)[:count], np.concatenate(neg_t)[:count]])
    exp = np.r_[np.ones(count, dtype=bool), np.zeros(count, dtype=bool)]
    perm = rng.permutation(2 * count)
    return s[perm], t[perm], exp[perm]


def write_gra(path: str, n: int, u: np.ndarray, v: np.ndarray) -> None:
    """Adjacency format: vertex count, then 'i: j1 j2 ... #' per vertex."""
    indptr, nbrs = _csr(n, u, v)
    lines = [str(n)]
    for i in range(n):
        row = nbrs[indptr[i] : indptr[i + 1]]
        row = np.sort(row)
        lines.append(f"{i}: {' '.join(map(str, row.tolist()))} #" if row.size else f"{i}: #")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def write_edge_list(path: str, u: np.ndarray, v: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(f"{a} {b}\n" for a, b in zip(u.tolist(), v.tolist())))


def write_pairs(path: str, s: np.ndarray, t: np.ndarray, expected: np.ndarray | None) -> None:
    """'s t' per line, with the expected bit as a third column when given."""
    with open(path, "w", encoding="utf-8") as f:
        if expected is None:
            f.write("".join(f"{a} {b}\n" for a, b in zip(s.tolist(), t.tolist())))
        else:
            rows = zip(s.tolist(), t.tolist(), expected.astype(int).tolist())
            f.write("".join(f"{a} {b} {e}\n" for a, b, e in rows))

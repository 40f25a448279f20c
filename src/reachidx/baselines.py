"""Exact reference algorithms: a packed full reachability matrix and plain BFS.

The matrix doubles as the ground-truth oracle in tests, so it stays
deliberately simple: one bit-parallel BFS per source vertex, no shared
machinery with the index implementation.  The plain BFS is also the
reference search (index.PLAIN_BFS) that the tests and the benchmark time
and check the index's fallback against.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import DiGraph, check_ids


class CapacityError(ValueError):
    """A requested structure would exceed its configured size budget."""


DEFAULT_MATRIX_CAP = 4 * 1024**3  # bytes; n*n bits must fit

# The workbench's query kinds, benchmarked algorithms and sampling error,
# defined here, beside the oracle they rest on, so that the command line
# can offer and report them without loading the workbench.
QUERY_KINDS = ("positive", "negative", "random", "mixed")
ALGORITHM_NAMES = ("matrix", "bfs", "index+pbibfs")


class InfeasibleError(RuntimeError):
    """Rejection sampling exhausted its budget (no pair of the asked kind)."""


@dataclass
class ReachMatrix:
    """Row-major n*n bit matrix; bit t of row s is set iff s reaches t.

    Rows are Python ints, i.e. packed machine words.  The diagonal is set
    (every vertex reaches itself).
    """

    n: int
    rows: list[int]

    def query(self, s: int, t: int) -> bool:
        """Whether s reaches t.  Raises IndexError when s or t is not a
        vertex id in [0, n), as the index's query does."""
        n = self.n
        if not (0 <= s < n and 0 <= t < n):  # inline: keeps a call off the hot path
            check_ids(n, s, t)
        return (self.rows[s] >> t) & 1 == 1

    def to_dense(self) -> np.ndarray:
        width = (self.n + 7) // 8
        raw = b"".join(row.to_bytes(width, "little") for row in self.rows)
        packed = np.frombuffer(raw, dtype=np.uint8).reshape(self.n, width)
        bits = np.unpackbits(packed, axis=1, bitorder="little")[:, : self.n]
        return bits.astype(bool)


def build_matrix(g: DiGraph, cap_bytes: int = DEFAULT_MATRIX_CAP) -> ReachMatrix:
    """Per-source BFS over bitset frontiers.  Cycles are permitted."""
    n = g.n
    if n * n > cap_bytes * 8:
        raise CapacityError(
            f"matrix needs {n * n} bits, exceeds cap of {cap_bytes} bytes"
        )
    adj = [0] * n
    off, tg = g.out_off, g.out_tg
    for u in range(n):
        bits = 0
        for v in tg[off[u]:off[u + 1]]:
            bits |= 1 << v
        adj[u] = bits
    rows = []
    for s in range(n):
        visited = 1 << s
        frontier = adj[s] & ~visited
        while frontier:
            visited |= frontier
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                nxt |= adj[low.bit_length() - 1]
                f ^= low
            frontier = nxt & ~visited
        rows.append(visited)
    return ReachMatrix(n, rows)


def bfs_search(g: DiGraph, s: int, t: int) -> tuple[bool, int]:
    """Memoryless forward BFS: (answer, vertices expanded).

    Raises IndexError when s or t is not a vertex id in [0, n), and
    TypeError, as query does, when one in range is not an integer.
    """
    check_ids(g.n, s, t)
    s, t = operator.index(s), operator.index(t)  # a float t would match v == t
    if s == t:
        return True, 0
    seen = bytearray(g.n)
    seen[s] = 1
    dq = deque((s,))
    off, tg = g.out_off, g.out_tg
    work = 0
    while dq:
        u = dq.popleft()
        work += 1
        for v in tg[off[u]:off[u + 1]]:
            if v == t:
                return True, work
            if not seen[v]:
                seen[v] = 1
                dq.append(v)
    return False, work


def bfs_query(g: DiGraph, s: int, t: int) -> bool:
    """Memoryless forward BFS; the no-preprocessing baseline."""
    return bfs_search(g, s, t)[0]


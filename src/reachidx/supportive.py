"""Supportive vertices: candidate selection and per-vertex reachability bitmasks.

A supportive vertex v carries two bits per graph vertex w: whether v reaches
w and whether w reaches v.  A query (s, t) is then reachable if some support
sits on an s-t path (S1), and unreachable if s reaches a support that t does
not (S2) or t is reached by a support that s is not (S3).

Candidates are taken from slim topological levels (few vertices, so each
covers many pairs) and topped up at random from the central band of forward
levels; the k kept supports maximize |R+(v)| * |R-(v)|.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graph import DiGraph, LevelAssignment, topological_levels

TAG_SLIM = "slim-level"
TAG_CENTRAL = "random-central"
TAG_FILL = "random-fill"


@dataclass
class CandidatePool:
    candidates: list[int]
    tags: list[str]  # parallel to candidates


@dataclass
class SupportSet:
    supports: list[int]  # in selection order; slot i of the masks
    fwd_mask: list[int]  # bit i of fwd_mask[w]: supports[i] reaches w
    bwd_mask: list[int]  # bit i of bwd_mask[w]: w reaches supports[i]
    k: int  # requested support count; len(supports) may be smaller

    @property
    def mask_bytes(self) -> int:
        return (self.k + 7) // 8


# A mask column (one int per vertex, bit i = the i-th support) is stored as
# (n, w) uint8 rows of w = ceil(k/8) little-endian bytes.  Encoding and
# decoding both go through 64-bit words, so the work is per word column, not
# per vertex; ints are combined with shifts only when k > 64.
_WORD = (1 << 64) - 1


def mask_rows(masks: list[int], w: int) -> np.ndarray:
    """The (len(masks), w) uint8 rows holding each mask in w little-endian
    bytes; raises ValueError for a mask that does not fit."""
    if masks and max(masks) >> (8 * w):
        raise ValueError(f"mask does not fit in {w} bytes")
    words = np.zeros((len(masks), -(-w // 8)), dtype="<u8")
    if words.shape[1] == 1:
        words[:, 0] = masks
    elif words.shape[1] > 1:
        big = np.array(masks, dtype=object)
        for j in range(words.shape[1]):
            words[:, j] = (big >> (64 * j)) & _WORD
    return words.view(np.uint8)[:, :w]


def masks_from_rows(rows: np.ndarray) -> list[int]:
    """Inverse of mask_rows: the masks held in (n, w) little-endian byte rows."""
    n, w = rows.shape
    if w == 0:
        return [0] * n
    padded = np.zeros((n, -(-w // 8) * 8), dtype=np.uint8)
    padded[:, :w] = rows
    words = padded.view("<u8")
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    big = words[:, 0].astype(object)
    for j in range(1, words.shape[1]):
        big |= words[:, j].astype(object) << (64 * j)
    return big.tolist()


def select_candidates(
    dag: DiGraph,
    levels: LevelAssignment,
    k: int,
    p: int,
    h: int,
    rng: random.Random,
) -> CandidatePool:
    """Collect up to k*p candidate vertices.

    Slim forward/backward levels (at most h vertices) first, in ascending
    (level, id) order with forward levels before backward ones; then a
    uniform draw from non-candidate vertices on central forward levels;
    finally, a uniform draw from whatever is left (degenerate-graph guard).
    """
    n = dag.n
    cap = k * p
    cands: list[int] = []
    tags: list[str] = []
    if cap <= 0 or n == 0:
        return CandidatePool(cands, tags)

    used = bytearray(n)

    def buckets(level: list[int], top: int) -> list[list[int]]:
        by: list[list[int]] = [[] for _ in range(top + 1)]
        for v in range(n):
            by[level[v]].append(v)
        return by

    for level, top in ((levels.fwd, levels.fwd_max), (levels.bwd, levels.bwd_max)):
        if len(cands) >= cap:
            break
        for members in buckets(level, top):
            if len(cands) >= cap:
                break
            if not members or len(members) > h:
                continue
            for v in members:
                if len(cands) >= cap:
                    break
                if not used[v]:
                    used[v] = 1
                    cands.append(v)
                    tags.append(TAG_SLIM)

    if len(cands) < cap:
        lo = -(-levels.fwd_max // 5)  # ceil(L/5)
        hi = (4 * levels.fwd_max) // 5
        central = [v for v in range(n) if not used[v] and lo <= levels.fwd[v] <= hi]
        for v in rng.sample(central, min(cap - len(cands), len(central))):
            used[v] = 1
            cands.append(v)
            tags.append(TAG_CENTRAL)

    if len(cands) < cap:
        rest = [v for v in range(n) if not used[v]]
        for v in rng.sample(rest, min(cap - len(cands), len(rest))):
            used[v] = 1
            cands.append(v)
            tags.append(TAG_FILL)

    return CandidatePool(cands, tags)


def reach_sets(dag: DiGraph, v: int) -> tuple[int, int]:
    """(R+(v), R-(v)) as int bitsets, both including v itself."""
    return _bfs_bits(dag.out_adj, v), _bfs_bits(dag.in_adj, v)


def _bfs_bits(adj: list[list[int]], v: int) -> int:
    bits = 1 << v
    dq = deque((v,))
    while dq:
        u = dq.popleft()
        for w in adj[u]:
            b = 1 << w
            if not bits & b:
                bits |= b
                dq.append(w)
    return bits


def _mask_matrix(
    n: int,
    pred_adj: list[list[int]],
    level: np.ndarray,
    level_max: int,
    cands: list[int],
) -> np.ndarray:
    """Per-vertex candidate bitmask rows: bit j of row w is set iff candidate j
    reaches w along the orientation whose predecessor lists are pred_adj.

    Rows are finalized in level order, so each edge is applied exactly once
    with its source row already final; this is the batched replacement for
    one BFS per candidate.
    """
    words = max(1, (len(cands) + 63) // 64)
    M = np.zeros((n, words), dtype=np.uint64)
    for j, v in enumerate(cands):
        M[v, j >> 6] |= np.uint64(1 << (j & 63))
    m = sum(len(x) for x in pred_adj)
    if m == 0:
        return M
    dst = np.repeat(np.arange(n, dtype=np.int64), [len(x) for x in pred_adj])
    src = np.fromiter((u for nbrs in pred_adj for u in nbrs), dtype=np.int64, count=m)
    key = level[dst]
    order = np.argsort(key, kind="stable")
    dst = dst[order]
    src = src[order]
    key = key[order]
    starts = np.searchsorted(key, np.arange(1, level_max + 2))
    for li in range(level_max):
        a, b = starts[li], starts[li + 1]
        if a < b:
            np.bitwise_or.at(M, dst[a:b], M[src[a:b]])
    return M


def _column_counts(M: np.ndarray, ncols: int, chunk: int = 8192) -> np.ndarray:
    counts = np.zeros(ncols, dtype=np.int64)
    byte_view = M.astype("<u8", copy=False).view(np.uint8)
    for a in range(0, M.shape[0], chunk):
        bits = np.unpackbits(byte_view[a : a + chunk], axis=1, bitorder="little")
        counts += bits[:, :ncols].sum(axis=0, dtype=np.int64)
    return counts


def _take_columns(M: np.ndarray, cols: list[int], w: int) -> np.ndarray:
    """Bit cols[i] of each row of M shifted to bit i: the chosen candidate
    columns, in selection order, as (n, w) mask rows."""
    out = np.zeros((M.shape[0], -(-w // 8)), dtype="<u8")
    one = np.uint64(1)
    for i, j in enumerate(cols):
        bit = (M[:, j >> 6] >> np.uint64(j & 63)) & one
        out[:, i >> 6] |= bit << np.uint64(i & 63)
    return out.view(np.uint8)[:, :w]


def pick_supports(
    pool: CandidatePool,
    dag: DiGraph,
    k: int,
    levels: LevelAssignment | None = None,
) -> SupportSet:
    """Keep the top min(k, |pool|) candidates by |R+| * |R-|, smaller vertex id
    breaking ties, and materialize their per-vertex bit columns."""
    n = dag.n
    k = max(k, 0)
    if k == 0 or not pool.candidates:
        zeros = [0] * n
        return SupportSet([], zeros, list(zeros), k)
    if levels is None:
        levels = topological_levels(dag)
    cands = pool.candidates
    fwd_levels = np.asarray(levels.fwd, dtype=np.int64)
    bwd_levels = np.asarray(levels.bwd, dtype=np.int64)
    fwd_M = _mask_matrix(n, dag.in_adj, fwd_levels, levels.fwd_max, cands)
    bwd_M = _mask_matrix(n, dag.out_adj, bwd_levels, levels.bwd_max, cands)
    sizes_f = _column_counts(fwd_M, len(cands))
    sizes_b = _column_counts(bwd_M, len(cands))
    ranked = sorted(
        range(len(cands)),
        key=lambda j: (-int(sizes_f[j]) * int(sizes_b[j]), cands[j]),
    )
    chosen = ranked[: min(k, len(cands))]
    width = (k + 7) // 8
    return SupportSet(
        supports=[cands[j] for j in chosen],
        fwd_mask=masks_from_rows(_take_columns(fwd_M, chosen, width)),
        bwd_mask=masks_from_rows(_take_columns(bwd_M, chosen, width)),
        k=k,
    )


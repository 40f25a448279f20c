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
from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import DiGraph, LevelAssignment, _concat_rows

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
    """Collect up to k*p candidate vertices, from three sources in turn.

    First the slim levels (at most h vertices), forward levels then backward
    ones, each in ascending (level, id) order; then a uniform draw from the
    vertices on the central band of forward levels, [ceil(L/5), 4L/5]; then
    a uniform draw from all vertices, a guard for degenerate graphs.  Each
    source skips vertices already taken, and no source is read once the
    pool is full.
    """
    n = dag.n
    cap = k * p
    cands: list[int] = []
    tags: list[str] = []
    if cap <= 0 or n == 0:
        return CandidatePool(cands, tags)

    used = bytearray(n)

    def take(vertices: Iterable[int], tag: str) -> None:
        for v in vertices:
            if len(cands) >= cap:
                return
            if not used[v]:
                used[v] = 1
                cands.append(v)
                tags.append(tag)

    fwd, bwd = (np.frombuffer(level, np.uint32) for level in (levels.fwd, levels.bwd))
    for lv in (fwd, bwd):
        if len(cands) < cap:
            slim = np.flatnonzero(np.bincount(lv)[lv] <= h)
            take(slim[np.argsort(lv[slim], kind="stable")].tolist(), TAG_SLIM)

    marks = np.frombuffer(used, np.uint8)  # a view: sees every mark take makes
    top = levels.fwd_max
    for tag, lo, hi in ((TAG_CENTRAL, -(-top // 5), 4 * top // 5), (TAG_FILL, 0, top)):
        if len(cands) < cap:
            pool = np.flatnonzero((marks == 0) & (fwd >= lo) & (fwd <= hi)).tolist()
            take(rng.sample(pool, min(cap - len(cands), len(pool))), tag)

    return CandidatePool(cands, tags)


def _mask_matrix(
    pred_off: array,
    pred_tg: array,
    level: np.ndarray,
    level_max: int,
    cands: list[int],
) -> np.ndarray:
    """Per-vertex candidate bitmask rows: bit j of row w is set iff candidate j
    reaches w along the orientation whose predecessor rows are pred_tg over
    pred_off.

    Rows are finalized in level order, so each edge is applied exactly once
    with its source row already final; this is the batched replacement for
    one BFS per candidate.  The targets of a level are taken in id order
    with their predecessor rows concatenated, so the predecessors of one
    target are one run, which a single bitwise_or.reduceat folds.  level
    must be the longest-path levels of this orientation, so that every
    level from 1 to level_max has a vertex.
    """
    n = len(pred_off) - 1
    words = max(1, (len(cands) + 63) // 64)
    M = np.zeros((n, words), dtype=np.uint64)
    j = np.arange(len(cands))
    M[cands, j >> 6] = np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))
    dst = np.argsort(level, kind="stable")  # (level, id) order
    bounds = np.searchsorted(level[dst], np.arange(1, level_max + 2))
    dst = dst[bounds[0]:]  # level-0 vertices have no predecessors
    bounds = bounds - bounds[0]
    off = np.frombuffer(pred_off, np.uint32).astype(np.int64)
    src, heads = _concat_rows(off, np.frombuffer(pred_tg, np.uint32).astype(np.int64), dst)
    edge_bounds = np.r_[heads, len(src)][bounds].tolist()
    bounds = bounds.tolist()
    for li in range(level_max):
        x, y = bounds[li], bounds[li + 1]
        a, b = edge_bounds[li], edge_bounds[li + 1]
        rows = M[src[a:b]]
        if b - a > y - x:  # some target has several predecessors here
            rows = np.bitwise_or.reduceat(rows, heads[x:y] - a, axis=0)
        M[dst[x:y]] |= rows
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
    levels: LevelAssignment,
) -> SupportSet:
    """Keep the top min(k, |pool|) candidates by |R+| * |R-|, smaller vertex id
    breaking ties, and materialize their per-vertex bit columns.  levels
    must be dag's topological_levels: they order the mask propagation."""
    n = dag.n
    k = max(k, 0)
    if k == 0 or not pool.candidates:
        zeros = [0] * n
        return SupportSet([], zeros, list(zeros), k)
    cands = pool.candidates
    fwd_levels, bwd_levels = (np.frombuffer(lv, np.uint32) for lv in (levels.fwd, levels.bwd))
    fwd_M = _mask_matrix(dag.in_off, dag.in_tg, fwd_levels, levels.fwd_max, cands)
    bwd_M = _mask_matrix(dag.out_off, dag.out_tg, bwd_levels, levels.bwd_max, cands)
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


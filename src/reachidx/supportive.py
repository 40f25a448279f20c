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

from .core import DiGraph, LevelAssignment, SupportSet
from .graph import level_fold

TAG_SLIM = "slim-level"
TAG_CENTRAL = "random-central"
TAG_FILL = "random-fill"


@dataclass
class CandidatePool:
    candidates: list[int]
    tags: list[str]  # parallel to candidates


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
    top = int(fwd.max(initial=0))
    for tag, lo, hi in ((TAG_CENTRAL, -(-top // 5), 4 * top // 5), (TAG_FILL, 0, top)):
        if len(cands) < cap:
            pool = np.flatnonzero((marks == 0) & (fwd >= lo) & (fwd <= hi)).tolist()
            take(rng.sample(pool, min(cap - len(cands), len(pool))), tag)

    return CandidatePool(cands, tags)


def _mask_matrix(
    pred_off: array,
    pred_tg: array,
    level: np.ndarray,
    cands: list[int],
) -> np.ndarray:
    """Per-vertex candidate bitmask rows: bit j of row w is set iff candidate j
    reaches w along the orientation whose predecessor rows are pred_tg over
    pred_off.

    Candidate j's bit starts in its own row, and level_fold ORs each row
    into its successors' in level order, the batched replacement for one
    BFS per candidate.  level must be the longest-path levels of this
    orientation."""
    n = len(pred_off) - 1
    words = max(1, (len(cands) + 63) // 64)
    M = np.zeros((n, words), dtype="<u8")
    j = np.arange(len(cands))
    M[cands, j >> 6] = np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))
    return level_fold(pred_off, pred_tg, level, M, np.bitwise_or)


def _column_counts(M: np.ndarray, ncols: int) -> np.ndarray:
    """Set bits in each of the first ncols bit columns of M.  Each block of
    255 unpacked rows is summed in uint8, which 255 ones cannot overflow."""
    counts = np.zeros(ncols, dtype=np.int64)
    byte_view = M.astype("<u8", copy=False).view(np.uint8)
    for a in range(0, M.shape[0], 255):
        bits = np.unpackbits(byte_view[a : a + 255], axis=1, bitorder="little")
        counts += bits[:, :ncols].sum(axis=0, dtype=np.uint8)
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
    breaking ties, and materialize their per-vertex bit columns: bit i of
    the masks is the i-th kept.  levels must be dag's topological_levels:
    they order the mask propagation."""
    n = dag.n
    k = max(k, 0)
    width = (k + 7) // 8
    if k == 0 or not pool.candidates:
        zeros = bytes(n * width)
        return SupportSet(zeros, zeros, k, n)
    cands = pool.candidates
    fwd_levels, bwd_levels = (np.frombuffer(lv, np.uint32) for lv in (levels.fwd, levels.bwd))
    fwd_M = _mask_matrix(dag.in_off, dag.in_tg, fwd_levels, cands)
    bwd_M = _mask_matrix(dag.out_off, dag.out_tg, bwd_levels, cands)
    sizes_f = _column_counts(fwd_M, len(cands))
    sizes_b = _column_counts(bwd_M, len(cands))
    ranked = sorted(
        range(len(cands)),
        key=lambda j: (-int(sizes_f[j]) * int(sizes_b[j]), cands[j]),
    )
    chosen = ranked[: min(k, len(cands))]
    return SupportSet(
        fwd_rows=_take_columns(fwd_M, chosen, width).tobytes(),
        bwd_rows=_take_columns(bwd_M, chosen, width).tobytes(),
        k=k,
        n=n,
    )

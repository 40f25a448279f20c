"""Reachability index: build, ordered observation tests, fallback search,
and binary serialization.

A query runs through seven constant-time tests (equality, levels, positive
support, first ordering, negative supports, remaining orderings, weak
components); the first decisive one answers.  Undecided queries go to a
fallback resolver, by default a pruned bidirectional BFS.  It expands the
side with the shorter queue, answers positively when the sides meet and
negatively as soon as either queue is empty, and tests every newly
encountered vertex against the search's fixed endpoint with the same
observations, so a decisive negative prunes that vertex.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .baselines import bfs_search
from .graph import (
    DiGraph,
    LevelAssignment,
    check_ids,
    graph_checksum,
    topological_levels,
    weak_components,
)
from .supportive import (
    SupportSet,
    answer_s1,
    answer_s23,
    mask_rows,
    masks_from_rows,
    pick_supports,
    select_candidates,
)
from .toporder import (
    BACKWARD,
    FORWARD,
    ExtTopOrder,
    answer_T,
    extended_topsort,
    extended_topsort_backward,
    start_sequence,
)


class IndexFormatError(ValueError):
    """Serialized index is malformed or does not match the graph."""


@dataclass
class IndexParams:
    t: int = 4  # extended topological orderings (ceil(t/2) forward)
    k: int = 16  # supportive vertices
    p: int = 75  # candidate pool multiplier: k*p candidates
    h: int = 8  # slim-level threshold

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"index parameter {name} must be >= 0, got {value}")


@dataclass
class ObservationStats:
    """Counters over queries answered via the index.

    first_hit is keyed 'test:observation' (e.g. '4:T1') and counts the test
    that actually answered; together with fallbacks it partitions all
    queries.  overlap (opt-in) counts every observation that could have
    answered, ignoring test order.
    """

    track_overlap: bool = False
    queries: int = 0
    fallbacks: int = 0
    first_hit: Counter = field(default_factory=Counter)
    overlap: Counter = field(default_factory=Counter)
    outcomes: Counter = field(default_factory=Counter)

    @property
    def fallback_rate(self) -> float | None:
        return self.fallbacks / self.queries if self.queries else None


@dataclass
class QueryOutcome:
    answer: bool
    answered_by: str  # 'test:observation' or 'fallback:<name>'
    work: int = 0  # vertices expanded by the fallback; 0 for observation answers


@dataclass
class ReachIndex:
    graph: DiGraph
    wcc: list[int]
    levels: LevelAssignment
    orderings: list[ExtTopOrder]
    supports: SupportSet
    params: IndexParams | None = None
    seed: int | None = None


def _substream(seed: int, tag: str, i: int = 0) -> int:
    data = f"{seed}/{tag}/{i}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def build_index(
    dag: DiGraph, params: IndexParams | None = None, seed: int = 0
) -> ReachIndex:
    """Assemble the per-vertex index; raises AcyclicityError on cyclic input.

    Stages: weak components, topological levels, ceil(t/2) forward plus
    floor(t/2) backward extended orderings, then supportive vertices drawn
    from a k*p candidate pool.
    """
    if params is None:
        params = IndexParams()
    wcc = weak_components(dag)
    levels = topological_levels(dag)
    orderings: list[ExtTopOrder] = []
    for j in range((params.t + 1) // 2):
        s = _substream(seed, "fwd", j)
        rng = random.Random(s)
        orderings.append(extended_topsort(dag, start_sequence(dag, rng), rng, seed=s))
    for j in range(params.t // 2):
        s = _substream(seed, "bwd", j)
        rng = random.Random(s)
        orderings.append(extended_topsort_backward(dag, rng, seed=s))
    crng = random.Random(_substream(seed, "cand"))
    pool = select_candidates(dag, levels, params.k, params.p, params.h, crng)
    supports = pick_supports(pool, dag, params.k, levels)
    return ReachIndex(dag, wcc, levels, orderings, supports, params, seed)


def try_observations(
    ix: ReachIndex, s: int, t: int, stats: ObservationStats | None = None
) -> tuple[bool | None, str | None]:
    """Tests 1-7 in order; first decisive observation answers.

    Returns (answer, 'test:observation'); (None, None) when undecided.
    O(t + k) time, no adjacency access.
    """

    def hit(ans: bool, tag: str) -> tuple[bool, str]:
        if stats is not None:
            stats.first_hit[tag] += 1
        return ans, tag

    if s == t:
        return hit(True, "1:EQ")
    # Test 2: levels.  <= rather than < is sound for s != t: a path forces a
    # strictly larger forward level and strictly smaller backward level.
    levels = ix.levels
    if levels.fwd[t] <= levels.fwd[s]:
        return hit(False, "2:B5")
    if levels.bwd[s] <= levels.bwd[t]:
        return hit(False, "2:B6")
    ss = ix.supports
    if answer_s1(ss, s, t):
        return hit(True, "3:S1")
    orderings = ix.orderings
    if orderings:
        ans, obs = answer_T(orderings[0], s, t)
        if ans is not None:
            return hit(ans, f"4:{obs}")
    neg = answer_s23(ss, s, t)
    if neg is not None:
        return hit(False, f"5:{neg}")
    for order in orderings[1:]:
        ans, obs = answer_T(order, s, t)
        if ans is not None:
            return hit(ans, f"6:{obs}")
    if ix.wcc[s] != ix.wcc[t]:
        return hit(False, "7:B2")
    return None, None


def collect_observations(ix: ReachIndex, s: int, t: int) -> set[str]:
    """Every observation able to answer (s, t), ignoring test order.

    Ordering observations count once per id even when several orderings
    fire.  Used for the overlap breakdown.
    """
    if s == t:
        return {"EQ"}
    hits: set[str] = set()
    levels = ix.levels
    if levels.fwd[t] <= levels.fwd[s]:
        hits.add("B5")
    if levels.bwd[s] <= levels.bwd[t]:
        hits.add("B6")
    if ix.wcc[s] != ix.wcc[t]:
        hits.add("B2")
    ss = ix.supports
    if answer_s1(ss, s, t):
        hits.add("S1")
    if ss.fwd_mask[s] & ~ss.fwd_mask[t]:
        hits.add("S2")
    if ss.bwd_mask[t] & ~ss.bwd_mask[s]:
        hits.add("S3")
    for order in ix.orderings:
        ps, pt = order.pos[s], order.pos[t]
        if pt < ps:
            hits.add("B4")
            continue
        if order.flavor == FORWARD:
            if pt <= order.hi_or_lo[s]:
                hits.add("T1")
            if pt > order.mx_or_mn[s]:
                hits.add("T2")
            elif pt == order.mx_or_mn[s]:
                hits.add("T3")
        else:
            if order.hi_or_lo[t] <= ps:
                hits.add("T4")
            if ps < order.mx_or_mn[t]:
                hits.add("T5")
            elif ps == order.mx_or_mn[t]:
                hits.add("T6")
    return hits


# ---------------------------------------------------------------------------
# fallback resolvers


@dataclass(frozen=True)
class Resolver:
    """Exact fallback: run(index, s, t) -> (answer, vertices expanded)."""

    name: str
    run: Callable[[ReachIndex, int, int], tuple[bool, int]]


def _endpoint_test(ix: ReachIndex, x: int, towards: bool) -> Callable[[int], bool | None]:
    """Observations bound to the fixed endpoint x of one search side.

    towards=True gives test(v) == try_observations(ix, v, x)[0] (forward
    side, x = t); towards=False gives test(v) == try_observations(ix, x, v)[0]
    (backward side, x = s).  x's levels, masks, component and ordering
    indices are read once.  Every observation is sound, so running them
    cheapest-first (levels, S1, S2/S3, orderings, B2) gives the same verdict
    as the fixed test order.  An ordering whose indices for the pair all sit
    on x reduces to intervals of pos(v).
    """
    lf, lb = ix.levels.fwd, ix.levels.bwd
    fm, bm = ix.supports.fwd_mask, ix.supports.bwd_mask
    wcc = ix.wcc
    lfx, lbx, fmx, bmx, wx = lf[x], lb[x], fm[x], bm[x], wcc[x]
    # own: the ordering's indices for v are read per call; fixed: pos(v) in
    # [a, b] or == m proves the pair, pos(v) outside [lo, hi] refutes it
    own: list[tuple[list[int], list[int], list[int], int]] = []
    fixed: list[tuple[list[int], int, int, int, int, int]] = []
    for o in ix.orderings:
        px = o.pos[x]
        if (o.flavor == FORWARD) == towards:
            own.append((o.pos, o.hi_or_lo, o.mx_or_mn, px))
        elif towards:  # backward ordering, pair (v, x): Low(x), Min(x)
            lo, mn = o.hi_or_lo[x], o.mx_or_mn[x]
            fixed.append((o.pos, lo, px, mn, px, mn))
        else:  # forward ordering, pair (x, v): High(x), Max(x)
            hi, mx = o.hi_or_lo[x], o.mx_or_mn[x]
            fixed.append((o.pos, px, hi, px, mx, mx))

    if towards:

        def test(v: int) -> bool | None:
            if v == x:
                return True
            if lf[v] >= lfx or lb[v] <= lbx:  # B5, B6
                return False
            if bm[v] & fmx:  # S1
                return True
            if fm[v] & ~fmx or bmx & ~bm[v]:  # S2, S3
                return False
            for pos, hi, mx, px in own:  # B4, T1, T2, T3
                p = pos[v]
                if px < p:
                    return False
                if px <= hi[v]:
                    return True
                m = mx[v]
                if px > m:
                    return False
                if px == m:
                    return True
            for pos, a, b, lo, hi, m in fixed:
                p = pos[v]
                if p < lo or p > hi:
                    return False
                if a <= p <= b or p == m:
                    return True
            if wcc[v] != wx:  # B2
                return False
            return None

    else:

        def test(v: int) -> bool | None:
            if v == x:
                return True
            if lf[v] <= lfx or lb[v] >= lbx:  # B5, B6
                return False
            if bmx & fm[v]:  # S1
                return True
            if fmx & ~fm[v] or bm[v] & ~bmx:  # S2, S3
                return False
            for pos, lo, mn, px in own:  # B4, T4, T5, T6
                if pos[v] < px:
                    return False
                if lo[v] <= px:
                    return True
                m = mn[v]
                if px < m:
                    return False
                if px == m:
                    return True
            for pos, a, b, lo, hi, m in fixed:
                p = pos[v]
                if p < lo or p > hi:
                    return False
                if a <= p <= b or p == m:
                    return True
            if wcc[v] != wx:  # B2
                return False
            return None

    return test


def _bidirectional_search(ix: ReachIndex, s: int, t: int) -> tuple[bool, int]:
    """Bidirectional BFS that always expands the side with the shorter queue.

    The forward side goes first on a tie.  Meeting frontiers (including
    stepping onto t or s directly) answer positively.  The search answers
    negatively as soon as either queue is empty: that side has then seen every
    vertex it could put on an s-t path.  Every newly encountered vertex v
    first goes through the observations as the subquery (v, t) or (s, v): a
    decisive positive answers the whole query, a decisive negative prunes v.
    Raises IndexError when s or t is not a vertex id in [0, n).
    """
    g = ix.graph
    check_ids(g.n, s, t)
    if s == t:
        return True, 0
    fq: deque[int] = deque((s,))
    bq: deque[int] = deque((t,))
    fseen = {s}
    bseen = {t}
    # per side: queue, own seen-set, the other side's seen-set, adjacency, test
    fwd = (fq, fseen, bseen, g.out_adj, _endpoint_test(ix, t, True))
    bwd = (bq, bseen, fseen, g.in_adj, _endpoint_test(ix, s, False))
    work = 0
    while fq and bq:
        q, seen, other, adj, test = fwd if len(fq) <= len(bq) else bwd
        u = q.popleft()
        work += 1
        for v in adj[u]:
            if v in other:  # frontiers met
                return True, work
            if v in seen:
                continue
            sub = test(v)
            if sub is True:
                return True, work
            if sub is False:
                continue
            seen.add(v)
            q.append(v)
    return False, work


PBIBFS = Resolver("pbibfs", _bidirectional_search)
PLAIN_BFS = Resolver("bfs", lambda ix, s, t: bfs_search(ix.graph, s, t))
RESOLVERS = {r.name: r for r in (PBIBFS, PLAIN_BFS)}


def query(
    ix: ReachIndex,
    s: int,
    t: int,
    fallback: Resolver | None = None,
    stats: ObservationStats | None = None,
) -> QueryOutcome:
    """Exact reachability answer: observations first, fallback on unknown.

    Raises IndexError when s or t is not a vertex id in [0, n).
    """
    n = ix.graph.n
    if not (0 <= s < n and 0 <= t < n):  # inline: keeps a call off the hot path
        check_ids(n, s, t)
    if stats is not None:
        stats.queries += 1
        if stats.track_overlap:
            for tag in collect_observations(ix, s, t):
                stats.overlap[tag] += 1
    ans, tag = try_observations(ix, s, t, stats)
    work = 0
    if ans is None:
        resolver = fallback if fallback is not None else PBIBFS
        ans, work = resolver.run(ix, s, t)
        tag = f"fallback:{resolver.name}"
        if stats is not None:
            stats.fallbacks += 1
    if stats is not None:
        stats.outcomes["reachable" if ans else "unreachable"] += 1
    return QueryOutcome(ans, tag, work)


# ---------------------------------------------------------------------------
# serialization

MAGIC = b"RIDX"
VERSION = 1
HEADER = struct.Struct("<4sIIIII")  # magic, version, n, t, k, graph checksum


def payload_bytes_per_vertex(t: int, k: int) -> int:
    return 12 + 12 * t + 2 * ((k + 7) // 8)


def serialize_index(ix: ReachIndex) -> bytes:
    """Little-endian header + fixed-width per-vertex records."""
    n = ix.graph.n
    t = len(ix.orderings)
    k = ix.supports.k
    w = (k + 7) // 8
    header = HEADER.pack(MAGIC, VERSION, n, t, k, graph_checksum(ix.graph))
    columns: list[list[int]] = [ix.wcc, ix.levels.fwd, ix.levels.bwd]
    for order in ix.orderings:
        columns += [order.pos, order.hi_or_lo, order.mx_or_mn]
    ints = np.empty((n, len(columns)), dtype="<u4")
    for i, col in enumerate(columns):
        ints[:, i] = col
    records = np.concatenate(
        [
            ints.view(np.uint8).reshape(n, 4 * len(columns)),
            mask_rows(ix.supports.fwd_mask, w),
            mask_rows(ix.supports.bwd_mask, w),
        ],
        axis=1,
    )
    return header + records.tobytes()


def deserialize_index(data: bytes, dag: DiGraph) -> ReachIndex:
    """Inverse of serialize_index; validates magic, version, n, and checksum."""
    if len(data) < HEADER.size:
        raise IndexFormatError("truncated header")
    magic, version, n, t, k, checksum = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise IndexFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise IndexFormatError(f"unsupported version {version}")
    if n != dag.n:
        raise IndexFormatError(f"index built for n={n}, graph has n={dag.n}")
    if checksum != graph_checksum(dag):
        raise IndexFormatError("graph checksum mismatch")
    w = (k + 7) // 8
    per_vertex = payload_bytes_per_vertex(t, k)
    if len(data) != HEADER.size + n * per_vertex:
        raise IndexFormatError(
            f"expected {HEADER.size + n * per_vertex} bytes, got {len(data)}"
        )
    records = np.frombuffer(data, dtype=np.uint8, offset=HEADER.size).reshape(
        n, per_vertex
    )
    ints = np.ascontiguousarray(records[:, : 12 + 12 * t]).view("<u4")
    wcc = ints[:, 0].tolist()
    fwd = ints[:, 1].tolist()
    bwd = ints[:, 2].tolist()
    levels = LevelAssignment(fwd, bwd, max(fwd, default=0), max(bwd, default=0))
    n_fwd = (t + 1) // 2
    orderings = []
    for j in range(t):
        base = 3 + 3 * j
        orderings.append(
            ExtTopOrder(
                pos=ints[:, base].tolist(),
                hi_or_lo=ints[:, base + 1].tolist(),
                mx_or_mn=ints[:, base + 2].tolist(),
                flavor=FORWARD if j < n_fwd else BACKWARD,
            )
        )
    fwd_rows = records[:, 12 + 12 * t : 12 + 12 * t + w]
    bwd_rows = records[:, 12 + 12 * t + w :]
    supports: list[int] = []
    if w:
        # A support is the unique vertex with its own bit set in both masks:
        # both directions reachable means same SCC, hence the same vertex.
        both = np.unpackbits(fwd_rows & bwd_rows, axis=1, bitorder="little")[:, :k]
        for i in range(k):
            owners = np.flatnonzero(both[:, i])
            if owners.size == 0:
                break
            supports.append(int(owners[0]))
    support_set = SupportSet(
        supports, masks_from_rows(fwd_rows), masks_from_rows(bwd_rows), k
    )
    return ReachIndex(dag, wcc, levels, orderings, support_set)

"""Reachability index: build, ordered observation tests, fallback search,
and binary serialization.

A query runs through seven constant-time tests (equality, levels, positive
support, first ordering, negative supports, remaining orderings, weak
components); the first decisive one answers.  observation_table is their
definition: one (test:tag, answer, mask) row per observation, in that order,
over numpy views of the columns.  try_observations reads it for one pair,
and observation_stats counts first hits and overlap from it in bulk.

Undecided queries go to a fallback resolver, by default a pruned
bidirectional BFS.  It expands the side with the shorter queue, answers
positively when the sides meet and negatively as soon as either queue is
empty, and tests every newly encountered vertex against the search's fixed
endpoint with the same observations, so a decisive negative prunes that
vertex.  The level window is checked inline in the search loop; the other
observations run in a per-side endpoint test, built on that side's first
pop.

In memory, every per-vertex integer column (weak component, both levels,
and each ordering's pos, High/Low and Max/Min) is an array('I'): n
contiguous uint32 cells instead of n pointers to separate int objects, so
an index lookup reads one cache-friendly cell and loading copies each
column out of the serialized records without creating an int per cell.
The support masks stay lists of Python ints: k may exceed 64, and one int
per vertex keeps S1-S3 a single `&` for any k.
"""

from __future__ import annotations

import hashlib
import random
import struct
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

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
    queries.  overlap counts, per observation, the queries it could have
    answered, ignoring test order (filled by observation_stats).
    """

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


assert array("I").itemsize == 4  # the columns are read and written as <u4


def _column(values: Sequence[int]) -> array:
    return values if isinstance(values, array) and values.typecode == "I" else array("I", values)


@dataclass
class ReachIndex:
    """A built or loaded index.  Construction turns the integer columns of
    wcc, levels and orderings into array('I') (see the module docstring);
    the producers' lists are not kept."""

    graph: DiGraph
    wcc: array
    levels: LevelAssignment
    orderings: list[ExtTopOrder]
    supports: SupportSet
    params: IndexParams | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        self.wcc = _column(self.wcc)
        lv = self.levels
        self.levels = replace(lv, fwd=_column(lv.fwd), bwd=_column(lv.bwd))
        self.orderings = [
            replace(
                o,
                pos=_column(o.pos),
                hi_or_lo=_column(o.hi_or_lo),
                mx_or_mn=_column(o.mx_or_mn),
            )
            for o in self.orderings
        ]


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
    """Tests 1-7 in order: the first row of observation_table true for (s, t).

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
    fm, bm = ix.supports.fwd_mask, ix.supports.bwd_mask
    if bm[s] & fm[t]:
        return hit(True, "3:S1")
    orderings = ix.orderings
    if orderings:
        ans, obs = answer_T(orderings[0], s, t)
        if ans is not None:
            return hit(ans, f"4:{obs}")
    if fm[s] & ~fm[t]:
        return hit(False, "5:S2")
    if bm[t] & ~bm[s]:
        return hit(False, "5:S3")
    for order in orderings[1:]:
        ans, obs = answer_T(order, s, t)
        if ans is not None:
            return hit(ans, f"6:{obs}")
    if ix.wcc[s] != ix.wcc[t]:
        return hit(False, "7:B2")
    return None, None


def observation_table(
    ix: ReachIndex, S: Sequence[int], T: Sequence[int]
) -> list[tuple[str, bool, np.ndarray]]:
    """The observations as (test:tag, answer, mask) rows in the fixed test
    order, where mask[i] says the row proves answer for the pair (S[i], T[i]).

    This is their definition: a pair's first true row is what
    try_observations answers, and a pair with no true row is undecided.  Every
    row but EQ excludes s == t.  Reads numpy views of the columns, never the
    adjacency.  Raises IndexError when an id is not in [0, n).
    """
    S, T = np.asarray(S, dtype=np.int64), np.asarray(T, dtype=np.int64)
    if S.size:  # names the smallest id if negative, else the largest if >= n
        check_ids(len(ix.wcc), int(min(S.min(), T.min())), int(max(S.max(), T.max())))
    u32 = partial(np.frombuffer, dtype=np.uint32)
    ne, lv, ss = S != T, ix.levels, ix.supports
    w = 8 * max(1, -(-ss.k // 64))  # whole uint64 words, at least one
    fm, bm = (mask_rows(m, w).view("<u8") for m in (ss.fwd_mask, ss.bwd_mask))
    orderings = []  # four rows each: B4, then the T tests where pos(s) < pos(t)
    for j, o in enumerate(ix.orderings):
        test = 6 if j else 4
        ps, pt = u32(o.pos)[S], u32(o.pos)[T]
        x, y, after = u32(o.hi_or_lo), u32(o.mx_or_mn), ps < pt
        if o.flavor == FORWARD:  # x, y = High, Max
            tests = [("T1", True, pt <= x[S]), ("T2", False, pt > y[S]), ("T3", True, pt == y[S])]
        else:  # x, y = Low, Min
            tests = [("T4", True, x[T] <= ps), ("T5", False, ps < y[T]), ("T6", True, ps == y[T])]
        orderings.append((f"{test}:B4", False, pt < ps))
        orderings += [(f"{test}:{obs}", ans, after & m) for obs, ans, m in tests]
    return [  # of the rows below, only B5, B6 and S1 could hold for s == t unmasked
        ("1:EQ", True, ~ne),
        ("2:B5", False, ne & (u32(lv.fwd)[T] <= u32(lv.fwd)[S])),
        ("2:B6", False, ne & (u32(lv.bwd)[S] <= u32(lv.bwd)[T])),
        ("3:S1", True, ne & (bm[S] & fm[T]).any(axis=1)),
        *orderings[:4],
        ("5:S2", False, (fm[S] & ~fm[T]).any(axis=1)),
        ("5:S3", False, (bm[T] & ~bm[S]).any(axis=1)),
        *orderings[4:],
        ("7:B2", False, u32(ix.wcc)[S] != u32(ix.wcc)[T]),
    ]


# ---------------------------------------------------------------------------
# fallback resolvers


@dataclass(frozen=True)
class Resolver:
    """Exact fallback: run(index, s, t) -> (answer, vertices expanded)."""

    name: str
    run: Callable[[ReachIndex, int, int], tuple[bool, int]]


def _endpoint_test(ix: ReachIndex, x: int, towards: bool) -> Callable[[int], bool | None]:
    """Observations bound to the fixed endpoint x of one search side, for a
    v != x inside x's level window (B5 and B6 do not hold for the pair; the
    search checks that inline before the call).

    For such v, towards=True gives test(v) == try_observations(ix, v, x)[0]
    (forward side, x = t) and towards=False gives
    test(v) == try_observations(ix, x, v)[0] (backward side, x = s).  x's
    masks, component and ordering indices are read once.  Every observation
    is sound, so running them cheapest-first (S1, S2/S3, orderings, B2) gives
    the same verdict as the fixed test order.  An ordering whose indices for
    the pair all sit on x reduces to intervals of pos(v).
    """
    fm, bm = ix.supports.fwd_mask, ix.supports.bwd_mask
    wcc = ix.wcc
    fmx, bmx, wx = fm[x], bm[x], wcc[x]
    # own: the ordering's indices for v are read per call; fixed: pos(v) in
    # [a, b] or == m proves the pair, pos(v) outside [lo, hi] refutes it
    own: list[tuple[array, array, array, int]] = []
    fixed: list[tuple[array, int, int, int, int, int]] = []
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
    The level window (B5, B6) is checked inline; the rest of the observations
    run in the side's _endpoint_test, built on that side's first pop.
    Raises IndexError when s or t is not a vertex id in [0, n).
    """
    g = ix.graph
    n = g.n
    if not (0 <= s < n and 0 <= t < n):  # inline: keeps a call off the hot path
        check_ids(n, s, t)
    if s == t:
        return True, 0
    lf, lb = ix.levels.fwd, ix.levels.bwd
    fq: deque[int] = deque((s,))
    bq: deque[int] = deque((t,))
    # each vertex either side has queued, mapped to that side's queue: the
    # sides' seen sets are disjoint, as meeting ends the search
    seen = {s: fq, t: bq}
    # per side: queue, adjacency, then the pair's level window in the one form
    # a[v] >= ax or b[v] <= bx (B5, B6), then the test; built on first pop
    fwd = bwd = None
    work = 0
    while fq and bq:
        if len(fq) <= len(bq):
            if fwd is None:
                fwd = (fq, g.out_adj, lf, lf[t], lb, lb[t], _endpoint_test(ix, t, True))
            q, adj, a, ax, b, bx, test = fwd
        else:
            if bwd is None:
                bwd = (bq, g.in_adj, lb, lb[s], lf, lf[s], _endpoint_test(ix, s, False))
            q, adj, a, ax, b, bx, test = bwd
        u = q.popleft()
        work += 1
        for v in adj[u]:
            if v in seen:
                if seen[v] is not q:  # frontiers met
                    return True, work
                continue
            if a[v] >= ax or b[v] <= bx:  # B5, B6
                continue
            sub = test(v)
            if sub is True:
                return True, work
            if sub is False:
                continue
            seen[v] = q
            q.append(v)
    return False, work


PBIBFS = Resolver("pbibfs", _bidirectional_search)
PLAIN_BFS = Resolver("bfs", lambda ix, s, t: bfs_search(ix.graph, s, t))
RESOLVERS = {r.name: r for r in (PBIBFS, PLAIN_BFS)}


def query(ix: ReachIndex, s: int, t: int, fallback: Resolver | None = None) -> QueryOutcome:
    """Exact reachability answer: observations first, fallback on unknown.

    Raises IndexError when s or t is not a vertex id in [0, n).
    """
    n = ix.graph.n
    if not (0 <= s < n and 0 <= t < n):  # inline: keeps a call off the hot path
        check_ids(n, s, t)
    ans, tag = try_observations(ix, s, t)
    if ans is not None:
        return QueryOutcome(ans, tag)
    resolver = fallback if fallback is not None else PBIBFS
    ans, work = resolver.run(ix, s, t)
    return QueryOutcome(ans, f"fallback:{resolver.name}", work)


def observation_stats(ix: ReachIndex, S: Sequence[int], T: Sequence[int]) -> ObservationStats:
    """The stats of querying each pair (S[i], T[i]), from one observation_table
    call: a pair's first true row is its first hit, each observation true for
    it counts once in overlap, and only undecided pairs go to PBIBFS (every
    resolver is exact, so the choice changes no count)."""
    rows = observation_table(ix, S, T)
    held = np.array([mask for _, _, mask in rows])
    decided, first = held.any(axis=0), held.argmax(axis=0)
    answer = np.array([ans for _, ans, _ in rows])[first] & decided
    for i in np.flatnonzero(~decided).tolist():
        answer[i] = PBIBFS.run(ix, int(S[i]), int(T[i]))[0]
    obs = np.array([tag.partition(":")[2] for tag, _, _ in rows])
    reachable = int(np.count_nonzero(answer))
    return ObservationStats(  # unary + drops the zero counts
        queries=len(S),
        fallbacks=int(np.count_nonzero(~decided)),
        first_hit=Counter(rows[r][0] for r in first[decided].tolist()),
        overlap=+Counter({o: int(held[obs == o].any(axis=0).sum()) for o in set(obs)}),
        outcomes=+Counter(reachable=reachable, unreachable=len(S) - reachable),
    )


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
    columns: list[array] = [ix.wcc, ix.levels.fwd, ix.levels.bwd]
    for order in ix.orderings:
        columns += [order.pos, order.hi_or_lo, order.mx_or_mn]
    ints = np.empty((n, len(columns)), dtype="<u4")
    for i, col in enumerate(columns):
        ints[:, i] = np.frombuffer(col, dtype=np.uint32)  # a view, not a copy
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
    """Inverse of serialize_index; validates magic, version, n, the graph
    checksum, the length, and that every integer column value is below n."""
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
    # the integer part of each record, viewed in place as (n, 3 + 3t) <u4
    ints = np.ndarray(
        (n, 3 + 3 * t), "<u4", data, offset=HEADER.size, strides=(per_vertex, 4)
    )
    if ints.size and ints.max() >= n:  # every column holds ids, levels or positions < n
        v, i = divmod(int((ints >= n).argmax()), 3 + 3 * t)
        names = ["wcc", "levels.fwd", "levels.bwd"] + [
            f"orderings[{j}].{c}" for j in range(t) for c in ("pos", "hi_or_lo", "mx_or_mn")
        ]
        raise IndexFormatError(f"{names[i]}[{v}] = {ints[v, i]} is out of range for n={n}")
    wcc, fwd, bwd, *rest = [_copy_column(ints[:, i]) for i in range(3 + 3 * t)]
    lmax = ints[:, 1:3].max(axis=0, initial=0).tolist()
    levels = LevelAssignment(fwd, bwd, lmax[0], lmax[1])
    n_fwd = (t + 1) // 2
    orderings = [
        ExtTopOrder(*rest[3 * j : 3 * j + 3], flavor=FORWARD if j < n_fwd else BACKWARD)
        for j in range(t)
    ]
    fwd_rows = records[:, 12 + 12 * t : 12 + 12 * t + w]
    bwd_rows = records[:, 12 + 12 * t + w :]
    supports: list[int] = []
    if w:
        # A support is the unique vertex with its own bit set in both masks:
        # both directions reachable means same SCC, hence the same vertex.
        # So at most k rows of fwd & bwd are nonzero; only those are unpacked.
        both = fwd_rows & bwd_rows
        rows = np.flatnonzero(both.any(axis=1))
        bits = np.unpackbits(both[rows], axis=1, bitorder="little")[:, :k]
        for i in range(k):
            owners = rows[np.flatnonzero(bits[:, i])]
            if owners.size == 0:
                break
            supports.append(int(owners[0]))
    support_set = SupportSet(
        supports, masks_from_rows(fwd_rows), masks_from_rows(bwd_rows), k
    )
    return ReachIndex(dag, wcc, levels, orderings, support_set)


def _copy_column(values: np.ndarray) -> array:
    """values, copied once into a new array('I')."""
    col = array("I", [0]) * len(values)
    np.frombuffer(col, dtype=np.uint32)[:] = values
    return col

"""Reachability index: build, ordered observation tests, fallback search,
and binary serialization.

Every build stage (weak components, levels, each extended ordering, the
supports) draws from its own substream of the seed, so the stages are
independent.  build_index overlaps them when the process may run on more
than one CPU: one forked worker computes orderings 1..t-1 while the caller
computes the rest, and hands back each ordering's columns through a pipe
as raw uint32 cells.  The index bytes are the same as those of the inline
build, which small graphs, single-CPU processes, processes with other
Python threads and platforms without fork use.

A query runs through seven constant-time tests (equality, levels, positive
support, first ordering, negative supports, remaining orderings, then weak
components and Max/Min containment over all orderings); the first decisive
one answers.  observation_table is their definition: one (test:tag,
answer, mask) row per observation, in that order, over numpy views of the
columns.  try_observations reads it for one pair, and observation_stats
counts first hits and overlap from it in bulk.

Undecided queries go to a fallback resolver, by default a pruned
bidirectional BFS.  It expands the side with the shorter queue, answers
positively when the sides meet and negatively as soon as either queue is
empty, and tests every newly encountered vertex against the search's fixed
endpoint with the same observations, so a decisive negative prunes that
vertex.  The level window is checked inline in the search loop; the other
observations run in a per-side endpoint test, built on that side's first
pop.  There containment runs inside each ordering's checks, in place of
the T2/T5 comparisons it subsumes.

In memory, every per-vertex integer column (weak component, both levels,
and each ordering's pos, High/Low and Max/Min) is an array('I'): n
contiguous uint32 cells instead of n pointers to separate int objects, so
an index lookup reads one cache-friendly cell.  The stages in graph and
toporder return their columns in that type, and a ReachIndex holds them
as given: the forked worker writes them to its pipe as they are,
serialization views them through np.frombuffer, and loading copies each
column out of the serialized records without creating an int per cell.
The support masks stay lists of Python ints: k may exceed 64, and one int
per vertex keeps S1-S3 a single `&` for any k.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import random
import signal
import struct
import threading
import warnings
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .baselines import bfs_search
from .graph import (
    DiGraph,
    LevelAssignment,
    _uint_array,
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


@dataclass(frozen=True)
class QueryOutcome:
    """Immutable: observation answers share one instance per tag (derive a
    changed copy with dataclasses.replace)."""

    answer: bool
    answered_by: str  # 'test:observation' or 'fallback:<name>'
    work: int = 0  # vertices expanded by the fallback; 0 for observation answers


@dataclass
class ReachIndex:
    """A built or loaded index.  It holds the stages' objects as they are
    given: the integer columns of wcc, levels and orderings are array('I')
    (see the module docstring)."""

    graph: DiGraph
    wcc: array
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
    from a k*p candidate pool.  Each stage draws from its own substream of
    seed, so the stages are independent and their order does not matter.

    With more than one CPU, orderings 1..t-1 are computed in one forked
    worker (see _Worker, and _forks for when the build stays inline) while
    this process runs the other stages and ordering 0; if the worker fails
    to deliver, its orderings are computed here.  The index, its bytes and
    any exception raised are the same either way, and the worker does not
    outlive the call.
    """
    if params is None:
        params = IndexParams()
    t = params.t
    streams = [(FORWARD, _substream(seed, "fwd", j)) for j in range((t + 1) // 2)]
    streams += [(BACKWARD, _substream(seed, "bwd", j)) for j in range(t // 2)]
    worker = None
    try:
        if _forks(dag, t):
            worker = _Worker.fork(dag, streams[1:])
        wcc = weak_components(dag)
        levels = topological_levels(dag)
        here = streams if worker is None else streams[:1]
        orderings = [_ordering(dag, *stream) for stream in here]
        crng = random.Random(_substream(seed, "cand"))
        pool = select_candidates(dag, levels, params.k, params.p, params.h, crng)
        supports = pick_supports(pool, dag, params.k, levels)
        if worker is not None:
            delivered = worker.collect(dag.n)
            if delivered is None:  # the worker failed: its orderings here
                delivered = [_ordering(dag, *stream) for stream in streams[1:]]
            orderings += delivered
    finally:
        if worker is not None:
            worker.stop()
    return ReachIndex(dag, wcc, levels, orderings, supports, params, seed)


def _ordering(dag: DiGraph, flavor: str, seed: int) -> ExtTopOrder:
    """One extended ordering of build_index, drawn from random.Random(seed)."""
    rng = random.Random(seed)
    if flavor == FORWARD:
        return extended_topsort(dag, start_sequence(dag, rng), rng, seed=seed)
    return extended_topsort_backward(dag, rng, seed=seed)


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Below this many vertices plus edges a fork costs more than the orderings
# it takes over: at n = 1024, m = 4n the two break even (15 ms; 2 CPUs),
# and a forked build of a 64-vertex graph took 4-8 ms against 2 ms inline.
_FORK_MIN_SIZE = 8192


def _forks(dag: DiGraph, t: int) -> bool:
    """Whether a build of t orderings forks a worker for orderings 1..t-1:
    with a spare CPU, but not for a small graph, without fork, or while
    other Python threads run (a forked child holds only the forking thread,
    so a lock another thread held at the fork would never be released
    there).  One worker only: the caller's own stages take longer than
    orderings 1..3, so with t = 4 a second worker would not shorten the
    build."""
    small = t <= 1 or dag.n + dag.m < _FORK_MIN_SIZE
    if small or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    return _cpus() > 1


class _Worker:
    """A forked process that computes some orderings of one build.

    It writes each ordering's pos, High/Low and Max/Min columns to a pipe,
    in order, as n raw uint32 cells each (the array('I') layout a
    ReachIndex holds), then leaves through os._exit: exit status 0 once
    everything is written, 1 on any exception.  It never returns into the
    caller's code, runs no exit handlers and prints nothing.
    """

    def __init__(self, pid: int, reader, streams) -> None:
        self.pid = pid
        self.reader = reader
        self.streams = streams

    @classmethod
    def fork(cls, dag: DiGraph, streams) -> _Worker | None:
        """A worker computing _ordering(dag, *stream) for each stream; None
        if the process could not be forked."""
        r, w = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork() whenever the OS counts more
                # than one thread.  Only one Python thread runs here (see
                # _forks); the others are native pools such as numpy's
                # BLAS threads, which the worker never calls into.
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            return None
        if pid == 0:
            code = 1
            try:
                os.close(r)
                # every ordering first, then the writes: the parent reads
                # only after its own stages, and a full pipe would block
                columns = []
                for stream in streams:
                    order = _ordering(dag, *stream)
                    columns += [order.pos, order.hi_or_lo, order.mx_or_mn]
                with open(w, "wb") as out:
                    for col in columns:
                        out.write(col)
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        return cls(pid, open(r, "rb"), streams)

    def collect(self, n: int) -> list[ExtTopOrder] | None:
        """The worker's orderings, read straight into array('I') columns,
        then the worker reaped.  None when it delivered short or exited
        nonzero."""
        columns = [array("I") for _ in range(3 * len(self.streams))]
        try:
            for col in columns:
                col.fromfile(self.reader, n)
        except EOFError:  # the worker delivered short
            columns = None
        self.reader.close()
        status = _reap(self.pid)
        self.pid = 0
        if columns is None or status != 0:
            return None
        return [
            ExtTopOrder(*columns[3 * j : 3 * j + 3], flavor=flavor, seed=seed)
            for j, (flavor, seed) in enumerate(self.streams)
        ]

    def stop(self) -> None:
        """Close the read end; unless reaped already, kill the worker, which
        may still be computing or blocked on the full pipe, and reap it."""
        self.reader.close()
        if self.pid:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            _reap(self.pid)
            self.pid = 0


def _reap(pid: int) -> int:
    """Wait for the child pid and return its wait status; 0 if it was reaped
    elsewhere (as when the caller sets SIGCHLD to SIG_IGN)."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return 0


# answer_T's observation -> its answer, and its tag in the first ordering (4)
# or a later one (6)
_T_ANSWER = {"B4": False, "T1": True, "T2": False, "T3": True, "T4": True, "T5": False, "T6": True}
_TAG4 = {obs: "4:" + obs for obs in _T_ANSWER}
_TAG6 = {obs: "6:" + obs for obs in _T_ANSWER}
# every tag try_observations returns -> the one outcome query() returns for
# it, so that an observation answer allocates nothing
_OUTCOMES = {
    tag: QueryOutcome(ans, tag)
    for tag, ans in [
        ("1:EQ", True),
        ("2:B5", False),
        ("2:B6", False),
        ("3:S1", True),
        *((_TAG4[obs], ans) for obs, ans in _T_ANSWER.items()),
        ("5:S2", False),
        ("5:S3", False),
        *((_TAG6[obs], ans) for obs, ans in _T_ANSWER.items()),
        ("7:B2", False),
        ("7:C", False),
    ]
}


def try_observations(
    ix: ReachIndex, s: int, t: int, stats: ObservationStats | None = None
) -> tuple[bool | None, str | None]:
    """Tests 1-7 in order: the first row of observation_table true for (s, t).

    Returns (answer, 'test:observation'); (None, None) when undecided.
    O(t + k) time, no adjacency access.  Given stats, also counts the first
    hit in stats.first_hit.
    """
    if stats is not None:
        ans, tag = try_observations(ix, s, t)
        if tag is not None:
            stats.first_hit[tag] += 1
        return ans, tag
    if s == t:
        return True, "1:EQ"
    # Test 2: levels.  <= rather than < is sound for s != t: a path forces a
    # strictly larger forward level and strictly smaller backward level.
    levels = ix.levels
    if levels.fwd[t] <= levels.fwd[s]:
        return False, "2:B5"
    if levels.bwd[s] <= levels.bwd[t]:
        return False, "2:B6"
    fm, bm = ix.supports.fwd_mask, ix.supports.bwd_mask
    if bm[s] & fm[t]:
        return True, "3:S1"
    orderings = ix.orderings
    if orderings:
        ans, obs = answer_T(orderings[0], s, t)
        if ans is not None:
            return ans, _TAG4[obs]
    if fm[s] & ~fm[t]:
        return False, "5:S2"
    if bm[t] & ~bm[s]:
        return False, "5:S3"
    for order in orderings[1:]:
        ans, obs = answer_T(order, s, t)
        if ans is not None:
            return ans, _TAG6[obs]
    if ix.wcc[s] != ix.wcc[t]:
        return False, "7:B2"
    # C, containment: s reaches t only if Max(t) <= Max(s) in a forward
    # ordering and Min(s) <= Min(t) in a backward one; both read mx_or_mn
    for order in orderings:
        mm = order.mx_or_mn
        if mm[t] > mm[s]:
            return False, "7:C"
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
    contained = np.zeros(len(S), dtype=bool)  # C over all orderings
    for j, o in enumerate(ix.orderings):
        test = 6 if j else 4
        ps, pt = u32(o.pos)[S], u32(o.pos)[T]
        x, y, after = u32(o.hi_or_lo), u32(o.mx_or_mn), ps < pt
        contained |= y[T] > y[S]  # Max(t) > Max(s), or Min(s) < Min(t)
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
        ("7:C", False, contained),
    ]


# ---------------------------------------------------------------------------
# fallback resolvers


@dataclass(frozen=True)
class Resolver:
    """Exact fallback: run(index, s, t) -> (answer, vertices expanded).
    tag is the answered_by of its outcomes, 'fallback:<name>'."""

    name: str
    run: Callable[[ReachIndex, int, int], tuple[bool, int]]
    tag: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tag", "fallback:" + self.name)


def _endpoint_test(ix: ReachIndex, x: int, towards: bool) -> Callable[[int], bool | None]:
    """Observations bound to the fixed endpoint x of one search side, for a
    v != x inside x's level window (B5 and B6 do not hold for the pair; the
    search checks that inline before the call).

    For such v, towards=True gives test(v) == try_observations(ix, v, x)[0]
    (forward side, x = t) and towards=False gives
    test(v) == try_observations(ix, x, v)[0] (backward side, x = s).  x's
    masks, component and ordering indices are read once.  Every observation
    is sound, so running them cheapest-first (S1, S2/S3, orderings, B2) gives
    the same verdict as the fixed test order.  Containment (C) runs inside
    each ordering's checks, in place of T2 and T5, which it subsumes: an own
    ordering compares Max(x) or Min(x), read once, where T2/T5 compared
    pos(x), and a fixed one reads Max(v) or Min(v) where T2/T5 compared
    pos(v).  B4 and the positive tests of a fixed ordering reduce to
    intervals of pos(v).
    """
    fm, bm = ix.supports.fwd_mask, ix.supports.bwd_mask
    wcc = ix.wcc
    fmx, bmx, wx = fm[x], bm[x], wcc[x]
    # own: the ordering's indices for v are read per call; fixed: pos(v) in
    # [a, b] or == cx proves the pair, pos(v) on the wrong side of pos(x)
    # refutes it (B4).  cx is Max(x) or Min(x), whichever the ordering keeps.
    own: list[tuple[array, array, array, int, int]] = []
    fixed: list[tuple[array, array, int, int, int]] = []
    for o in ix.orderings:
        px, cx = o.pos[x], o.mx_or_mn[x]
        if (o.flavor == FORWARD) == towards:
            own.append((o.pos, o.hi_or_lo, o.mx_or_mn, px, cx))
        elif towards:  # backward ordering, pair (v, x): [Low(x), pos(x)]
            fixed.append((o.pos, o.mx_or_mn, o.hi_or_lo[x], px, cx))
        else:  # forward ordering, pair (x, v): [pos(x), High(x)]
            fixed.append((o.pos, o.mx_or_mn, px, o.hi_or_lo[x], cx))

    if towards:

        def test(v: int) -> bool | None:
            if bm[v] & fmx:  # S1
                return True
            if fm[v] & ~fmx or bmx & ~bm[v]:  # S2, S3
                return False
            for pos, hi, mx, px, mxx in own:  # B4, T1, C, T3
                if px < pos[v]:
                    return False
                if px <= hi[v]:
                    return True
                m = mx[v]
                if m < mxx:  # C: Max(x) > Max(v)
                    return False
                if px == m:
                    return True
            for pos, mn, a, b, mnx in fixed:  # B4, C, T4, T6
                p = pos[v]
                if p > b or mn[v] < mnx:  # C: Min(v) < Min(x)
                    return False
                if a <= p or p == mnx:
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
            for pos, lo, mn, px, mnx in own:  # B4, T4, C, T6
                if pos[v] < px:
                    return False
                if lo[v] <= px:
                    return True
                m = mn[v]
                if m > mnx:  # C: Min(x) < Min(v)
                    return False
                if px == m:
                    return True
            for pos, mx, a, b, mxx in fixed:  # B4, C, T1, T3
                p = pos[v]
                if p < a or mx[v] > mxx:  # C: Max(v) > Max(x)
                    return False
                if p <= b or p == mxx:
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
    # per side: queue, offsets and targets, then the pair's level window in
    # the one form a[v] >= ax or b[v] <= bx (B5, B6), then the test; built on
    # first pop
    fwd = bwd = None
    work = 0
    while fq and bq:
        if len(fq) <= len(bq):
            if fwd is None:
                test = _endpoint_test(ix, t, True)
                fwd = (fq, g.out_off, g.out_tg, lf, lf[t], lb, lb[t], test)
            q, off, tg, a, ax, b, bx, test = fwd
        else:
            if bwd is None:
                test = _endpoint_test(ix, s, False)
                bwd = (bq, g.in_off, g.in_tg, lb, lb[s], lf, lf[s], test)
            q, off, tg, a, ax, b, bx, test = bwd
        u = q.popleft()
        work += 1
        for v in tg[off[u]:off[u + 1]]:
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

    An observation answer is the one shared outcome of its tag; a fallback
    answer is a new outcome that carries the search's work.
    Raises IndexError when s or t is not a vertex id in [0, n).
    """
    n = ix.graph.n
    if not (0 <= s < n and 0 <= t < n):  # inline: keeps a call off the hot path
        check_ids(n, s, t)
    ans, tag = try_observations(ix, s, t)
    if ans is not None:
        return _OUTCOMES[tag]
    resolver = fallback if fallback is not None else PBIBFS
    ans, work = resolver.run(ix, s, t)
    return QueryOutcome(ans, resolver.tag, work)


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
    wcc, fwd, bwd, *rest = [_uint_array(ints[:, i]) for i in range(3 + 3 * t)]
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

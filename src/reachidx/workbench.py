"""Experiment workbench: random DAGs, query sets, benchmarking, statistics.

Timing follows a fixed discipline: every repetition shuffles the query set
with its own permutation, a monotonic clock wraps the whole sequential query
loop, deterministic algorithms aggregate by median over repetitions, and
seeded algorithms by mean over seeds.  Answers are verified against expected
bits in a separate untimed pass; a mismatch is a hard error, not a statistic.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import IO, Callable, Sequence

import numpy as np

from .baselines import (
    ALGORITHM_NAMES,
    DEFAULT_MATRIX_CAP,
    QUERY_KINDS,
    CapacityError,
    InfeasibleError,
    bfs_query,
    build_matrix,
)
from .core import DiGraph, _digraph
from .index import (
    IndexParams,
    ObservationStats,
    ReachIndex,
    _substream,
    build_index,
    observation_stats,
    query,
    serialize_index,
)

class AnswerMismatchError(RuntimeError):
    """A benchmarked algorithm disagreed with an expected query bit."""


def gen_random_dag(n: int, m: int, seed: int) -> DiGraph:
    """Uniform G(n, m) DAG: m distinct vertex pairs, each edge oriented from
    the smaller to the larger id.

    The pairs are m distinct ranks in the lexicographic order of all
    n(n-1)/2 pairs (u, v), u < v, drawn with one random.Random(seed).sample.
    A rank is unranked exactly: S(u) = u(2n-1-u)/2 pairs have a source below
    u, so its source is the last u with S(u) <= rank."""
    if n < 0 or m < 0:
        raise ValueError(f"n and m must be >= 0, got n={n}, m={m}")
    max_m = n * (n - 1) // 2
    if m > max_m:
        raise CapacityError(f"m={m} exceeds n(n-1)/2={max_m} for n={n}")
    r = np.array(random.Random(seed).sample(range(max_m), m), dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    starts = ids * (2 * n - 1 - ids) // 2
    u = np.searchsorted(starts, r, side="right") - 1
    v = r - starts[u] + u + 1
    if not ((u < v).all() and (v < n).all() and (u >= 0).all()):
        raise AssertionError("pair unranking out of range")
    return _digraph(n, u, v)


@dataclass
class QuerySet:
    pairs: list[tuple[int, int]]
    kind: str
    seed: int
    expected: list[bool] | None = None
    name: str = ""

    @property
    def label(self) -> str:
        return self.name or self.kind


def gen_queries(
    g: DiGraph,
    kind: str,
    count: int,
    seed: int,
    oracle: Callable[[int, int], bool] | None = None,
) -> QuerySet:
    """Rejection-sample `count` non-trivial pairs of the requested kind.

    positive/negative filter through the oracle; random takes any s != t
    (expected bits filled when an oracle is supplied); mixed concatenates a
    fresh positive and a fresh negative set of `count` each, shuffled.
    The sampler gives up after n(n-1) consecutive rejections.
    """
    if kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if kind == "mixed":
        pos = gen_queries(g, "positive", count, _substream(seed, "mix-pos"), oracle)
        neg = gen_queries(g, "negative", count, _substream(seed, "mix-neg"), oracle)
        merged = list(zip(pos.pairs + neg.pairs, pos.expected + neg.expected))
        random.Random(_substream(seed, "mix-shuffle")).shuffle(merged)
        pairs = [pq for pq, _ in merged]
        expected = [e for _, e in merged]
        return QuerySet(pairs, "mixed", seed, expected)
    if kind in ("positive", "negative") and oracle is None:
        raise ValueError(f"{kind} query generation needs an oracle")
    n = g.n
    budget = n * (n - 1)
    rng = random.Random(seed)
    pairs: list[tuple[int, int]] = []
    expected: list[bool] | None = [] if kind != "random" or oracle else None
    misses = 0
    while len(pairs) < count:
        if misses >= budget:
            raise InfeasibleError(
                f"no acceptable {kind} pair after {misses} consecutive attempts"
            )
        s = rng.randrange(n) if n else 0
        t = rng.randrange(n) if n else 0
        if n < 2 or s == t:
            misses += 1
            continue
        if kind == "random":
            pairs.append((s, t))
            if expected is not None:
                expected.append(oracle(s, t))
            misses = 0
            continue
        ans = oracle(s, t)
        if ans != (kind == "positive"):
            misses += 1
            continue
        pairs.append((s, t))
        expected.append(ans)
        misses = 0
    return QuerySet(pairs, kind, seed, expected)


def build_oracle(
    g: DiGraph, cap_bytes: int = DEFAULT_MATRIX_CAP
) -> Callable[[int, int], bool]:
    """Exact oracle: full matrix when it fits the cap, else per-pair BFS."""
    try:
        mx = build_matrix(g, cap_bytes)
    except CapacityError:
        return lambda s, t: bfs_query(g, s, t)
    return mx.query


# ---------------------------------------------------------------------------
# query files


def save_query_set(
    qs: QuerySet, f: IO[str], original_ids: Sequence[int] | None = None
) -> None:
    ids = original_ids
    if ids is None:  # not `or`: a numpy array has no truth value
        ids = range(max((max(p) for p in qs.pairs), default=-1) + 1)
    expected = qs.expected or [None] * len(qs.pairs)
    for (s, t), exp in zip(qs.pairs, expected):
        if exp is None:
            f.write(f"{ids[s]} {ids[t]}\n")
        else:
            f.write(f"{ids[s]} {ids[t]} {int(exp)}\n")


# ---------------------------------------------------------------------------
# benchmarking


@dataclass
class BuiltAlgorithm:
    answer: Callable[[int, int], bool]
    build_ms: float
    index_bytes: int
    index: ReachIndex | None = None


def _build(
    name: str, g: DiGraph, seed: int, params: IndexParams | None, matrix_cap: int
) -> BuiltAlgorithm:
    """One build of the named algorithm; only the index reads the seed."""
    t0 = time.perf_counter()
    if name == "matrix":
        mx = build_matrix(g, matrix_cap)
        ms = (time.perf_counter() - t0) * 1e3
        return BuiltAlgorithm(mx.query, ms, g.n * ((g.n + 7) // 8))
    if name == "bfs":
        return BuiltAlgorithm(lambda s, t: bfs_query(g, s, t), 0.0, 0)
    ix = build_index(g, params, seed)
    ms = (time.perf_counter() - t0) * 1e3
    return BuiltAlgorithm(lambda s, t: query(ix, s, t).answer, ms, len(serialize_index(ix)), ix)


@dataclass
class BenchRow:
    algorithm: str
    query_set: str
    n_queries: int
    avg_us: float | None
    aggregation: str
    build_ms: float
    index_bytes: int
    fallback_rate: float | None


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    stats: dict[tuple[str, str], ObservationStats] = field(default_factory=dict)

    COLUMNS = (
        "algorithm",
        "query_set",
        "n_queries",
        "avg_us",
        "aggregation",
        "build_ms",
        "index_bytes",
        "fallback_rate",
    )

    def to_tsv(self) -> str:
        lines = ["\t".join(self.COLUMNS)]
        for r in self.rows:
            lines.append(
                "\t".join(
                    (
                        r.algorithm,
                        r.query_set,
                        str(r.n_queries),
                        f"{r.avg_us:.3f}" if r.avg_us is not None else "undefined",
                        r.aggregation,
                        f"{r.build_ms:.3f}",
                        str(r.index_bytes),
                        f"{r.fallback_rate:.6f}" if r.fallback_rate is not None else "-",
                    )
                )
            )
        return "\n".join(lines) + "\n"


def _timed_pass(
    built: BuiltAlgorithm, pairs: list[tuple[int, int]], shuffle_seed: int
) -> float:
    order = list(pairs)
    random.Random(shuffle_seed).shuffle(order)
    fn = built.answer
    t0 = time.perf_counter()
    for s, t in order:
        fn(s, t)
    return time.perf_counter() - t0


def _verify(built: BuiltAlgorithm, qs: QuerySet, algo: str) -> None:
    if qs.expected is None:
        return
    fn = built.answer
    for (s, t), exp in zip(qs.pairs, qs.expected):
        if exp is not None and fn(s, t) != exp:
            raise AnswerMismatchError(
                f"{algo} answered {not exp} for ({s}, {t}) on {qs.label!r}, "
                f"expected {exp}"
            )


def bench(
    g: DiGraph,
    names: Sequence[str],
    query_sets: Sequence[QuerySet],
    repetitions: int = 5,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    params: IndexParams | None = None,
    matrix_cap: int = DEFAULT_MATRIX_CAP,
) -> BenchReport:
    """Time every named algorithm (of ALGORITHM_NAMES) on every query set.

    The index, the one seeded algorithm, is built with `params` once per
    seed and timed once per build, shuffled by its seed, and reports the
    mean; any other is built once and timed `repetitions` times, shuffled
    by the repetition, and reports the median.  Every build is verified on
    every query set first."""
    for name in names:
        if name not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {name!r}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if not seeds:
        raise ValueError("seeds must not be empty")
    report = BenchReport()
    for name in names:
        if name == "index+pbibfs":
            build_seeds, passes = seeds, 1
            aggregate, aggregation = statistics.fmean, f"mean({len(seeds)} seeds)"
        else:
            build_seeds, passes = (0,), repetitions
            aggregate, aggregation = statistics.median, f"median({repetitions} reps)"
        builds = [(seed, _build(name, g, seed, params, matrix_cap)) for seed in build_seeds]
        for qs in query_sets:
            times: list[float] = []
            for seed, built in builds:
                _verify(built, qs, name)
                if qs.pairs:
                    times += [
                        _timed_pass(built, qs.pairs, _substream(qs.seed, "shuffle", seed + rep))
                        for rep in range(passes)
                    ]
            avg_us = aggregate(times) / len(qs.pairs) * 1e6 if times else None
            fallback_rate = None
            first = builds[0][1]
            if first.index is not None and qs.pairs:
                S, T = np.array(qs.pairs, dtype=np.int64).T
                st = observation_stats(first.index, S, T)
                report.stats[(name, qs.label)] = st
                fallback_rate = st.fallback_rate
            report.rows.append(
                BenchRow(
                    algorithm=name,
                    query_set=qs.label,
                    n_queries=len(qs.pairs),
                    avg_us=avg_us,
                    aggregation=aggregation,
                    build_ms=statistics.fmean(b.build_ms for _, b in builds),
                    index_bytes=first.index_bytes,
                    fallback_rate=fallback_rate,
                )
            )
    return report


# ---------------------------------------------------------------------------
# statistics report


def _tag_sort_key(tag: str) -> tuple[int, str]:
    test, _, obs = tag.partition(":")
    return (int(test), obs)


def stats_report(stats: ObservationStats, query_set: str = "-") -> str:
    """TSV: first-hit rows per test:observation, overlap rows per observation,
    then summary totals.  Shares are fractions of all queries."""
    lines = ["query_set\tsection\ttest\tobservation\tcount\tshare"]
    total = stats.queries or 1
    for tag in sorted(stats.first_hit, key=_tag_sort_key):
        test, _, obs = tag.partition(":")
        count = stats.first_hit[tag]
        lines.append(
            f"{query_set}\tfirst_hit\t{test}\t{obs}\t{count}\t{count / total:.6f}"
        )
    for obs in sorted(stats.overlap):
        count = stats.overlap[obs]
        lines.append(f"{query_set}\toverlap\t-\t{obs}\t{count}\t{count / total:.6f}")
    lines.append(
        f"{query_set}\tsummary\t-\tqueries\t{stats.queries}\t1.000000"
    )
    rate = stats.fallback_rate
    lines.append(
        f"{query_set}\tsummary\t-\tfallbacks\t{stats.fallbacks}\t"
        + (f"{rate:.6f}" if rate is not None else "-")
    )
    for outcome in ("reachable", "unreachable"):
        count = stats.outcomes.get(outcome, 0)
        lines.append(
            f"{query_set}\tsummary\t-\t{outcome}\t{count}\t{count / total:.6f}"
        )
    return "\n".join(lines) + "\n"

"""Acceptance gates for the reachability index.

One test per criterion, executed over a fixed 200-graph corpus (n in 2..64,
edge count uniform up to the maximum, five index seeds per graph) plus two
large generated instances.  Each test prints one `ACCEPTANCE <name>: PASS|FAIL`
line with the measured values; run with `pytest tests/test_acceptance.py -v -s`
to see them.  Soft coverage targets are reported; only hard floors abort.
"""

from __future__ import annotations

import dataclasses
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from reachidx.baselines import bfs_query, build_matrix
from reachidx.core import FORWARD
from reachidx.index import (
    HEADER,
    PBIBFS,
    _substream,
    build_index,
    deserialize_index,
    observation_table,
    payload_bytes_per_vertex,
    query,
    serialize_index,
    try_observations,
)
from reachidx.workbench import gen_queries, gen_random_dag

MASTER_SEED = 2026
CORPUS_SIZE = 200
INDEX_SEEDS = tuple(range(5))


@contextmanager
def criterion(name):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL {info['detail']}".rstrip())
        raise
    print(f"\nACCEPTANCE {name}: PASS {info['detail']}".rstrip())


# ---------------------------------------------------------------------------
# adjacency instrumentation: counts every read of the graph's CSR arrays


class _Touches:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class _CountingArray:
    """One CSR array: reading a cell or a slice counts as a touch."""

    __slots__ = ("_cells", "_touches")

    def __init__(self, cells, touches):
        self._cells = cells
        self._touches = touches

    def __getitem__(self, i):
        self._touches.count += 1
        return self._cells[i]

    def __len__(self):
        return len(self._cells)


CSR_FIELDS = ("out_off", "out_tg", "in_off", "in_tg")


class _GuardedGraph:
    """The graph's sizes, and every CSR array behind a counter: a search
    cannot reach a neighbour without a touch."""

    __slots__ = ("n", "m", *CSR_FIELDS)

    def __init__(self, g, touches):
        self.n = g.n
        self.m = g.m
        for name in CSR_FIELDS:
            setattr(self, name, _CountingArray(getattr(g, name), touches))


# ---------------------------------------------------------------------------
# shared corpus


@pytest.fixture(scope="session")
def corpus():
    t0 = time.perf_counter()
    graphs = []
    for i in range(CORPUS_SIZE):
        rng = random.Random(_substream(MASTER_SEED, "corpus", i))
        n = rng.randint(2, 64)
        m = rng.randint(0, n * (n - 1) // 2)
        g = gen_random_dag(n, m, seed=_substream(MASTER_SEED, "graph", i))
        graphs.append((g, build_matrix(g)))
    return {"graphs": graphs, "setup_s": time.perf_counter() - t0}


@pytest.fixture(scope="session")
def corpus_indexes(corpus):
    t0 = time.perf_counter()
    ixs = [
        [build_index(g, seed=s) for s in INDEX_SEEDS]
        for g, _ in corpus["graphs"]
    ]
    corpus["setup_s"] += time.perf_counter() - t0
    return ixs


@pytest.fixture(scope="session")
def corpus_sweep(corpus, corpus_indexes):
    """One pass over all ordered pairs, all graphs, all seeds, instrumented.

    Feeds the equivalence, soundness, and zero-traversal criteria without
    repeating the sweep three times.
    """
    touches = _Touches()
    res = {
        "queries": 0,
        "mismatches": 0,
        "unsound": 0,
        "touched": 0,
        "observation_answered": 0,
        "fallback_answered": 0,
        "fallback_untouched": 0,
        "setup_s": corpus["setup_s"],
    }
    t0 = time.perf_counter()
    for (g, mx), ixs in zip(corpus["graphs"], corpus_indexes):
        rows = mx.rows
        n = g.n
        for ix in ixs:
            guarded = dataclasses.replace(ix, graph=_GuardedGraph(g, touches))
            for s in range(n):
                row = rows[s]
                for t in range(n):
                    if s == t:
                        continue
                    before = touches.count
                    out = query(guarded, s, t)
                    res["queries"] += 1
                    if out.answer != ((row >> t) & 1):
                        res["mismatches"] += 1
                        if not out.answered_by.startswith("fallback"):
                            res["unsound"] += 1
                    if not out.answered_by.startswith("fallback"):
                        res["observation_answered"] += 1
                        if touches.count != before:
                            res["touched"] += 1
                    else:
                        res["fallback_answered"] += 1
                        if touches.count == before:
                            res["fallback_untouched"] += 1
    res["elapsed"] = time.perf_counter() - t0
    return res


@pytest.fixture(scope="session")
def coverage_instance():
    g = gen_random_dag(4096, 16384, seed=0)
    mx = build_matrix(g)
    return g, mx, build_index(g, seed=0)


# ---------------------------------------------------------------------------
# criteria


def test_exhaustive_oracle_equivalence(corpus_sweep):
    with criterion("oracle-equivalence") as info:
        total_s = corpus_sweep["setup_s"] + corpus_sweep["elapsed"]
        info["detail"] = (
            f"({corpus_sweep['queries']} queries over {CORPUS_SIZE} DAGs x "
            f"{len(INDEX_SEEDS)} seeds, {corpus_sweep['mismatches']} mismatches, "
            f"{total_s:.1f}s)"
        )
        assert corpus_sweep["mismatches"] == 0
        assert total_s < 120.0


def test_observation_soundness(corpus_sweep):
    with criterion("observation-soundness") as info:
        info["detail"] = (
            f"({corpus_sweep['observation_answered']} observation answers, "
            f"{corpus_sweep['unsound']} contradictions)"
        )
        assert corpus_sweep["unsound"] == 0


def test_ordering_negative_witness_count(corpus, corpus_indexes):
    """Each ordering's B4 row, over all ordered pairs, refutes exactly the
    half that the ordering inverts."""
    with criterion("ordering-negative-witnesses") as info:
        orderings = 0
        for (g, _mx), ixs in zip(corpus["graphs"], corpus_indexes):
            half = g.n * (g.n - 1) // 2
            S, T = np.divmod(np.arange(g.n * g.n), g.n)
            for ix in ixs:
                table = observation_table(ix, S, T)
                rows = [(tag, mask) for tag, _ans, mask in table if tag.endswith(":B4")]
                # one row per ordering, in order: the first in test 4, the rest in 6
                assert [tag for tag, _ in rows] == ["4:B4"] + ["6:B4"] * (len(ix.orderings) - 1)
                for _tag, mask in rows:
                    assert int(mask.sum()) == half
                    orderings += 1
        info["detail"] = f"({orderings} orderings, each exactly n(n-1)/2)"


def reachability(mx) -> float:
    """rho, the share of ordered pairs (s, t), s != t, where s reaches t,
    from the matrix rows, whose diagonal bits are all set."""
    n = mx.n
    return (sum(r.bit_count() for r in mx.rows) - n) / (n * (n - 1))


def test_reachability_bound_and_forced_order(corpus, corpus_indexes):
    with criterion("reachability-bound") as info:
        saturated = 0
        for (g, mx), ixs in zip(corpus["graphs"], corpus_indexes):
            rho = reachability(mx)
            assert rho <= 0.5
            if rho == 0.5:
                # reachability 1/2 forces a unique topological order, so
                # every seed must produce identical positions
                saturated += 1
                for other in ixs[1:]:
                    for a, b in zip(ixs[0].orderings, other.orderings):
                        assert a.pos == b.pos
        g4 = gen_random_dag(4, 6, seed=0)  # complete DAG pins the edge case
        assert reachability(build_matrix(g4)) == 0.5
        for a, b in zip(
            build_index(g4, seed=0).orderings, build_index(g4, seed=1).orderings
        ):
            assert a.pos == b.pos
        info["detail"] = (
            f"(rho <= 0.5 on all {CORPUS_SIZE} DAGs; {saturated} at exactly 0.5; "
            f"complete n=4 positions identical across seeds)"
        )


def test_serialized_layout_bytes_per_vertex(corpus, corpus_indexes):
    with criterion("index-layout") as info:
        assert payload_bytes_per_vertex(4, 16) == 64
        sizes = []
        for i in (0, 1, 2):
            g, _ = corpus["graphs"][i]
            blob = serialize_index(corpus_indexes[i][0])
            assert len(blob) - HEADER.size == 64 * g.n
            sizes.append(g.n)
        info["detail"] = f"(64 B/vertex at t=4 k=16 on n={sizes})"


def test_high_max_certificates(corpus, corpus_indexes):
    with criterion("high-max-certificates") as info:
        checked = 0
        for (g, mx), ixs in zip(corpus["graphs"], corpus_indexes):
            reach = mx.to_dense()
            for ix in ixs:
                for order in ix.orderings:
                    pos = np.asarray(order.pos)
                    by_pos = np.argsort(pos)
                    # reach in the ordering's own graph: the reverse one for
                    # a backward ordering
                    own = reach if order.flavor == FORWARD else reach.T
                    grid = own[:, by_pos]
                    for v in range(g.n):
                        row = grid[v]
                        p, a, b = pos[v], order.hi[v], order.mx[v]
                        # [pos, High] certified; Max is the last hit
                        assert row[p : a + 1].all()
                        assert np.flatnonzero(row).max() == b
                        checked += 1
        info["detail"] = f"({checked} per-vertex certificates)"


def test_negative_query_coverage(coverage_instance):
    with criterion("negative-coverage") as info:
        g, mx, ix = coverage_instance
        qs = gen_queries(g, "negative", 10_000, seed=1, oracle=mx.query)
        wrong = 0
        decided = 0
        for s, t in qs.pairs:
            ans, _ = try_observations(ix, s, t)
            if ans is not None:
                decided += 1
                wrong += ans is True
        rate = decided / len(qs.pairs)
        soft = "met" if rate >= 0.85 else "MISSED"
        info["detail"] = (
            f"(rate {rate:.4f} on G(2^12, 2^14); soft target 0.85 {soft}; "
            f"hard floor 0.70)"
        )
        assert wrong == 0
        assert rate >= 0.70


def test_positive_query_coverage(coverage_instance):
    with criterion("positive-coverage") as info:
        g, mx, ix = coverage_instance
        qs = gen_queries(g, "positive", 10_000, seed=2, oracle=mx.query)
        wrong = 0
        decided = 0
        for s, t in qs.pairs:
            ans, _ = try_observations(ix, s, t)
            if ans is not None:
                decided += 1
                wrong += ans is False
        rate = decided / len(qs.pairs)
        soft = "met" if rate >= 0.50 else "MISSED"
        info["detail"] = (
            f"(rate {rate:.4f} on G(2^12, 2^14); soft target 0.50 {soft}; "
            f"hard floor 0.30)"
        )
        assert wrong == 0
        assert rate >= 0.30


def test_zero_traversal_for_observation_answers(corpus_sweep):
    with criterion("zero-traversal") as info:
        info["detail"] = (
            f"({corpus_sweep['observation_answered']} observation answers, "
            f"{corpus_sweep['touched']} adjacency accesses; "
            f"{corpus_sweep['fallback_answered']} fallback answers, "
            f"{corpus_sweep['fallback_untouched']} without one)"
        )
        assert corpus_sweep["observation_answered"] > 0
        assert corpus_sweep["touched"] == 0
        # the guard is live: a search that bypassed it would touch nothing
        assert corpus_sweep["fallback_answered"] > 0
        assert corpus_sweep["fallback_untouched"] == 0


def test_build_time_and_fallback_work_bound():
    with criterion("build-time-and-search-bound") as info:
        g = gen_random_dag(2**16, 2**18, seed=0)
        t0 = time.perf_counter()
        ix = build_index(g, seed=0)
        build_s = time.perf_counter() - t0
        # each search side pops a vertex at most once
        cap = 2 * (g.n + 1)
        rng = random.Random(123)
        max_work = 0
        for i in range(2000):
            s, t = rng.randrange(g.n), rng.randrange(g.n)
            ans, work = PBIBFS.run(ix, s, t)
            assert work <= cap
            max_work = max(max_work, work)
            if i < 100:
                assert ans == bfs_query(g, s, t)
        info["detail"] = (
            f"(build {build_s:.2f}s < 60s on G(2^16, 2^18); "
            f"max search work {max_work} <= {cap})"
        )
        assert build_s < 60.0


def test_serialization_roundtrip_answers(corpus, corpus_indexes):
    with criterion("serialization-roundtrip") as info:
        pairs = 0
        for i, ((g, _), ixs) in enumerate(zip(corpus["graphs"], corpus_indexes)):
            ix = ixs[0]
            loaded = deserialize_index(serialize_index(ix), g)
            rng = random.Random(_substream(MASTER_SEED, "roundtrip", i))
            for _ in range(10_000):
                s, t = rng.randrange(g.n), rng.randrange(g.n)
                a = query(ix, s, t)
                b = query(loaded, s, t)
                assert (a.answer, a.answered_by) == (b.answer, b.answered_by)
                pairs += 1
        info["detail"] = f"({pairs} sampled pairs across {CORPUS_SIZE} graphs)"

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachidx.baselines import build_matrix, matrix_query
from reachidx.graph import AcyclicityError, DiGraph
from reachidx.toporder import (
    BACKWARD,
    FORWARD,
    answer_T,
    extended_topsort,
    extended_topsort_backward,
    ordering_analysis,
    start_sequence,
)

from conftest import (
    NoShuffle,
    brute_reach_sets,
    dags,
    diamond,
    edge_pairs,
    path_graph,
    predecessors,
)


def two_edges() -> DiGraph:
    return DiGraph.from_edges(4, [(0, 1), (2, 3)])


# ---------------------------------------------------------------------------
# frozen traces (hand-derived, deterministic child order via NoShuffle)


def test_forward_trace_diamond():
    o = extended_topsort(diamond(), [0], NoShuffle())
    assert o.flavor == FORWARD
    assert list(o.pos) == [0, 2, 1, 3]
    assert list(o.hi_or_lo) == [3, 3, 1, 3]
    assert list(o.mx_or_mn) == [3, 3, 3, 3]


def test_forward_trace_path():
    o = extended_topsort(path_graph(4), [0], NoShuffle())
    assert list(o.pos) == [0, 1, 2, 3]
    assert list(o.hi_or_lo) == [3, 3, 3, 3]
    assert list(o.mx_or_mn) == [3, 3, 3, 3]


def test_forward_trace_edgeless_respects_start_order():
    o = extended_topsort(DiGraph.from_edges(2, []), [0, 1], NoShuffle())
    assert list(o.pos) == [1, 0]
    assert list(o.hi_or_lo) == [1, 0]
    assert list(o.mx_or_mn) == [1, 0]


def test_forward_trace_two_components():
    o = extended_topsort(two_edges(), [0, 2], NoShuffle())
    assert list(o.pos) == [2, 3, 0, 1]
    assert list(o.hi_or_lo) == [3, 3, 1, 1]
    assert list(o.mx_or_mn) == [3, 3, 1, 1]


def test_backward_trace_path():
    o = extended_topsort_backward(path_graph(3), NoShuffle())
    assert o.flavor == BACKWARD
    assert list(o.pos) == [0, 1, 2]
    assert list(o.hi_or_lo) == [0, 0, 0]  # Low
    assert list(o.mx_or_mn) == [0, 0, 0]  # Min


def test_backward_trace_diamond():
    o = extended_topsort_backward(diamond(), NoShuffle())
    assert list(o.pos) == [0, 1, 2, 3]
    assert list(o.hi_or_lo) == [0, 0, 2, 0]
    assert list(o.mx_or_mn) == [0, 0, 0, 0]


def test_cycle_raises():
    g = DiGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(AcyclicityError):
        extended_topsort(g, [0], NoShuffle())


# ---------------------------------------------------------------------------
# observation tags, each exercised on a frozen ordering


def test_answer_tags_forward():
    o = extended_topsort(diamond(), [0], NoShuffle())
    assert answer_T(o, 1, 2) == (False, "B4")  # pos inverted
    assert answer_T(o, 0, 3) == (True, "T1")  # inside certified range
    assert answer_T(o, 2, 3) == (True, "T3")  # lands exactly on Max
    assert answer_T(o, 2, 1) == (None, None)  # genuinely undecided
    o2 = extended_topsort(two_edges(), [0, 2], NoShuffle())
    assert answer_T(o2, 2, 1) == (False, "T2")  # beyond Max


def test_answer_tags_backward():
    o = extended_topsort_backward(diamond(), NoShuffle())
    assert answer_T(o, 0, 3) == (True, "T4")  # inside certified range
    assert answer_T(o, 0, 2) == (True, "T6")  # sits exactly on Min
    assert answer_T(o, 2, 1) == (False, "B4")
    assert answer_T(o, 1, 2) == (None, None)
    edges = DiGraph.from_edges(4, [(0, 1), (2, 3)])
    o2 = extended_topsort_backward(edges, NoShuffle())
    assert answer_T(o2, 0, 3) == (False, "T5")  # before Min


class Keys:
    """random.Random stand-in whose randbytes returns the given 32-bit keys,
    one list per call, and checks that the call asks for as many."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def randbytes(self, k):
        keys = self.draws.pop(0)
        assert k == 4 * len(keys)
        return np.array(keys, dtype="<u4").tobytes()


def test_children_visited_in_key_order_ties_in_stored_order():
    star = DiGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    # one key per edge in stored order: visit 2, 3, 1, so 2 finishes first, at n-1
    o = extended_topsort(star, [0], Keys([3, 1, 2]))
    assert list(o.pos) == [0, 1, 3, 2]
    # equal keys keep the stored order: visit 3, then 1, then 2
    o = extended_topsort(star, [0], Keys([5, 5, 0]))
    assert list(o.pos) == [0, 2, 1, 3]
    # all-zero keys: children in stored order, so the first child finishes first, at n-1
    wide = DiGraph.from_edges(41, [(0, v) for v in range(1, 41)])
    assert list(extended_topsort(wide, [0], NoShuffle()).pos) == [0] + list(range(40, 0, -1))


def test_start_sequence_is_keyed_sources_first():
    g = two_edges()  # sources 0 and 2
    assert start_sequence(g, Keys([7, 9, 1, 0])) == [2, 0, 3, 1]
    assert start_sequence(g, Keys([4, 4, 4, 4])) == [0, 2, 1, 3]
    assert start_sequence(g, NoShuffle()) == [0, 2, 1, 3]
    pairs = DiGraph.from_edges(60, [(v, v + 1) for v in range(0, 60, 2)])
    assert start_sequence(pairs, NoShuffle()) == list(range(0, 60, 2)) + list(range(1, 60, 2))


def test_each_draw_takes_one_key_per_vertex_then_per_edge():
    g = two_edges()
    rng = Keys([0] * 4, [0] * 2, [0] * 4, [0] * 2)
    a = extended_topsort(g, start_sequence(g, rng), rng)
    b = extended_topsort_backward(g, rng)
    assert (list(a.pos), list(b.pos)) == ([2, 3, 0, 1], [0, 1, 2, 3])
    assert rng.draws == []


# ---------------------------------------------------------------------------
# properties


@given(dags(max_n=14), st.integers(0, 2**32 - 1))
def test_forward_is_topological_permutation(g, seed):
    rng = random.Random(seed)
    o = extended_topsort(g, start_sequence(g, rng), rng, seed=seed)
    assert sorted(o.pos) == list(range(g.n))
    for u, v in edge_pairs(g):
        assert o.pos[u] < o.pos[v]


@given(dags(max_n=14), st.integers(0, 2**32 - 1))
@example(DiGraph.from_edges(0, []), 0)  # n - 1 = -1 in the mirror
@example(DiGraph.from_edges(1, []), 0)
def test_backward_is_topological_permutation(g, seed):
    o = extended_topsort_backward(g, random.Random(seed), seed=seed)
    assert sorted(o.pos) == list(range(g.n))
    for u, v in edge_pairs(g):
        assert o.pos[u] < o.pos[v]


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**32 - 1))
def test_high_range_certified_and_max_exact(g, seed):
    rng = random.Random(seed)
    o = extended_topsort(g, start_sequence(g, rng), rng)
    reach = brute_reach_sets(g)
    by_pos = sorted(range(g.n), key=lambda v: o.pos[v])
    for v in range(g.n):
        assert o.pos[v] <= o.hi_or_lo[v] <= o.mx_or_mn[v]
        for p in range(o.pos[v], o.hi_or_lo[v] + 1):
            assert by_pos[p] in reach[v]
        assert o.mx_or_mn[v] == max(o.pos[w] for w in reach[v])


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**32 - 1))
@example(DiGraph.from_edges(0, []), 0)
@example(DiGraph.from_edges(1, []), 0)
def test_low_range_certified_and_min_exact(g, seed):
    o = extended_topsort_backward(g, random.Random(seed))
    reach = brute_reach_sets(g)
    reachers = [set() for _ in range(g.n)]
    for s in range(g.n):
        for t in reach[s]:
            reachers[t].add(s)
    by_pos = sorted(range(g.n), key=lambda v: o.pos[v])
    for v in range(g.n):
        assert o.mx_or_mn[v] <= o.hi_or_lo[v] <= o.pos[v]
        for p in range(o.hi_or_lo[v], o.pos[v] + 1):
            assert by_pos[p] in reachers[v]
        assert o.mx_or_mn[v] == min(o.pos[w] for w in reachers[v])


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**32 - 1), st.booleans())
def test_answer_is_sound(g, seed, backward):
    rng = random.Random(seed)
    if backward:
        o = extended_topsort_backward(g, rng)
    else:
        o = extended_topsort(g, start_sequence(g, rng), rng)
    mx = build_matrix(g)
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            ans, obs = answer_T(o, s, t)
            if ans is None:
                assert obs is None
            else:
                assert ans == matrix_query(mx, s, t), (s, t, obs)


@given(dags(max_n=14), st.integers(0, 2**32 - 1))
def test_same_seed_reproduces_ordering(g, seed):
    def build():
        rng = random.Random(seed)
        return extended_topsort(g, start_sequence(g, rng), rng, seed=seed)

    a, b = build(), build()
    assert a == b


@given(dags(max_n=14), st.integers(0, 2**32 - 1))
def test_start_sequence_sources_first(g, seed):
    seq = start_sequence(g, random.Random(seed))
    assert sorted(seq) == list(range(g.n))
    n_sources = sum(1 for v in range(g.n) if not predecessors(g, v))
    assert all(not predecessors(g, v) for v in seq[:n_sources])


# ---------------------------------------------------------------------------
# per-ordering witness analysis


def test_analysis_path_fully_witnessed():
    g = path_graph(4)
    o = extended_topsort(g, [0], NoShuffle())
    rep = ordering_analysis(o, build_matrix(g))
    assert rep.neg_witnessed == 6 and rep.neg_total == 6
    assert rep.pos_answered == 6 and rep.pos_total == 6
    assert rep.rho_neg == 1.0 and rep.rho_pos == 1.0


def test_analysis_edgeless():
    g = DiGraph.from_edges(3, [])
    o = extended_topsort(g, [0, 1, 2], NoShuffle())
    rep = ordering_analysis(o, build_matrix(g))
    assert rep.neg_witnessed == 3 and rep.neg_total == 6
    assert rep.rho_neg == 0.5
    assert rep.pos_total == 0 and rep.rho_pos is None


@settings(max_examples=50)
@given(dags(max_n=12, min_n=2), st.integers(0, 2**32 - 1))
def test_analysis_negative_count_is_half_the_pairs(g, seed):
    rng = random.Random(seed)
    o = extended_topsort(g, start_sequence(g, rng), rng)
    mx = build_matrix(g)
    rep = ordering_analysis(o, mx)
    assert rep.neg_witnessed == g.n * (g.n - 1) // 2
    assert rep.neg_total + rep.pos_total == g.n * (g.n - 1)
    assert rep.pos_answered <= rep.pos_total

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reachidx.baselines import build_matrix
from reachidx.graph import AcyclicityError, DiGraph, topological_levels
from reachidx.index import IndexParams, build_index, observation_table
from reachidx.toporder import (
    BACKWARD,
    FORWARD,
    extended_topsort,
    extended_topsort_backward,
    _keyed_order,
    start_sequence,
)
from reachidx.workbench import gen_random_dag

from conftest import (
    FOLD_REGIMES,
    NoShuffle,
    brute_reach_sets,
    dags,
    diamond,
    edge_pairs,
    fold_regime,
    layered_dag,
    out_star,
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
    assert list(o.hi) == [3, 3, 1, 3]
    assert list(o.mx) == [3, 3, 3, 3]


def test_forward_trace_path():
    o = extended_topsort(path_graph(4), [0], NoShuffle())
    assert list(o.pos) == [0, 1, 2, 3]
    assert list(o.hi) == [3, 3, 3, 3]
    assert list(o.mx) == [3, 3, 3, 3]


def test_forward_trace_edgeless_respects_start_order():
    o = extended_topsort(DiGraph.from_edges(2, []), [0, 1], NoShuffle())
    assert list(o.pos) == [1, 0]
    assert list(o.hi) == [1, 0]
    assert list(o.mx) == [1, 0]


def test_forward_trace_two_components():
    o = extended_topsort(two_edges(), [0, 2], NoShuffle())
    assert list(o.pos) == [2, 3, 0, 1]
    assert list(o.hi) == [3, 3, 1, 1]
    assert list(o.mx) == [3, 3, 1, 1]


def test_backward_trace_path():
    o = extended_topsort_backward(path_graph(3), NoShuffle())
    assert o.flavor == BACKWARD
    assert list(o.pos) == [2, 1, 0]  # in the reverse graph: 2 -> 1 -> 0
    assert list(o.hi) == [2, 2, 2]
    assert list(o.mx) == [2, 2, 2]


def test_backward_trace_diamond():
    o = extended_topsort_backward(diamond(), NoShuffle())
    assert list(o.pos) == [3, 2, 1, 0]
    assert list(o.hi) == [3, 3, 1, 3]
    assert list(o.mx) == [3, 3, 3, 3]


def test_cycle_raises():
    g = DiGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(AcyclicityError):
        extended_topsort(g, [0], NoShuffle())


def test_backward_cycle_raises_before_drawing():
    g = DiGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(AcyclicityError):
        extended_topsort_backward(g, Keys())  # any draw would fail: no keys


# ---------------------------------------------------------------------------
# observation tags, each exercised on a frozen ordering


def ordering_block(g: DiGraph, o, A, B) -> list[tuple[str, bool, np.ndarray]]:
    """o's block of observation_table, on an index of g whose one ordering
    is o, as (observation, answer, mask) rows in test order, where mask[i]
    says the row proves answer for the pair (A[i], B[i]) of the ordering's
    own graph: (s, t) of g for a forward ordering, (t, s) for a backward one."""
    ix = dataclasses.replace(build_index(g, IndexParams(t=1, k=0)), orderings=[o])
    S, T = (B, A) if o.flavor == BACKWARD else (A, B)
    return [(tag[2:], ans, mask) for tag, ans, mask in observation_table(ix, S, T) if tag[0] == "4"]


def rows_for(g: DiGraph, o, a, b) -> list[tuple[str, bool]]:
    """The (observation, answer) of each row of o's block that holds for
    the one pair (a, b) of the ordering's own graph, in test order."""
    return [(obs, ans) for obs, ans, mask in ordering_block(g, o, [a], [b]) if mask[0]]


def first_row(g: DiGraph, o, a, b) -> tuple[bool | None, str | None]:
    """(answer, observation) of the first row that holds, as a query takes
    it; (None, None) when none does."""
    return next(((ans, obs) for obs, ans in rows_for(g, o, a, b)), (None, None))


def test_row_tags_forward():
    g = diamond()
    o = extended_topsort(g, [0], NoShuffle())
    assert first_row(g, o, 1, 2) == (False, "B4")  # pos inverted
    assert first_row(g, o, 0, 3) == (True, "T1")  # inside certified range
    assert first_row(g, o, 2, 3) == (True, "T3")  # lands exactly on Max
    assert first_row(g, o, 2, 1) == (None, None)  # genuinely undecided
    g2 = two_edges()
    o2 = extended_topsort(g2, [0, 2], NoShuffle())
    assert first_row(g2, o2, 2, 1) == (False, "T2")  # beyond Max
    # T1 and T3 both hold where pos(b) = High(a) = Max(a)
    assert (o.pos[3], o.hi[0], o.mx[0]) == (3, 3, 3)
    assert rows_for(g, o, 0, 3) == [("T1", True), ("T3", True)]


def test_row_tags_backward():
    """The backward rows read (t, s), the pair in the reverse graph."""
    g = diamond()
    o = extended_topsort_backward(g, NoShuffle())
    assert first_row(g, o, 3, 0) == (True, "T4")  # inside certified range
    assert first_row(g, o, 2, 0) == (True, "T6")  # sits exactly on Min
    assert first_row(g, o, 1, 2) == (False, "B4")
    assert first_row(g, o, 2, 1) == (None, None)
    g2 = two_edges()
    o2 = extended_topsort_backward(g2, NoShuffle())
    assert first_row(g2, o2, 3, 0) == (False, "T5")  # before Min


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
    """The sources alone, keyed: one key is drawn per vertex all the same,
    so the keys of 1 and 3 go unused."""
    g = two_edges()  # sources 0 and 2
    assert start_sequence(g, Keys([7, 9, 1, 0])) == [2, 0]
    assert start_sequence(g, Keys([4, 4, 4, 4])) == [0, 2]
    assert start_sequence(g, NoShuffle()) == [0, 2]
    pairs = DiGraph.from_edges(60, [(v, v + 1) for v in range(0, 60, 2)])
    assert start_sequence(pairs, NoShuffle()) == list(range(0, 60, 2))


# keys that tie, that tie in one 16-bit digit only, and that order
# differently by their low digit than by the whole key
DIGIT_KEYS = [0, 1, 0xFFFF, 0x10000, 0x10001, 0x1FFFF, 0xFFFF0000, 0xFFFF0001, 2**32 - 1]


def keyed_reference(g: DiGraph, rng) -> list[int]:
    """start_sequence as one stable argsort of (has an in-edge, key) words,
    cut after the sources."""
    has_in = np.diff(np.frombuffer(g.in_off, np.uint32)) > 0
    return _keyed_order(has_in.astype(np.int64), rng)[: g.n - int(has_in.sum())].tolist()


@settings(max_examples=150)
@given(dags(max_n=16), st.data())
def test_start_sequence_is_the_keyed_order(g, data):
    """The two 16-bit counting sorts and the filter give the sources in the
    order of one stable argsort of (has an in-edge, key), ties and all."""
    kind = data.draw(st.sampled_from(["seed", "digits", "none"]))
    if kind == "seed":
        seed = data.draw(st.integers(0, 2**32 - 1))
        a, b = random.Random(seed), random.Random(seed)
    elif kind == "digits":
        keys = data.draw(st.lists(st.sampled_from(DIGIT_KEYS), min_size=g.n, max_size=g.n))
        a, b = Keys(keys), Keys(keys)
    else:
        a, b = NoShuffle(), NoShuffle()
    assert start_sequence(g, a) == keyed_reference(g, b)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_start_sequence_is_the_keyed_order_on_a_large_graph(seed):
    g = gen_random_dag(5000, 20000, seed)
    assert start_sequence(g, random.Random(seed)) == keyed_reference(g, random.Random(seed))


def test_each_draw_takes_one_key_per_vertex_then_per_edge():
    g = two_edges()
    rng = Keys([0] * 4, [0] * 2, [0] * 4, [0] * 2)
    a = extended_topsort(g, start_sequence(g, rng), rng)
    b = extended_topsort_backward(g, rng)
    assert (list(a.pos), list(b.pos)) == ([2, 3, 0, 1], [3, 2, 1, 0])
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
@example(DiGraph.from_edges(0, []), 0)
@example(DiGraph.from_edges(1, []), 0)
def test_backward_is_topological_permutation(g, seed):
    """Topological in the reverse graph: every edge (u, v) is placed v first."""
    o = extended_topsort_backward(g, random.Random(seed), seed=seed)
    assert sorted(o.pos) == list(range(g.n))
    for u, v in edge_pairs(g):
        assert o.pos[v] < o.pos[u]


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**32 - 1))
def test_high_range_certified_and_max_exact(g, seed):
    """v reaches every vertex placed in [pos(v), High(v)], and Max(v) is the
    last position v reaches."""
    rng = random.Random(seed)
    o = extended_topsort(g, start_sequence(g, rng), rng)
    assert o.flavor == FORWARD
    reach = brute_reach_sets(g)
    by_pos = sorted(range(g.n), key=lambda v: o.pos[v])
    for v in range(g.n):
        assert o.pos[v] <= o.hi[v] <= o.mx[v]
        for p in range(o.pos[v], o.hi[v] + 1):
            assert by_pos[p] in reach[v]
        assert o.mx[v] == max(o.pos[w] for w in reach[v])


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**32 - 1))
@example(DiGraph.from_edges(0, []), 0)
@example(DiGraph.from_edges(1, []), 0)
def test_low_range_certified_and_min_exact(g, seed):
    """A backward ordering keeps High/Max in the reverse graph's coordinates;
    mirrored into the DAG's top-down order (position n-1-p) they are Low/Min:
    every vertex placed in [Low(v), pos(v)] reaches v, and Min(v) is the
    first position of a vertex that reaches v."""
    o = extended_topsort_backward(g, random.Random(seed))
    assert o.flavor == BACKWARD
    last = g.n - 1
    pos = [last - p for p in o.pos]
    lo = [last - h for h in o.hi]
    mn = [last - m for m in o.mx]
    reach = brute_reach_sets(g)
    reachers = [set() for _ in range(g.n)]
    for s in range(g.n):
        for t in reach[s]:
            reachers[t].add(s)
    by_pos = sorted(range(g.n), key=lambda v: pos[v])
    for v in range(g.n):
        assert mn[v] <= lo[v] <= pos[v]
        for p in range(lo[v], pos[v] + 1):
            assert by_pos[p] in reachers[v]
        assert mn[v] == min(pos[w] for w in reachers[v])


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**32 - 1), st.booleans())
def test_rows_are_sound_and_decide_at_most_one_answer(g, seed, backward):
    """Over every ordered pair (s, t), the rows read (s, t) forward and
    (t, s) backward; each row that holds gives the oracle's answer, B4 and
    T2 hold alone, and no row holds for s == t."""
    rng = random.Random(seed)
    if backward:
        o = extended_topsort_backward(g, rng)
    else:
        o = extended_topsort(g, start_sequence(g, rng), rng)
    S, T = np.divmod(np.arange(g.n * g.n), g.n)
    rows = ordering_block(g, o, T, S) if backward else ordering_block(g, o, S, T)
    assert [obs for obs, _ans, _mask in rows] == (
        ["B4", "T4", "T5", "T6"] if backward else ["B4", "T1", "T2", "T3"]
    )
    reach = build_matrix(g).to_dense()[S, T]
    for _obs, ans, mask in rows:
        assert (reach[mask] == ans).all()
    b4, p1, t2, p3 = (mask for *_, mask in rows)
    assert (b4.astype(int) + t2 + (p1 | p3) <= 1).all()
    assert not (b4 | p1 | t2 | p3)[S == T].any()


@given(dags(max_n=14), st.integers(0, 2**32 - 1))
def test_same_seed_reproduces_ordering(g, seed):
    def build():
        rng = random.Random(seed)
        return extended_topsort(g, start_sequence(g, rng), rng, seed=seed)

    a, b = build(), build()
    assert a == b


@given(dags(max_n=14), st.integers(0, 2**32 - 1))
def test_start_sequence_sources_first(g, seed):
    """The sequence holds each source once and nothing else, and roots the
    ordering that the sources followed by every other vertex root: the DFS
    from the sources places every vertex of a DAG."""
    rng = random.Random(seed)
    seq = start_sequence(g, rng)
    assert sorted(seq) == [v for v in range(g.n) if not predecessors(g, v)]
    state = rng.getstate()
    o = extended_topsort(g, seq, rng)
    rng.setstate(state)
    assert o == extended_topsort(g, seq + [v for v in range(g.n) if predecessors(g, v)], rng)


def test_a_start_id_out_of_range_is_refused_before_the_dfs():
    """A negative id used to read hi[-1], vertex n-1's, and built an ordering
    that broke the edge 1 -> 0; an id >= n failed in the DFS.  Every id is
    checked first, the smallest named if negative, else the largest, and
    nothing is drawn from the rng."""
    g = DiGraph.from_edges(2, [(1, 0)])
    for start, bad in (([-1], -1), ([2], 2), ([0, 5, -3], -3), ([1, 0, 2], 2)):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(IndexError, match=f"^vertex id {bad} out of range for n=2$"):
            extended_topsort(g, start, rng)
        assert rng.getstate() == state
    assert list(extended_topsort(g, [0, 1], random.Random(0)).pos) == [1, 0]


def test_the_guard_pass_places_what_the_start_order_leaves_out():
    # no start order: the guard pass roots a DFS at 0, then at 2
    o = extended_topsort(two_edges(), [], NoShuffle())
    assert (list(o.pos), list(o.hi), list(o.mx)) == ([2, 3, 0, 1], [3, 3, 1, 1], [3, 3, 1, 1])
    # a start order of one sink: 3 is placed last, the rest by the guard pass
    o = extended_topsort(two_edges(), [3], NoShuffle())
    assert list(o.pos) == [1, 2, 0, 3]


@settings(max_examples=100, deadline=None)
@given(dags(max_n=14), st.data(), st.integers(0, 2**32 - 1))
def test_a_partial_start_order_still_places_every_vertex(g, data, seed):
    """Roots the start order leaves out are taken in id order by the guard
    pass, as the reference's DFS over start_order + range(n) takes them."""
    start = data.draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n))
    rng = random.Random(seed)
    o = extended_topsort(g, start, rng)
    assert sorted(o.pos) == list(range(g.n))
    ref = reference_extended_topsort(g, start, random.Random(seed))
    assert (o.pos.tolist(), o.hi.tolist(), o.mx.tolist()) == ref


# ---------------------------------------------------------------------------
# per-ordering witness counts


def block_counts(g: DiGraph, o) -> tuple[int, int]:
    """(pairs B4 refutes, pairs T1 or T3 proves) over every ordered pair,
    from o's block (T4 and T6 name T1 and T3 on a backward ordering)."""
    A, B = np.divmod(np.arange(g.n * g.n), g.n)
    b4, t1, _t2, t3 = (mask for *_, mask in ordering_block(g, o, A, B))
    return int(b4.sum()), int((t1 | t3).sum())


def reachable_pairs(g: DiGraph) -> int:
    """Ordered pairs (s, t), s != t, where s reaches t: the matrix rows'
    bits but their diagonal ones."""
    return sum(row.bit_count() for row in build_matrix(g).rows) - g.n


def test_analysis_path_fully_witnessed():
    """Either flavor of ordering of a path witnesses every pair."""
    g = path_graph(4)
    assert reachable_pairs(g) == 6
    for o in (extended_topsort(g, [0], NoShuffle()), extended_topsort_backward(g, NoShuffle())):
        assert block_counts(g, o) == reference_analysis_counts(o) == (6, 6)


def test_analysis_edgeless():
    g = DiGraph.from_edges(3, [])
    o = extended_topsort(g, [0, 1, 2], NoShuffle())
    assert reachable_pairs(g) == 0
    assert block_counts(g, o) == reference_analysis_counts(o) == (3, 0)


@settings(max_examples=50)
@given(dags(max_n=12, min_n=2), st.integers(0, 2**32 - 1))
def test_analysis_negative_count_is_half_the_pairs(g, seed):
    """B4 refutes half of the ordered pairs, and T1 or T3 proves at most
    the reachable ones."""
    rng = random.Random(seed)
    o = extended_topsort(g, start_sequence(g, rng), rng)
    neg, pos = block_counts(g, o)
    assert neg == g.n * (g.n - 1) // 2
    assert pos <= reachable_pairs(g)


def reference_analysis_counts(o) -> tuple[int, int]:
    """(pairs B4 refutes, pairs T1 or T3 proves) over every ordered pair of
    distinct vertices, by the tests in order, one pair at a time."""
    pos, hi, mx = list(o.pos), list(o.hi), list(o.mx)
    b4 = positive = 0
    for a in range(len(pos)):
        for b in range(len(pos)):
            if pos[b] < pos[a]:
                b4 += 1
            elif a != b and (pos[b] <= hi[a] or pos[b] == mx[a]):
                positive += 1
    return b4, positive


@settings(max_examples=40)
@given(dags(max_n=12), st.integers(0, 2**32 - 1), st.booleans())
def test_analysis_counts_match_the_per_pair_tests(g, seed, backward):
    rng = random.Random(seed)
    if backward:
        o = extended_topsort_backward(g, rng)
    else:
        o = extended_topsort(g, start_sequence(g, rng), rng)
    assert block_counts(g, o) == reference_analysis_counts(o)


# ---------------------------------------------------------------------------
# Max by level_fold against the DFS that folded it at each finish


def reference_extended_topsort(g: DiGraph, start_order, rng) -> tuple[list, list, list]:
    """(pos, High, Max) of the one-pass DFS that folded Max over a vertex's
    children at its finish, one comparison per edge, and raised on an edge
    into an active vertex."""
    n = g.n
    pos, hi, mx = [-1] * n, [-1] * n, [-1] * n
    state = bytearray(n)  # 0 new, 1 active, 2 finished
    counter = n - 1
    off = g.out_off
    degrees = np.diff(np.frombuffer(off, np.uint32))
    groups = np.repeat(np.arange(n, dtype=np.int64), degrees)
    keys = np.frombuffer(rng.randbytes(4 * g.m), "<u4")
    kids = np.frombuffer(g.out_tg, np.uint32)[np.argsort((groups << 32) | keys, kind="stable")]
    kids = kids.tolist()
    for root in [*start_order, *range(n)]:
        if state[root]:
            continue
        state[root] = 1
        hi[root] = counter
        stack = [(root, iter(kids[off[root]:off[root + 1]]))]
        while stack:
            v, children = stack[-1]
            for w in children:
                if state[w] == 0:
                    state[w] = 1
                    hi[w] = counter
                    stack.append((w, iter(kids[off[w]:off[w + 1]])))
                    break
                if state[w] == 1:
                    raise AcyclicityError(f"cycle through edge ({v}, {w})")
            else:
                stack.pop()
                pos[v] = counter
                counter -= 1
                best = pos[v]
                for w in kids[off[v]:off[v + 1]]:
                    if mx[w] > best:
                        best = mx[w]
                mx[v] = best
                state[v] = 2
    return pos, hi, mx


def assert_orderings_match_reference(g: DiGraph, seed: int) -> None:
    """Both flavours, called with and without g's levels, give the
    reference's columns from the same draws."""
    levels = topological_levels(g)
    for flavor, h in ((FORWARD, g), (BACKWARD, g.reverse())):
        rng = random.Random(seed)
        ref = reference_extended_topsort(h, start_sequence(h, rng), rng)
        for lv in (None, levels):
            rng = random.Random(seed)
            if flavor == FORWARD:
                o = extended_topsort(g, start_sequence(g, rng), rng, seed, lv)
            else:
                o = extended_topsort_backward(g, rng, seed, lv)
            assert (o.flavor, o.seed) == (flavor, seed)
            assert (o.pos.tolist(), o.hi.tolist(), o.mx.tolist()) == ref


@settings(max_examples=100, deadline=None)
@given(dags(max_n=16), st.integers(0, 2**32 - 1), st.sampled_from(sorted(FOLD_REGIMES)))
@example(DiGraph.from_edges(0, []), 0, "loop")
def test_max_fold_matches_the_per_edge_dfs(g, seed, regime):
    with fold_regime(regime):
        assert_orderings_match_reference(g, seed)


@pytest.mark.parametrize("regime", sorted(FOLD_REGIMES))
@pytest.mark.parametrize(
    "make",
    [
        lambda: path_graph(3000),
        lambda: out_star(3000),
        lambda: layered_dag(4096, 4, np.random.default_rng(1)),
    ],
    ids=["path", "star", "layered-4"],
)
def test_max_fold_matches_the_per_edge_dfs_on_fixed_shapes(make, regime):
    g = make()
    with fold_regime(regime):
        assert_orderings_match_reference(g, seed=7)

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachidx.baselines import build_matrix, matrix_query
from reachidx.graph import DiGraph, topological_levels, weak_components
from reachidx.index import ReachIndex, observation_table
from reachidx.supportive import (
    TAG_CENTRAL,
    TAG_FILL,
    TAG_SLIM,
    mask_rows,
    masks_from_rows,
    pick_supports,
    reach_sets,
    select_candidates,
)

from reachidx.workbench import gen_random_dag

from conftest import brute_reach_sets, dags, diamond, path_graph


def pool_for(g, k, p, h, seed=0):
    return select_candidates(g, topological_levels(g), k, p, h, random.Random(seed))


# ---------------------------------------------------------------------------
# reach sets


def test_reach_sets_diamond():
    g = diamond()
    assert reach_sets(g, 0) == (0b1111, 0b0001)
    assert reach_sets(g, 1) == (0b1010, 0b0011)
    assert reach_sets(g, 3) == (0b1000, 0b1111)


@given(dags(max_n=12))
def test_reach_sets_match_brute_closure(g):
    reach = brute_reach_sets(g)
    for v in range(g.n):
        fwd, bwd = reach_sets(g, v)
        assert fwd == sum(1 << w for w in reach[v])
        assert bwd == sum(1 << w for w in range(g.n) if v in reach[w])


# ---------------------------------------------------------------------------
# candidate selection


def test_candidates_path_all_slim():
    pool = pool_for(path_graph(3), k=1, p=4, h=8)
    assert pool.candidates == [0, 1, 2]
    assert pool.tags == [TAG_SLIM] * 3


def test_candidates_forward_slims_before_backward():
    # 1 and 3 are slim forward levels; 0 only becomes slim from the
    # backward side (its forward level holds two vertices)
    g = DiGraph.from_edges(4, [(0, 1), (0, 3), (1, 3), (2, 3)])
    pool = pool_for(g, k=3, p=1, h=1)
    assert pool.candidates == [1, 3, 0]
    assert pool.tags == [TAG_SLIM] * 3
    # cap cuts the backward contribution first
    assert pool_for(g, k=2, p=1, h=1).candidates == [1, 3]


def test_candidates_central_band_then_fill():
    # path of 6: band is forward levels 1..4; 0 and 5 arrive via the guard
    g = path_graph(6)
    pool = pool_for(g, k=6, p=1, h=0)
    assert sorted(pool.candidates) == [0, 1, 2, 3, 4, 5]
    assert pool.tags[:4] == [TAG_CENTRAL] * 4
    assert pool.tags[4:] == [TAG_FILL] * 2
    assert all(1 <= topological_levels(g).fwd[v] <= 4 for v in pool.candidates[:4])


def test_candidates_zero_cap():
    pool = pool_for(diamond(), k=0, p=4, h=8)
    assert pool.candidates == [] and pool.tags == []


@given(dags(max_n=14), st.integers(0, 2**16))
def test_candidate_pool_invariants(g, seed):
    lv = topological_levels(g)
    pool = select_candidates(g, lv, 3, 2, 2, random.Random(seed))
    assert len(pool.candidates) == len(pool.tags)
    assert len(pool.candidates) <= 6
    assert len(set(pool.candidates)) == len(pool.candidates)
    assert all(0 <= v < g.n for v in pool.candidates)
    # deterministic under the same seed
    again = select_candidates(g, lv, 3, 2, 2, random.Random(seed))
    assert again == pool


# ---------------------------------------------------------------------------
# support selection and masks


def test_supports_path_prefers_middle():
    g = path_graph(3)
    ss = pick_supports(pool_for(g, k=1, p=4, h=8), g, k=1)
    assert ss.supports == [1]
    assert ss.fwd_mask == [0, 1, 1]  # vertex 1 reaches itself and 2
    assert ss.bwd_mask == [1, 1, 0]  # 0 and 1 reach vertex 1
    assert ss.k == 1 and ss.mask_bytes == 1


def test_supports_diamond_tie_breaks_to_smallest_id():
    g = diamond()
    ss = pick_supports(pool_for(g, k=1, p=4, h=8), g, k=1)
    assert ss.supports == [0]  # every product ties at 4
    assert ss.fwd_mask == [1, 1, 1, 1]
    assert ss.bwd_mask == [1, 0, 0, 0]


def test_supports_k_zero():
    g = diamond()
    ss = pick_supports(pool_for(g, k=1, p=4, h=8), g, k=0)
    assert ss.supports == [] and ss.k == 0 and ss.mask_bytes == 0
    assert ss.fwd_mask == [0, 0, 0, 0]


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**16))
def test_mask_columns_match_per_vertex_search(g, seed):
    """Batched mask propagation vs one independent DFS per support."""
    pool = pool_for(g, k=4, p=2, h=3, seed=seed)
    ss = pick_supports(pool, g, k=4)
    reach = brute_reach_sets(g)
    for i, sv in enumerate(ss.supports):
        for w in range(g.n):
            assert (ss.fwd_mask[w] >> i) & 1 == (w in reach[sv])
            assert (ss.bwd_mask[w] >> i) & 1 == (sv in reach[w])
    # unused high bits stay clear
    used = (1 << len(ss.supports)) - 1
    assert all(mask & ~used == 0 for mask in ss.fwd_mask + ss.bwd_mask)


def test_mask_columns_beyond_one_word():
    """k > 64 chosen supports: bits 64.. land in the masks' second word."""
    g = gen_random_dag(300, 1200, seed=0)
    ss = pick_supports(pool_for(g, k=70, p=3, h=8), g, k=70)
    assert len(ss.supports) == 70
    for i, sv in enumerate(ss.supports):
        fwd, bwd = reach_sets(g, sv)
        assert sum(((m >> i) & 1) << w for w, m in enumerate(ss.fwd_mask)) == fwd
        assert sum(((m >> i) & 1) << w for w, m in enumerate(ss.bwd_mask)) == bwd
    assert all(m >> 70 == 0 for m in ss.fwd_mask + ss.bwd_mask)


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**16))
def test_supports_are_top_ranked_by_product(g, seed):
    pool = pool_for(g, k=3, p=3, h=3, seed=seed)
    ss = pick_supports(pool, g, k=3)

    def rank(v):
        fwd, bwd = reach_sets(g, v)
        return (-fwd.bit_count() * bwd.bit_count(), v)

    expect = sorted(pool.candidates, key=rank)[: min(3, len(pool.candidates))]
    assert ss.supports == expect


# ---------------------------------------------------------------------------
# mask codec

# w = 1..17 bytes crosses the 8- and 16-byte word boundaries
widths = st.integers(1, 17)


@settings(max_examples=150)
@given(
    widths.flatmap(
        lambda w: st.tuples(
            st.just(w), st.lists(st.integers(0, 2 ** (8 * w) - 1), max_size=12)
        )
    )
)
def test_mask_codec_roundtrip(case):
    w, masks = case
    rows = mask_rows(masks, w)
    assert rows.shape == (len(masks), w) and rows.dtype == np.uint8
    assert rows.tobytes() == b"".join(m.to_bytes(w, "little") for m in masks)
    assert masks_from_rows(rows) == masks


@settings(max_examples=150)
@given(widths, st.integers(0, 12), st.randoms(use_true_random=False))
def test_mask_codec_matches_bytes_reference(w, n, rnd):
    """Decode rows cut out of wider records, as deserialization does."""
    records = np.frombuffer(rnd.randbytes(n * (w + 5)), np.uint8).reshape(n, w + 5)
    rows = records[:, 2 : 2 + w]
    raw = rows.tobytes()
    expect = [int.from_bytes(raw[i * w : (i + 1) * w], "little") for i in range(n)]
    assert masks_from_rows(rows) == expect
    assert mask_rows(expect, w).tobytes() == raw


def test_mask_codec_edges():
    assert mask_rows([0, 0], 0).shape == (2, 0)
    assert masks_from_rows(np.zeros((3, 0), np.uint8)) == [0, 0, 0]
    assert masks_from_rows(np.zeros((0, 9), np.uint8)) == []
    with pytest.raises(ValueError, match="fit"):
        mask_rows([1 << 16], 2)


# ---------------------------------------------------------------------------
# observations


def support_verdicts(g, ss, s, t):
    """(S1 holds, 'S2'/'S3'/None) for (s, t): the support rows of the
    observation table, on an index with no orderings."""
    ix = ReachIndex(g, weak_components(g), topological_levels(g), [], ss)
    holds = {tag: bool(mask[0]) for tag, _, mask in observation_table(ix, [s], [t])}
    return holds["3:S1"], "S2" if holds["5:S2"] else "S3" if holds["5:S3"] else None


def test_answer_examples_path():
    g = path_graph(3)
    ss = pick_supports(pool_for(g, k=1, p=4, h=8), g, k=1)
    assert support_verdicts(g, ss, 0, 2) == (True, None)
    assert support_verdicts(g, ss, 2, 0) == (False, "S2")
    assert support_verdicts(g, ss, 2, 1) == (False, "S3")
    assert support_verdicts(g, ss, 0, 1)[0] and support_verdicts(g, ss, 2, 0)[1] == "S2"


def test_answer_examples_diamond():
    g = diamond()
    ss = pick_supports(pool_for(g, k=1, p=4, h=8), g, k=1)
    assert support_verdicts(g, ss, 0, 3) == (True, None)
    assert support_verdicts(g, ss, 3, 0) == (False, "S3")
    assert support_verdicts(g, ss, 1, 2) == (False, None)  # support 0 sees neither side
    assert support_verdicts(g, ss, 1, 3) == (False, None)  # true answer exists, undecided here


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**16))
def test_answer_is_sound(g, seed):
    pool = pool_for(g, k=4, p=2, h=3, seed=seed)
    ss = pick_supports(pool, g, k=4)
    mx = build_matrix(g)
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            truth = matrix_query(mx, s, t)
            s1, neg = support_verdicts(g, ss, s, t)
            if s1:
                assert truth, (s, t, "S1")
            if neg is not None:
                assert not truth, (s, t, neg)

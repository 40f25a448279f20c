from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachidx.baselines import build_matrix
from reachidx.core import mask_rows, masks_from_rows
from reachidx.graph import DiGraph, topological_levels, weak_components
from reachidx.index import ReachIndex, observation_table
from reachidx.supportive import (
    TAG_CENTRAL,
    TAG_FILL,
    TAG_SLIM,
    SupportSet,
    _column_counts,
    _mask_matrix,
    pick_supports,
    select_candidates,
)

from reachidx.workbench import gen_random_dag

from conftest import (
    FOLD_REGIMES,
    brute_reach_sets,
    dags,
    diamond,
    fold_regime,
    layered_dag,
    out_star,
    path_graph,
    reach_sets,
    support_owners,
)


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


def reference_candidates(g, levels, k, p, h, rng):
    """select_candidates written out phase by phase: slim forward levels,
    slim backward levels, a draw from the central band of forward levels,
    then a draw from every vertex left."""
    cap = k * p
    cands, tags = [], []
    if cap <= 0 or g.n == 0:
        return cands, tags
    top_fwd = max(levels.fwd, default=0)
    for level in (levels.fwd, levels.bwd):
        for lv in range(max(level, default=0) + 1):
            members = [v for v in range(g.n) if level[v] == lv]
            if len(members) > h:
                continue
            for v in members:
                if len(cands) < cap and v not in cands:
                    cands.append(v)
                    tags.append(TAG_SLIM)
    lo, hi = -(-top_fwd // 5), (4 * top_fwd) // 5
    for tag, lv_lo, lv_hi in ((TAG_CENTRAL, lo, hi), (TAG_FILL, 0, top_fwd)):
        if len(cands) < cap:
            pool = [v for v in range(g.n) if v not in cands and lv_lo <= levels.fwd[v] <= lv_hi]
            drawn = rng.sample(pool, min(cap - len(cands), len(pool)))
            cands += drawn
            tags += [tag] * len(drawn)
    return cands, tags


@settings(max_examples=200)
@given(
    dags(max_n=14),
    st.integers(0, 5),
    st.integers(0, 6),
    st.integers(0, 4),
    st.integers(0, 2**16),
)
def test_candidates_match_phase_by_phase_reference(g, k, p, h, seed):
    lv = topological_levels(g)
    pool = select_candidates(g, lv, k, p, h, random.Random(seed))
    expect = reference_candidates(g, lv, k, p, h, random.Random(seed))
    assert (pool.candidates, pool.tags) == expect


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
    ss = pick_supports(pool_for(g, k=1, p=4, h=8), g, k=1, levels=topological_levels(g))
    assert support_owners(ss) == [1]
    assert ss.fwd_mask == [0, 1, 1]  # vertex 1 reaches itself and 2
    assert ss.bwd_mask == [1, 1, 0]  # 0 and 1 reach vertex 1
    assert ss.k == 1 and ss.mask_bytes == 1


def test_supports_diamond_tie_breaks_to_smallest_id():
    g = diamond()
    ss = pick_supports(pool_for(g, k=1, p=4, h=8), g, k=1, levels=topological_levels(g))
    assert support_owners(ss) == [0]  # every product ties at 4
    assert ss.fwd_mask == [1, 1, 1, 1]
    assert ss.bwd_mask == [1, 0, 0, 0]


def test_supports_k_zero():
    g = diamond()
    ss = pick_supports(pool_for(g, k=1, p=4, h=8), g, k=0, levels=topological_levels(g))
    assert support_owners(ss) == [] and ss.k == 0 and ss.mask_bytes == 0
    assert ss.fwd_mask == [0, 0, 0, 0]


def test_support_set_refuses_rows_of_the_wrong_size():
    """The int masks are derived from the rows, which must hold n rows of
    mask_bytes bytes each."""
    ss = SupportSet(b"\x01\x03\x00", b"\x01\x00\x00", k=2, n=3)
    assert (ss.fwd_mask, ss.bwd_mask) == ([1, 3, 0], [1, 0, 0])
    assert SupportSet(b"", b"", k=0, n=3).fwd_mask == [0, 0, 0]
    with pytest.raises(ValueError, match=r"size 2 into shape \(3,1\)"):
        SupportSet(b"\x01\x03\x00", b"\x01\x00", k=2, n=3)
    with pytest.raises(ValueError, match=r"size 6 into shape \(3,1\)"):
        SupportSet(bytes(6), bytes(3), k=8, n=3)
    with pytest.raises(ValueError, match=r"size 1 into shape \(3,0\)"):
        SupportSet(b"\x00", b"", k=0, n=3)


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**16))
def test_mask_columns_match_per_vertex_search(g, seed):
    """Batched mask propagation vs one independent DFS per support."""
    pool = pool_for(g, k=4, p=2, h=3, seed=seed)
    ss = pick_supports(pool, g, k=4, levels=topological_levels(g))
    reach = brute_reach_sets(g)
    supports = support_owners(ss)
    for i, sv in enumerate(supports):
        for w in range(g.n):
            assert (ss.fwd_mask[w] >> i) & 1 == (w in reach[sv])
            assert (ss.bwd_mask[w] >> i) & 1 == (sv in reach[w])
    # unused high bits stay clear
    used = (1 << len(supports)) - 1
    assert all(mask & ~used == 0 for mask in ss.fwd_mask + ss.bwd_mask)


def test_mask_columns_beyond_one_word():
    """k > 64 chosen supports: bits 64.. land in the masks' second word."""
    g = gen_random_dag(300, 1200, seed=0)
    ss = pick_supports(pool_for(g, k=70, p=3, h=8), g, k=70, levels=topological_levels(g))
    supports = support_owners(ss)
    assert len(supports) == 70
    for i, sv in enumerate(supports):
        fwd, bwd = reach_sets(g, sv)
        assert sum(((m >> i) & 1) << w for w, m in enumerate(ss.fwd_mask)) == fwd
        assert sum(((m >> i) & 1) << w for w, m in enumerate(ss.bwd_mask)) == bwd
    assert all(m >> 70 == 0 for m in ss.fwd_mask + ss.bwd_mask)


def mask_matrix_or_at(pred_off, pred_tg, level, cands):
    """Reference for _mask_matrix: edges stably sorted by their target's
    level, each level applied with one np.bitwise_or.at."""
    n = len(pred_off) - 1
    top = int(level.max(initial=0))
    M = np.zeros((n, max(1, (len(cands) + 63) // 64)), dtype=np.uint64)
    for j, v in enumerate(cands):
        M[v, j >> 6] |= np.uint64(1 << (j & 63))
    src = np.frombuffer(pred_tg, np.uint32).astype(np.int64)
    dst = np.repeat(np.arange(n, dtype=np.int64), np.diff(np.frombuffer(pred_off, np.uint32)))
    order = np.argsort(level[dst], kind="stable")
    dst, src = dst[order], src[order]
    starts = np.searchsorted(level[dst], np.arange(1, top + 2))
    for li in range(top):
        a, b = starts[li], starts[li + 1]
        np.bitwise_or.at(M, dst[a:b], M[src[a:b]])
    return M


@pytest.mark.parametrize("ncands", [1, 64, 65, 130])
@pytest.mark.parametrize(
    "g",
    [
        gen_random_dag(1000, 4000, seed=2),
        gen_random_dag(300, 300, seed=3),  # many components and isolated vertices
        DiGraph.from_edges(201, [(v, 0) for v in range(1, 201)]),
        path_graph(200),
    ],
    ids=["random", "sparse", "in-star", "path"],
)
def test_mask_matrix_matches_or_at_reference(g, ncands):
    lv = topological_levels(g)
    cands = random.Random(ncands).sample(range(g.n), ncands)
    for (off, tg), level in (((g.in_off, g.in_tg), lv.fwd), ((g.out_off, g.out_tg), lv.bwd)):
        level = np.asarray(level, dtype=np.int64)
        got = _mask_matrix(off, tg, level, cands)
        assert got.shape == (g.n, -(-ncands // 64))
        assert np.array_equal(got, mask_matrix_or_at(off, tg, level, cands))


def assert_mask_matrices_match_or_at(g: DiGraph, cands: list[int]) -> None:
    lv = topological_levels(g)
    for (off, tg), level in (((g.in_off, g.in_tg), lv.fwd), ((g.out_off, g.out_tg), lv.bwd)):
        level = np.frombuffer(level, np.uint32)
        got = _mask_matrix(off, tg, level, cands)
        assert np.array_equal(got, mask_matrix_or_at(off, tg, level, cands))


@settings(max_examples=100, deadline=None)
@given(dags(max_n=16), st.integers(0, 2**16), st.sampled_from(sorted(FOLD_REGIMES)))
def test_mask_matrix_matches_or_at_in_every_fold_regime(g, seed, regime):
    cands = random.Random(seed).sample(range(g.n), min(g.n, 1 + seed % 70))
    with fold_regime(regime):
        assert_mask_matrices_match_or_at(g, cands)


@pytest.mark.parametrize("regime", sorted(FOLD_REGIMES))
@pytest.mark.parametrize("ncands", [1, 130, 300])
@pytest.mark.parametrize(
    "make",
    [
        lambda: path_graph(3000),
        lambda: out_star(3000),
        lambda: layered_dag(4096, 4, np.random.default_rng(1)),
    ],
    ids=["path", "star", "layered-4"],
)
def test_mask_matrix_matches_or_at_on_fixed_shapes(make, ncands, regime):
    g = make()
    with fold_regime(regime):
        assert_mask_matrices_match_or_at(g, random.Random(ncands).sample(range(g.n), ncands))


def test_column_counts_past_one_uint8_block():
    """Column 0 has 1000 set bits and column 70 has 999, more than one uint8
    block of 255 rows can sum; the counts match a per-bit reference."""
    M = np.zeros((1000, 2), dtype=np.uint64)
    M[:, 0] = np.uint64(1)
    M[1:, 1] = np.uint64(1 << 6)
    M[::7, 0] |= np.uint64(1 << 63)
    got = _column_counts(M, 71)
    ref = [int(((M[:, j >> 6] >> np.uint64(j & 63)) & np.uint64(1)).sum()) for j in range(71)]
    assert got.tolist() == ref
    assert (got[0], got[63], got[70]) == (1000, 143, 999)


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**16))
def test_supports_are_top_ranked_by_product(g, seed):
    pool = pool_for(g, k=3, p=3, h=3, seed=seed)
    ss = pick_supports(pool, g, k=3, levels=topological_levels(g))

    def rank(v):
        fwd, bwd = reach_sets(g, v)
        return (-fwd.bit_count() * bwd.bit_count(), v)

    expect = sorted(pool.candidates, key=rank)[: min(3, len(pool.candidates))]
    assert support_owners(ss) == expect


# ---------------------------------------------------------------------------
# mask codec

# w = 1..152 bytes crosses the word boundaries and both codec cutoffs (rows
# of 8 bytes, ints of 3 words), up to level_fold's default row: 1200
# candidates in 19 words
widths = st.one_of(st.integers(1, 33), st.integers(34, 152))


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


def test_mask_rows_refuses_a_wide_mask_that_does_not_fit():
    """Rows wider than one word are encoded per row, with the same error."""
    assert mask_rows([(1 << 72) - 1], 9).tobytes() == b"\xff" * 9
    for bad in (1 << 72, -1):
        with pytest.raises(ValueError, match="fit in 9 bytes"):
            mask_rows([0, bad], 9)


@pytest.mark.parametrize("w", [1, 2, 8, 9, 16])
def test_mask_rows_refuses_a_negative_mask(w):
    """In rows of one word or less as in wider ones: a ValueError, not numpy's
    OverflowError, though the largest mask fits."""
    for masks in ([0, -1], [-(1 << 70), 3]):
        with pytest.raises(ValueError, match=f"fit in {w} bytes"):
            mask_rows(masks, w)


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
    ss = pick_supports(pool_for(g, k=1, p=4, h=8), g, k=1, levels=topological_levels(g))
    assert support_verdicts(g, ss, 0, 2) == (True, None)
    assert support_verdicts(g, ss, 2, 0) == (False, "S2")
    assert support_verdicts(g, ss, 2, 1) == (False, "S3")
    assert support_verdicts(g, ss, 0, 1)[0] and support_verdicts(g, ss, 2, 0)[1] == "S2"


def test_answer_examples_diamond():
    g = diamond()
    ss = pick_supports(pool_for(g, k=1, p=4, h=8), g, k=1, levels=topological_levels(g))
    assert support_verdicts(g, ss, 0, 3) == (True, None)
    assert support_verdicts(g, ss, 3, 0) == (False, "S3")
    assert support_verdicts(g, ss, 1, 2) == (False, None)  # support 0 sees neither side
    assert support_verdicts(g, ss, 1, 3) == (False, None)  # true answer exists, undecided here


@settings(max_examples=60)
@given(dags(max_n=12), st.integers(0, 2**16))
def test_answer_is_sound(g, seed):
    pool = pool_for(g, k=4, p=2, h=3, seed=seed)
    ss = pick_supports(pool, g, k=4, levels=topological_levels(g))
    mx = build_matrix(g)
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            truth = mx.query(s, t)
            s1, neg = support_verdicts(g, ss, s, t)
            if s1:
                assert truth, (s, t, "S1")
            if neg is not None:
                assert not truth, (s, t, neg)

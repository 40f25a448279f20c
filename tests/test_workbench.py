from __future__ import annotations

import io
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachidx.index as index_mod
from reachidx import workbench
from reachidx.baselines import DEFAULT_MATRIX_CAP, CapacityError, build_matrix
from reachidx.core import DiGraph, GraphFormatError, graph_checksum, load_pairs
from reachidx.index import (
    HEADER,
    IndexParams,
    ObservationStats,
    _substream,
    build_index,
    observation_stats,
)
from reachidx.workbench import (
    AnswerMismatchError,
    BenchReport,
    BuiltAlgorithm,
    InfeasibleError,
    QuerySet,
    bench,
    build_oracle,
    gen_queries,
    gen_random_dag,
    save_query_set,
    stats_report,
)

from conftest import dags, diamond, edge_pairs, path_graph

SMALL = IndexParams(t=2, k=4, p=2, h=3)


# ---------------------------------------------------------------------------
# random DAG generation


def test_gen_dag_validation():
    with pytest.raises(CapacityError):
        gen_random_dag(4, 7, seed=0)  # max is 6
    with pytest.raises(ValueError):
        gen_random_dag(-1, 0, seed=0)
    with pytest.raises(ValueError):
        gen_random_dag(3, -2, seed=0)


def test_gen_dag_degenerate_sizes():
    assert gen_random_dag(0, 0, seed=1).n == 0
    g = gen_random_dag(5, 0, seed=1)
    assert (g.n, g.m) == (5, 0)


def test_gen_dag_complete():
    g = gen_random_dag(5, 10, seed=3)
    assert edge_pairs(g) == [(i, j) for i in range(5) for j in range(i + 1, 5)]


def test_gen_dag_seed_sensitivity():
    a = gen_random_dag(30, 100, seed=0)
    b = gen_random_dag(30, 100, seed=0)
    c = gen_random_dag(30, 100, seed=1)
    assert edge_pairs(a) == edge_pairs(b)
    assert edge_pairs(a) != edge_pairs(c)


@pytest.mark.parametrize(
    "n, m, seed, checksum",
    [
        (0, 0, 0, 3971697493),
        (1, 0, 5, 1790091467),
        (2, 1, 0, 3311771039),
        (5, 0, 1, 3348512471),
        (7, 21, 4, 3444066126),  # complete
        (30, 100, 0, 2832648463),
        (1000, 2000, 7, 2409156989),
        (4096, 16384, 1, 3085001202),
        (200000, 40, 3, 3711544454),  # ranks up to ~2e10
    ],
)
def test_gen_dag_checksum_frozen(n, m, seed, checksum):
    """The sampled pairs and their unranking are part of every seeded
    experiment: a change here changes every generated graph."""
    assert graph_checksum(gen_random_dag(n, m, seed)) == checksum


@given(
    st.integers(2, 40),
    st.data(),
    st.integers(0, 2**32 - 1),
)
def test_gen_dag_shape(n, data, seed):
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    g = gen_random_dag(n, m, seed=seed)
    assert g.n == n and g.m == m
    assert all(u < v for u, v in edge_pairs(g))  # acyclic by construction


# ---------------------------------------------------------------------------
# query generation


def test_gen_queries_validation():
    g = diamond()
    with pytest.raises(ValueError, match="unknown query kind"):
        gen_queries(g, "typo", 1, seed=0)
    with pytest.raises(ValueError, match="needs an oracle"):
        gen_queries(g, "positive", 1, seed=0)
    for kind in ("random", "mixed"):
        with pytest.raises(ValueError, match="count must be >= 0, got -5"):
            gen_queries(g, kind, -5, seed=0, oracle=lambda s, t: True)


def test_gen_queries_positive_negative():
    g = diamond()
    oracle = build_oracle(g)
    pos = gen_queries(g, "positive", 8, seed=1, oracle=oracle)
    assert len(pos.pairs) == 8
    assert pos.expected == [True] * 8
    assert all(oracle(s, t) and s != t for s, t in pos.pairs)
    neg = gen_queries(g, "negative", 8, seed=1, oracle=oracle)
    assert neg.expected == [False] * 8
    assert all(not oracle(s, t) for s, t in neg.pairs)


def test_gen_queries_random_with_and_without_oracle():
    g = diamond()
    oracle = build_oracle(g)
    qs = gen_queries(g, "random", 10, seed=2, oracle=oracle)
    assert qs.expected == [oracle(s, t) for s, t in qs.pairs]
    blind = gen_queries(g, "random", 10, seed=2)
    assert blind.expected is None
    assert blind.pairs == qs.pairs  # oracle must not consume randomness


def test_gen_queries_mixed_composition():
    g = diamond()
    oracle = build_oracle(g)
    qs = gen_queries(g, "mixed", 6, seed=5, oracle=oracle)
    assert len(qs.pairs) == 12
    assert sum(qs.expected) == 6
    assert qs.expected == [oracle(s, t) for s, t in qs.pairs]
    again = gen_queries(g, "mixed", 6, seed=5, oracle=oracle)
    assert again.pairs == qs.pairs and again.expected == qs.expected


def test_gen_queries_infeasible():
    empty = DiGraph.from_edges(3, [])
    oracle = build_oracle(empty)
    with pytest.raises(InfeasibleError):
        gen_queries(empty, "positive", 1, seed=0, oracle=oracle)
    loop = DiGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(InfeasibleError):
        gen_queries(loop, "negative", 1, seed=0, oracle=build_oracle(loop))
    single = DiGraph.from_edges(1, [])
    with pytest.raises(InfeasibleError):
        gen_queries(single, "random", 1, seed=0)
    assert gen_queries(single, "random", 0, seed=0).pairs == []


def test_query_set_label():
    qs = QuerySet([(0, 1)], "random", 0)
    assert qs.label == "random"
    assert QuerySet([(0, 1)], "random", 0, name="file.q").label == "file.q"


@settings(max_examples=30)
@given(dags(max_n=12, min_n=2), st.integers(0, 2**16))
def test_gen_queries_respects_kind(g, seed):
    oracle = build_oracle(g)
    mx = build_matrix(g)
    try:
        qs = gen_queries(g, "mixed", 5, seed=seed, oracle=oracle)
    except InfeasibleError:
        return  # graph has no pair of one kind; nothing to check
    for (s, t), exp in zip(qs.pairs, qs.expected):
        assert s != t
        assert mx.query(s, t) == exp


# ---------------------------------------------------------------------------
# oracle construction


def test_build_oracle_matrix_and_bfs_paths_agree():
    g = path_graph(6)
    full = build_oracle(g)
    tiny = build_oracle(g, cap_bytes=0)  # forces the per-pair BFS route
    for s in range(6):
        for t in range(6):
            assert full(s, t) == tiny(s, t)


# ---------------------------------------------------------------------------
# query files


def pair_rows(path):
    """load_pairs' arrays as (s, t, expected) rows, None for no expected bit."""
    S, T, expected = load_pairs(path)
    return [
        (s, t, None if e < 0 else e == 1)
        for s, t, e in zip(S.tolist(), T.tolist(), expected.tolist())
    ]


def test_query_file_roundtrip(tmp_path):
    qs = QuerySet([(0, 2), (1, 0)], "random", 0, expected=[True, None])
    path = tmp_path / "q.txt"
    with open(path, "w") as f:
        save_query_set(qs, f)
    assert pair_rows(str(path)) == [(0, 2, True), (1, 0, None)]


def test_query_file_original_id_translation(tmp_path):
    qs = QuerySet([(0, 1)], "random", 0, expected=[False])
    path = tmp_path / "q.txt"
    with open(path, "w") as f:
        save_query_set(qs, f, original_ids=[10, 30])
    assert path.read_text() == "10 30 0\n"


def test_query_file_takes_a_parse_results_numpy_ids(tmp_path):
    """ParseResult.ids is a numpy array, int64 or of Python ints past 64
    bits, which `original_ids or ...` refused as ambiguous."""
    qs = QuerySet([(0, 1), (2, 0)], "random", 0, expected=[False, None])
    path = tmp_path / "q.txt"
    for ids, text in (
        (np.array([10, -3, 2**62]), f"10 -3 0\n{2**62} 10\n"),
        (np.array([10, -3, 2**70], dtype=object), f"10 -3 0\n{2**70} 10\n"),
    ):
        with open(path, "w") as f:
            save_query_set(qs, f, ids)
        assert path.read_text() == text


def test_query_file_comments_and_errors(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("# heading\n\n3 4\n4 3 1\n")
    assert pair_rows(str(path)) == [(3, 4, None), (4, 3, True)]
    for bad in ("1 2 3 4\n", "1 2 2\n", "x y\n"):
        path.write_text(bad)
        with pytest.raises(GraphFormatError, match="q.txt:1"):
            load_pairs(str(path))


def _reference_query_file(path):
    """Line-by-line reading of a query file, as before the file was read at
    once: (s, t, expected) rows or the error message."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                return f"{path}:{lineno}: expected 's t [expected]', got {line!r}"
            try:
                s, t = int(parts[0]), int(parts[1])
                exp = None
                if len(parts) == 3:
                    if parts[2] not in ("0", "1"):
                        raise ValueError
                    exp = parts[2] == "1"
            except ValueError:
                return f"{path}:{lineno}: bad token"
            out.append((s, t, exp))
    return out


_PAIR_IDS = st.sampled_from(
    ["0", "7", "-3", "+12", "0012", "1_000", "\u0663", str(2**70), str(-(2**63)), "99999999999999999999"]
)
_PAIR_LINES = st.one_of(
    st.tuples(_PAIR_IDS, _PAIR_IDS, st.sampled_from(["", "0", "1"])).map(" ".join),
    st.sampled_from(
        ["", "   ", "\t", "# c", "  #1 2 3", "#", "% 1 2", "5", "1 2 1 0", "1 x", "1.5 2", "- 1",
         "1 2 2", "1 2 01", "1 2 x", "1 2 1.0", "1 2 +1", "1\u00a02", "1\u30002 1", "1 2\r"]
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_PAIR_LINES, max_size=20), st.sampled_from(["\n", "\r\n", "\r"]))
def test_query_file_reads_as_the_line_by_line_reference(lines, newline):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "q.txt")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(newline.join(lines))
        expected = _reference_query_file(path)
        try:
            got = pair_rows(path)
        except GraphFormatError as e:
            got = str(e)
        assert got == expected


# ---------------------------------------------------------------------------
# algorithms and bench


def test_bench_rejects_unknown_names_before_building(monkeypatch):
    monkeypatch.setattr(workbench, "_build", lambda *a: pytest.fail("built"))
    qs = QuerySet([(0, 3)], "random", 0)
    # the index has one fallback: "index+bfs" and the like are not algorithms
    for bad in ("dijkstra", "index+bfs", "index+astar", "index+bibfs"):
        with pytest.raises(ValueError, match=re.escape(f"unknown algorithm {bad!r}")):
            bench(diamond(), ["matrix", bad], [qs], repetitions=1, seeds=(0,))


def build_named(name, g, seed=0):
    return workbench._build(name, g, seed, SMALL, DEFAULT_MATRIX_CAP)


def test_built_algorithms_agree_with_matrix():
    g = gen_random_dag(24, 60, seed=7)
    mx = build_matrix(g)
    for name in workbench.ALGORITHM_NAMES:
        built = build_named(name, g, 3)
        for s in range(g.n):
            for t in range(g.n):
                assert built.answer(s, t) == mx.query(s, t), name


def test_built_algorithm_metadata():
    g = diamond()
    matrix, bfs, index = (build_named(name, g) for name in ("matrix", "bfs", "index+pbibfs"))
    assert matrix.index_bytes == 4  # 4 vertices, 1 byte of row each
    assert matrix.index is None
    assert bfs.index_bytes == 0 and bfs.build_ms == 0.0 and bfs.index is None
    assert index.index_bytes == HEADER.size + 4 * 38  # t=2, k=4 record layout
    assert index.index.params == SMALL


def test_bench_report_shape_and_tsv():
    g = gen_random_dag(16, 40, seed=2)
    oracle = build_oracle(g)
    sets = [
        gen_queries(g, "mixed", 5, seed=1, oracle=oracle),
        QuerySet([], "random", 0, name="empty"),
    ]
    report = bench(g, ["matrix", "index+pbibfs"], sets, repetitions=3, seeds=(0, 1), params=SMALL)
    assert len(report.rows) == 4
    by_key = {(r.algorithm, r.query_set): r for r in report.rows}
    mixed_mx = by_key[("matrix", "mixed")]
    assert mixed_mx.n_queries == 10
    assert mixed_mx.aggregation == "median(3 reps)"
    assert mixed_mx.avg_us is not None and mixed_mx.avg_us >= 0
    assert mixed_mx.fallback_rate is None
    mixed_ix = by_key[("index+pbibfs", "mixed")]
    assert mixed_ix.aggregation == "mean(2 seeds)"
    assert mixed_ix.fallback_rate is not None
    # the stats are the first seed's index's, over the set's pairs
    S, T = zip(*sets[0].pairs)
    assert report.stats == {
        ("index+pbibfs", "mixed"): observation_stats(build_index(g, SMALL, seed=0), S, T)
    }
    assert mixed_ix.fallback_rate == report.stats[("index+pbibfs", "mixed")].fallback_rate
    empty = by_key[("matrix", "empty")]
    assert empty.n_queries == 0 and empty.avg_us is None

    tsv = report.to_tsv()
    lines = tsv.strip().split("\n")
    assert lines[0] == "\t".join(BenchReport.COLUMNS)
    assert len(lines) == 5
    cells = dict(zip(BenchReport.COLUMNS, lines[1].split("\t")))
    assert cells["algorithm"] == "matrix" and cells["n_queries"] == "10"
    empty_cells = [ln.split("\t") for ln in lines if "\tempty\t" in ln]
    assert all(row[3] == "undefined" for row in empty_cells)


def test_bench_detects_wrong_answers():
    g = diamond()
    qs = QuerySet([(0, 3)], "positive", 0, expected=[False])  # deliberately wrong
    with pytest.raises(AnswerMismatchError, match="matrix"):
        bench(g, ["matrix"], [qs], repetitions=1, seeds=(0,))


def test_bench_rejects_zero_repetitions():
    qs = QuerySet([(0, 3)], "random", 0)
    with pytest.raises(ValueError, match="repetitions must be >= 1, got 0"):
        bench(diamond(), ["matrix"], [qs], repetitions=0)


def test_bench_rejects_empty_seeds():
    qs = QuerySet([(0, 3)], "random", 0)
    with pytest.raises(ValueError, match="seeds must not be empty"):
        bench(diamond(), ["index+pbibfs"], [qs], seeds=())


def test_bench_pass_schedule(monkeypatch):
    """The index, the seeded algorithm, gets one build and one timed pass
    per seed, its mean reported; an unseeded one gets one build and
    `repetitions` passes, their median reported.  Pass j shuffles with _substream(qs.seed,
    "shuffle", j), j the seed or the repetition."""
    passes, verified = [], []
    times = iter([1.0, 2.0, 6.0, 4.0, 1.0, 3.0])

    def timed_pass(built, pairs, shuffle_seed):
        passes.append((built.index_bytes, shuffle_seed))
        return next(times)

    def verify(built, qs, algo):
        verified.append((algo, built.index_bytes, qs.label))

    monkeypatch.setattr(workbench, "_timed_pass", timed_pass)
    monkeypatch.setattr(workbench, "_verify", verify)
    builds = []

    def build(name, g, seed, params, matrix_cap):
        builds.append((name, seed))
        return BuiltAlgorithm(lambda s, t: True, 1.0, seed)

    monkeypatch.setattr(workbench, "_build", build)
    qs = QuerySet([(0, 3), (1, 2)], "random", 11)
    empty = QuerySet([], "random", 12, name="empty")
    report = bench(diamond(), ["index+pbibfs", "matrix"], [qs, empty], repetitions=4, seeds=(5, 9))
    assert builds == [("index+pbibfs", 5), ("index+pbibfs", 9), ("matrix", 0)]
    assert passes == [
        (5, _substream(11, "shuffle", 5)),
        (9, _substream(11, "shuffle", 9)),
        *((0, _substream(11, "shuffle", rep)) for rep in range(4)),
    ]
    assert verified == [
        ("index+pbibfs", 5, "random"),
        ("index+pbibfs", 9, "random"),
        ("index+pbibfs", 5, "empty"),
        ("index+pbibfs", 9, "empty"),
        ("matrix", 0, "random"),
        ("matrix", 0, "empty"),
    ]
    rows = {(r.algorithm, r.query_set): r for r in report.rows}
    assert rows[("index+pbibfs", "random")].aggregation == "mean(2 seeds)"
    assert rows[("index+pbibfs", "random")].avg_us == pytest.approx(1.5 / 2 * 1e6)
    assert rows[("matrix", "random")].aggregation == "median(4 reps)"
    assert rows[("matrix", "random")].avg_us == pytest.approx(3.5 / 2 * 1e6)
    assert rows[("index+pbibfs", "empty")].avg_us is None
    assert rows[("matrix", "empty")].avg_us is None


def test_bench_skips_verification_without_expected():
    g = diamond()
    qs = QuerySet([(0, 3)], "random", 0, expected=None)
    report = bench(g, ["matrix"], [qs], repetitions=1)
    assert report.rows[0].n_queries == 1


def test_bench_times_no_first_use_setup_without_expected(monkeypatch):
    """A set without expected bits is still answered once, untimed, before
    its timed passes, so binding the scalar pass and packing the search
    keys, on an index's first query and first fallback, stay out of them."""
    g = gen_random_dag(64, 160, 0)
    S, T = map(list, zip(*((s, t) for s in range(g.n) for t in range(g.n))))
    assert observation_stats(build_index(g, SMALL, seed=0), S, T).fallbacks  # some undecided
    inside, setups = [False], []

    def timed_pass(*args):
        inside[0] = True
        try:
            return real_timed_pass(*args)
        finally:
            inside[0] = False

    def record(name, real):
        def wrapper(ix):
            setups.append((name, inside[0]))
            return real(ix)

        monkeypatch.setattr(index_mod, name, wrapper)

    real_timed_pass = workbench._timed_pass
    monkeypatch.setattr(workbench, "_timed_pass", timed_pass)
    for name in ("_bind_observations", "_pack_keys"):
        record(name, getattr(index_mod, name))
    qs = QuerySet(list(zip(S, T)), "random", 0)
    bench(g, ["index+pbibfs"], [qs], seeds=(0, 1), params=SMALL)
    assert sorted(set(setups)) == [("_bind_observations", False), ("_pack_keys", False)]


# ---------------------------------------------------------------------------
# statistics report


def parse_report(text: str) -> list[dict]:
    lines = text.strip().split("\n")
    head = lines[0].split("\t")
    assert head == ["query_set", "section", "test", "observation", "count", "share"]
    return [dict(zip(head, ln.split("\t"))) for ln in lines[1:]]


def test_stats_report_path_all_negative():
    g = path_graph(4)
    ix = build_index(g, SMALL, seed=0)
    # exactly the unreachable pairs on a path
    neg = [(s, t) for s in range(4) for t in range(4) if s > t]
    stats = observation_stats(ix, [s for s, _ in neg], [t for _, t in neg])
    rows = parse_report(stats_report(stats, query_set="neg"))
    first = [r for r in rows if r["section"] == "first_hit"]
    assert first == [
        {
            "query_set": "neg",
            "section": "first_hit",
            "test": "2",
            "observation": "B5",
            "count": "6",
            "share": "1.000000",
        }
    ]
    summary = {r["observation"]: r for r in rows if r["section"] == "summary"}
    assert summary["queries"]["count"] == "6"
    assert summary["fallbacks"]["count"] == "0"
    assert summary["unreachable"]["count"] == "6"
    assert summary["reachable"]["count"] == "0"


def test_stats_report_orders_tags_and_handles_empty():
    stats = ObservationStats()
    stats.queries = 4
    stats.first_hit.update({"4:T1": 1, "2:B5": 2})
    stats.fallbacks = 1
    stats.overlap.update({"B5": 2, "B4": 1})
    stats.outcomes.update({"reachable": 1, "unreachable": 3})
    rows = parse_report(stats_report(stats))
    first = [r for r in rows if r["section"] == "first_hit"]
    assert [(r["test"], r["observation"]) for r in first] == [("2", "B5"), ("4", "T1")]
    assert first[0]["share"] == "0.500000"
    over = [r["observation"] for r in rows if r["section"] == "overlap"]
    assert over == ["B4", "B5"]

    empty_rows = parse_report(stats_report(ObservationStats()))
    assert all(r["section"] == "summary" for r in empty_rows)
    fb = [r for r in empty_rows if r["observation"] == "fallbacks"][0]
    assert fb["share"] == "-"

from __future__ import annotations

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachidx.baselines import CapacityError, build_matrix, matrix_query
from reachidx.graph import DiGraph, GraphFormatError
from reachidx.index import HEADER, IndexParams, ObservationStats, build_index, observation_stats
from reachidx.workbench import (
    Algorithm,
    AnswerMismatchError,
    BenchReport,
    BuiltAlgorithm,
    InfeasibleError,
    QuerySet,
    bench,
    build_oracle,
    gen_queries,
    gen_random_dag,
    load_query_file,
    save_query_set,
    standard_algorithms,
    stats_report,
)

from conftest import dags, diamond, path_graph

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
    assert sorted(g.edges()) == [(i, j) for i in range(5) for j in range(i + 1, 5)]


def test_gen_dag_seed_sensitivity():
    a = gen_random_dag(30, 100, seed=0)
    b = gen_random_dag(30, 100, seed=0)
    c = gen_random_dag(30, 100, seed=1)
    assert a.out_adj == b.out_adj
    assert a.out_adj != c.out_adj


@given(
    st.integers(2, 40),
    st.data(),
    st.integers(0, 2**32 - 1),
)
def test_gen_dag_shape(n, data, seed):
    m = data.draw(st.integers(0, n * (n - 1) // 2))
    g = gen_random_dag(n, m, seed=seed)
    assert g.n == n and g.m == m
    assert all(u < v for u, v in g.edges())  # acyclic by construction


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
        assert matrix_query(mx, s, t) == exp


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


def test_query_file_roundtrip(tmp_path):
    qs = QuerySet([(0, 2), (1, 0)], "random", 0, expected=[True, None])
    path = tmp_path / "q.txt"
    with open(path, "w") as f:
        save_query_set(qs, f)
    assert load_query_file(str(path)) == [(0, 2, True), (1, 0, None)]


def test_query_file_original_id_translation(tmp_path):
    qs = QuerySet([(0, 1)], "random", 0, expected=[False])
    path = tmp_path / "q.txt"
    with open(path, "w") as f:
        save_query_set(qs, f, original_ids=[10, 30])
    assert path.read_text() == "10 30 0\n"


def test_query_file_comments_and_errors(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text("# heading\n\n3 4\n4 3 1\n")
    assert load_query_file(str(path)) == [(3, 4, None), (4, 3, True)]
    for bad in ("1 2 3 4\n", "1 2 2\n", "x y\n"):
        path.write_text(bad)
        with pytest.raises(GraphFormatError, match="q.txt:1"):
            load_query_file(str(path))


# ---------------------------------------------------------------------------
# algorithms and bench


def test_standard_algorithms_names():
    algos = standard_algorithms(["matrix", "bfs", "index+pbibfs", "index+bfs"], SMALL)
    assert [a.name for a in algos] == ["matrix", "bfs", "index+pbibfs", "index+bfs"]
    assert [a.seeded for a in algos] == [False, False, True, True]
    with pytest.raises(ValueError, match="unknown algorithm"):
        standard_algorithms(["dijkstra"])
    with pytest.raises(ValueError, match="unknown algorithm"):
        standard_algorithms(["index+astar"])
    with pytest.raises(ValueError, match="unknown algorithm"):
        standard_algorithms(["index+bibfs"])


def test_built_algorithms_agree_with_matrix():
    g = gen_random_dag(24, 60, seed=7)
    mx = build_matrix(g)
    for algo in standard_algorithms(["matrix", "bfs", "index+pbibfs"], SMALL):
        built = algo.build(g, 3)
        for s in range(g.n):
            for t in range(g.n):
                assert built.answer(s, t) == matrix_query(mx, s, t), algo.name


def test_built_algorithm_metadata():
    g = diamond()
    matrix, bfs, index = (
        a.build(g, 0)
        for a in standard_algorithms(["matrix", "bfs", "index+pbibfs"], SMALL)
    )
    assert matrix.index_bytes == 4  # 4 vertices, 1 byte of row each
    assert matrix.run_with_stats is None
    assert bfs.index_bytes == 0 and bfs.build_ms == 0.0
    assert index.index_bytes == HEADER.size + 4 * 38  # t=2, k=4 record layout
    assert index.run_with_stats is not None
    st_ = index.run_with_stats([(0, 3), (3, 0), (1, 1)])
    assert st_.queries == 3 and st_.outcomes == {"reachable": 2, "unreachable": 1}
    assert st_.overlap["EQ"] == 1 and sum(st_.overlap.values()) > 1  # overlap is counted


def test_bench_report_shape_and_tsv():
    g = gen_random_dag(16, 40, seed=2)
    oracle = build_oracle(g)
    sets = [
        gen_queries(g, "mixed", 5, seed=1, oracle=oracle),
        QuerySet([], "random", 0, name="empty"),
    ]
    algos = standard_algorithms(["matrix", "index+pbibfs"], SMALL)
    report = bench(g, algos, sets, repetitions=3, seeds=(0, 1))
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
    assert ("index+pbibfs", "mixed") in report.stats
    assert ("matrix", "mixed") not in report.stats
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
        bench(g, standard_algorithms(["matrix"]), [qs], repetitions=1, seeds=(0,))


def test_bench_rejects_zero_repetitions():
    qs = QuerySet([(0, 3)], "random", 0)
    with pytest.raises(ValueError, match="repetitions must be >= 1, got 0"):
        bench(diamond(), standard_algorithms(["matrix"]), [qs], repetitions=0)


def test_bench_skips_verification_without_expected():
    g = diamond()
    qs = QuerySet([(0, 3)], "random", 0, expected=None)
    report = bench(g, standard_algorithms(["matrix"]), [qs], repetitions=1)
    assert report.rows[0].n_queries == 1


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

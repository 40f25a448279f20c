from __future__ import annotations

import gc
import io
import os
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachidx.cli import main
from reachidx.graph import (
    AcyclicityError,
    DiGraph,
    GraphFormatError,
    graph_checksum,
    load_graph,
    parse_edge_list,
    parse_gra,
    parse_graph,
    scc_condense,
    topological_levels,
    weak_components,
    write_edge_list,
    write_gra,
    write_remap,
)

from conftest import (
    PINNED_EDGE_LIST,
    brute_reach_sets,
    dags,
    diamond,
    digraphs,
    path_graph,
)


# ---------------------------------------------------------------------------
# DiGraph basics


def test_from_edges_rejects_self_loop():
    with pytest.raises(ValueError):
        DiGraph.from_edges(2, [(0, 0)])


def test_from_edges_rejects_parallel_edge():
    with pytest.raises(ValueError):
        DiGraph.from_edges(2, [(0, 1), (0, 1)])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        DiGraph.from_edges(2, [(0, 5)])


@pytest.mark.parametrize("enabled", [True, False])
def test_from_edges_keeps_gc_state(enabled):
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        DiGraph.from_edges(3, [(0, 1), (1, 2)])
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_adjacency_is_sorted_regardless_of_input_order():
    g = DiGraph.from_edges(4, [(0, 3), (0, 1), (0, 2)])
    assert g.out_adj[0] == [1, 2, 3]
    assert g.in_adj[3] == [0]


def test_reverse_twice_is_identity():
    g = diamond()
    rr = g.reverse().reverse()
    assert rr.out_adj == g.out_adj and rr.in_adj == g.in_adj


@given(dags(max_n=12))
def test_reverse_swaps_adjacency(g):
    r = g.reverse()
    assert r.out_adj == g.in_adj
    assert r.in_adj == g.out_adj
    assert (r.n, r.m) == (g.n, g.m)


# ---------------------------------------------------------------------------
# parsing


def test_parse_edge_list_dense():
    res = parse_edge_list(io.StringIO("0 1\n1 2\n"))
    assert res.graph.n == 3 and res.graph.m == 2
    assert not res.is_sparse


def test_parse_edge_list_comments_and_blank_lines():
    res = parse_edge_list(["# header", "% other comment", "", "0 1", "1 2"])
    assert res.graph.m == 2


def test_parse_edge_list_drops_self_loop_with_count():
    res = parse_edge_list(["0 0"])
    assert res.graph.n == 1 and res.graph.m == 0
    assert res.dropped_self_loops == 1


def test_parse_edge_list_drops_duplicates_with_count():
    res = parse_edge_list(["0 1", "0 1", "1 2"])
    assert res.graph.m == 2
    assert res.dropped_duplicates == 1


def test_parse_edge_list_sparse_ids_remap():
    res = parse_edge_list(["10 30", "30 20"])
    assert res.graph.n == 3
    assert res.is_sparse
    assert res.original_ids == [10, 20, 30]
    assert res.id_map == {10: 0, 20: 1, 30: 2}
    # edges translated through the remap
    assert sorted(res.graph.edges()) == [(0, 2), (2, 1)]
    buf = io.StringIO()
    write_remap(res, buf)
    assert buf.getvalue() == "10 0\n20 1\n30 2\n"


def test_parse_edge_list_malformed_line_reports_lineno():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_edge_list(["0 1", "0 1 2"])
    with pytest.raises(GraphFormatError, match="non-integer"):
        parse_edge_list(["a b"])


def test_parse_gra_example():
    res = parse_gra(io.StringIO("3\n0: 1 2 #\n1: #\n2: #\n"))
    assert res.graph.n == 3 and res.graph.m == 2
    assert res.graph.out_adj[0] == [1, 2]
    assert not res.is_sparse


def test_parse_gra_tolerates_header_line():
    res = parse_gra(["graph_for_testing", "2", "0: 1 #", "1: #"])
    assert res.graph.n == 2 and res.graph.m == 1


def test_parse_gra_inconsistent_count_is_error():
    with pytest.raises(GraphFormatError, match="inconsistent"):
        parse_gra(["2", "0: 5 #", "1: #"])
    with pytest.raises(GraphFormatError, match="adjacency lines"):
        parse_gra(["3", "0: #", "1: #"])


def test_parse_gra_requires_terminator():
    with pytest.raises(GraphFormatError, match="terminated"):
        parse_gra(["1", "0: 1 2"])


def test_parse_gra_huge_declared_count_is_format_error():
    # the seen-id table grows with the lines read, not with the declared n
    n = 10**12
    with pytest.raises(GraphFormatError, match=f"expected {n} adjacency lines, found 0"):
        parse_gra([str(n)])
    with pytest.raises(GraphFormatError, match="found 1$"):
        parse_gra([str(n), "0: 1 #"])


def test_parse_graph_dispatch_and_unknown_format():
    assert parse_graph(["0 1"], "edge-list").graph.m == 1
    with pytest.raises(ValueError):
        parse_graph(["0 1"], "tsv")


@given(dags(max_n=10))
def test_write_parse_roundtrip_both_formats(g):
    buf = io.StringIO()
    write_edge_list(g, buf)
    # isolated vertices vanish from an edge list; compare via gra instead
    buf2 = io.StringIO()
    write_gra(g, buf2)
    res = parse_gra(io.StringIO(buf2.getvalue()))
    assert res.graph.out_adj == g.out_adj
    if g.m:
        res2 = parse_edge_list(io.StringIO(buf.getvalue()))
        assert sorted(res2.graph.edges()) == sorted(
            (res2.id_map[u], res2.id_map[v]) for u, v in g.edges()
        )


def _reference_edge_list(lines):
    """Line-by-line reading of an edge list: (original ids, dense edges kept,
    self-loops dropped, duplicates dropped)."""
    raw = []
    for lineno, text in enumerate(lines, 1):
        line = text.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            raw.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id") from None
    ids = sorted({x for e in raw for x in e})
    dense = [(ids.index(u), ids.index(v)) for u, v in raw]
    loops = sum(u == v for u, v in dense)
    kept = sorted({e for e in dense if e[0] != e[1]})
    return ids, kept, loops, len(dense) - loops - len(kept)


_IDS = st.sampled_from([-(2**40), -7, -1, 0, 1, 2, 9, 10, 99, 12345, 2**31, 2**40 + 3])
_MALFORMED = ["5", "1 2 3", "1 2 # note", "a 1", "1 x", "1.5 2", "0x10 1", "- 1"]


@st.composite
def edge_list_texts(draw):
    """Edge-list lines in assorted layouts; up to two malformed lines."""
    lines = []
    for u, v in draw(st.lists(st.tuples(_IDS, _IDS), max_size=25)):
        kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank", "dup"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# c", "%c 1 2", "  # 1 2 3", "\t%"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        trail = draw(st.sampled_from(["", " ", "\t", "\r"]))
        lines.append(f"{lead}{u}{sep}{v}{trail}")
        if kind == "dup":
            lines.append(f"{u} {v}")
    for bad in draw(st.lists(st.sampled_from(_MALFORMED), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


def _outcome(parse, lines):
    try:
        res = parse(lines)
    except GraphFormatError as e:
        return "error", str(e)
    assert res.id_map == {x: i for i, x in enumerate(res.original_ids)}
    return (res.original_ids, sorted(res.graph.edges()),
            res.dropped_self_loops, res.dropped_duplicates)


def _reference_outcome(lines):
    try:
        return _reference_edge_list(lines)
    except GraphFormatError as e:
        return "error", str(e)


@settings(max_examples=150, deadline=None)
@given(edge_list_texts(), st.sampled_from(["\n", "\r\n"]))
def test_parse_edge_list_matches_line_by_line_reference(lines, newline):
    expected = _reference_outcome(lines)
    assert _outcome(parse_edge_list, lines) == expected
    assert _outcome(parse_edge_list, [ln + "\n" for ln in lines]) == expected
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.txt")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write("".join(ln + newline for ln in lines))
        with open(path, encoding="utf-8") as f:  # a lone '\r' ends a line here
            assert _outcome(load_graph, path) == _reference_outcome(f)


def test_parse_edge_list_accepts_what_int_accepts():
    res = parse_edge_list(["+5 -0_7", "1_000 ٣", str(2**70) + " 5"])
    assert res.original_ids == [-7, 3, 5, 1000, 2**70]
    assert sorted(res.graph.edges()) == [(2, 0), (3, 1), (4, 2)]


# ---------------------------------------------------------------------------
# checksum


def test_checksum_stable_and_discriminating():
    g1 = DiGraph.from_edges(3, [(0, 1), (1, 2)])
    g2 = DiGraph.from_edges(3, [(1, 2), (0, 1)])  # same graph, different order
    g3 = DiGraph.from_edges(3, [(0, 1), (0, 2)])
    assert graph_checksum(g1) == graph_checksum(g2)
    assert graph_checksum(g1) != graph_checksum(g3)


# ---------------------------------------------------------------------------
# SCC condensation


def test_scc_two_cycle_collapses():
    g = DiGraph.from_edges(2, [(0, 1), (1, 0)])
    cond = scc_condense(g)
    assert cond.dag.n == 1 and cond.dag.m == 0
    assert cond.scc_of[0] == cond.scc_of[1]


def test_scc_example_structure():
    g = DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    cond = scc_condense(g)
    assert cond.dag.n == 2 and cond.dag.m == 1
    assert cond.scc_of[0] == cond.scc_of[1] == cond.scc_of[2]
    assert cond.scc_of[3] != cond.scc_of[0]
    assert list(cond.dag.edges()) == [(cond.scc_of[0], cond.scc_of[3])]
    for cid, rep in enumerate(cond.rep_of):
        assert cond.scc_of[rep] == cid


@given(dags(max_n=10))
def test_scc_on_dag_is_bijection(g):
    cond = scc_condense(g)
    assert sorted(cond.scc_of) == list(range(g.n))
    relabeled = sorted((cond.scc_of[u], cond.scc_of[v]) for u, v in g.edges())
    assert relabeled == sorted(cond.dag.edges())


@settings(max_examples=60)
@given(digraphs(max_n=8))
def test_scc_matches_brute_force_partition(g):
    reach = brute_reach_sets(g)
    cond = scc_condense(g)
    for u in range(g.n):
        for v in range(g.n):
            same = v in reach[u] and u in reach[v]
            assert (cond.scc_of[u] == cond.scc_of[v]) == same
    # condensation must be acyclic
    topological_levels(cond.dag)


def test_condensation_numbering_and_index_bytes_frozen(tmp_path, capsys):
    """Tarjan's numbering decides the condensed DAG and so the index bytes;
    the values below were recorded before the array-based ingestion."""
    res = parse_edge_list(PINNED_EDGE_LIST.splitlines())
    assert res.original_ids == [-3, 7, 8, 10, 12, 40, 55, 70, 90, 1000]
    assert (res.dropped_self_loops, res.dropped_duplicates) == (1, 1)
    cond = scc_condense(res.graph)
    assert cond.scc_of == [3, 5, 4, 2, 0, 1, 1, 2, 0, 6]
    assert cond.rep_of == [4, 5, 7, 0, 2, 1, 9]
    assert cond.dag.out_adj == [[], [0], [0, 1], [2], [1], [4], [3]]
    g = tmp_path / "g.txt"
    g.write_text(PINNED_EDGE_LIST)
    idx = tmp_path / "g.ridx"
    assert main(["build", "--graph", str(g), "--out-index", str(idx)]) == 0
    capsys.readouterr()
    data = idx.read_bytes()
    assert (len(data), zlib.crc32(data)) == (472, 3774216309)


# ---------------------------------------------------------------------------
# weak components


def test_weak_components_examples():
    g = DiGraph.from_edges(3, [(0, 1)])
    assert weak_components(g) == [0, 0, 1]
    g2 = DiGraph.from_edges(3, [])
    assert weak_components(g2) == [0, 1, 2]
    assert weak_components(diamond()) == [0, 0, 0, 0]


@given(dags(max_n=10))
def test_weak_components_ids_dense(g):
    comp = weak_components(g)
    if g.n:
        assert sorted(set(comp)) == list(range(max(comp) + 1))
    for u, v in g.edges():
        assert comp[u] == comp[v]


# ---------------------------------------------------------------------------
# levels


def test_levels_diamond():
    lv = topological_levels(diamond())
    assert lv.fwd == [0, 1, 1, 2]
    assert lv.bwd == [2, 1, 1, 0]
    assert lv.fwd_max == 2 and lv.bwd_max == 2


def test_levels_edgeless_and_path():
    lv = topological_levels(DiGraph.from_edges(3, []))
    assert lv.fwd == [0, 0, 0] and lv.bwd == [0, 0, 0]
    lv2 = topological_levels(path_graph(4))
    assert lv2.fwd == [0, 1, 2, 3]
    assert lv2.bwd == [3, 2, 1, 0]


def test_levels_cycle_raises():
    g = DiGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(AcyclicityError):
        topological_levels(g)


@given(dags(max_n=14))
def test_level_invariants(g):
    lv = topological_levels(g)
    for u, v in g.edges():
        assert lv.fwd[u] < lv.fwd[v]
        assert lv.bwd[u] > lv.bwd[v]
    for v in range(g.n):
        assert (lv.fwd[v] == 0) == (not g.in_adj[v])
        assert (lv.bwd[v] == 0) == (not g.out_adj[v])
        if g.in_adj[v]:
            assert lv.fwd[v] == 1 + max(lv.fwd[u] for u in g.in_adj[v])

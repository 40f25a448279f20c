from __future__ import annotations

import gc
import io
import os
import random
import tempfile
import zlib

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import reachidx.graph as graph_mod
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
    _hook_and_compress,
    scc_condense,
    topological_levels,
    weak_components,
    write_edge_list,
    write_gra,
    write_remap,
)
from reachidx.workbench import gen_random_dag

from conftest import (
    PINNED_EDGE_LIST,
    brute_reach_sets,
    dags,
    diamond,
    digraphs,
    edge_pairs,
    path_graph,
    predecessors,
    ref_kahn_levels,
    ref_weak_components,
    successors,
)


def rows(g):
    """(out-neighbour lists, in-neighbour lists) of every vertex."""
    return ([successors(g, v) for v in range(g.n)], [predecessors(g, v) for v in range(g.n)])


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
    assert successors(g, 0) == [1, 2, 3]
    assert predecessors(g, 3) == [0]


def test_reverse_twice_is_identity():
    g = diamond()
    rr = g.reverse().reverse()
    assert rows(rr) == rows(g)


@given(dags(max_n=12))
def test_reverse_swaps_adjacency(g):
    r = g.reverse()
    assert rows(r) == rows(g)[::-1]
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
    assert edge_pairs(res.graph) == [(0, 2), (2, 1)]
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
    assert successors(res.graph, 0) == [1, 2]
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
    assert rows(res.graph)[0] == rows(g)[0]
    if g.m:
        res2 = parse_edge_list(io.StringIO(buf.getvalue()))
        assert edge_pairs(res2.graph) == sorted(
            (res2.id_map[u], res2.id_map[v]) for u, v in edge_pairs(g)
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
    return (res.original_ids, edge_pairs(res.graph),
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
    assert edge_pairs(res.graph) == [(2, 0), (3, 1), (4, 2)]


# ---------------------------------------------------------------------------
# checksum


def test_checksum_stable_and_discriminating():
    g1 = DiGraph.from_edges(3, [(0, 1), (1, 2)])
    g2 = DiGraph.from_edges(3, [(1, 2), (0, 1)])  # same graph, different order
    g3 = DiGraph.from_edges(3, [(0, 1), (0, 2)])
    assert graph_checksum(g1) == graph_checksum(g2)
    assert graph_checksum(g1) != graph_checksum(g3)


def list_walk_checksum(g: DiGraph) -> int:
    """graph_checksum as a walk over the adjacency lists: the reference the
    value stored at construction must equal."""
    h = zlib.crc32(np.array([g.n, g.m], dtype="<u8").tobytes())
    out = rows(g)[0]
    degs = np.array([len(nbrs) for nbrs in out], dtype="<u4")
    flat = np.array([v for nbrs in out for v in nbrs], dtype="<u4")
    return zlib.crc32(flat.tobytes(), zlib.crc32(degs.tobytes(), h))


@settings(max_examples=60)
@given(digraphs(max_n=12))
def test_stored_checksum_is_the_list_walk(g):
    assert graph_checksum(g) == g.checksum == list_walk_checksum(g)
    r = g.reverse()
    assert graph_checksum(r) == list_walk_checksum(r)
    assert graph_checksum(r.reverse()) == graph_checksum(g)


def test_stored_checksum_pinned_values():
    empty = DiGraph.from_edges(0, [])
    g = gen_random_dag(300, 1200, seed=0)
    cond = scc_condense(parse_edge_list(PINNED_EDGE_LIST.splitlines()).graph).dag
    for h in (empty, g, cond):
        assert graph_checksum(h) == list_walk_checksum(h)
        assert graph_checksum(h.reverse()) == list_walk_checksum(h.reverse())
    assert graph_checksum(g) != graph_checksum(g.reverse())


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
    assert edge_pairs(cond.dag) == [(cond.scc_of[0], cond.scc_of[3])]


@given(dags(max_n=10))
def test_scc_on_dag_is_bijection(g):
    cond = scc_condense(g)
    assert sorted(cond.scc_of) == list(range(g.n))
    relabeled = sorted((cond.scc_of[u], cond.scc_of[v]) for u, v in edge_pairs(g))
    assert relabeled == edge_pairs(cond.dag)


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
    the condensation was recorded before the array-based ingestion, the CRC
    once the orderings drew their child orders by keyed sort."""
    res = parse_edge_list(PINNED_EDGE_LIST.splitlines())
    assert res.original_ids == [-3, 7, 8, 10, 12, 40, 55, 70, 90, 1000]
    assert (res.dropped_self_loops, res.dropped_duplicates) == (1, 1)
    cond = scc_condense(res.graph)
    assert cond.scc_of == [3, 5, 4, 2, 0, 1, 1, 2, 0, 6]
    assert rows(cond.dag)[0] == [[], [0], [0, 1], [2], [1], [4], [3]]
    g = tmp_path / "g.txt"
    g.write_text(PINNED_EDGE_LIST)
    idx = tmp_path / "g.ridx"
    assert main(["build", "--graph", str(g), "--out-index", str(idx)]) == 0
    capsys.readouterr()
    data = idx.read_bytes()
    assert (len(data), zlib.crc32(data)) == (472, 701085302)


# ---------------------------------------------------------------------------
# weak components


def test_weak_components_examples():
    g = DiGraph.from_edges(3, [(0, 1)])
    assert list(weak_components(g)) == [0, 0, 1]
    g2 = DiGraph.from_edges(3, [])
    assert list(weak_components(g2)) == [0, 1, 2]
    assert list(weak_components(diamond())) == [0, 0, 0, 0]


@given(dags(max_n=10))
def test_weak_components_ids_dense(g):
    comp = weak_components(g)
    if g.n:
        assert sorted(set(comp)) == list(range(max(comp) + 1))
    for u, v in edge_pairs(g):
        assert comp[u] == comp[v]


# ---------------------------------------------------------------------------
# levels


def test_levels_diamond():
    lv = topological_levels(diamond())
    assert list(lv.fwd) == [0, 1, 1, 2]
    assert list(lv.bwd) == [2, 1, 1, 0]
    assert lv.fwd_max == 2 and lv.bwd_max == 2


def test_levels_edgeless_and_path():
    lv = topological_levels(DiGraph.from_edges(3, []))
    assert list(lv.fwd) == [0, 0, 0] and list(lv.bwd) == [0, 0, 0]
    lv2 = topological_levels(path_graph(4))
    assert list(lv2.fwd) == [0, 1, 2, 3]
    assert list(lv2.bwd) == [3, 2, 1, 0]


def test_levels_cycle_raises():
    g = DiGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(AcyclicityError):
        topological_levels(g)


@given(dags(max_n=14))
def test_level_invariants(g):
    lv = topological_levels(g)
    for u, v in edge_pairs(g):
        assert lv.fwd[u] < lv.fwd[v]
        assert lv.bwd[u] > lv.bwd[v]
    for v in range(g.n):
        assert (lv.fwd[v] == 0) == (not predecessors(g, v))
        assert (lv.bwd[v] == 0) == (not successors(g, v))
        if predecessors(g, v):
            assert lv.fwd[v] == 1 + max(lv.fwd[u] for u in predecessors(g, v))


# ---------------------------------------------------------------------------
# the numpy stages against the scalar references in conftest


def relabelled(n, edges, seed):
    """The graph on n vertices with its edges renamed by a seeded shuffle."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return DiGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def dag_unions(draw, max_parts: int = 4, max_n: int = 400):
    """A disjoint union of random DAGs, some wide enough for whole-array
    Kahn rounds, with shuffled vertex ids."""
    parts = draw(st.lists(
        st.tuples(st.integers(0, max_n), st.integers(0, 6), st.integers(0, 2**16)), max_size=max_parts
    ))
    n, edges = 0, []
    for size, degree, seed in parts:
        g = gen_random_dag(size, min(degree * size, size * (size - 1) // 2), seed)
        edges += [(n + u, n + v) for u, v in edge_pairs(g)]
        n += size
    return relabelled(n, edges, draw(st.integers(0, 2**16)))


def assert_matches_references(g):
    assert weak_components(g) == ref_weak_components(g)
    lv = topological_levels(g)
    assert lv.fwd == ref_kahn_levels(g)
    assert lv.bwd == ref_kahn_levels(g.reverse())
    assert (lv.fwd_max, lv.bwd_max) == (max(lv.fwd, default=0), max(lv.bwd, default=0))
    lo, hi = np.array(edge_pairs(g), dtype=np.int64).reshape(-1, 2).T
    _, rounds = _hook_and_compress(g.n, np.minimum(lo, hi), np.maximum(lo, hi))
    assert rounds <= max(g.n - 1, 0).bit_length()  # ceil(log2 n)


@settings(max_examples=60, deadline=None)
@given(dag_unions())
def test_stages_match_references_on_dag_unions(g):
    assert_matches_references(g)


@settings(max_examples=100, deadline=None)
@given(dags(max_n=24), st.sampled_from([1, 2, 128]))
def test_levels_match_reference_in_both_regimes(g, narrow):
    # a small threshold sends drawn DAGs through whole-array rounds too
    with mock.patch.object(graph_mod, "_NARROW", narrow):
        assert_matches_references(g)


@settings(max_examples=100, deadline=None)
@given(digraphs(max_n=12), st.sampled_from([1, 2, 128]))
def test_cycles_raise_as_the_reference_does(g, narrow):
    try:
        ref_kahn_levels(g)
    except AcyclicityError:
        with mock.patch.object(graph_mod, "_NARROW", narrow), pytest.raises(AcyclicityError):
            topological_levels(g)
    else:
        with mock.patch.object(graph_mod, "_NARROW", narrow):
            assert_matches_references(g)


def wide_dag_over_path(n_wide: int, n_path: int, seed: int = 1):
    """(edges, n): a random DAG on n_wide vertices with a path of n_path
    vertices hanging below its highest vertex."""
    g = gen_random_dag(n_wide, 4 * n_wide, seed)
    top = max(range(n_wide), key=ref_kahn_levels(g).__getitem__)
    chain = [top, *range(n_wide, n_wide + n_path)]
    return edge_pairs(g) + list(zip(chain, chain[1:])), n_wide + n_path


@pytest.mark.parametrize(
    "name, n, edges",
    [
        ("empty", 0, []),
        ("isolated", 300, []),
        ("in-star", 1 + 2**12, [(v, 0) for v in range(1, 1 + 2**12)]),
        ("out-star", 1 + 2**12, [(0, v) for v in range(1, 1 + 2**12)]),
        ("path", 2**15, [(v, v + 1) for v in range(2**15 - 1)]),
        ("wide-over-path", *reversed(wide_dag_over_path(4096, 2000))),
    ],
)
@pytest.mark.parametrize("shuffle", [None, 7])
def test_stages_match_references_on_fixed_shapes(name, n, edges, shuffle):
    g = DiGraph.from_edges(n, edges) if shuffle is None else relabelled(n, edges, shuffle)
    if name == "wide-over-path":
        # both regimes in one call: wide rounds first, then 2000 single-vertex levels
        fwd = topological_levels(g).fwd
        assert fwd.count(0) >= graph_mod._NARROW and max(fwd) > 2000
    assert_matches_references(g)


@pytest.mark.parametrize("below", ["sink", "source"])
def test_cycle_below_a_wide_prefix_raises(below):
    edges, n = wide_dag_over_path(4096, 0)
    lv = ref_kahn_levels(DiGraph.from_edges(n, edges))
    # a 3-cycle reached from the highest vertex, or reaching the lowest one
    end = max(range(n), key=lv.__getitem__) if below == "sink" else lv.index(0)
    cyc = [n, n + 1, n + 2]
    link = (end, n) if below == "sink" else (n, end)
    g = DiGraph.from_edges(n + 3, edges + [link, (n, n + 1), (n + 1, n + 2), (n + 2, n)])
    with pytest.raises(AcyclicityError):
        topological_levels(g)
    assert weak_components(g) == ref_weak_components(g)


def test_component_rounds_within_log2_on_long_shapes():
    n = 2**16
    rng = random.Random(5)
    perm = list(range(n))
    rng.shuffle(perm)
    shapes = {
        "shuffled path": [(perm[i], perm[i + 1]) for i in range(n - 1)],
        "random tree": [(rng.randrange(v), v) for v in range(1, n)],
        "caterpillar": [(v - 2, v) for v in range(2, n, 2)] + [(v - 1, v) for v in range(1, n, 2)],
    }
    for name, edges in shapes.items():
        lo, hi = np.array(edges, dtype=np.int64).T
        p = np.array(perm, dtype=np.int64)
        root, rounds = _hook_and_compress(n, np.minimum(p[lo], p[hi]), np.maximum(p[lo], p[hi]))
        assert rounds <= 16, name
        assert (root == root[0]).all(), name

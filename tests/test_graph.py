from __future__ import annotations

import gc
import io
import os
import pickle
import random
import sys
import tempfile
import zlib

import numpy as np
import pytest
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import reachidx.graph as graph_mod
from reachidx.cli import main
from reachidx.core import _WHITESPACE, _WS_TABLE, graph_checksum, load_pairs
from reachidx.graph import (
    AcyclicityError,
    DiGraph,
    GraphFormatError,
    load_graph,
    parse_graph,
    _csr_graph,
    _hook_and_compress,
    level_fold,
    scc_condense,
    topological_levels,
    weak_components,
    write_edge_list,
    write_gra,
)
from reachidx.workbench import gen_random_dag

from conftest import (
    FOLD_REGIMES,
    PINNED_EDGE_LIST,
    brute_reach_sets,
    dags,
    diamond,
    digraphs,
    edge_pairs,
    fold_regime,
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


@pytest.mark.parametrize(
    "edges, bad",
    [([(0, 1.9), (1.2, 2)], "1.9"), ([(1.0, 2)], "1.0"), ([(0, "1")], "'1'")],
)
def test_from_edges_rejects_non_integer_ids(edges, bad):
    # int64 conversion used to truncate: (0, 1.9), (1.2, 2) built (0, 1), (1, 2)
    with pytest.raises(ValueError, match=rf"^vertex id {bad} is not an integer$"):
        DiGraph.from_edges(3, edges)


def test_from_edges_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match=r"^vertex count must be >= 0, got -1$"):
        DiGraph.from_edges(-1, [])
    assert DiGraph.from_edges(3, [(np.int32(0), 1), (True, 2)]).m == 2  # int-like ids


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


def test_graphs_compare_by_their_rows():
    g = diamond()
    same = DiGraph.from_edges(4, [(2, 3), (1, 3), (0, 2), (0, 1)])
    assert g == same and g is not same
    graph_checksum(g)  # a cached checksum takes no part
    assert g == same and pickle.loads(pickle.dumps(g)) == g
    assert g.reverse() == DiGraph.from_edges(4, [(v, u) for u, v in edge_pairs(g)])
    assert g != DiGraph.from_edges(5, edge_pairs(g))  # one more vertex
    assert g != DiGraph.from_edges(4, edge_pairs(g)[:-1])  # one edge fewer
    assert g != DiGraph.from_edges(4, [(0, 1), (0, 3), (1, 3), (2, 3)])  # the same offsets
    assert g != DiGraph.from_edges(4, [(0, 1), (1, 2), (1, 3), (2, 3)])  # the same targets
    assert g != edge_pairs(g)
    with pytest.raises(TypeError, match="unhashable"):
        hash(g)


def transposed_rows(n: int, edges: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """In-offsets and in-targets of the edges, by appending each source to
    its target's row in edge order."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        rows[v].append(u)
    return [0, *np.cumsum([len(r) for r in rows], dtype=np.int64).tolist()], [
        u for r in rows for u in r
    ]


@pytest.mark.parametrize(
    "n,m",
    [(0, 0), (1, 0), (3000, 12000), (1 << 16, 4000), ((1 << 16) + 1, 0), ((1 << 17) + 5, 6000)],
)
def test_csr_graph_in_rows_are_the_transposition(n, m):
    """One radix pass for n <= 2^16, two above: the in-rows are the edges
    transposed in (source, target) order, each row's sources ascending."""
    rng = np.random.default_rng(n + m)
    keys = np.unique(rng.integers(0, n * n, size=m)) if n else np.zeros(0, np.int64)
    keys = keys[keys // max(n, 1) != keys % max(n, 1)]  # no self-loops
    if n > 1 << 16:  # targets that share their low 16 bits, and the top id
        keys = np.unique(np.r_[keys, [5 * n + 7, 5 * n + 7 + (1 << 16), 9 * n + n - 1]])
    u, v = keys // max(n, 1), keys % max(n, 1)
    g = _csr_graph(np.r_[0, np.cumsum(np.bincount(u, minlength=n))], v)
    in_off, in_tg = transposed_rows(n, list(zip(u.tolist(), v.tolist())))
    assert (g.n, g.m) == (n, len(keys))
    assert g.in_off.tolist() == in_off and g.in_tg.tolist() == in_tg


# ---------------------------------------------------------------------------
# parsing


def test_parse_edge_list_dense():
    res = parse_graph("0 1\n1 2\n", "edge-list")
    assert res.graph.n == 3 and res.graph.m == 2
    assert res.ids.tolist() == [0, 1, 2]


def test_parse_edge_list_comments_and_blank_lines():
    res = parse_graph("# header\n% other comment\n\n0 1\n1 2", "edge-list")
    assert res.graph.m == 2


def test_parse_edge_list_drops_self_loop_with_count():
    res = parse_graph("0 0", "edge-list")
    assert res.graph.n == 1 and res.graph.m == 0
    assert res.dropped_self_loops == 1


def test_parse_edge_list_drops_duplicates_with_count():
    res = parse_graph("0 1\n0 1\n1 2", "edge-list")
    assert res.graph.m == 2
    assert res.dropped_duplicates == 1


def test_parse_edge_list_sparse_ids_remap():
    res = parse_graph("10 30\n30 20", "edge-list")
    assert res.graph.n == 3
    assert res.ids.tolist() == [10, 20, 30]
    assert res.id_map == {10: 0, 20: 1, 30: 2}
    # edges translated through the remap
    assert edge_pairs(res.graph) == [(0, 2), (2, 1)]


def test_parse_edge_list_malformed_line_reports_lineno():
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("0 1\n0 1 2", "edge-list")
    with pytest.raises(GraphFormatError, match="non-integer"):
        parse_graph("a b", "edge-list")


def test_parse_gra_example():
    res = parse_graph("3\n0: 1 2 #\n1: #\n2: #\n", "gra")
    assert res.graph.n == 3 and res.graph.m == 2
    assert successors(res.graph, 0) == [1, 2]
    assert res.ids.tolist() == [0, 1, 2]


def test_parse_gra_tolerates_header_line():
    res = parse_graph("graph_for_testing\n2\n0: 1 #\n1: #", "gra")
    assert res.graph.n == 2 and res.graph.m == 1


def test_parse_gra_inconsistent_count_is_error():
    with pytest.raises(GraphFormatError, match="inconsistent"):
        parse_graph("2\n0: 5 #\n1: #", "gra")
    with pytest.raises(GraphFormatError, match="adjacency lines"):
        parse_graph("3\n0: #\n1: #", "gra")


def test_parse_gra_requires_terminator():
    with pytest.raises(GraphFormatError, match="terminated"):
        parse_graph("1\n0: 1 2", "gra")


def test_parse_gra_huge_declared_count_is_format_error():
    # nothing is sized by the declared n before the line count matches it:
    # an array of 10**12 cells fails to allocate, one of 10**30 to exist
    for n in (10**12, 10**30):
        with pytest.raises(GraphFormatError, match=f"^expected {n} adjacency lines, found 0$"):
            parse_graph(str(n), "gra")
        with pytest.raises(GraphFormatError, match=f"^expected {n} adjacency lines, found 1$"):
            parse_graph(f"{n}\n0: 1 #", "gra")


def test_parse_graph_dispatch_and_unknown_format():
    assert parse_graph("0 1", "edge-list").graph.m == 1
    with pytest.raises(ValueError):
        parse_graph("0 1", "tsv")


@given(dags(max_n=10))
def test_write_parse_roundtrip_both_formats(g):
    buf = io.StringIO()
    write_edge_list(g, buf)
    # isolated vertices vanish from an edge list; compare via gra instead
    buf2 = io.StringIO()
    write_gra(g, buf2)
    res = parse_graph(buf2.getvalue(), "gra")
    assert rows(res.graph)[0] == rows(g)[0]
    if g.m:
        res2 = parse_graph(buf.getvalue(), "edge-list")
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
_MALFORMED = ["5", "1 2 3", "1 2 # note", "a 1", "1 x", "1.5 2", "0x10 1", "- 1", "1 2-3",
              "1\x012 3"]


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
        # '\x1c' is whitespace to str.split() only, '\u00a0' and '\u3000' are not ASCII
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t ", "\x1c", "\u00a0", " \u3000"]))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        trail = draw(st.sampled_from(["", " ", "\t", "\r"]))
        lines.append(f"{lead}{u}{sep}{v}{trail}")
        if kind == "dup":
            lines.append(f"{u} {v}")
    for bad in draw(st.lists(st.sampled_from(_MALFORMED), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines


def _outcome(parse, *args):
    try:
        res = parse(*args)
    except GraphFormatError as e:
        return "error", str(e)
    assert res.id_map == {x: i for i, x in enumerate(res.ids.tolist())}
    return (res.ids.tolist(), edge_pairs(res.graph),
            res.dropped_self_loops, res.dropped_duplicates)


def _reference_outcome(lines, reference=_reference_edge_list):
    try:
        return reference(lines)
    except GraphFormatError as e:
        return "error", str(e)


@settings(max_examples=150, deadline=None)
@given(edge_list_texts(), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
def test_parse_edge_list_matches_line_by_line_reference(lines, newline, bom):
    """As a file: plain ASCII is read as bytes, and a file with '\\r', a
    control byte or non-ASCII text is decoded; a leading UTF-8 BOM is
    skipped either way."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.txt")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write("\ufeff" * bom + "".join(ln + newline for ln in lines))
        with open(path, encoding="utf-8-sig") as f:  # a lone '\r' ends a line here
            assert _outcome(load_graph, path) == _reference_outcome(f)


@pytest.mark.parametrize(
    "text",
    [
        "0012 -0\n +7\t8 \n\n3\x0b4\x0c\n",  # np.fromstring reads these ids
        "+5 -0_7\n1_000 3\n",  # underscores: only int() reads them
        f"{2**70} 5\n{-(2**63)} 5\n999999999999999999 1\n",  # past 18 digits
        "# c\n1 2\n% 3 4\n2 3\n",  # comment lines
        "1\x1c2\n2\x1f3\n",  # whitespace that np.fromstring does not skip
        "1 2-3\n",
        "1 +-2\n",
        "5 -\n",
        "1 2\n3\n",
        "",
        " \n\t\n",
    ],
)
def test_plain_edge_list_file_reads_as_the_reference(tmp_path, text):
    """Plain ASCII files: those np.fromstring reads at once, and each kind
    that the digit-column loop reads instead."""
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("ascii"))
    assert _outcome(load_graph, str(path)) == _reference_outcome(text.split("\n"))


def _reference_gra(lines):
    """Line-by-line reading of a gra file, as graph.parse_gra read it before
    gra files went through the tokenizer: (original ids, dense edges kept,
    self-loops dropped, duplicates dropped)."""
    numbered = ((i, raw.strip()) for i, raw in enumerate(lines, 1))
    it = ((i, line) for i, line in numbered if line and line[0] not in "#%")
    try:
        lineno, line = next(it)
    except StopIteration:
        raise GraphFormatError("empty gra file") from None
    if not line.lstrip("-").isdigit():
        # tolerated header line, e.g. a tool name
        try:
            lineno, line = next(it)
        except StopIteration:
            raise GraphFormatError("gra file ends before vertex count") from None
    try:
        n = int(line)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: bad vertex count {line!r}") from None
    if n < 0:
        raise GraphFormatError(f"line {lineno}: negative vertex count")
    seen = set()
    edges = []
    for lineno, line in it:
        head, sep, rest = line.partition(":")
        if not sep:
            raise GraphFormatError(f"line {lineno}: expected 'i: ... #'")
        try:
            u = int(head)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: bad vertex id {head!r}") from None
        if not 0 <= u < n:
            raise GraphFormatError(
                f"line {lineno}: vertex {u} inconsistent with declared count {n}"
            )
        if u in seen:
            raise GraphFormatError(f"line {lineno}: duplicate adjacency line for {u}")
        seen.add(u)
        parts = rest.split()
        if not parts or parts[-1] != "#":
            raise GraphFormatError(f"line {lineno}: adjacency not terminated by '#'")
        for tok in parts[:-1]:
            try:
                v = int(tok)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: bad neighbor id {tok!r}") from None
            if not 0 <= v < n:
                raise GraphFormatError(
                    f"line {lineno}: neighbor {v} inconsistent with declared count {n}"
                )
            edges.append((u, v))
    if len(seen) != n:
        raise GraphFormatError(f"expected {n} adjacency lines, found {len(seen)}")
    loops = sum(u == v for u, v in edges)
    kept = sorted({e for e in edges if e[0] != e[1]})
    return list(range(n)), kept, loops, len(edges) - loops - len(kept)


# lines that break a rule, or keep one in an odd way: a ':' cut before
# comments are found would make ':#' a comment; int() reads '٣' and '0_0',
# not '²' or a head that ends in '\x1c'
_GRA_ODD = [":#", "0 1: #", "0: 1:2 #", "0: 1 # 2 #", "0: 1#", "0 1 #", "0: 1 2", "٣: #",
            "0_0: #", "0\x1c: #", "0\u3000: 1 #", "0: 9 #", "0: -1 #", "-1: #", "9: #",
            "0: x #", "0: 9 x #", "0: x 9 #", "#", "% 0: #", "x", "0:"]


@st.composite
def gra_texts(draw):
    """gra lines in assorted layouts: an optional header, a count, one line
    per vertex in any order, some lines missing or repeated, comments,
    blank lines and up to two odd lines anywhere."""
    n = draw(st.integers(0, 6))
    lines = [draw(st.sampled_from(["graph_for_testing", "my graph", "- 3", "0: 1 #"]))
             ] if draw(st.integers(0, 3)) == 0 else []
    lines.append(draw(st.sampled_from([str(n)] * 20 + [f" {n}\t", "-3", "- 3", "²", "1_0"])))
    heads = draw(st.permutations(range(n)))
    if heads and draw(st.integers(0, 3)) == 0:
        heads.insert(draw(st.integers(0, len(heads))), draw(st.sampled_from(heads)))
    if heads and draw(st.integers(0, 4)) == 0:
        heads.pop(draw(st.integers(0, len(heads) - 1)))
    seen = set()
    for u in heads:
        kind = draw(st.sampled_from(["adj", "adj", "adj", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# c", "%c 1: #", "  # 0: 1 #", "\t%", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        # now and then a neighbour out of range, or one int() refuses, or both
        extra = [[], [n], [n, "x"]][draw(st.sampled_from([0, 0, 0, 0, 1, 2]))]
        nbrs = draw(st.lists(st.sampled_from([*range(n), *extra] or [0]), max_size=4))
        # '\x1c' is whitespace to str.split() only, '\u00a0' and '\u3000' are not ASCII
        sep = draw(st.sampled_from([" ", "\t", "  ", "\x1c", "\u00a0", " \u3000"]))
        colon = draw(st.sampled_from([": ", ":", " : ", " :", ":\x1c", "\u00a0: "]))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        trail = draw(st.sampled_from(["", " ", "\t"]))
        body = "".join(f"{v}{sep}" for v in nbrs)
        # a repeated head, also on a line that breaks a later check
        end = draw(st.sampled_from(["#", "", "1#", "x #"])) if u in seen else "#"
        seen.add(u)
        lines.append(f"{lead}{u}{colon}{body}{end}{trail}")
    for odd in draw(st.lists(st.sampled_from(_GRA_ODD), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), odd)
    return lines


@settings(max_examples=300, deadline=None)
@given(gra_texts(), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
def test_parse_gra_matches_line_by_line_reference(lines, newline, bom):
    """As the text given, and as a file: plain ASCII is read as bytes, and a
    file with '\\r' or non-ASCII text is decoded; a leading UTF-8 BOM is
    skipped either way."""
    text = "\n".join(lines)
    expected = _reference_outcome(lines, _reference_gra)
    assert _outcome(parse_graph, text, "gra") == expected
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "g.gra")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write("\ufeff" * bom + "".join(ln + newline for ln in lines))
        with open(path, encoding="utf-8-sig") as f:  # a lone '\r' ends a line here
            assert _outcome(load_graph, path) == _reference_outcome(f, _reference_gra)


@pytest.mark.parametrize("fmt", ["edge-list", "gra"])
def test_graph_file_that_is_not_utf8_is_format_error(tmp_path, fmt):
    """A byte that is not UTF-8 names its line, counted with '\\r\\n', a lone
    '\\r' and '\\n' each ending one."""
    path = tmp_path / "g.txt"
    first = "1\r\n" if fmt == "gra" else "0 1\r\n"
    path.write_bytes(f"{first}\r0 \xe9".encode() + b" \xff: #\n")
    with pytest.raises(GraphFormatError, match=r"^line 3: not UTF-8 \(byte 0xff\)$"):
        load_graph(str(path), fmt)


def test_pairs_file_that_is_not_utf8_is_format_error(tmp_path):
    path = tmp_path / "q.txt"
    path.write_bytes(b"0 1\n1 \xff\n")
    with pytest.raises(GraphFormatError) as e:
        load_pairs(str(path))
    assert str(e.value) == f"{path}:2: not UTF-8 (byte 0xff)"


def test_whitespace_list_is_what_isspace_says():
    """The tokenizer's literal list is every code point str.split() breaks
    on, none above U+3000, so the table's catch-all last slot is False."""
    spaces = [c for c in range(sys.maxunicode + 1) if chr(c).isspace()]
    assert _WHITESPACE == spaces
    assert np.flatnonzero(_WS_TABLE).tolist() == spaces


def test_parse_edge_list_accepts_what_int_accepts():
    res = parse_graph(f"+5 -0_7\n1_000 ٣\n{2**70} 5", "edge-list")
    assert res.ids.tolist() == [-7, 3, 5, 1000, 2**70]
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


def test_checksum_computed_on_first_call():
    g = DiGraph.from_edges(3, [(0, 1), (1, 2)])
    assert g.checksum is None
    value = graph_checksum(g)
    assert g.checksum == value == list_walk_checksum(g)
    r = g.reverse()
    assert r.checksum is None  # a reverse never shares its graph's checksum
    assert graph_checksum(r) == list_walk_checksum(r) != value


def test_stored_checksum_pinned_values():
    empty = DiGraph.from_edges(0, [])
    g = gen_random_dag(300, 1200, seed=0)
    cond = scc_condense(parse_graph(PINNED_EDGE_LIST, "edge-list").graph).dag
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
    once format version 3 kept backward orderings in the reverse graph's
    coordinates."""
    res = parse_graph(PINNED_EDGE_LIST, "edge-list")
    assert res.ids.tolist() == [-3, 7, 8, 10, 12, 40, 55, 70, 90, 1000]
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
    assert (len(data), zlib.crc32(data)) == (472, 2318885576)


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


def test_level_fold_refuses_a_ufunc_its_loop_cannot_mirror():
    g = path_graph(3)
    level = np.arange(3, dtype=np.uint32)
    with pytest.raises(ValueError, match="np.maximum or np.bitwise_or"):
        level_fold(g.in_off, g.in_tg, level, np.ones(3, np.uint32), np.add)


@pytest.mark.parametrize("regime", sorted(FOLD_REGIMES))
def test_level_fold_past_16_bit_levels_matches_a_brute_force_fold(regime):
    """A path of 2^16 + 2 vertices has levels up to 2^16 + 1, which uint16
    would wrap: the fold takes its (level, id) order from uint32 levels.
    On a path, the Max fold along the out-rows is a suffix maximum and the
    mask fold along the in-rows a prefix OR."""
    n = 2**16 + 2
    g = path_graph(n)
    lv = topological_levels(g)
    fwd, bwd = np.frombuffer(lv.fwd, np.uint32), np.frombuffer(lv.bwd, np.uint32)
    assert fwd.max() == bwd.max() == n - 1 >= 2**16
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 2**32, n, dtype=np.uint32)
    words = np.zeros((n, 2), dtype="<u8")
    cands = rng.choice(n, 100, replace=False)
    j = np.arange(100)
    words[cands, j >> 6] = np.left_shift(np.uint64(1), (j & 63).astype(np.uint64))
    with fold_regime(regime):
        mx = level_fold(g.out_off, g.out_tg, bwd, vals.copy(), np.maximum)
        masks = level_fold(g.in_off, g.in_tg, fwd, words.copy(), np.bitwise_or)
    assert (mx == np.maximum.accumulate(vals[::-1])[::-1]).all()
    assert (masks == np.bitwise_or.accumulate(words, axis=0)).all()


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

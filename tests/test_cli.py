from __future__ import annotations

import os
import subprocess
import sys
import zlib

import numpy as np
import pytest

from reachidx import cli
from reachidx.cli import build_parser, main
from reachidx.graph import load_graph, parse_edge_list, scc_condense
from reachidx.index import IndexParams, deserialize_index, query

from conftest import PINNED_EDGE_LIST

DIAMOND = "0 1\n0 2\n1 3\n2 3\n"
SMALL_PARAMS = ["--t", "2", "--k", "2", "--p", "2", "--h", "2"]


def write(path, text):
    path.write_text(text)
    return str(path)


def test_gen_graph_edge_list(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen-graph", "--n", "12", "--m", "20", "--seed", "3",
                 "--out", str(out)]) == 0
    assert "wrote edge-list graph n=12 m=20" in capsys.readouterr().out
    res = parse_edge_list(out.read_text().splitlines())
    assert res.graph.m == 20


def test_gen_graph_gra_format(tmp_path):
    out = tmp_path / "g.gra"
    assert main(["gen-graph", "--n", "6", "--m", "5", "--format", "gra",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "6"


def test_gen_queries_mixed(tmp_path):
    g = write(tmp_path / "g.txt", DIAMOND)
    q = tmp_path / "q.txt"
    assert main(["gen-queries", "--graph", g, "--kind", "mixed", "--count", "3",
                 "--seed", "1", "--out", str(q)]) == 0
    lines = q.read_text().splitlines()
    assert len(lines) == 6
    bits = [int(ln.split()[2]) for ln in lines]
    assert sum(bits) == 3


def test_build_and_query_diamond(tmp_path, capsys):
    g = write(tmp_path / "g.txt", DIAMOND)
    idx = str(tmp_path / "g.ridx")
    assert main(["build", "--graph", g, *SMALL_PARAMS, "--out-index", idx]) == 0
    out = capsys.readouterr().out
    assert "indexed 4 SCC(s) of 4 vertices" in out
    with open(idx, "rb") as f:
        assert f.read(4) == b"RIDX"
    assert sorted(os.listdir(tmp_path)) == ["g.ridx", "g.ridx.cond", "g.txt"]

    pairs = write(tmp_path / "q.txt", "0 3 1\n3 0 0\n1 2\n2 2 1\n")
    assert main(["query", "--graph", g, "--index", idx, "--pairs", pairs]) == 0
    captured = capsys.readouterr()
    rows = [ln.split("\t") for ln in captured.out.strip().split("\n")]
    assert [(r[0], r[1], r[2]) for r in rows] == [
        ("0", "3", "1"),
        ("3", "0", "0"),
        ("1", "2", "0"),
        ("2", "2", "1"),
    ]
    assert rows[3][3] == "1:EQ"
    assert "queries=4 fallbacks=" in captured.err


def test_query_reports_mismatches(tmp_path, capsys):
    g = write(tmp_path / "g.txt", DIAMOND)
    idx = str(tmp_path / "g.ridx")
    main(["build", "--graph", g, *SMALL_PARAMS, "--out-index", idx])
    pairs = write(tmp_path / "q.txt", "0 3 0\n")  # wrong expected bit
    assert main(["query", "--graph", g, "--index", idx, "--pairs", pairs]) == 1
    err = capsys.readouterr().err
    assert "answered 1, expected 0" in err
    assert "1 answer mismatch(es)" in err


def test_query_unknown_vertex_id(tmp_path):
    g = write(tmp_path / "g.txt", DIAMOND)
    idx = str(tmp_path / "g.ridx")
    main(["build", "--graph", g, *SMALL_PARAMS, "--out-index", idx])
    pairs = write(tmp_path / "q.txt", "99 0\n")
    with pytest.raises(SystemExit, match="unknown vertex id 99"):
        main(["query", "--graph", g, "--index", idx, "--pairs", pairs])


def test_cyclic_input_answers_through_condensation(tmp_path, capsys):
    g = write(tmp_path / "g.txt", "0 1\n1 0\n1 2\n")
    idx = str(tmp_path / "g.ridx")
    assert main(["build", "--graph", g, *SMALL_PARAMS, "--out-index", idx]) == 0
    assert "indexed 2 SCC(s) of 3 vertices" in capsys.readouterr().out
    pairs = write(tmp_path / "q.txt", "0 1 1\n1 0 1\n0 2 1\n2 0 0\n0 0 1\n")
    assert main(["query", "--graph", g, "--index", idx, "--pairs", pairs]) == 0
    rows = [ln.split("\t") for ln in capsys.readouterr().out.strip().split("\n")]
    assert rows[0][2:4] == ["1", "0:B3"]  # same SCC, no index consulted
    assert rows[1][2:4] == ["1", "0:B3"]
    assert rows[2][2] == "1" and rows[3][2] == "0"
    assert rows[4][2:4] == ["1", "1:EQ"]


def test_sparse_ids_get_remap_and_translated_queries(tmp_path, capsys):
    g = write(tmp_path / "g.txt", "10 30\n30 20\n")
    idx = str(tmp_path / "g.ridx")
    assert main(["build", "--graph", g, *SMALL_PARAMS, "--out-index", idx]) == 0
    # the id table lives in the bundle only
    assert sorted(os.listdir(tmp_path)) == ["g.ridx", "g.ridx.cond", "g.txt"]
    capsys.readouterr()
    pairs = write(tmp_path / "q.txt", "10 20 1\n20 10 0\n")
    assert main(["query", "--graph", g, "--index", idx, "--pairs", pairs]) == 0
    out = capsys.readouterr().out
    assert out.startswith("10\t20\t1\t")


def test_parse_warnings_on_stderr(tmp_path, capsys):
    g = write(tmp_path / "g.txt", "0 1\n0 1\n2 2\n")
    idx = str(tmp_path / "g.ridx")
    assert main(["build", "--graph", g, *SMALL_PARAMS, "--out-index", idx]) == 0
    err = capsys.readouterr().err
    assert "dropped 1 self-loop(s)" in err
    assert "dropped 1 duplicate edge(s)" in err


def test_bench_tsv_stdout_and_file(tmp_path, capsys):
    g = write(tmp_path / "g.txt", DIAMOND)
    q = write(tmp_path / "q.txt", "0 3 1\n3 0 0\n1 2 0\n")
    base = ["bench", "--graph", g, *SMALL_PARAMS, "--queries", q,
            "--algos", "index+pbibfs", "bfs", "--reps", "1", "--seeds", "0"]
    assert main(base) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("algorithm\tquery_set\t")
    assert len(lines) == 3
    assert {ln.split("\t")[0] for ln in lines[1:]} == {"index+pbibfs", "bfs"}
    assert all(ln.split("\t")[1] == "q.txt" for ln in lines[1:])

    out_tsv = tmp_path / "r.tsv"
    assert main(base + ["--out-tsv", str(out_tsv)]) == 0
    assert "wrote 2 result rows" in capsys.readouterr().out
    assert out_tsv.read_text().count("\n") == 3


def test_stats_multiple_files_single_header(tmp_path, capsys):
    g = write(tmp_path / "g.txt", DIAMOND)
    idx = str(tmp_path / "g.ridx")
    main(["build", "--graph", g, *SMALL_PARAMS, "--out-index", idx])
    capsys.readouterr()
    q1 = write(tmp_path / "a.txt", "0 3\n0 0\n")
    q2 = write(tmp_path / "b.txt", "3 0\n")
    assert main(["stats", "--graph", g, "--index", idx,
                 "--queries", q1, q2]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "query_set\tsection\ttest\tobservation\tcount\tshare"
    assert sum(ln.startswith("query_set\t") for ln in lines) == 1
    assert any(ln.startswith("a.txt\tfirst_hit\t1\tEQ\t1") for ln in lines)
    assert {ln.split("\t")[0] for ln in lines[1:]} == {"a.txt", "b.txt"}


def test_full_pipeline_on_generated_graph(tmp_path, capsys):
    g = str(tmp_path / "g.txt")
    q = str(tmp_path / "q.txt")
    idx = str(tmp_path / "g.ridx")
    assert main(["gen-graph", "--n", "40", "--m", "120", "--seed", "9",
                 "--out", g]) == 0
    assert main(["gen-queries", "--graph", g, "--kind", "mixed", "--count", "25",
                 "--seed", "4", "--out", q]) == 0
    assert main(["build", "--graph", g, "--out-index", idx]) == 0
    assert main(["query", "--graph", g, "--index", idx, "--pairs", q]) == 0
    captured = capsys.readouterr()
    assert "mismatch" not in captured.err
    assert len(captured.out.strip().split("\n")) >= 50


def test_bad_fallback_choice_exits(tmp_path, capsys):
    # query has one fallback: no command takes --fallback, whatever its value
    g = write(tmp_path / "g.txt", DIAMOND)
    for argv in (
        ["query", "--graph", g, "--index", "x", "--pairs", "y", "--fallback", "bfs"],
        ["query", "--graph", g, "--index", "x", "--pairs", "y", "--fallback", "pbibfs"],
        ["query", "--graph", g, "--index", "x", "--pairs", "y", "--fallback", "dfs"],
        ["stats", "--graph", g, "--index", "x", "--queries", "y", "--fallback", "pbibfs"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "error: " in capsys.readouterr().err


def test_removed_options_exit(tmp_path, capsys):
    g = write(tmp_path / "g.txt", DIAMOND)
    for argv in (
        ["bench", "--graph", g, "--queries", "y", "--algos", "index+bfs"],
        ["build", "--graph", g, "--out-index", str(tmp_path / "g.ridx"), "--remap-out", "x"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "error: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["g.txt"]  # nothing built


def test_bad_algos_choice_exits_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")  # reading it would raise FileNotFoundError
    with pytest.raises(SystemExit) as e:
        main(["bench", "--graph", missing, "--queries", missing, "--algos", "index+bibfs"])
    assert e.value.code == 2
    assert "invalid choice: 'index+bibfs'" in capsys.readouterr().err


def test_index_param_defaults_come_from_index_params():
    d = IndexParams()
    for argv in (["build", "--graph", "g", "--out-index", "x"],
                 ["bench", "--graph", "g", "--queries", "q"]):
        a = build_parser().parse_args(argv)
        assert (a.t, a.k, a.p, a.h) == (d.t, d.k, d.p, d.h)


@pytest.mark.parametrize("flag", ["--t", "--k", "--p", "--h"])
def test_negative_index_params_exit_before_reading(tmp_path, capsys, flag):
    missing = str(tmp_path / "missing.txt")  # reading it would raise FileNotFoundError
    for argv in (["build", "--graph", missing, "--out-index", missing],
                 ["bench", "--graph", missing, "--queries", missing]):
        with pytest.raises(SystemExit) as e:
            main([*argv, flag, "-1"])
        assert e.value.code == 2
        assert f"error: index parameter {flag[2:]} must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--t", "--k"])
def test_index_params_the_header_cannot_hold_exit_2(tmp_path, capsys, flag):
    missing = str(tmp_path / "missing.txt")
    with pytest.raises(SystemExit) as e:
        main(["build", "--graph", missing, "--out-index", missing, flag, "65536"])
    assert e.value.code == 2
    assert f"error: index parameter {flag[2:]} must be <= 65535, got 65536" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["gen-graph", "--n", "-1", "--m", "0"], "n and m must be >= 0, got n=-1, m=0"),
        (["gen-graph", "--n", "3", "--m", "-2"], "n and m must be >= 0, got n=3, m=-2"),
        (["gen-graph", "--n", "3", "--m", "10"], "m=10 exceeds n(n-1)/2=3 for n=3"),
        (["gen-queries", "--graph", "{g}", "--kind", "random", "--count", "-5"],
         "count must be >= 0, got -5"),
        (["bench", "--graph", "{g}", "--queries", "{q}", "--reps", "0", "--out-tsv"],
         "repetitions must be >= 1, got 0"),
    ],
    ids=["n-negative", "m-negative", "m-above-capacity", "count-negative", "reps-zero"],
)
def test_bad_counts_exit_before_writing(tmp_path, capsys, argv, message):
    g = write(tmp_path / "g.txt", DIAMOND)
    q = write(tmp_path / "q.txt", "0 3 1\n")
    out = tmp_path / "out.txt"
    if argv[0] != "bench":
        argv = [*argv, "--out"]
    with pytest.raises(SystemExit) as e:
        main([a.format(g=g, q=q) for a in argv] + [str(out)])
    assert e.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_queries_without_enough_pairs_is_an_error(tmp_path):
    g = write(tmp_path / "g.txt", "0 1\n2 3\n")
    out = tmp_path / "q.txt"
    argv = ["gen-queries", "--graph", g, "--kind", "positive", "--count", "50", "--out", str(out)]
    message = "error: no acceptable positive pair after 12 consecutive attempts"
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == message  # a message: exit status 1
    assert not out.exists()
    proc = subprocess.run([sys.executable, "-m", "reachidx.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == message + "\n"
    assert not out.exists()


IMPORT_CHECK = """
import sys
import reachidx.cli
# build and query never load the workbench, nor what only it imports
assert "reachidx.workbench" not in sys.modules
assert not {"statistics", "fractions", "decimal"} & set(sys.modules)
import reachidx
from importlib import import_module
names = {}
exec("from reachidx import *", names)
assert len(set(reachidx.__all__)) == len(reachidx.__all__) == 53
for module, exported in reachidx._EXPORTS.items():
    for name in exported:  # each the object its module defines
        assert names[name] is getattr(import_module("reachidx." + module), name), name
assert "reachidx.workbench" in sys.modules
"""


def test_cli_starts_without_the_workbench():
    """In a fresh process: importing the command line leaves the workbench
    out, and a star import of the package, which resolves its names on
    first access, still binds every one of them."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_CHECK], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# the condensation bundle written by build and read by query and stats

PINNED_IDS = [-3, 7, 8, 10, 12, 40, 55, 70, 90, 1000]


class Run:
    """Runs main() and records stdout, stderr and how often the graph was parsed."""

    def __init__(self, monkeypatch, capsys):
        self.capsys = capsys
        self.parses = 0
        load_graph = cli.load_graph

        def counting(*args):
            self.parses += 1
            return load_graph(*args)

        monkeypatch.setattr(cli, "load_graph", counting)

    def __call__(self, argv: list[str], parses: int) -> tuple[int, str, str]:
        before = self.parses
        code = main(argv)
        out, err = self.capsys.readouterr()
        assert self.parses - before == parses
        return code, out, err


@pytest.fixture
def pinned(tmp_path, monkeypatch, capsys):
    """The pinned fixture built with its bundle, all 100 ordered pairs of its
    ids, and a runner."""
    g = write(tmp_path / "g.txt", PINNED_EDGE_LIST)
    idx = str(tmp_path / "g.ridx")
    assert main(["build", "--graph", g, "--out-index", idx]) == 0
    capsys.readouterr()
    pairs = write(tmp_path / "q.txt", "".join(f"{s} {t}\n" for s in PINNED_IDS for t in PINNED_IDS))
    return g, idx, pairs, Run(monkeypatch, capsys)


def test_bundle_gives_the_reparse_output(pinned):
    g, idx, pairs, run = pinned
    commands = [["query", "--graph", g, "--index", idx, "--pairs", pairs],
                ["stats", "--graph", g, "--index", idx, "--queries", pairs]]
    with_bundle = [run(argv, parses=0) for argv in commands]
    os.remove(idx + ".cond")
    assert [run(argv, parses=1) for argv in commands] == with_bundle
    code, out, err = with_bundle[0]
    assert code == 0 and len(out.splitlines()) == 100
    assert "dropped 1 self-loop(s)" in err and "dropped 1 duplicate edge(s)" in err
    tags = {row.split("\t")[3] for row in out.splitlines()}
    assert {"0:B3", "1:EQ"} <= tags


# `reachidx stats` on the pinned fixture's 100 ordered pairs, as recorded
# once the orderings drew their child orders by keyed sort (the levels, S1
# and summary rows are unchanged since before the breakdown was computed in
# bulk): "section test observation count share"
PINNED_STATS = [
    "first_hit 0 B3 6 0.060000",
    "first_hit 1 EQ 10 0.100000",
    "first_hit 2 B5 44 0.440000",
    "first_hit 2 B6 3 0.030000",
    "first_hit 3 S1 34 0.340000",
    "first_hit 4 B4 2 0.020000",
    "first_hit 5 S2 1 0.010000",
    "overlap - B4 42 0.420000",
    "overlap - B5 44 0.440000",
    "overlap - B6 45 0.450000",
    "overlap - C 16 0.160000",
    "overlap - EQ 10 0.100000",
    "overlap - S1 34 0.340000",
    "overlap - S2 50 0.500000",
    "overlap - S3 50 0.500000",
    "overlap - T1 18 0.180000",
    "overlap - T3 16 0.160000",
    "overlap - T4 34 0.340000",
    "overlap - T5 8 0.080000",
    "overlap - T6 8 0.080000",
    "summary - queries 100 1.000000",
    "summary - fallbacks 0 0.000000",
    "summary - reachable 50 0.500000",
    "summary - unreachable 50 0.500000",
]


def test_stats_output_frozen(pinned):
    g, idx, pairs, run = pinned
    argv = ["stats", "--graph", g, "--index", idx, "--queries", pairs]
    expected = "query_set\tsection\ttest\tobservation\tcount\tshare\n" + "".join(
        "q.txt\t" + row.replace(" ", "\t") + "\n" for row in PINNED_STATS
    )
    code, out, _err = run(argv, parses=0)
    assert code == 0 and out == expected
    os.remove(idx + ".cond")
    assert run(argv, parses=1)[1] == expected


def test_bundle_of_gra_input(tmp_path, monkeypatch, capsys):
    g = write(tmp_path / "g.gra", "4\n0: 1 2 #\n1: 3 #\n2: 3 #\n3: #\n")
    idx = str(tmp_path / "g.ridx")
    pairs = write(tmp_path / "q.txt", "".join(f"{s} {t}\n" for s in range(4) for t in range(4)))
    run = Run(monkeypatch, capsys)
    run(["build", "--graph", g, *SMALL_PARAMS, "--out-index", idx], parses=1)
    argv = ["query", "--graph", g, "--index", idx, "--pairs", pairs]
    expected = run(argv, parses=0)
    os.remove(idx + ".cond")
    assert run(argv, parses=1) == expected


def test_bad_bundle_is_never_read(pinned, tmp_path):
    g, idx, pairs, run = pinned
    argv = ["query", "--graph", g, "--index", idx, "--pairs", pairs]
    bundle = tmp_path / "g.ridx.cond"
    good = bundle.read_bytes()
    expected = run(argv, parses=0)
    for size in range(len(good)):
        bundle.write_bytes(good[:size])
        assert run(argv, parses=1) == expected
    for i in range(len(good)):
        for bit in (0x01, 0x80):
            bad = bytearray(good)
            bad[i] ^= bit
            bundle.write_bytes(bad)
            assert run(argv, parses=1) == expected
    # a vertex count that disagrees with the file's length, under a valid CRC
    body = bytearray(good[:-4])
    body[40] += 1  # the low byte of n, after magic, version and digest
    bundle.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
    assert run(argv, parses=1) == expected
    # contents that build never writes, under a valid CRC
    *_, n, c, m, _loops, _dups = cli.BUNDLE_HEADER.unpack_from(good)
    assert (n, c, m) == (10, 7, 7)  # rows [], [0], [0, 1], [2], [1], [4], [3]
    at = cli.BUNDLE_HEADER.size
    ids, scc, off, tg = at, at + 8 * n, at + 12 * n, at + 12 * n + 4 * (c + 1)
    for where, dtype, cells in [
        (tg, "<u4", [c]),  # a target out of range
        (scc, "<u4", [c]),  # an SCC id out of range
        (off, "<u4", [1, 1]),  # offsets not starting at 0
        (off + 12, "<u4", [0]),  # offsets decreasing
        (off + 4 * c, "<u4", [m - 1]),  # offsets not ending at m
        (tg + 4, "<u4", [1, 0]),  # a row out of order
        (tg + 4, "<u4", [0, 0]),  # a parallel edge
        (tg, "<u4", [1]),  # a self-loop
        (ids, "<i8", [7, -3]),  # original ids out of order
    ]:
        body = bytearray(good[:-4])
        cells = np.array(cells, dtype=dtype).tobytes()
        body[where:where + len(cells)] = cells
        bundle.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        assert run(argv, parses=1) == expected
    bundle.write_bytes(good)
    assert run(argv, parses=0) == expected

    # the graph file edited after the build, even by a comment line alone
    write(tmp_path / "g.txt", PINNED_EDGE_LIST + "# edited\n")
    assert run(argv, parses=1) == expected
    write(tmp_path / "g.txt", PINNED_EDGE_LIST)
    assert run(argv, parses=0) == expected

    # the same bytes read as another format
    for _ in range(2):
        with pytest.raises(SystemExit, match="bad vertex count"):
            run([*argv, "--format", "gra"], parses=1)
        bundle.unlink(missing_ok=True)

    # a bundle next to an index built from another graph
    other = write(tmp_path / "other.txt", "70 10\n10 40\n")
    assert run(["build", "--graph", other, "--out-index", idx], parses=1)[0] == 0
    bundle.write_bytes(good)
    for _ in range(2):
        with pytest.raises(SystemExit, match="index built for n=3, graph has n=7"):
            run(argv, parses=0 if bundle.exists() else 1)
        bundle.unlink(missing_ok=True)


def test_ids_beyond_64_bits_write_no_bundle(pinned, tmp_path):
    g, idx, _pairs, run = pinned
    assert os.path.exists(idx + ".cond")
    g = write(tmp_path / "g.txt", f"0 1\n1 0\n1 {2**70}\n")
    assert run(["build", "--graph", g, *SMALL_PARAMS, "--out-index", idx], parses=1)[0] == 0
    assert not os.path.exists(idx + ".cond")  # the earlier build's bundle is gone
    pairs = write(tmp_path / "q.txt", f"0 {2**70} 1\n{2**70} 1 0\n1 0 1\n")
    code, out, _err = run(["query", "--graph", g, "--index", idx, "--pairs", pairs], parses=1)
    assert code == 0
    assert [row.split("\t")[2] for row in out.splitlines()] == ["1", "0", "1"]


def test_truncated_index_is_an_error_not_a_traceback(pinned):
    g, idx, pairs, run = pinned
    with open(idx, "rb") as f:
        data = f.read()
    # v1 and v2 files are not read
    version_1, version_2 = (data[:4] + v.to_bytes(4, "little") + data[8:] for v in (1, 2))
    for bad, message in [(data[:10], "truncated header"), (version_1, "unsupported version 1"),
                         (version_2, "unsupported version 2"),
                         (data[:-1], f"got {len(data) - 1}")]:
        with open(idx, "wb") as f:
            f.write(bad)
        for argv in (["query", "--graph", g, "--index", idx, "--pairs", pairs],
                     ["stats", "--graph", g, "--index", idx, "--queries", pairs]):
            with pytest.raises(SystemExit, match=message) as e:
                run(argv, parses=0)
            assert e.value.code.startswith("error: ")  # a message: exit status 1
    proc = subprocess.run(
        [sys.executable, "-m", "reachidx.cli", "query", "--graph", g, "--index", idx,
         "--pairs", pairs],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith(f"\nerror: expected {len(data)} bytes, got {len(data) - 1}\n")


def test_bad_pairs_token_is_an_error_for_every_command(pinned, tmp_path):
    g, idx, _pairs, run = pinned
    bad = write(tmp_path / "bad.txt", "-3 7 1\n7 x\n")
    for argv in (["query", "--graph", g, "--index", idx, "--pairs", bad],
                 ["stats", "--graph", g, "--index", idx, "--queries", bad],
                 ["bench", "--graph", g, "--queries", bad, "--algos", "bfs"]):
        with pytest.raises(SystemExit, match="error: .*bad.txt:2: bad token") as e:
            run(argv, parses=int(argv[0] == "bench"))
        assert e.value.code.startswith("error: ")  # exit status 1, not argparse's 2


def test_unknown_vertex_id_is_an_error_before_any_answer(pinned, tmp_path, capsys):
    g, idx, pairs, _run = pinned
    bad = write(tmp_path / "bad.txt", "-3 7 1\n7 99\n")
    for argv in (["query", "--graph", g, "--index", idx, "--pairs", bad],
                 ["stats", "--graph", g, "--index", idx, "--queries", pairs, bad],
                 ["bench", "--graph", g, "--queries", pairs, bad, "--algos", "bfs"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == f"error: {bad}: unknown vertex id 99"
        assert capsys.readouterr().out == ""


INPUT_FLAGS = {
    "query": ["--graph", "--index", "--pairs"],
    "stats": ["--graph", "--index", "--queries"],
    "bench": ["--graph", "--queries"],
    "gen-queries": ["--graph", "--out"],
    "build": ["--graph", "--out-index"],
}
EXTRA_ARGS = {
    "bench": ["--algos", "bfs", "--reps", "1"],
    "gen-queries": ["--kind", "random", "--count", "5"],
}


@pytest.mark.parametrize(
    "command,flag",
    [(c, f) for c, flags in INPUT_FLAGS.items() for f in flags],
)
def test_missing_or_unwritable_file_is_an_error_for_every_command(
    pinned, tmp_path, capsys, monkeypatch, command, flag
):
    g, idx, pairs, _run = pinned
    files = {"--graph": g, "--index": idx, "--pairs": pairs, "--queries": pairs,
             "--out": str(tmp_path / "out.txt"), "--out-index": str(tmp_path / "new.ridx")}
    files[flag] = str(tmp_path / "missing" / "x")  # no such directory: cannot read or write
    argv = [command, *EXTRA_ARGS.get(command, [])]
    for f in INPUT_FLAGS[command]:
        argv += [f, files[f]]
    if flag == "--out-index":  # the output is opened before the graph is read
        monkeypatch.setattr(cli, "build_index", lambda *a: pytest.fail("build_index called"))
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code.startswith("error: ") and "\n" not in e.value.code
    assert "No such file or directory" in e.value.code
    assert capsys.readouterr().out == ""


def test_missing_index_exits_1_without_traceback(pinned, tmp_path):
    g, _idx, pairs, _run = pinned
    missing = str(tmp_path / "missing.ridx")
    proc = subprocess.run(
        [sys.executable, "-m", "reachidx.cli", "query", "--graph", g, "--index", missing,
         "--pairs", pairs],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr  # only the parse warnings come before
    assert proc.stderr.endswith(f"\nerror: [Errno 2] No such file or directory: '{missing}'\n")


def test_graph_errors_name_the_graph_file(pinned, tmp_path):
    g, idx, pairs, _run = pinned
    os.remove(idx + ".cond")  # query and stats parse the graph
    for argv in (["query", "--graph", g, "--index", idx, "--pairs", pairs],
                 ["stats", "--graph", g, "--index", idx, "--queries", pairs],
                 ["bench", "--graph", g, "--queries", pairs, "--algos", "bfs"],
                 ["build", "--graph", g, "--out-index", str(tmp_path / "x.ridx")],
                 ["gen-queries", "--graph", g, "--kind", "random", "--count", "5",
                  "--out", str(tmp_path / "x.txt")]):
        with pytest.raises(SystemExit) as e:
            main([*argv, "--format", "gra"])
        assert e.value.code == f"error: {g}: line 4: bad vertex count '10 70'"
    assert not (tmp_path / "x.ridx").exists()  # a failed build leaves no index


def test_build_refuses_to_write_over_its_graph(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "build_index", lambda *a: pytest.fail("build_index called"))
    g = write(tmp_path / "g.txt", DIAMOND)
    bundle = write(tmp_path / "x.cond", DIAMOND)
    os.symlink(g, tmp_path / "link.txt")
    # the index, or its bundle, would be the graph file, under any of its names
    for graph, out_index in [(g, g), (str(tmp_path / "link.txt"), g),
                             (g, str(tmp_path / "link.txt")), (bundle, str(tmp_path / "x"))]:
        with pytest.raises(SystemExit) as e:
            main(["build", "--graph", graph, "--out-index", out_index])
        assert e.value.code.startswith("error: ") and "\n" not in e.value.code
        assert "is the graph file" in e.value.code
    assert (tmp_path / "g.txt").read_text() == (tmp_path / "x.cond").read_text() == DIAMOND
    assert sorted(os.listdir(tmp_path)) == ["g.txt", "link.txt", "x.cond"]
    assert capsys.readouterr().out == ""


def test_build_to_a_directory_fails_before_reading(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "build_index", lambda *a: pytest.fail("build_index called"))
    g = write(tmp_path / "g.txt", DIAMOND)
    for out_index, directory in [("x.ridx", "x.ridx"), ("y.ridx", "y.ridx.cond")]:
        os.mkdir(tmp_path / directory)
        with pytest.raises(SystemExit) as e:
            main(["build", "--graph", g, "--out-index", str(tmp_path / out_index)])
        assert e.value.code == f"error: [Errno 21] Is a directory: '{tmp_path / directory}'"
    assert sorted(os.listdir(tmp_path)) == ["g.txt", "x.ridx", "y.ridx.cond"]


def test_failed_build_keeps_the_last_good_index(pinned, tmp_path, monkeypatch):
    g, idx, _pairs, _run = pinned
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    bad = write(tmp_path / "bad.txt", "0 1\n1 x\n")
    with pytest.raises(SystemExit, match=f"error: {bad}: "):
        main(["build", "--graph", bad, "--out-index", idx])

    def interrupted(*a):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_index", interrupted)  # fails after the graph is read
    with pytest.raises(KeyboardInterrupt):
        main(["build", "--graph", g, "--out-index", idx])
    after = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
    assert after == {**before, "bad.txt": b"0 1\n1 x\n"}  # no temporary left either


def test_closed_stdout_is_not_an_input_error(pinned):
    # as with `reachidx query ... | head -1`: status 1, no traceback
    g, idx, pairs, _run = pinned
    r, w = os.pipe()
    os.close(r)  # no reader: the first write to stdout fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "reachidx.cli", "query", "--graph", g, "--index", idx,
             "--pairs", pairs],
            stdout=w,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert "error:" not in proc.stderr


# ---------------------------------------------------------------------------
# query answers every pair in bulk, as query() answers it alone


def scalar_rows(graph: str, idx: str, pairs: str) -> list[str]:
    """The output rows of `reachidx query` as the library gives them one pair
    at a time: 0:B3 for distinct ids of one SCC, else query() on the SCCs.
    The pairs file is read line by line and must be well formed."""
    res = load_graph(graph)
    cond = scc_condense(res.graph)
    with open(idx, "rb") as f:
        ix = deserialize_index(f.read(), cond.dag)
    scc = dict(zip(res.original_ids, cond.scc_of))
    rows, seen = [], {}
    with open(pairs, encoding="utf-8") as f:
        for line in f:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            s, t = int(parts[0]), int(parts[1])
            cs, ct = scc[s], scc[t]
            if cs == ct and s != t:
                rows.append(f"{s}\t{t}\t1\t0:B3\t0")
                continue
            if (cs, ct) not in seen:
                o = query(ix, cs, ct)
                seen[cs, ct] = f"{int(o.answer)}\t{o.answered_by}\t{o.work}"
            rows.append(f"{s}\t{t}\t{seen[cs, ct]}")
    return rows


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """gen-graph's G(3000, 12000), built with the default parameters, and
    2000 random pairs with expected bits: enough for fallbacks."""
    d = tmp_path_factory.mktemp("generated")
    g, idx, pairs = str(d / "g.txt"), str(d / "g.ridx"), str(d / "q.txt")
    assert main(["gen-graph", "--n", "3000", "--m", "12000", "--seed", "0", "--out", g]) == 0
    assert main(["gen-queries", "--graph", g, "--kind", "random", "--count", "2000",
                 "--seed", "1", "--out", pairs]) == 0
    assert main(["build", "--graph", g, "--out-index", idx]) == 0
    return g, idx, pairs


def test_query_answers_the_pinned_fixture_as_per_pair_query(pinned):
    g, idx, pairs, run = pinned
    code, out, _err = run(["query", "--graph", g, "--index", idx, "--pairs", pairs], parses=0)
    assert code == 0 and out.splitlines() == scalar_rows(g, idx, pairs)


def test_query_answers_random_pairs_as_per_pair_query(generated, monkeypatch, capsys):
    g, idx, pairs = generated
    run = Run(monkeypatch, capsys)
    code, out, err = run(["query", "--graph", g, "--index", idx, "--pairs", pairs], parses=0)
    assert code == 0 and out.splitlines() == scalar_rows(g, idx, pairs)
    fallbacks = out.count("\tfallback:pbibfs\t")
    assert fallbacks > 0 and f"queries=2000 fallbacks={fallbacks} " in err


def test_query_answers_a_file_of_many_chunks_as_per_pair_query(
    generated, tmp_path, monkeypatch, capsys
):
    g, idx, pairs = generated
    with open(pairs, encoding="utf-8") as f:
        lines = f.read().splitlines()
    # comments, blank lines, pairs with and without their expected bit, and
    # s == t, in a block repeated past the end of the first chunk
    block = ["# a comment", "", "   # an indented comment", "\t"]
    for i, line in enumerate(lines):
        s, t, bit = line.split()
        block.append(f"{s} {t}" if i % 2 else f"  {s}\t{t}  {bit} ")
        if i % 50 == 0:
            block.append(f"{s} {s} 1")
    reps = cli.QUERY_CHUNK // len(lines) + 2
    s, t, bit = lines[0].split()
    text = "\n".join(block * reps) + f"\n{s} {t} {1 - int(bit)}\n"  # one wrong bit, last
    many = write(tmp_path / "many.txt", text)
    run = Run(monkeypatch, capsys)
    code, out, err = run(["query", "--graph", g, "--index", idx, "--pairs", many], parses=0)
    rows = out.splitlines()
    assert len(rows) > cli.QUERY_CHUNK and rows == scalar_rows(g, idx, many)
    assert code == 1
    assert err.count("answered ") == 1
    assert f"({s}, {t}): answered {bit}, expected {1 - int(bit)}" in err


@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_reader_that_stops_early_ends_query_with_status_1(generated, tmp_path, unbuffered):
    """As `reachidx query ... | head -1` on ~400 kB of rows, more than a pipe
    holds, with stdout buffered or written through (PYTHONUNBUFFERED)."""
    g, idx, pairs = generated
    with open(pairs, encoding="utf-8") as f:
        many = write(tmp_path / "many.txt", f.read() * 10)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "reachidx.cli", "query", "--graph", g, "--index", idx,
         "--pairs", many],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline().count(b"\t") == 4
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err and "error:" not in err


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "reachidx.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "reachability index toolkit" in proc.stdout

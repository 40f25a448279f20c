from __future__ import annotations

import subprocess
import sys

import pytest

from reachidx.cli import main
from reachidx.graph import parse_edge_list

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
    assert not (tmp_path / "g.ridx.remap").exists()  # ids were dense

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
    assert (tmp_path / "g.ridx.remap").read_text() == "10 0\n20 1\n30 2\n"
    capsys.readouterr()
    pairs = write(tmp_path / "q.txt", "10 20 1\n20 10 0\n")
    assert main(["query", "--graph", g, "--index", idx, "--pairs", pairs]) == 0
    out = capsys.readouterr().out
    assert out.startswith("10\t20\t1\t")

    custom = str(tmp_path / "map.tsv")
    assert main(["build", "--graph", g, *SMALL_PARAMS, "--out-index", idx,
                 "--remap-out", custom]) == 0
    assert open(custom).read() == "10 0\n20 1\n30 2\n"


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
    assert main(["query", "--graph", g, "--index", idx, "--pairs", q,
                 "--fallback", "bfs"]) == 0
    captured = capsys.readouterr()
    assert "mismatch" not in captured.err
    assert len(captured.out.strip().split("\n")) >= 50


def test_bad_fallback_choice_exits(tmp_path, capsys):
    g = write(tmp_path / "g.txt", DIAMOND)
    for argv in (
        ["query", "--graph", g, "--index", "x", "--pairs", "y", "--fallback", "dfs"],
        ["query", "--graph", g, "--index", "x", "--pairs", "y", "--fallback", "bibfs"],
        ["stats", "--graph", g, "--index", "x", "--queries", "y", "--fallback", "pbibfs"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert "error: " in capsys.readouterr().err


def test_bad_algos_choice_exits_before_reading(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")  # reading it would raise FileNotFoundError
    with pytest.raises(SystemExit) as e:
        main(["bench", "--graph", missing, "--queries", missing, "--algos", "index+bibfs"])
    assert e.value.code == 2
    assert "invalid choice: 'index+bibfs'" in capsys.readouterr().err


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "reachidx.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "reachability index toolkit" in proc.stdout

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from reachidx.baselines import (
    CapacityError,
    ReachMatrix,
    bfs_query,
    bfs_search,
    build_matrix,
)
from reachidx.graph import DiGraph
from reachidx.index import PLAIN_BFS, build_index, query
from reachidx.workbench import build_oracle

from conftest import brute_reach_sets, dags, diamond, path_graph


def test_matrix_diamond_queries():
    mx = build_matrix(diamond())
    assert mx.query(0, 3)
    assert mx.query(0, 1) and mx.query(0, 2)
    assert not mx.query(1, 2)
    assert not mx.query(3, 0)
    assert mx.query(2, 2)  # reflexive


def test_matrix_refuses_ids_out_of_range():
    """An id outside [0, n) is an IndexError naming it, as bfs_query and the
    index's query raise, never the answer of a wrapped or shifted row."""
    g = DiGraph.from_edges(3, [(2, 0)])
    mx = build_matrix(g)
    for s, t, bad in ((-1, 0, -1), (0, 3, 3), (0, -1, -1), (3, 3, 3)):
        with pytest.raises(IndexError, match=f"^vertex id {bad} out of range for n=3$"):
            mx.query(s, t)
        with pytest.raises(IndexError):
            bfs_query(g, s, t)
    assert mx.query(2, 0) and not mx.query(0, 2)


def test_bfs_refuses_a_float_id_in_range():
    """A float id in range is a TypeError, as the index's query raises: the
    search used to compare it with each neighbour and answer (0, 1.0) as
    reachable and (0, 1.5) as not."""
    g = path_graph(3)
    ix = build_index(g)
    per_pair = build_oracle(g, 0)  # no room for the matrix: per-pair BFS
    for s, t in ((0, 1.0), (0, 1.5), (1.0, 2), (1.0, 1.0)):
        for ask in (
            lambda: bfs_search(g, s, t),
            lambda: bfs_query(g, s, t),
            lambda: PLAIN_BFS.run(ix, s, t),
            lambda: per_pair(s, t),
            lambda: query(ix, s, t),
        ):
            with pytest.raises(TypeError):
                ask()
    assert bfs_search(g, np.int64(0), np.int64(2)) == (True, 2)


def test_capacity_cap_enforced():
    g = path_graph(64)
    with pytest.raises(CapacityError):
        build_matrix(g, cap_bytes=64)  # needs 64*64 bits = 512 bytes
    build_matrix(g, cap_bytes=512)


def test_to_dense_matches_query():
    mx = build_matrix(diamond())
    d = mx.to_dense()
    assert d.dtype == np.bool_
    assert d.shape == (4, 4)
    for s in range(4):
        for t in range(4):
            assert d[s, t] == mx.query(s, t)


@given(dags(max_n=14))
def test_matrix_matches_brute_closure(g):
    reach = brute_reach_sets(g)
    mx = build_matrix(g)
    for s in range(g.n):
        for t in range(g.n):
            assert mx.query(s, t) == (t in reach[s] or s == t)


@given(dags(max_n=14))
def test_bfs_matches_matrix(g):
    mx = build_matrix(g)
    for s in range(g.n):
        for t in range(g.n):
            assert bfs_query(g, s, t) == mx.query(s, t)


def test_reach_matrix_direct_construction():
    # row bit t of rows[s] encodes s -> t; diagonal always set by build
    mx = ReachMatrix(2, [0b11, 0b10])
    assert mx.query(0, 1) and not mx.query(1, 0)

"""Randomized extended topological orderings.

Besides a topological position pos(v), each ordering carries two extra
indices per vertex, both positions in the ordering's own graph.  The DFS
that builds the ordering finds High as it goes; Max is one level_fold of
the positions after it, children first by height, and the levels that
order that fold are what detect a cycle (AcyclicityError):

* High(v) = highest position such that every vertex placed in
  [pos(v), High(v)] is reachable from v;
* Max(v) = highest position holding any vertex reachable from v.

A forward ordering is one of the DAG itself.  A backward ordering is the
same DFS run on the reverse graph and kept in that graph's coordinates:
there v reaches the vertices that reach v in the DAG.  A query (s, t) is
therefore answered by the forward tests on (s, t) in a forward ordering and
on (t, s) in a backward one: reachable when the target's position falls
inside the source's certified range [pos, High] or on its Max (T1, T3),
unreachable when it falls beyond Max (T2) or behind the source (B4).
These tests are written once, as the ordering block of index's
observation spec, which index alone evaluates; the ordering's columns
(ExtTopOrder) live in core with the rest of the query side.  This module
holds only the DFS that builds an ordering.

Max also certifies containment (GRAIL, Yildirim, Chaoji & Zaki, VLDB 2010):
if s reaches t, then t reaches nothing s does not, so Max(t) <= Max(s) in
every ordering where s is the source.  Max(t) > Max(s) thus refutes (s, t);
as Max(t) >= pos(t), this holds wherever pos(t) > Max(s) does.

Randomness: each random order is a stable sort of items by (group, key),
with one 32-bit key per item read from the ordering's random.Random
through randbytes.  start_sequence keys the n vertices, then
extended_topsort the m edges, grouped by source.  All-zero keys keep the
stored orders, ascending by id, so a stand-in rng whose randbytes returns
zero bytes gives a deterministic ordering.
"""

from __future__ import annotations

import random
from array import array

import numpy as np

from .core import BACKWARD, FORWARD, DiGraph, ExtTopOrder, LevelAssignment, _uint_array, check_ids
from .graph import _kahn_levels, level_fold


def _keyed_order(groups: np.ndarray, rng: random.Random) -> np.ndarray:
    """Indices 0..len(groups)-1 stable-sorted by (groups[i], key i), with
    key i the i-th 32-bit word of rng.randbytes(4 * len(groups)): groups
    ascending, each in random order, or in index order when the keys are
    all zero.  groups must be int64 and below 2**31.

    One stable argsort of the int64 (group, key) words, which numpy runs
    as a timsort.  Its one caller, _child_targets, keys the edges grouped
    by source, so the groups arrive ascending and timsort finds long runs:
    for the 2^18 edges of G(2^16, 2^18) it took 5.2 ms against 9.0 ms for
    start_sequence's 16-bit radix passes over the keys, then the groups
    (min of 15, a 2-core Xeon, numpy 2.4)."""
    keys = np.frombuffer(rng.randbytes(4 * len(groups)), "<u4")
    return np.argsort((groups << 32) | keys, kind="stable")


def _child_targets(g: DiGraph, rng: random.Random) -> array:
    """g's out-targets with each row in random order, over g's out-offsets:
    the edges keyed-sorted by (source, key), 4m bytes of keys from rng."""
    degrees = np.diff(np.frombuffer(g.out_off, np.uint32))
    order = _keyed_order(np.repeat(np.arange(g.n, dtype=np.int64), degrees), rng)
    return _uint_array(np.frombuffer(g.out_tg, np.uint32)[order])


def start_sequence(g: DiGraph, rng: random.Random) -> list[int]:
    """Sources first, then the remaining vertices as a guard, each part in
    random order: the vertices keyed-sorted by (has an in-edge, key), 4n
    bytes of keys from rng.  Zero keys give both parts in ascending id order.

    The keys arrive in no order, where _keyed_order's timsort of (group,
    key) words finds no runs, so this is a least-significant-digit radix
    sort instead: two stable argsorts of uint16 digits, the low and then
    the high half of each key, each a counting sort in numpy, then a
    stable partition by "has an in-edge".  The permutation is
    _keyed_order's; at n = 2^16 the list took 2.2 against 5.2 ms (min of
    15, a 2-core Xeon, numpy 2.4).

    On a DAG every vertex is reachable from some source, so the guard only
    matters for defensive completeness.
    """
    keys = np.frombuffer(rng.randbytes(4 * g.n), "<u4")
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the low digit
    order = order[np.argsort((keys[order] >> 16).astype(np.uint16), kind="stable")]
    late = (np.diff(np.frombuffer(g.in_off, np.uint32)) > 0)[order]
    return np.r_[order[~late], order[late]].tolist()


def extended_topsort(
    dag: DiGraph,
    start_order: list[int],
    rng: random.Random,
    seed: int | None = None,
    levels: LevelAssignment | None = None,
) -> ExtTopOrder:
    """One randomized DFS pass computing pos and High, then Max by a fold.

    The DFS roots at each vertex of start_order not yet visited, then,
    while some vertex is still unplaced, at each vertex in id order (the
    guard pass).  Positions are assigned from a counter decreasing from
    n-1 as vertices finish (prepend order).  High(v) is the counter value
    when v is first visited: every position from pos(v) up to it gets
    filled by vertices discovered below v.  Max(v) is pos(v) maxed with its children's Max,
    which level_fold computes after the DFS, children first by height
    (longest-path distance to a sink): levels.bwd, or computed here when
    levels, dag's topological_levels, are not given.  Either way a cyclic
    dag raises AcyclicityError from the levels, before the DFS.

    Child visit order is drawn once for the whole pass: the edges
    keyed-sorted by (source, key), 4m bytes of keys from rng, into a fresh
    targets array over the graph's out-offsets that the DFS walks with one
    iterator per stack entry.  Zero keys visit children in stored
    (ascending) order.  The graph's own arrays are never mutated.
    Non-recursive to avoid Python's recursion limit.  The columns are
    lists while the DFS fills them (a Python loop reads a list faster) and
    are returned as array('I').

    Raises IndexError when start_order holds an id outside [0, n), naming
    the smallest if it is negative, else the largest.  Its least and
    greatest ids are checked before the DFS, whose roots then need none.
    """
    if start_order:
        check_ids(dag.n, min(start_order), max(start_order))
    height = _kahn_levels(dag.reverse()) if levels is None else levels.bwd
    return _extended_order(dag, start_order, rng, height, FORWARD, seed)


def extended_topsort_backward(
    dag: DiGraph,
    rng: random.Random,
    seed: int | None = None,
    levels: LevelAssignment | None = None,
) -> ExtTopOrder:
    """The forward pass over the reverse graph, as it returns it: pos, High
    and Max are positions in the reverse graph's ordering, where pos is a
    reversed topological order of the DAG.  There a vertex's height is its
    forward level in the DAG: levels.fwd, or computed here when levels,
    dag's topological_levels, are not given."""
    height = _kahn_levels(dag) if levels is None else levels.fwd
    rg = dag.reverse()
    return _extended_order(rg, start_sequence(rg, rng), rng, height, BACKWARD, seed)


def _extended_order(
    g: DiGraph,
    start_order: list[int],
    rng: random.Random,
    height: array,
    flavor: str,
    seed: int | None,
) -> ExtTopOrder:
    """extended_topsort's pass over g, whose heights are height."""
    n = g.n
    pos = [-1] * n
    hi = [-1] * n  # -1 until the vertex is visited
    counter = n - 1
    off = g.out_off
    kids = _child_targets(g, rng)

    for roots in (start_order, range(n)):  # range(n): the guard pass
        if counter < 0:  # every vertex placed
            break
        for root in roots:
            if hi[root] >= 0:
                continue
            hi[root] = counter
            stack = [(root, iter(kids[off[root]:off[root + 1]]))]
            while stack:
                v, children = stack[-1]
                for w in children:
                    if hi[w] < 0:
                        hi[w] = counter
                        stack.append((w, iter(kids[off[w]:off[w + 1]])))
                        break
                else:
                    stack.pop()
                    pos[v] = counter
                    counter -= 1
    pos = array("I", pos)
    h = np.frombuffer(height, np.uint32)
    mx = level_fold(g.out_off, g.out_tg, h, np.array(pos, np.uint32), np.maximum)
    return ExtTopOrder(pos, array("I", hi), _uint_array(mx), flavor, seed)


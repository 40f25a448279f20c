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
inside the source's certified range [pos, High] or on its Max, unreachable
when it falls beyond Max or behind the source in the ordering.

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
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .baselines import ReachMatrix
from .graph import DiGraph, LevelAssignment, _kahn_levels, _uint_array, level_fold

FORWARD = "forward"
BACKWARD = "backward"


@dataclass
class ExtTopOrder:
    pos: array
    hi: array  # High, in the ordering's own graph
    mx: array  # Max, in the ordering's own graph
    flavor: str  # FORWARD: of the DAG; BACKWARD: of its reverse
    seed: int | None = field(default=None, compare=False)  # not in the index file


def _keyed_order(groups: np.ndarray, rng: random.Random) -> np.ndarray:
    """Indices 0..len(groups)-1 stable-sorted by (groups[i], key i), with
    key i the i-th 32-bit word of rng.randbytes(4 * len(groups)): groups
    ascending, each in random order, or in index order when the keys are
    all zero.  groups must be int64 and below 2**31."""
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

    On a DAG every vertex is reachable from some source, so the guard only
    matters for defensive completeness.
    """
    has_in = (np.diff(np.frombuffer(g.in_off, np.uint32)) > 0).astype(np.int64)
    return _keyed_order(has_in, rng).tolist()


def extended_topsort(
    dag: DiGraph,
    start_order: list[int],
    rng: random.Random,
    seed: int | None = None,
    levels: LevelAssignment | None = None,
) -> ExtTopOrder:
    """One randomized DFS pass computing pos and High, then Max by a fold.

    Positions are assigned from a counter decreasing from n-1 as vertices
    finish (prepend order).  High(v) is the counter value when v is first
    visited: every position from pos(v) up to it gets filled by vertices
    discovered below v.  Max(v) is pos(v) maxed with its children's Max,
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
    """
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

    for root in chain(start_order, range(n)):
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


# answer_T's tags for T1-T3, by flavor: T4-T6 name them on a backward ordering
_T_TAGS = {FORWARD: ("T1", "T2", "T3"), BACKWARD: ("T4", "T5", "T6")}


def answer_T(order: ExtTopOrder, s: int, t: int) -> tuple[bool | None, str | None]:
    """Ordering observations for the non-trivial query (s, t), applied in
    the fixed order B4, T1, T2, T3 (forward) or B4, T4, T5, T6 (backward).
    A backward ordering runs the same tests on (t, s): t reaches s in the
    reverse graph.

    Returns (answer, observation); answer None means undecided.
    """
    if order.flavor == BACKWARD:
        s, t = t, s
    ps = order.pos[s]
    pt = order.pos[t]
    if pt < ps:
        return False, "B4"
    if pt <= order.hi[s]:
        return True, _T_TAGS[order.flavor][0]
    mxs = order.mx[s]
    if pt > mxs:
        return False, _T_TAGS[order.flavor][1]
    if pt == mxs:
        return True, _T_TAGS[order.flavor][2]
    return None, None


@dataclass
class AnalysisReport:
    """Per-ordering witness counts against an exact oracle.

    neg_witnessed is always n(n-1)/2: an ordering certifies non-reachability
    for exactly the pairs it inverts, and those are half of all ordered
    pairs.  Ratios are None when their denominator is zero.
    """

    n: int
    neg_witnessed: int
    pos_answered: int
    neg_total: int
    pos_total: int
    rho_neg: float | None
    rho_pos: float | None


def ordering_analysis(order: ExtTopOrder, oracle: ReachMatrix) -> AnalysisReport:
    n = oracle.n
    pos_total = oracle.count_positive()
    neg_total = n * (n - 1) - pos_total
    neg_witnessed = 0
    pos_answered = 0
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            ans, obs = answer_T(order, s, t)
            if obs == "B4":
                neg_witnessed += 1
            elif ans is True:
                pos_answered += 1
    return AnalysisReport(
        n=n,
        neg_witnessed=neg_witnessed,
        pos_answered=pos_answered,
        neg_total=neg_total,
        pos_total=pos_total,
        rho_neg=neg_witnessed / neg_total if neg_total else None,
        rho_pos=pos_answered / pos_total if pos_total else None,
    )

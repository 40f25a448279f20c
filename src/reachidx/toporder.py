"""Randomized extended topological orderings.

Besides a topological position pos(v), each ordering carries two extra
indices per vertex obtained for free during the DFS that builds it:

* forward flavor: High(v) = highest position such that every vertex placed
  in [pos(v), High(v)] is reachable from v, and Max(v) = highest position
  holding any vertex reachable from v.
* backward flavor: the mirror images Low(v) and Min(v) over the reverse
  graph, mapped back so pos is still a valid topological order of the
  original DAG.

A query (s, t) can then be answered reachable when pos(t) falls inside a
certified range, and unreachable when it falls beyond Max(s) (resp. before
Min(t)) or behind s in the ordering.

Max and Min also certify containment (GRAIL, Yildirim, Chaoji & Zaki, VLDB
2010): if s reaches t, then t reaches nothing s does not, and every
ancestor of s is one of t, so Max(t) <= Max(s) in every forward ordering
and Min(s) <= Min(t) in every backward one.  Max(t) > Max(s) or
Min(s) < Min(t) thus refutes (s, t); as Max(t) >= pos(t) and
Min(s) <= pos(s), this holds wherever pos(t) > Max(s) or pos(s) < Min(t)
does.

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
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .baselines import ReachMatrix
from .graph import AcyclicityError, DiGraph, _uint_array

FORWARD = "forward"
BACKWARD = "backward"


@dataclass
class ExtTopOrder:
    pos: array
    hi_or_lo: array  # High for forward flavor, Low for backward
    mx_or_mn: array  # Max for forward flavor, Min for backward
    flavor: str
    seed: int | None = None


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
) -> ExtTopOrder:
    """One randomized DFS pass computing pos, High, and Max.

    Positions are assigned from a counter decreasing from n-1 as vertices
    finish (prepend order).  High(v) is the counter value when v is first
    visited: every position from pos(v) up to it gets filled by vertices
    discovered below v.  Max(v) folds children's Max at finish time; on a
    DAG every out-neighbor is already finished then.

    Child visit order is drawn once for the whole pass: the edges
    keyed-sorted by (source, key), 4m bytes of keys from rng, into a fresh
    targets array over the graph's out-offsets that the DFS walks with one
    iterator per stack entry.  Zero keys visit children in stored
    (ascending) order.  The graph's own arrays are never mutated.
    Non-recursive to avoid Python's recursion limit.  The columns are
    lists while the DFS fills them (a Python loop reads a list faster) and
    are returned as array('I').
    """
    n = dag.n
    pos = [-1] * n
    hi = [-1] * n
    mx = [-1] * n
    state = bytearray(n)  # 0 new, 1 active, 2 finished
    counter = n - 1
    off = dag.out_off
    kids = _child_targets(dag, rng)

    for root in chain(start_order, range(n)):
        if state[root]:
            continue
        state[root] = 1
        hi[root] = counter
        stack = [(root, iter(kids[off[root]:off[root + 1]]))]
        while stack:
            v, children = stack[-1]
            for w in children:
                st = state[w]
                if st == 0:
                    state[w] = 1
                    hi[w] = counter
                    stack.append((w, iter(kids[off[w]:off[w + 1]])))
                    break
                if st == 1:
                    raise AcyclicityError(f"cycle through edge ({v}, {w})")
            else:
                stack.pop()
                pos[v] = counter
                counter -= 1
                best = pos[v]
                for w in kids[off[v]:off[v + 1]]:
                    if mx[w] > best:
                        best = mx[w]
                mx[v] = best
                state[v] = 2
    return ExtTopOrder(array("I", pos), array("I", hi), array("I", mx), FORWARD, seed)


def extended_topsort_backward(
    dag: DiGraph, rng: random.Random, seed: int | None = None
) -> ExtTopOrder:
    """Forward pass over the reverse graph, mirrored back.

    With pos'(v) the position in the reverse-graph ordering:
    pos(v) = n-1-pos'(v) (a valid topological order of the original DAG),
    Low(v) = n-1-High'(v), Min(v) = n-1-Max'(v).
    """
    rg = dag.reverse()
    fwd = extended_topsort(rg, start_sequence(rg, rng), rng, seed)
    last = dag.n - 1  # -1 for the empty graph: int64, not uint32, arithmetic
    pos, lo, mn = (
        _uint_array(last - np.frombuffer(col, np.uint32).astype(np.int64))
        for col in (fwd.pos, fwd.hi_or_lo, fwd.mx_or_mn)
    )
    return ExtTopOrder(pos, lo, mn, BACKWARD, seed)


def answer_T(order: ExtTopOrder, s: int, t: int) -> tuple[bool | None, str | None]:
    """Ordering observations for the non-trivial query (s, t), applied in
    the fixed order B4, T1, T2, T3 (forward) or B4, T4, T5, T6 (backward).

    Returns (answer, observation); answer None means undecided.
    """
    ps = order.pos[s]
    pt = order.pos[t]
    if pt < ps:
        return False, "B4"
    if order.flavor == FORWARD:
        if pt <= order.hi_or_lo[s]:
            return True, "T1"
        mxs = order.mx_or_mn[s]
        if pt > mxs:
            return False, "T2"
        if pt == mxs:
            return True, "T3"
    else:
        if order.hi_or_lo[t] <= ps:
            return True, "T4"
        mnt = order.mx_or_mn[t]
        if ps < mnt:
            return False, "T5"
        if ps == mnt:
            return True, "T6"
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
    p = order.pos
    for s in range(n):
        ps = p[s]
        for t in range(n):
            if s == t:
                continue
            if p[t] < ps:
                neg_witnessed += 1
            else:
                ans, _ = answer_T(order, s, t)
                if ans is True:
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

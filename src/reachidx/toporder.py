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
ORDERING_BLOCK writes these tests once (T4-T6 name T1-T3 on a backward
ordering), as the ordering block of index's observation spec;
ordering_rows reads it for ordering_analysis.

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
from typing import Callable

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


# The observations of one ordering, in test order: the ordering block of
# the observation spec (index._SPEC).  A row (observation, answer, source
# column, comparison, target column, guard) proves answer for a pair (a, b)
# of the ordering's own graph, (s, t) in a forward ordering and (t, s) in a
# backward one, where source[a] <comparison> target[b] holds and its guard,
# a comparison of the same form or None, does too.  B4 refutes the pairs
# the ordering inverts; the T tests read the rest, so that each stays sound
# on its own: T1 when pos(b) is inside a's certified range, T2 beyond
# Max(a), T3 on it.  T4-T6 name T1-T3 on a backward ordering.
AFTER = ("pos", "<", "pos")
ORDERING_BLOCK = (
    ("B4", False, "pos", ">", "pos", None),
    ("T1", True, "hi", ">=", "pos", AFTER),
    ("T2", False, "mx", "<", "pos", AFTER),
    ("T3", True, "mx", "==", "pos", AFTER),
)
_BACKWARD_NAMES = {"T1": "T4", "T2": "T5", "T3": "T6"}

# Every comparison a spec row may make, as a Python expression in x, the
# source column's value at one end, and y, the target column's at the
# other: ints in index's scalar pass, numpy arrays in the table.  The last
# three read support masks, as Python ints or as rows of cells, and hold
# where the result has a bit set.
COMPARISONS = {
    **{op: f"{{x}} {op} {{y}}" for op in ("==", "!=", "<", "<=", ">", ">=", "&")},
    "&~": "{x} & ~{y}",
    "~&": "~{x} & {y}",
}
_COMPARE = {op: eval(f"lambda x, y: {expr.format(x='x', y='y')}") for op, expr in COMPARISONS.items()}


def observation_name(obs: str, flavor: str) -> str:
    """The name of ordering observation obs on an ordering of this flavor."""
    return _BACKWARD_NAMES.get(obs, obs) if flavor == BACKWARD else obs


def gatherer(columns: dict[str, np.ndarray], ends: dict[str, np.ndarray]) -> Callable:
    """read(column, end): the named numpy column at the ids of one end, in
    ends, gathered on the first read and kept; the column None reads the
    ids themselves."""
    got: dict[tuple, np.ndarray] = {}

    def read(name: str | None, end: str) -> np.ndarray:
        if (name, end) not in got:
            ids = ends[end]
            got[name, end] = ids if name is None else columns[name][ids]
        return got[name, end]

    return read


def comparison_mask(read: Callable, src, op: str, tgt, a: str, b: str, guard=None) -> np.ndarray:
    """Where source[a] <op> target[b] holds, and the guard too, for every
    pair of the ends a and b, reading columns through read (gatherer)."""
    held = _COMPARE[op](read(src, a), read(tgt, b))
    if held.ndim > 1:  # rows of mask cells: a bit set anywhere
        held = held.any(axis=1)
    if guard is not None:
        held &= comparison_mask(read, *guard, a, b)
    return held


def ordering_rows(
    order: ExtTopOrder, A: np.ndarray, B: np.ndarray
) -> list[tuple[str, bool, np.ndarray]]:
    """The ordering block as (observation, answer, mask) rows in test
    order, where mask[i] says the row proves answer for the pair (A[i],
    B[i]) of integer ids in the ordering's own graph: (s, t) in a forward
    ordering, (t, s) in a backward one.

    B4 and T2 each exclude every other row, T1 and T3 both hold where
    pos(b) = High(a) = Max(a), and no row holds for a == b.
    """
    columns = {name: np.frombuffer(getattr(order, name), np.uint32) for name in ("pos", "hi", "mx")}
    read = gatherer(columns, {"a": A, "b": B})
    return [
        (observation_name(obs, order.flavor), ans, comparison_mask(read, src, op, tgt, "a", "b", guard))
        for obs, ans, src, op, tgt, guard in ORDERING_BLOCK
    ]


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
    """The rows' counts over all ordered pairs, unswapped for either flavor:
    the set of all pairs is its own swap, and no row holds for s == t."""
    n = oracle.n
    pos_total = oracle.count_positive()
    neg_total = n * (n - 1) - pos_total
    neg_witnessed = pos_answered = 0
    ids = np.arange(n)
    step = max(1, (1 << 18) // max(n, 1))  # sources per pass: up to 2^18 pairs
    for lo in range(0, n, step):
        A = np.repeat(ids[lo:lo + step], n)
        b4, t1, _t2, t3 = (mask for *_, mask in ordering_rows(order, A, np.resize(ids, len(A))))
        neg_witnessed += int(b4.sum())
        pos_answered += int((t1 | t3).sum())
    return AnalysisReport(
        n=n,
        neg_witnessed=neg_witnessed,
        pos_answered=pos_answered,
        neg_total=neg_total,
        pos_total=pos_total,
        rho_neg=neg_witnessed / neg_total if neg_total else None,
        rho_pos=pos_answered / pos_total if pos_total else None,
    )

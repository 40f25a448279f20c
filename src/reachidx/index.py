"""Reachability index: build, ordered observation tests, fallback search,
and binary serialization.

Every build stage (weak components, levels, each extended ordering, the
supports) draws from its own substream of the seed, so the stages are
independent.  The levels come first, since the orderings' Max and the
support masks are both folded along them (graph.level_fold).  The stages
live in graph, toporder and supportive, which build_index imports when it
runs; the rest of this module reads only core and baselines.  So a
process that loads and queries an index, as `reachidx query` over a valid
bundle does, compiles no build stage.

A process that may run on more than one CPU splits its two largest jobs
with one forked worker, through one path: _shared(job, size, fork) hands
the caller rest(), job's bytes, which come through a pipe from a worker
forked on entry when _forks says so, and otherwise from job run here.
build_index's job is orderings 1..t-1, which come back as each ordering's
columns in raw uint32 cells, while the caller computes the rest.
query_batch and observation_stats give every other undecided pair to the
job, which gives PBIBFS's (answer, work) for each as two int64 cells.  A
worker that fails to deliver, or a fork that fails, leaves its share to
job run here.  So the results are the same on every path (small jobs,
single-CPU processes, processes with other Python threads and platforms
without fork stay in one process), and so is any exception raised; the
worker never outlives the call.

A query runs through seven constant-time tests (equality, levels, positive
support, first ordering, negative supports, remaining orderings, then weak
components and Max containment over all orderings); the first decisive
one answers.  Each observation is written once, as a row of the
observation spec (_SPEC), and all that tests one is derived from it: the
shared outcomes (_OUTCOMES); observation_table, which evaluates every row
with numpy over many pairs; the scalar pass, which query and
try_observations run one pair at a time; and the search's packed keys and
testers.  The whole spec lives here, the ordering block (ORDERING_BLOCK)
and the comparisons its rows make (COMPARISONS) included: no other module
reads it.  query_batch answers many pairs from one table, each by its
first true row or else by the fallback, as query answers it alone, and
observation_stats counts first hits and overlap from the same decision.
The scalar pass and the testers are straight-line source generated from
the rows, compiled once per tuple of ordering flavors and bound to an
index on first use as functions whose globals hold its columns: no
closure cells to copy per call, and nothing compiled at bind time.  The
pass took ~250 ns per decided query of G(2^16, 2^18) against ~295 ns for
the hand-written closure it replaced (in process, a 2-core Xeon).

Undecided queries go to the one fallback, PBIBFS, a pruned bidirectional
BFS (PLAIN_BFS, the forward BFS baseline, stays as a reference search for
tests and per-layer timing).  It expands the side with the shorter queue,
answers positively when the sides meet and negatively as soon as either
queue is empty, and tests every newly encountered vertex against the
search's fixed endpoint with the same observations, so a decisive negative
prunes that vertex.  The search checks the negatives inline: the level
window, then every other negative observation (S2, S3, B4 and containment
per ordering, which subsumes T2, and B2) in one comparison of packed keys.
Each vertex's key is one Python int holding fields per observation, each
with a guard bit above it, oriented so that a reachable pair (a, b) has
u(a) <= u(b) in every field u; the guard bits of g + key(b) - key(a) are
then all set exactly when no field refutes the pair, so one addition,
one & and one compare test them all at once.  The keys are built with
numpy on an index's first fallback, or just before a fallback worker is
forked, so that it inherits them; not at build or load.  For 2^16
vertices at the default parameters that took ~15 ms, most of it making
the ints, and the keys hold 4.3 MB, 69 bytes a vertex (in process, 2-core
Xeon).
They are kept on the ReachIndex.  The levels stay out of the key: the decided
queries read the same level columns, and with the fallbacks no longer
reading them those queries slowed by ~30%.  A vertex the negatives leave
goes through the positive observations (S1, T1 and T3) in a per-side
tester, made on that side's first pop.

In memory, every per-vertex integer column (weak component, both levels,
and each ordering's pos, High and Max) is an array('I'): n
contiguous uint32 cells instead of n pointers to separate int objects, so
an index lookup reads one cache-friendly cell.  The stages in graph and
toporder return their columns in that type, and a ReachIndex holds them
as given: the forked worker writes them to its pipe as they are.  The
file (format version 3) holds them the same way, each column contiguous
after the header, so serialization joins their bytes and loading copies
each column out of one slice without creating an int per cell.  The
support masks are stored once, as the file's rows of (k + 7) // 8 bytes
(see SupportSet), which serialization writes as they are and
observation_table and the packed keys read as numpy rows.  The scalar
pass reads one Python int per vertex instead, derived from the rows when
it is first bound: k may exceed 64, and an int keeps S1-S3 a single `&`
for any k.  Loading makes neither the ints nor a list of the supports,
which the rows determine.  A payload CRC32 in the header rejects a
damaged file before any of it is read.

A graph on other ids than 0..n-1, or with cycles, is indexed as its SCC
condensation, and Condensed answers its pairs of original ids: it
translates them to SCCs through the sorted ids, refuses an unknown or
non-integer id before answering any pair, answers two distinct ids of one
SCC as SAME_SCC (observation B3), and the rest with query_batch.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import linecache
import math
import operator
import os
import random
import struct
import threading
import warnings
import zlib
from _blake2 import blake2b  # hashlib's blake2b, without the OpenSSL module hashlib loads
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial, reduce
from types import CodeType, FunctionType
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .baselines import bfs_search
from .core import (
    BACKWARD,
    FORWARD,
    DiGraph,
    ExtTopOrder,
    GraphFormatError,
    LevelAssignment,
    SupportSet,
    _uint_array,
    check_ids,
    graph_checksum,
)

if TYPE_CHECKING:
    from .graph import ParseResult


class IndexFormatError(ValueError):
    """Serialized index is malformed or does not match the graph."""


@dataclass
class IndexParams:
    t: int = 4  # extended topological orderings (ceil(t/2) forward)
    k: int = 16  # supportive vertices
    p: int = 75  # candidate pool multiplier: k*p candidates
    h: int = 8  # slim-level threshold

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not hasattr(value, "__index__"):  # int, bool and numpy integers have it
                raise TypeError(f"index parameter {name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"index parameter {name} must be >= 0, got {value}")
            if value > 0xFFFF and name in ("t", "k"):  # 16 bits each in the file header
                raise ValueError(f"index parameter {name} must be <= 65535, got {value}")


@dataclass
class ObservationStats:
    """Counters over queries answered via the index.

    first_hit is keyed 'test:observation' (e.g. '4:T1') and counts the test
    that actually answered; together with fallbacks it partitions all
    queries.  overlap counts, per observation, the queries it could have
    answered, ignoring test order (filled by observation_stats).
    """

    queries: int = 0
    fallbacks: int = 0
    first_hit: Counter = field(default_factory=Counter)
    overlap: Counter = field(default_factory=Counter)
    outcomes: Counter = field(default_factory=Counter)

    @property
    def fallback_rate(self) -> float | None:
        return self.fallbacks / self.queries if self.queries else None


@dataclass(frozen=True)
class QueryOutcome:
    """Immutable: observation answers share one instance per tag (derive a
    changed copy with dataclasses.replace)."""

    answer: bool
    answered_by: str  # 'test:observation' or 'fallback:pbibfs'
    work: int = 0  # vertices expanded by the fallback; 0 for observation answers


@dataclass(frozen=True)
class PackedKeys:
    """The search's negative observations beyond the levels, packed into one
    Python int per vertex (see _pack_keys)."""

    keys: list[int]
    guard: int  # the guard bit of every field

    def bound(self, x: int, towards: bool) -> tuple[int, int]:
        """(c, want) for the search side with fixed endpoint x: an
        observation refutes the pair (v, x) (towards=True) or (x, v), for any
        v != x, exactly when (keys[v] + c) & guard != want."""
        kx, g = self.keys[x], self.guard
        if towards:  # the bits of g + kx - keys[v] flipped, kept nonnegative
            return (1 << g.bit_length()) - 1 - g - kx, 0
        return g - kx, g


@dataclass
class ReachIndex:
    """A built or loaded index.  It holds the stages' objects as they are
    given: the integer columns of wcc, levels and orderings are array('I')
    (see the module docstring).  keys is the search's packed keys, built on
    the index's first fallback or before a fallback worker is forked, and
    observe and testers the generated code for the orderings' flavors bound
    to these columns (_bind_observations) on first use.  All read the
    columns as they were then: derive a changed index with
    dataclasses.replace.  params and seed are what build_index was given;
    the file keeps neither, so they are left out of ==, as keys, observe
    and testers are."""

    graph: DiGraph
    wcc: array
    levels: LevelAssignment
    orderings: list[ExtTopOrder]
    supports: SupportSet
    params: IndexParams | None = field(default=None, compare=False)
    seed: int | None = field(default=None, compare=False)
    # not init fields, so that dataclasses.replace starts without stale ones
    keys: PackedKeys | None = field(default=None, init=False, repr=False, compare=False)
    observe: Callable[[int, int], QueryOutcome | None] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    testers: list[Callable] | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        """The fields but the bound functions: pickle cannot name a function
        made from generated code, and a copy binds its own on first use."""
        return {**self.__dict__, "observe": None, "testers": None}


def _substream(seed: int, tag: str, i: int = 0) -> int:
    data = f"{seed}/{tag}/{i}".encode()
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


def build_index(
    dag: DiGraph, params: IndexParams | None = None, seed: int = 0
) -> ReachIndex:
    """Assemble the per-vertex index; raises AcyclicityError on cyclic input.

    Stages: weak components, topological levels, ceil(t/2) forward plus
    floor(t/2) backward extended orderings, then supportive vertices drawn
    from a k*p candidate pool.  Each stage draws from its own substream of
    seed, so the stages are independent and their order does not matter.

    The levels come first: every ordering folds its Max along them, and
    they raise AcyclicityError on a cycle before any worker exists.  Then
    this process computes the other stages and ordering 0, and orderings
    1..t-1 come from _shared: with more than one CPU (see _forks for when
    the build stays inline) a forked worker computes them meanwhile, and
    otherwise, or if the worker fails to deliver, this process does.  The
    index, its bytes and any exception raised are the same either way, and
    the worker does not outlive the call.
    """
    # the stages, loaded by the first build and before any fork, so that the
    # worker's orderings find toporder loaded
    from . import toporder
    from .graph import topological_levels, weak_components
    from .supportive import pick_supports, select_candidates

    if params is None:
        params = IndexParams()
    t = params.t
    streams = [(FORWARD, _substream(seed, "fwd", j)) for j in range((t + 1) // 2)]
    streams += [(BACKWARD, _substream(seed, "bwd", j)) for j in range(t // 2)]
    levels = topological_levels(dag)  # raises on a cycle before any fork
    theirs = streams[1:]
    fork = bool(theirs) and _forks(dag.n + dag.m, _FORK_MIN_SIZE)
    job = partial(_ordering_columns, dag, levels, theirs)
    with _shared(job, 4 * dag.n * 3 * len(theirs), fork) as rest:
        wcc = weak_components(dag)
        orderings = [_ordering(dag, levels, *stream) for stream in streams[:1]]
        crng = random.Random(_substream(seed, "cand"))
        pool = select_candidates(dag, levels, params.k, params.p, params.h, crng)
        supports = pick_supports(pool, dag, params.k, levels)
        orderings += _orderings_from(rest(), dag.n, theirs)
    return ReachIndex(dag, wcc, levels, orderings, supports, params, seed)


def _ordering(dag: DiGraph, levels: LevelAssignment, flavor: str, seed: int) -> ExtTopOrder:
    """One extended ordering of build_index, drawn from random.Random(seed);
    levels are dag's topological_levels."""
    from .toporder import extended_topsort, extended_topsort_backward, start_sequence

    rng = random.Random(seed)
    if flavor == FORWARD:
        return extended_topsort(dag, start_sequence(dag, rng), rng, seed, levels)
    return extended_topsort_backward(dag, rng, seed, levels)


def _ordering_columns(dag: DiGraph, levels: LevelAssignment, streams) -> list[array]:
    """The build worker's job: the pos, High and Max columns of
    _ordering(dag, levels, *stream) for each stream, in order."""
    columns = []
    for stream in streams:
        order = _ordering(dag, levels, *stream)
        columns += [order.pos, order.hi, order.mx]
    return columns


def _orderings_from(data: bytes, n: int, streams) -> list[ExtTopOrder]:
    """The orderings whose columns _ordering_columns gave, read back from
    their raw cells."""
    columns = list(map(_uint_array, np.frombuffer(data, np.uint32).reshape(3 * len(streams), n)))
    return [
        ExtTopOrder(*columns[3 * j : 3 * j + 3], flavor=flavor, seed=seed)
        for j, (flavor, seed) in enumerate(streams)
    ]


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Below this many vertices plus edges a fork costs more than the orderings
# it takes over: at n = 1024, m = 4n the two break even (15 ms; 2 CPUs),
# and a forked build of a 64-vertex graph took 4-8 ms against 2 ms inline.
_FORK_MIN_SIZE = 8192
# Below this many undecided pairs a fork costs more than the half of the
# fallbacks it takes over.  On 2 CPUs (min of 7), 256 of them took 5.0,
# 2.4 and 5.9 ms inline against 6.4, 3.2 and 7.4 ms forked on a 65511-vertex
# condensation, G(2^12, 2^14) and G(2^16, 2^18), and 512 took 10.3, 4.8 and
# 10.6 ms against 9.5, 4.4 and 10.1 ms: fork, pipe and reap cost ~2-3 ms.
_FALLBACK_FORK_MIN = 512


def _forks(size: int, min_size: int) -> bool:
    """Whether a job of this size forks a worker (_shared): with a spare
    CPU, but not below its caller's min_size, without fork, or while other
    Python threads run (a forked child holds only the forking thread, so a
    lock another thread held at the fork would never be released there).
    One worker only: on G(2^16, 2^18) with t = 4 (2 CPUs) the build's
    stages after the fork (components, ordering 0, the supports) took ~145
    ms against ~160 ms for the worker's orderings 1..3, so a second worker
    could save at most ~15 ms, and it would need a third CPU."""
    if size < min_size or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    return _cpus() > 1


@contextlib.contextmanager
def _shared(job: Callable[[], list], size: int, fork: bool) -> Iterator[Callable[[], bytes]]:
    """Yields rest(), which returns the size bytes of job()'s buffers, so
    that the caller can do its own share of a job first.  With fork true a
    worker forked on entry runs job meanwhile and rest() reads its bytes;
    without, when os.fork raises OSError, or when the worker delivers short
    or exits nonzero, rest() runs job here.  On exit a worker still running,
    perhaps blocked on its full pipe, is killed and reaped.

    The worker writes job()'s buffers to a pipe, in order, only once job
    has returned, since the caller reads only after its own share and a
    full pipe would block.  It leaves through os._exit: exit status 0 once
    everything is written, 1 on any exception.  It never returns into the
    caller's code, runs no exit handlers and prints nothing.
    """
    pid = 0
    if fork:
        r, w = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python >= 3.12 warns on fork() whenever the OS counts more
                # than one thread.  Only one Python thread runs here (see
                # _forks); the others are native pools such as numpy's
                # BLAS threads, which the worker never calls into.
                warnings.filterwarnings(
                    "ignore", r"This process \(pid=\d+\) is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
        else:
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    buffers = job()
                    with open(w, "wb") as out:
                        for buf in buffers:
                            out.write(buf)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            reader = open(r, "rb")

    def rest() -> bytes:
        nonlocal pid
        if pid:
            with reader:
                data = reader.read(size)
            delivered = _reap(pid) == 0 and len(data) == size
            pid = 0
            if delivered:
                return data
        return b"".join(job())

    try:
        yield rest
    finally:
        if pid:  # still running, or blocked on the full pipe
            import signal  # here: a process that forks no worker need not load it

            reader.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            _reap(pid)


def _reap(pid: int) -> int:
    """Wait for the child pid and return its wait status; 0 if it was reaped
    elsewhere (as when the caller sets SIGCHLD to SIG_IGN)."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return 0


# ---------------------------------------------------------------------------
# the observation spec, its evaluator and the scalar pass generated from it

# Every observation once, as rows (tag, answer, source column, comparison,
# target column, guard) in test order.  A row proves answer for the pair
# (s, t) where source[s] <comparison> target[t] holds (COMPARISONS) and its
# guard, a comparison of the same form or None, does too; the column None
# reads the id itself, so 1:EQ is s == t.  The guards keep each row sound
# without the rows before it.  Rows over ordering columns (tests 4 and 6,
# ORDERING_BLOCK, and 7:C) read the pair (a, b) of one ordering's own
# graph: (s, t) in a forward ordering, (t, s) in a backward one.  Tests 4
# and 6 repeat their block for each ordering _PER_ORDERING gives them; 7:C
# holds where its comparison does in any ordering.

# Every comparison a spec row may make, as a Python expression in x, the
# source column's value at one end, and y, the target column's at the
# other: ints in the scalar pass, numpy arrays in observation_table.  The
# last three read support masks, as Python ints or as rows of cells, and
# hold where the result has a bit set.
COMPARISONS = {
    **{op: f"{{x}} {op} {{y}}" for op in ("==", "!=", "<", "<=", ">", ">=", "&")},
    "&~": "{x} & ~{y}",
    "~&": "~{x} & {y}",
}
_COMPARE = {op: eval(f"lambda x, y: {expr.format(x='x', y='y')}") for op, expr in COMPARISONS.items()}

# The ordering block: the observations of one ordering, in test order.  B4
# refutes the pairs the ordering inverts; the T tests read the rest, so
# that each stays sound on its own: T1 when pos(b) is inside a's certified
# range, T2 beyond Max(a), T3 on it.  T4-T6 name T1-T3 on a backward
# ordering.
AFTER = ("pos", "<", "pos")
ORDERING_BLOCK = (
    ("B4", False, "pos", ">", "pos", None),
    ("T1", True, "hi", ">=", "pos", AFTER),
    ("T2", False, "mx", "<", "pos", AFTER),
    ("T3", True, "mx", "==", "pos", AFTER),
)
_BACKWARD_NAMES = {"T1": "T4", "T2": "T5", "T3": "T6"}


def observation_name(obs: str, flavor: str) -> str:
    """The name of ordering observation obs on an ordering of this flavor."""
    return _BACKWARD_NAMES.get(obs, obs) if flavor == BACKWARD else obs


_NE = (None, "!=", None)
_SPEC = (
    ("1:EQ", True, None, "==", None, None),
    # levels: >= and <= rather than > and < are sound for s != t, as a path
    # forces a strictly larger forward and a strictly smaller backward level
    ("2:B5", False, "lf", ">=", "lf", _NE),
    ("2:B6", False, "lb", "<=", "lb", _NE),
    # supports: one s reaches that reaches t; one that reaches s but not t;
    # one that t reaches but s does not
    ("3:S1", True, "bm", "&", "fm", _NE),
    *((f"4:{obs}", *rest) for obs, *rest in ORDERING_BLOCK),
    ("5:S2", False, "fm", "&~", "fm", None),
    ("5:S3", False, "bm", "~&", "bm", None),
    *((f"6:{obs}", *rest) for obs, *rest in ORDERING_BLOCK),
    ("7:B2", False, "wcc", "!=", "wcc", None),
    # containment: the source reaches the target only if Max(target) <=
    # Max(source), in every ordering (see toporder)
    ("7:C", False, "mx", "<", "mx", None),
)
_ORDERING_COLUMNS = ("pos", "hi", "mx")
# the orderings whose blocks tests 4 and 6 read: the first, then each later one
_PER_ORDERING = {"4": slice(0, 1), "6": slice(1, None)}
# each guard, with the comparisons (over the ends s, t or an ordering's a,
# b) whose failure implies it: pos is one-to-one, so where s != t and
# pos(a) > pos(b) fails, pos(a) < pos(b) holds
_EQ = (None, "==", None, "s", "t")
_IMPLIED_BY = {_NE: [_EQ], AFTER: [_EQ, ("pos", ">", "pos", "a", "b")]}


@functools.cache
def _spec_rows(flavors: tuple[str, ...]) -> list[tuple[str, bool, list[tuple]]]:
    """The spec for an index whose orderings have these flavors, in test
    order: (tag, answer, terms) rows, each true where any of its terms is.
    A term is (comparison, guard, witnesses): the comparison (source, op,
    target, a, b) between the ends 's' and 't', the guard (source, op,
    target) between the same ends or None, and the comparisons whose
    failure implies the guard.  Ordering j's columns are pos{j}, hi{j} and
    mx{j}.  Cached per flavor tuple."""
    rows = []
    for test, block in itertools.groupby(_SPEC, key=lambda row: row[0].partition(":")[0]):
        if test in _PER_ORDERING:
            block = list(block)
            for j in range(len(flavors))[_PER_ORDERING[test]]:
                rows += [
                    (f"{test}:{observation_name(tag.partition(':')[2], flavors[j])}", ans,
                     [_term(src, op, tgt, guard, j, flavors[j])])
                    for tag, ans, src, op, tgt, guard in block
                ]
            continue
        for tag, ans, src, op, tgt, guard in block:
            if src in _ORDERING_COLUMNS:  # 7:C, over every ordering
                terms = [_term(src, op, tgt, guard, j, f) for j, f in enumerate(flavors)]
            else:
                terms = [_term(src, op, tgt, guard, None, FORWARD)]
            rows.append((tag, ans, terms))
    return rows


def _term(src, op: str, tgt, guard, j: int | None, flavor: str) -> tuple:
    """One term of _spec_rows: a comparison over ordering j's columns (or
    none), read over (s, t), or (t, s) where flavor is BACKWARD."""
    a, b = ("t", "s") if flavor == BACKWARD else ("s", "t")
    ends = {"a": a, "b": b, "s": "s", "t": "t"}

    def column(name):
        return f"{name}{j}" if name in _ORDERING_COLUMNS else name

    cond = (column(src), op, column(tgt), a, b)
    if guard is None:
        return cond, None, []
    witnesses = [(column(x), o, column(y), ends[u], ends[v]) for x, o, y, u, v in _IMPLIED_BY[guard]]
    return cond, (column(guard[0]), guard[1], column(guard[2])), witnesses


def _global_name(tag: str) -> str:
    """The name the generated pass reads the shared outcome of tag under."""
    return "out_" + tag.replace(":", "_")


# every observation tag -> the one outcome the pass returns for it, so that
# an observation answer allocates nothing
_OUTCOMES = {
    tag: QueryOutcome(ans, tag)
    for flavor in (FORWARD, BACKWARD)
    for tag, ans, _terms in _spec_rows((flavor, flavor))
}
_OUTCOME_GLOBALS = {_global_name(tag): out for tag, out in _OUTCOMES.items()}


def _key_terms(rows: list[tuple[str, bool, list[tuple]]]) -> list[tuple]:
    """The comparisons of rows that the search's packed keys test: every
    term of a negative row that has no guard (B4 and C per ordering, S2, S3
    and B2), in order."""
    return [cond for _tag, ans, terms in rows if not ans for cond, guard, _w in terms if guard is None]


def _pass_source(flavors: tuple[str, ...]) -> str:
    """The scalar pass and the search's tester makers for these flavors,
    as Python source.  def observe(s, t) returns the shared outcome of the
    first term of _spec_rows that holds.  towards(t) and away(s) read the
    fixed end's columns once and return test(s) and test(t): True where a
    positive term but EQ holds for (s, t), else None.  A tester sees only
    vertices other than its end that the packed keys leave, so EQ and every
    term of _key_terms have failed there, and the guards they imply go."""
    rows = _spec_rows(flavors)
    _held, body = _tests_source(rows, set(), "    ", None, _global_name)
    lines = [
        "def observe(s, t):",
        "    if not (0 <= s < n and 0 <= t < n):  # inline: keeps a call off the hot path",
        "        check_ids(n, s, t)",
        *body,
        "    return None",
    ]
    positive = [row for row in rows if row[1] and row[0] != "1:EQ"]
    for maker, fixed, free in (("towards", "t", "s"), ("away", "s", "t")):
        held, body = _tests_source(positive, {_EQ, *_key_terms(rows)}, "        ", fixed, lambda tag: "True")
        lines += [f"def {maker}({fixed}):", *(f"    {x}_{fixed} = {x}[{fixed}]" for x, _end in held)]
        lines += [f"    def test({free}):", *body, "        return None", "    return test"]
    return "\n".join(lines) + "\n"


def _tests_source(rows, failed: set, indent: str, fixed: str | None, returns: Callable) -> tuple:
    """(held, lines): straight-line source with one `if` per term of rows,
    in order, each returning returns(tag).  A guard whose witnesses have all
    failed, in failed or before it, is dropped.  The columns read at the
    end fixed are read from locals, which held names for the caller to
    make; one read at another end more than once is read once into a
    local, where it is first needed."""
    tests = []
    for tag, _ans, terms in rows:
        for cond, guard, witnesses in terms:
            if guard is None or failed.issuperset(witnesses):
                tests.append(([cond], tag))
                failed.add(cond)
            else:
                tests.append(([(*guard, *cond[3:]), cond], tag))
    reads = Counter(
        read for parts, _ in tests for x, _op, y, a, b in parts for read in ((x, a), (y, b))
    )
    held = [read for read in reads if read[1] == fixed]
    lines, kept = [], set(held)

    def value(name, end):
        if name is None:
            return end
        if (name, end) not in kept:
            if reads[name, end] == 1:
                return f"{name}[{end}]"
            kept.add((name, end))
            lines.append(f"{indent}{name}_{end} = {name}[{end}]")
        return f"{name}_{end}"

    for parts, tag in tests:
        exprs = [COMPARISONS[op].format(x=value(x, a), y=value(y, b)) for x, op, y, a, b in parts]
        lines.append(f"{indent}if {' and '.join(f'({e})' if len(parts) > 1 else e for e in exprs)}:")
        if tag == "1:EQ":  # reads no column, which would refuse a float id
            lines.append(f"{indent}    index(s), index(t)")
        lines.append(f"{indent}    return {returns(tag)}")
    return held, lines


@functools.cache
def _pass_code(flavors: tuple[str, ...]) -> tuple[CodeType, ...]:
    """_pass_source compiled, once per flavor tuple: the code of observe,
    towards and away.  The source goes into linecache under a filename that
    names the flavors, so that tracebacks and inspect.getsource show the
    generated lines."""
    source = _pass_source(flavors)
    filename = f"<reachidx observe ({', '.join(flavors)})>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    module = compile(source, filename, "exec")
    return tuple(c for c in module.co_consts if isinstance(c, CodeType))


def _columns(ix: ReachIndex) -> dict[str, array]:
    """ix's uint32 label columns by their names in the spec."""
    columns = {"lf": ix.levels.fwd, "lb": ix.levels.bwd, "wcc": ix.wcc}
    for j, o in enumerate(ix.orderings):
        columns.update({f"{name}{j}": getattr(o, name) for name in _ORDERING_COLUMNS})
    return columns


def _bind_observations(ix: ReachIndex) -> Callable[[int, int], QueryOutcome | None]:
    """Binds ix.observe and ix.testers (see _pass_source) and returns
    observe: tests 1-7 as ix's scalar pass, where observe(s, t) gives the
    shared outcome of the first row of observation_table true for (s, t),
    or None when none is.

    The code is shared by every index with ix's ordering flavors
    (_pass_code); binding it makes functions whose globals hold ix's
    columns, read once here, and the shared outcomes, so a call copies no
    closure cells.  The masks are Python ints for any k, so S1-S3 stay one
    `&` each (the first bind derives them from the rows), and with k = 0
    they are all zero and never fire.  observe raises IndexError when s or
    t is not a vertex id in [0, n); it reads no adjacency.
    """
    ss = ix.supports
    namespace = {
        "__name__": __name__,
        "n": len(ix.wcc),  # a label column: the observations never read the graph
        "check_ids": check_ids,
        "index": operator.index,
        **_columns(ix),
        "fm": ss.fwd_mask,
        "bm": ss.bwd_mask,
        **_OUTCOME_GLOBALS,
    }
    code = _pass_code(tuple(o.flavor for o in ix.orderings))
    ix.observe, *ix.testers = (FunctionType(c, namespace) for c in code)
    return ix.observe


def try_observations(
    ix: ReachIndex, s: int, t: int, stats: ObservationStats | None = None
) -> tuple[bool | None, str | None]:
    """Tests 1-7 in order: the first row of observation_table true for (s, t).

    Returns (answer, 'test:observation'); (None, None) when undecided.
    O(t + k) time, no adjacency access: the index's bound pass (see
    _bind_observations), which query runs too.  Given stats, also counts
    the first hit in stats.first_hit.  Raises IndexError when s or t is not
    a vertex id in [0, n).
    """
    observe = ix.observe
    if observe is None:
        observe = _bind_observations(ix)
    out = observe(s, t)
    if out is None:
        return None, None
    if stats is not None:
        stats.first_hit[out.answered_by] += 1
    return out.answer, out.answered_by


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


def observation_table(
    ix: ReachIndex, S: Sequence[int], T: Sequence[int]
) -> list[tuple[str, bool, np.ndarray]]:
    """The observations as (test:tag, answer, mask) rows in the fixed test
    order, where mask[i] says the row proves answer for the pair (S[i], T[i]).

    This is their definition: a pair's first true row is what
    try_observations answers, and a pair with no true row is undecided.  Every
    row but EQ excludes s == t.  Reads numpy views of the columns, never the
    adjacency.  Raises ValueError unless S and T are 1-D of equal length,
    TypeError when an id is not an integer and IndexError when one is not
    in [0, n), as query does.
    """
    S, T = _id_arrays(len(ix.wcc), S, T)
    ss = ix.supports
    columns = {name: np.frombuffer(col, np.uint32) for name, col in _columns(ix).items()}
    # each mask row in the widest unsigned cells that tile it, one uint16 at
    # k = 16: S1-S3 for 20000 pairs took 0.22 ms so and 1.6 ms on byte cells
    cell = f"<u{math.gcd(ss.mask_bytes or 1, 8)}"
    columns["fm"], columns["bm"] = (ss.rows(rows).view(cell) for rows in (ss.fwd_rows, ss.bwd_rows))
    read = gatherer(columns, {"s": S, "t": T})
    table = []
    for tag, ans, terms in _spec_rows(tuple(o.flavor for o in ix.orderings)):
        masks = [comparison_mask(read, *cond, guard) for cond, guard, _witnesses in terms]
        table.append((tag, ans, reduce(np.logical_or, masks) if masks else np.zeros(len(S), bool)))
    return table


def _integer_arrays(S: Sequence[int], T: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """S and T as arrays of exact integers: as given when of an integer
    dtype, else as Python ints (dtype object), uint64 or past int64 too.
    Raises ValueError unless both are 1-D of one length, and TypeError for
    an id that is not an integer: operator.index refuses floats, which
    int64 would truncate and a search of sorted ids would match."""
    S, T = np.asarray(S), np.asarray(T)
    if S.ndim != 1 or S.shape != T.shape:
        raise ValueError(f"S and T must be 1-D of equal length, got shapes {S.shape} and {T.shape}")
    return tuple(
        ids if ids.dtype.kind in "biu" else np.array([operator.index(x) for x in ids.tolist()], object)
        for ids in (S, T)
    )


def _id_arrays(n: int, S: Sequence[int], T: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """S and T as int64 arrays of vertex ids.  Raises as _integer_arrays;
    then, as query does for one pair, IndexError for an id outside [0, n),
    named by its given value: the smallest if negative, else the largest."""
    S, T = _integer_arrays(S, T)
    if not S.size:
        return S.astype(np.int64), T.astype(np.int64)
    check_ids(n, min(int(S.min()), int(T.min())), max(int(S.max()), int(T.max())))
    return S.astype(np.int64, copy=False), T.astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# fallback searches


@dataclass(frozen=True)
class Resolver:
    """Exact search: run(index, s, t) -> (answer, vertices expanded).
    tag is 'fallback:<name>'; query's fallback outcomes carry PBIBFS.tag."""

    name: str
    run: Callable[[ReachIndex, int, int], tuple[bool, int]]
    tag: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tag", "fallback:" + self.name)


# each comparison of _key_terms as the fields that test it: whether each
# reverses the term's one column (to top - column, or a complemented mask
# bit) where the term reads (s, t); a term that reads (t, s) reverses each
_KEY_FIELDS = {">": (False,), "<": (True,), "!=": (False, True), "&~": (False,), "~&": (True,)}


# each mask byte's 2-bit fields as two bytes: bit i of the byte at bit 2i,
# below its guard bit
_SPREAD = sum((np.arange(256) >> i & 1) << 2 * i for i in range(8)).astype("<u2").view(np.uint8).reshape(256, 2)


def _pack_keys(ix: ReachIndex) -> PackedKeys:
    """The unguarded negative observations (_key_terms), as one key per
    vertex.  The guarded ones are left out: the search tests B5 and B6 in
    its level window, and C implies T2 and T5, as pos <= Max.

    Each term becomes the fields _KEY_FIELDS gives, u with u(a) <= u(b)
    whenever a reaches b: an integer column, or top - column with top its
    largest value, in whole bytes, and one 2-bit field per bit of a mask.
    The top bit of each field is its guard bit, g has every guard bit set
    and the values stay below them: then each field of g + keys[b] -
    keys[a] holds 2^w + u(b) - u(a), with w the guard's place in it, which
    lies in [1, 2^(w+1)) and so borrows nothing from its neighbour, and the
    guard bit stays set exactly when u does not refute (a, b).  So one
    addition, one & and one compare test every observation at once
    (Lamport, "Multiple byte processing with full-word instructions", CACM
    1975).
    """
    n, ss = len(ix.wcc), ix.supports
    columns = {name: np.frombuffer(col, np.uint32) for name, col in _columns(ix).items()}
    masks = {"fm": ss.fwd_rows, "bm": ss.bwd_rows}
    layout = []  # (column, flip, top, bytes) per field, lowest first
    for src, op, _tgt, a, _b in _key_terms(_spec_rows(tuple(o.flavor for o in ix.orderings))):
        for flip in _KEY_FIELDS[op]:
            flip ^= a == "t"
            if src in masks:
                layout.append((src, flip, 0, 2 * ss.mask_bytes))
                continue
            top = int(columns[src].max(initial=0))
            span = top - int(columns[src].min(initial=top)) if flip else top
            layout.append((src, flip, top, (span.bit_length() + 8) // 8))  # room for the guard bit
    key = np.zeros((n, sum(width for *_, width in layout)), np.uint8)
    guard, at = bytearray(), 0
    for src, flip, top, width in layout:
        field = key[:, at : at + width]
        at += width
        if src in masks:
            rows = ss.rows(masks[src])
            field[:] = _SPREAD[rows ^ 0xFF if flip else rows].reshape(n, width)
            guard += b"\xaa" * width
            continue
        values = top - columns[src] if flip else columns[src]
        cells = values.astype("<u4", copy=False).view(np.uint8).reshape(n, 4)
        field[:, :4] = cells[:, :width]  # a fifth byte would hold the guard bit alone
        guard += bytes(width - 1) + b"\x80"
    from_bytes = int.from_bytes
    # one bytes object per key from struct, not a slice per key: 6.1 against
    # 8.8 ms at n = 65511 (map over chained 1-tuples took 7.9)
    keys = [from_bytes(k, "little") for (k,) in struct.iter_unpack(f"{len(guard)}s", key)]
    return PackedKeys(keys, from_bytes(guard, "little"))


def _search_parts(ix: ReachIndex) -> tuple[PackedKeys, Callable, Callable]:
    """ix's packed keys and tester makers, made on first use."""
    if ix.keys is None:
        ix.keys = _pack_keys(ix)
    if ix.testers is None:
        _bind_observations(ix)
    return ix.keys, *ix.testers


def _bidirectional_search(ix: ReachIndex, s: int, t: int) -> tuple[bool, int]:
    """Bidirectional BFS that always expands the side with the shorter queue.

    The forward side goes first on a tie.  Meeting frontiers (including
    stepping onto t or s directly) answer positively.  The search answers
    negatively as soon as either queue is empty: that side has then seen every
    vertex it could put on an s-t path.  Every newly encountered vertex v
    first goes through the observations as the subquery (v, t) or (s, v): a
    decisive positive answers the whole query, a decisive negative prunes v.
    The negative observations run inline: the level window (B5, B6), then
    one comparison of packed keys for the rest.  The positive ones run in the
    side's tester, made on that side's first pop.  The index's keys and
    tester makers are made on its first search with s != t.
    Raises IndexError when s or t is not a vertex id in [0, n).
    """
    g = ix.graph
    n = g.n
    if not (0 <= s < n and 0 <= t < n):  # inline: keeps a call off the hot path
        check_ids(n, s, t)
    if s == t:
        operator.index(s), operator.index(t)  # refuses a float id, as the columns do
        return True, 0
    lf, lb = ix.levels.fwd, ix.levels.bwd
    fq: deque[int] = deque((s,))
    bq: deque[int] = deque((t,))
    # each vertex either side has queued, mapped to that side's queue: the
    # sides' seen sets are disjoint, as meeting ends the search
    seen = {s: fq, t: bq}
    # per side: queue, offsets and targets, the pair's level window in the
    # one form a[v] >= ax or b[v] <= bx (B5, B6), the key bound (c, want) and
    # the positive test; built on first pop
    fwd = bwd = None
    pk, towards, away = _search_parts(ix)
    keys, guard = pk.keys, pk.guard
    work = 0
    while fq and bq:
        if len(fq) <= len(bq):
            if fwd is None:
                fwd = (fq, g.out_off, g.out_tg, lf, lf[t], lb, lb[t],
                       *pk.bound(t, True), towards(t))
            q, off, tg, a, ax, b, bx, c, want, test = fwd
        else:
            if bwd is None:
                bwd = (bq, g.in_off, g.in_tg, lb, lb[s], lf, lf[s],
                       *pk.bound(s, False), away(s))
            q, off, tg, a, ax, b, bx, c, want, test = bwd
        u = q.popleft()
        work += 1
        for v in tg[off[u]:off[u + 1]]:
            if v in seen:
                if seen[v] is not q:  # frontiers met
                    return True, work
                continue
            # B5, B6, then S2, S3, B4, C and B2 in one comparison
            if a[v] >= ax or b[v] <= bx or (keys[v] + c) & guard != want:
                continue
            if test(v):
                return True, work
            seen[v] = q
            q.append(v)
    return False, work


PBIBFS = Resolver("pbibfs", _bidirectional_search)
PLAIN_BFS = Resolver("bfs", lambda ix, s, t: bfs_search(ix.graph, s, t))


def query(ix: ReachIndex, s: int, t: int) -> QueryOutcome:
    """Exact reachability answer: observations first, PBIBFS on unknown.

    An observation answer is the one shared outcome of its tag; a fallback
    answer is a new outcome that carries the search's work.
    Raises IndexError when s or t is not a vertex id in [0, n).
    """
    observe = ix.observe
    if observe is None:
        observe = _bind_observations(ix)
    out = observe(s, t)
    if out is not None:
        return out
    ans, work = PBIBFS.run(ix, s, t)
    return QueryOutcome(ans, PBIBFS.tag, work)


def query_batch(
    ix: ReachIndex, S: Sequence[int], T: Sequence[int]
) -> tuple[np.ndarray, list[str], np.ndarray]:
    """query(ix, S[i], T[i]) for every i, in bulk: (answer, answered_by,
    work), with answer a bool array, answered_by a list of tags and work an
    int64 array.  A pair's outcome is that of its first true row in one
    observation_table call, else PBIBFS's (see _decide for the fork).
    Raises as observation_table."""
    rows = observation_table(ix, S, T)
    _held, first, answer, work = _decide(ix, S, T, rows)
    tags = [tag for tag, _, _ in rows] + [PBIBFS.tag]
    return answer, [tags[r] for r in first.tolist()], work


def _decide(
    ix: ReachIndex, S: Sequence[int], T: Sequence[int], rows: list[tuple[str, bool, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(held, first, answer, work) of the pairs (S[i], T[i]) from their
    observation_table rows: held[r, i] says row r holds for pair i, first[i]
    is its first true row (len(rows) when none holds), and the undecided
    pairs get PBIBFS's answer and work.

    This process answers every other undecided pair, and the rest come
    from _shared: with enough of them (see _forks) a forked worker answers
    them meanwhile, and otherwise, or if the worker fails to deliver, this
    process does.  Before a fork the packed keys and tester makers are
    made, so the worker inherits them.  The outcomes are the same either
    way, and the worker does not outlive the call."""
    held = np.array([mask for _, _, mask in rows]).reshape(len(rows), len(S))
    decided = held.any(axis=0)
    first = np.where(decided, held.argmax(axis=0), len(rows))
    answer = np.array([ans for _, ans, _ in rows] + [False])[first]
    work = np.zeros(len(S), dtype=np.int64)
    undecided = np.flatnonzero(~decided)
    S, T = (np.asarray(ids, np.int64)[undecided].tolist() for ids in (S, T))
    found = np.empty((len(S), 2), dtype=np.int64)
    fork = _forks(len(S), _FALLBACK_FORK_MIN)
    if fork:  # made before the fork, so that the worker inherits them
        _search_parts(ix)
    with _shared(lambda: [_fallbacks(ix, S[1::2], T[1::2])], found[1::2].nbytes, fork) as rest:
        found[::2] = _fallbacks(ix, S[::2], T[::2])
        found[1::2] = np.frombuffer(rest(), np.int64).reshape(-1, 2)
    answer[undecided], work[undecided] = found[:, 0], found[:, 1]
    return held, first, answer, work


def _fallbacks(ix: ReachIndex, S: list[int], T: list[int]) -> np.ndarray:
    """PBIBFS's (answer, work) for each pair (S[i], T[i]), as the rows of a
    (len(S), 2) int64 array: the fallbacks' job for _shared."""
    found = [PBIBFS.run(ix, s, t) for s, t in zip(S, T)]
    return np.array(found, dtype=np.int64).reshape(len(S), 2)


def observation_stats(ix: ReachIndex, S: Sequence[int], T: Sequence[int]) -> ObservationStats:
    """The stats of querying each pair (S[i], T[i]), decided as query_batch
    decides it: a pair's first true row is its first hit, each observation
    true for it counts once in overlap, and only undecided pairs go to
    PBIBFS, the fallback of query."""
    rows = observation_table(ix, S, T)
    held, first, answer, _work = _decide(ix, S, T, rows)
    obs = np.array([tag.partition(":")[2] for tag, _, _ in rows])
    reachable = int(np.count_nonzero(answer))
    fallbacks = first == len(rows)
    return ObservationStats(  # unary + drops the zero counts
        queries=len(S),
        fallbacks=int(np.count_nonzero(fallbacks)),
        first_hit=Counter(rows[r][0] for r in first[~fallbacks].tolist()),
        overlap=+Counter({o: int(held[obs == o].any(axis=0).sum()) for o in set(obs)}),
        outcomes=+Counter(reachable=reachable, unreachable=len(S) - reachable),
    )


# ---------------------------------------------------------------------------
# original vertex ids

# distinct original ids of one SCC: mutually reachable, no index needed
SAME_SCC = "0:B3"
# pairs that Condensed.query answers with one query_batch call, so that the
# observation table stays a few MB whatever the number of pairs.  A call
# reads the support masks as the index's rows, without converting all n
# of them, so its cost beyond its own pairs is at most one fork for its
# fallbacks.
QUERY_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class Condensed:
    """A digraph on arbitrary integer ids, as an index of its condensation
    answers it: ids, the original ids ascending (int64, or Python ints,
    dtype object, past 64 bits); scc_of, the SCC of each (uint32); and dag,
    the condensation.  The methods take pairs of original ids and translate
    every id before they answer any pair: one not in ids is refused with
    GraphFormatError, naming the first in reading order (s, then t, pair by
    pair).  query and stats refuse an index of another DAG with
    IndexFormatError, and answer distinct ids of one SCC as SAME_SCC."""

    ids: np.ndarray
    scc_of: np.ndarray
    dag: DiGraph

    @classmethod
    def from_parse(cls, res: ParseResult) -> Condensed:
        """The condensation of a parsed graph.  Tarjan's condensation is a
        build stage: it is imported here, where it runs."""
        from .graph import scc_condense

        cond = scc_condense(res.graph)
        return cls(res.ids, np.array(cond.scc_of, dtype=np.uint32), cond.dag)

    def sccs(self, S: Sequence[int], T: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The SCCs of S[i] and of T[i], for every i, as uint32 arrays.
        Raises ValueError and TypeError as observation_table does, and
        GraphFormatError for an id not in ids."""
        CS, CT, _same = self._translate(S, T)
        return CS, CT

    def query(
        self, ix: ReachIndex, S: Sequence[int], T: Sequence[int]
    ) -> tuple[np.ndarray, list[str], np.ndarray]:
        """query_batch's (answer, answered_by, work) for the pairs of
        original ids (S[i], T[i]): each pair gets query's outcome for its
        SCCs, answered QUERY_CHUNK pairs to a query_batch call, except that
        distinct ids of one SCC are tagged SAME_SCC."""
        self._check(ix)
        CS, CT, same = self._translate(S, T)
        answer, work = np.empty(len(CS), bool), np.empty(len(CS), np.int64)
        tags: list[str] = []
        for lo in range(0, len(CS), QUERY_CHUNK):
            chunk = slice(lo, lo + QUERY_CHUNK)
            answer[chunk], chunk_tags, work[chunk] = query_batch(ix, CS[chunk], CT[chunk])
            tags += chunk_tags
        for i in np.flatnonzero(same).tolist():
            tags[i] = SAME_SCC  # answered True with no work by 1:EQ of the SCCs
        return answer, tags, work

    def stats(self, ix: ReachIndex, S: Sequence[int], T: Sequence[int]) -> ObservationStats:
        """observation_stats of the pairs of original ids (S[i], T[i]) as
        query answers them: a SAME_SCC pair counts as a reachable first hit
        of SAME_SCC, and in no overlap."""
        self._check(ix)
        CS, CT, same = self._translate(S, T)
        stats = observation_stats(ix, CS[~same], CT[~same])
        if n_same := int(np.count_nonzero(same)):
            stats.queries += n_same
            stats.first_hit[SAME_SCC] += n_same
            stats.outcomes["reachable"] += n_same
        return stats

    def _check(self, ix: ReachIndex) -> None:
        # a loaded index of dag has the checksum cached on it already
        if graph_checksum(ix.graph) != graph_checksum(self.dag):
            raise IndexFormatError("index built for another graph than the condensation")

    def _translate(
        self, S: Sequence[int], T: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(SCCs of S, SCCs of T, where distinct ids share an SCC)."""
        S, T = _integer_arrays(S, T)
        ends, ids = np.column_stack((S, T)).ravel(), self.ids  # s, t of each pair in turn
        if ends.dtype != ids.dtype:  # ids beyond 64 bits on one side: compare as ints
            ends, ids = ends.astype(object), ids.astype(object)
        at = np.searchsorted(ids, ends)
        known = at < len(ids)
        known[known] = ids[at[known]] == ends[known]
        if not known.all():
            raise GraphFormatError(f"unknown vertex id {ends[known.argmin()]}")
        scc = self.scc_of[at]
        CS, CT = scc[0::2], scc[1::2]
        return CS, CT, (CS == CT) & (at[0::2] != at[1::2])


# ---------------------------------------------------------------------------
# serialization

MAGIC = b"RIDX"
VERSION = 3
# magic, version, t, k, n, graph checksum, payload CRC32 (see _payload_crc)
HEADER = struct.Struct("<4sIHHIII")


def payload_bytes_per_vertex(t: int, k: int) -> int:
    return 12 + 12 * t + 2 * ((k + 7) // 8)


def _payload_crc(head: bytes, payload: Sequence) -> int:
    """CRC32 of a file but the CRC's own four bytes, which end the header."""
    crc = zlib.crc32(head[: HEADER.size - 4])
    return reduce(lambda c, chunk: zlib.crc32(chunk, c), payload, crc)


def _file_flavors(t: int) -> list[str]:
    """The flavors of a file's t orderings, which it does not record:
    ceil(t/2) forward, then floor(t/2) backward, as build_index makes them."""
    return [FORWARD] * ((t + 1) // 2) + [BACKWARD] * (t // 2)


def serialize_index(ix: ReachIndex) -> bytes:
    """Little-endian header, then each column contiguous: the 3 + 3t uint32
    columns of n cells (wcc, levels.fwd, levels.bwd, then pos, hi and mx per
    ordering), then the forward and the backward mask rows.  Raises
    ValueError, before any byte is made, for an index the file cannot hold:
    t or k above the header's 16 bits, or orderings whose flavors are not
    those the file implies (_file_flavors)."""
    ss = ix.supports
    for name, value in (("len(orderings)", len(ix.orderings)), ("supports.k", ss.k)):
        if value > 0xFFFF:
            raise ValueError(f"{name} = {value} does not fit the file's 16 bits (at most 65535)")
    flavors = [order.flavor for order in ix.orderings]
    if flavors != _file_flavors(len(flavors)):
        raise ValueError(
            f"orderings have flavors {flavors}; the file holds the forward ones first, "
            f"{_file_flavors(len(flavors))}"
        )
    columns: list[array] = [ix.wcc, ix.levels.fwd, ix.levels.bwd]
    for order in ix.orderings:
        columns += [order.pos, order.hi, order.mx]
    # a view, not a copy, where the host is little-endian
    payload = [np.frombuffer(col, np.uint32).astype("<u4", copy=False) for col in columns]
    payload += [ss.fwd_rows, ss.bwd_rows]
    checksum = graph_checksum(ix.graph)
    head = HEADER.pack(MAGIC, VERSION, len(ix.orderings), ss.k, ix.graph.n, checksum, 0)
    crc = _payload_crc(head, payload)
    return b"".join([head[: HEADER.size - 4], crc.to_bytes(4, "little"), *payload])


def deserialize_index(data: bytes, dag: DiGraph) -> ReachIndex:
    """Inverse of serialize_index; validates magic, version, n, the graph
    checksum, the length, the payload CRC, and that every integer column
    value is below n."""
    if len(data) < HEADER.size:
        raise IndexFormatError("truncated header")
    magic, version, t, k, n, checksum, crc = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise IndexFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise IndexFormatError(f"unsupported version {version}")
    if n != dag.n:
        raise IndexFormatError(f"index built for n={n}, graph has n={dag.n}")
    if checksum != graph_checksum(dag):
        raise IndexFormatError("graph checksum mismatch")
    size = HEADER.size + n * payload_bytes_per_vertex(t, k)
    if len(data) != size:
        raise IndexFormatError(f"expected {size} bytes, got {len(data)}")
    if crc != _payload_crc(data, [memoryview(data)[HEADER.size :]]):
        raise IndexFormatError("payload CRC mismatch")
    raw = np.frombuffer(data, dtype=np.uint8)
    masks_at = HEADER.size + 4 * (3 + 3 * t) * n
    ints = raw[HEADER.size : masks_at].view("<u4").reshape(3 + 3 * t, n)
    if ints.size and ints.max() >= n:  # every column holds ids, levels or positions < n
        i, v = divmod(int((ints >= n).argmax()), n)
        names = ["wcc", "levels.fwd", "levels.bwd"] + [
            f"orderings[{j}].{c}" for j in range(t) for c in ("pos", "hi", "mx")
        ]
        raise IndexFormatError(f"{names[i]}[{v}] = {ints[i, v]} is out of range for n={n}")
    wcc, fwd, bwd, *rest = map(_uint_array, ints)
    levels = LevelAssignment(fwd, bwd)
    orderings = [
        ExtTopOrder(*rest[3 * j : 3 * j + 3], flavor=flavor)
        for j, flavor in enumerate(_file_flavors(t))
    ]
    fwd_rows, bwd_rows = raw[masks_at:].reshape(2, n, (k + 7) // 8)
    # copies, so that the index does not keep the file's buffer alive
    support_set = SupportSet(fwd_rows.tobytes(), bwd_rows.tobytes(), k, n)
    return ReachIndex(dag, wcc, levels, orderings, support_set)

"""Reachability index: build, ordered observation tests, fallback search,
and binary serialization.

Every build stage (weak components, levels, each extended ordering, the
supports) draws from its own substream of the seed, so the stages are
independent.  The levels come first, since the orderings' Max and the
support masks are both folded along them (graph.level_fold).

A process that may run on more than one CPU splits its two largest jobs
with one forked worker (_Worker, which runs any job and hands back its
bytes through a pipe; _forks says when).  build_index's worker computes
orderings 1..t-1 while the caller computes the rest, and sends each
ordering's columns as raw uint32 cells.  query_batch and
observation_stats give every other undecided pair to a worker, which
sends PBIBFS's (answer, work) for each as two int64 cells.  The results
are the same as those of the inline path, which small jobs, single-CPU
processes, processes with other Python threads and platforms without
fork take, and so is any exception raised; the worker never outlives the
call.

A query runs through seven constant-time tests (equality, levels, positive
support, first ordering, negative supports, remaining orderings, then weak
components and Max containment over all orderings); the first decisive
one answers.  Each observation is written once, as a row of the
observation spec (_SPEC), and three things are derived from it: the shared
outcomes (_OUTCOMES); observation_table, which evaluates every row with
numpy over many pairs; and the scalar pass, which query and
try_observations run one pair at a time.  query_batch answers many pairs
from one table, each by its first true row or else by the fallback, as
query answers it alone, and observation_stats counts first hits and
overlap from the same decision.  The scalar pass is straight-line source
generated from the rows, compiled once per tuple of ordering flavors and
bound to an index on its first query or try_observations call as a
function whose globals hold the index's columns: no closure cells to copy
per call, and nothing compiled at bind time (~2.6 us at t = 4).  It took
~250 ns per decided query of G(2^16, 2^18) against ~295 ns for the
hand-written closure it replaced (in process, a 2-core Xeon; see
BENCH_34.json for the benchmark).  The packed keys and the endpoint test
write the observations out by hand, pinned to the table by the tests.

Undecided queries go to the one fallback, PBIBFS, a pruned bidirectional
BFS (PLAIN_BFS, the forward BFS baseline, stays as a reference search for
tests and per-layer timing).  It expands the side with the shorter queue,
answers positively when the sides meet and negatively as soon as either
queue is empty, and tests every newly encountered vertex against the
search's fixed endpoint with the same observations, so a decisive negative
prunes that vertex.  The search checks the negatives inline: the level
window, then every other negative observation (S2, S3, B4 and containment
per ordering, which subsumes T2, and B2) in one comparison of packed keys.
Each vertex's key is one Python int holding one field per observation,
each with a guard bit above it, oriented so that a reachable pair (a, b)
has u(a) <= u(b) in every field u; the guard bits of g + key(b) - key(a)
are then all set exactly when no field refutes the pair, so one addition,
one & and one compare test them all at once.  The keys are built with
numpy on an index's first fallback, or just before a fallback worker is
forked, so that it inherits them; not at build or load (~15 ms, ~5 MB,
about 72 bytes a vertex, for 2^16 vertices at the default parameters).
They are kept on the ReachIndex.  The levels stay out of the key: the decided
queries read the same level columns, and with the fallbacks no longer
reading them those queries slowed by ~30%.  A vertex the negatives leave
goes through the positive observations (S1, T1 and T3) in a per-side
endpoint test, built on that side's first pop.

In memory, every per-vertex integer column (weak component, both levels,
and each ordering's pos, High and Max) is an array('I'): n
contiguous uint32 cells instead of n pointers to separate int objects, so
an index lookup reads one cache-friendly cell.  The stages in graph and
toporder return their columns in that type, and a ReachIndex holds them
as given: the forked worker writes them to its pipe as they are.  The
file (format version 3) holds them the same way, each column contiguous
after the header, so serialization joins their bytes and loading copies
each column out of one slice without creating an int per cell.  The
support masks are kept in two forms (see SupportSet): as the file's rows
of (k + 7) // 8 bytes, which serialization writes as they are and
observation_table and the packed keys read as numpy rows, and as one
Python int per vertex, derived from the rows, for the scalar path: k may
exceed 64, and an int keeps S1-S3 a single `&` for any k.  A payload
CRC32 in the header rejects a damaged file before any of it is read.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import linecache
import math
import operator
import os
import random
import signal
import struct
import threading
import warnings
import zlib
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial, reduce
from types import CodeType, FunctionType
from typing import Callable, Sequence

import numpy as np

from .baselines import bfs_search
from .graph import (
    DiGraph,
    LevelAssignment,
    _uint_array,
    check_ids,
    graph_checksum,
    topological_levels,
    weak_components,
)
from .supportive import SupportSet, pick_supports, select_candidates
from .toporder import (
    AFTER,
    BACKWARD,
    COMPARISONS,
    FORWARD,
    ORDERING_BLOCK,
    ExtTopOrder,
    comparison_mask,
    extended_topsort,
    extended_topsort_backward,
    gatherer,
    observation_name,
    start_sequence,
)


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
    observe the scalar pass, the generated code for the orderings' flavors
    bound to these columns (_bind_observations) on the first query or
    try_observations call.  Both read the columns as they were then:
    derive a changed index with dataclasses.replace.  params and seed are
    what build_index was given; the file keeps neither, so they are left
    out of ==, as keys and observe are."""

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

    def __getstate__(self) -> dict:
        """The fields but observe: pickle cannot name a function made from
        generated code, and a copy binds its own on first use."""
        return {**self.__dict__, "observe": None}


def _substream(seed: int, tag: str, i: int = 0) -> int:
    data = f"{seed}/{tag}/{i}".encode()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def build_index(
    dag: DiGraph, params: IndexParams | None = None, seed: int = 0
) -> ReachIndex:
    """Assemble the per-vertex index; raises AcyclicityError on cyclic input.

    Stages: weak components, topological levels, ceil(t/2) forward plus
    floor(t/2) backward extended orderings, then supportive vertices drawn
    from a k*p candidate pool.  Each stage draws from its own substream of
    seed, so the stages are independent and their order does not matter.

    The levels come first: every ordering folds its Max along them, and
    they raise AcyclicityError on a cycle before any worker exists.  Then,
    with more than one CPU, orderings 1..t-1 are computed in one forked
    worker (see _Worker, and _forks for when the build stays inline) while
    this process runs the other stages and ordering 0; if the worker fails
    to deliver, its orderings are computed here.  The index, its bytes and
    any exception raised are the same either way, and the worker does not
    outlive the call.
    """
    if params is None:
        params = IndexParams()
    t = params.t
    streams = [(FORWARD, _substream(seed, "fwd", j)) for j in range((t + 1) // 2)]
    streams += [(BACKWARD, _substream(seed, "bwd", j)) for j in range(t // 2)]
    levels = topological_levels(dag)  # raises on a cycle before any fork
    theirs = streams[1:]
    worker = None
    try:
        if theirs and _forks(dag.n + dag.m, _FORK_MIN_SIZE):
            worker = _Worker.fork(partial(_ordering_columns, dag, levels, theirs))
        wcc = weak_components(dag)
        here = streams if worker is None else streams[:1]
        orderings = [_ordering(dag, levels, *stream) for stream in here]
        crng = random.Random(_substream(seed, "cand"))
        pool = select_candidates(dag, levels, params.k, params.p, params.h, crng)
        supports = pick_supports(pool, dag, params.k, levels)
        if worker is not None:
            data = worker.collect(4 * dag.n * 3 * len(theirs))
            if data is None:  # the worker failed: its orderings here
                orderings += [_ordering(dag, levels, *stream) for stream in theirs]
            else:
                orderings += _orderings_from(data, dag.n, theirs)
    finally:
        if worker is not None:
            worker.stop()
    return ReachIndex(dag, wcc, levels, orderings, supports, params, seed)


def _ordering(dag: DiGraph, levels: LevelAssignment, flavor: str, seed: int) -> ExtTopOrder:
    """One extended ordering of build_index, drawn from random.Random(seed);
    levels are dag's topological_levels."""
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
    cells, size = memoryview(data), 4 * n
    columns = []
    for j in range(3 * len(streams)):
        col = array("I")
        col.frombytes(cells[j * size : (j + 1) * size])
        columns.append(col)
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
    """Whether a job of this size forks a _Worker: with a spare CPU, but not
    below its caller's min_size, without fork, or while other Python threads
    run (a forked child holds only the forking thread, so a lock another
    thread held at the fork would never be released there).  One worker
    only: on G(2^16, 2^18) with t = 4 (2 CPUs) the build's stages after the
    fork (components, ordering 0, the supports) took ~145 ms against ~160
    ms for the worker's orderings 1..3, so a second worker could save at
    most ~15 ms, and it would need a third CPU."""
    if size < min_size or not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    return _cpus() > 1


class _Worker:
    """A forked process that runs one job and hands back its bytes.

    The job returns a list of buffers once all its work is done; only then
    does the worker write them to a pipe, in order, since the caller reads
    only after its own share and a full pipe would block.  It leaves
    through os._exit: exit status 0 once everything is written, 1 on any
    exception.  It never returns into the caller's code, runs no exit
    handlers and prints nothing.
    """

    def __init__(self, pid: int, reader) -> None:
        self.pid = pid
        self.reader = reader

    @classmethod
    def fork(cls, job: Callable[[], list]) -> _Worker | None:
        """A worker running job; None if the process could not be forked."""
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
            return None
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
        return cls(pid, open(r, "rb"))

    def collect(self, size: int) -> bytes | None:
        """The size bytes the job wrote, then the worker reaped.  None when
        it delivered short or exited nonzero."""
        data = self.reader.read(size)
        self.reader.close()
        status = _reap(self.pid)
        self.pid = 0
        return data if len(data) == size and status == 0 else None

    def stop(self) -> None:
        """Close the read end; unless reaped already, kill the worker, which
        may still be computing or blocked on the full pipe, and reap it."""
        self.reader.close()
        if self.pid:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            _reap(self.pid)
            self.pid = 0


def _reap(pid: int) -> int:
    """Wait for the child pid and return its wait status; 0 if it was reaped
    elsewhere (as when the caller sets SIGCHLD to SIG_IGN)."""
    try:
        return os.waitpid(pid, 0)[1]
    except ChildProcessError:
        return 0


# ---------------------------------------------------------------------------
# the observation spec and the scalar pass generated from it

# Every observation once, as rows (tag, answer, source column, comparison,
# target column, guard) in test order.  A row proves answer for the pair
# (s, t) where source[s] <comparison> target[t] holds (toporder.COMPARISONS)
# and its guard, a comparison of the same form or None, does too; the
# column None reads the id itself, so 1:EQ is s == t.  The guards keep each
# row sound without the rows before it.  Rows over ordering columns (tests
# 4 and 6, toporder.ORDERING_BLOCK, and 7:C) read the pair (a, b) of one
# ordering's own graph: (s, t) in a forward ordering, (t, s) in a backward
# one.  Tests 4 and 6 repeat their block for each ordering _PER_ORDERING
# gives them; 7:C holds where its comparison does in any ordering.
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
_IMPLIED_BY = {
    _NE: [(None, "==", None, "s", "t")],
    AFTER: [(None, "==", None, "s", "t"), ("pos", ">", "pos", "a", "b")],
}


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


def _pass_source(flavors: tuple[str, ...]) -> str:
    """The scalar pass for these flavors as Python source: def observe(s,
    t), straight-line, with one `if` per term of _spec_rows that returns
    the row's shared outcome.  A guard whose witnesses have all failed
    before it is dropped, and a column read at one end more than once is
    read once into a local, where it is first needed."""
    tests, failed = [], set()
    for tag, _ans, terms in _spec_rows(flavors):
        for cond, guard, witnesses in terms:
            if guard is None or failed.issuperset(witnesses):
                tests.append(([cond], tag))
                failed.add(cond)
            else:
                tests.append(([(*guard, *cond[3:]), cond], tag))
    reads = Counter(
        read for parts, _ in tests for x, _op, y, a, b in parts for read in ((x, a), (y, b))
    )
    lines = [
        "def observe(s, t):",
        "    if not (0 <= s < n and 0 <= t < n):  # inline: keeps a call off the hot path",
        "        check_ids(n, s, t)",
    ]
    kept = set()

    def value(name, end):
        if name is None:
            return end
        if reads[name, end] == 1:
            return f"{name}[{end}]"
        if (name, end) not in kept:
            kept.add((name, end))
            lines.append(f"    {name}_{end} = {name}[{end}]")
        return f"{name}_{end}"

    for parts, tag in tests:
        exprs = [COMPARISONS[op].format(x=value(x, a), y=value(y, b)) for x, op, y, a, b in parts]
        lines.append(f"    if {' and '.join(f'({e})' if len(parts) > 1 else e for e in exprs)}:")
        lines.append(f"        return {_global_name(tag)}")
    lines.append("    return None")
    return "\n".join(lines) + "\n"


@functools.cache
def _pass_code(flavors: tuple[str, ...]) -> CodeType:
    """_pass_source compiled, once per flavor tuple.  The source goes into
    linecache under a filename that names the flavors, so that tracebacks
    and inspect.getsource show the generated lines."""
    source = _pass_source(flavors)
    filename = f"<reachidx observe ({', '.join(flavors)})>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    module = compile(source, filename, "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


def _bind_observations(ix: ReachIndex) -> Callable[[int, int], QueryOutcome | None]:
    """Tests 1-7 as ix's scalar pass: observe(s, t) gives the shared
    outcome of the first row of observation_table true for (s, t), or None
    when none is.

    The pass's code is shared by every index with ix's ordering flavors
    (_pass_code); binding it makes a function whose globals hold ix's
    columns, read once here, and the shared outcomes, so a call copies no
    closure cells.  The masks are Python ints for any k, so S1-S3 stay one
    `&` each, and with k = 0 they are all zero and never fire.  observe
    raises IndexError when s or t is not a vertex id in [0, n); it reads no
    adjacency.
    """
    ss = ix.supports
    namespace = {
        "__name__": __name__,
        "n": len(ix.wcc),  # a label column: the observations never read the graph
        "check_ids": check_ids,
        "lf": ix.levels.fwd,
        "lb": ix.levels.bwd,
        "fm": ss.fwd_mask,
        "bm": ss.bwd_mask,
        "wcc": ix.wcc,
        **_OUTCOME_GLOBALS,
    }
    for j, o in enumerate(ix.orderings):
        namespace[f"pos{j}"], namespace[f"hi{j}"], namespace[f"mx{j}"] = o.pos, o.hi, o.mx
    code = _pass_code(tuple(o.flavor for o in ix.orderings))
    return FunctionType(code, namespace)


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
        observe = ix.observe = _bind_observations(ix)
    out = observe(s, t)
    if out is None:
        return None, None
    if stats is not None:
        stats.first_hit[out.answered_by] += 1
    return out.answer, out.answered_by


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
    u32 = partial(np.frombuffer, dtype=np.uint32)
    lv, ss = ix.levels, ix.supports
    # each mask row in the widest unsigned cells that tile it, one uint16 at
    # k = 16: S1-S3 for 20000 pairs took 0.22 ms so and 1.6 ms on byte cells
    cell = f"<u{math.gcd(ss.mask_bytes or 1, 8)}"
    fm, bm = (ss.rows(rows).view(cell) for rows in (ss.fwd_rows, ss.bwd_rows))
    columns = {"lf": u32(lv.fwd), "lb": u32(lv.bwd), "fm": fm, "bm": bm, "wcc": u32(ix.wcc)}
    for j, o in enumerate(ix.orderings):
        columns.update({f"{name}{j}": u32(getattr(o, name)) for name in _ORDERING_COLUMNS})
    read = gatherer(columns, {"s": S, "t": T})
    table = []
    for tag, ans, terms in _spec_rows(tuple(o.flavor for o in ix.orderings)):
        masks = [comparison_mask(read, *cond, guard) for cond, guard, _witnesses in terms]
        table.append((tag, ans, reduce(np.logical_or, masks) if masks else np.zeros(len(S), bool)))
    return table


def _id_arrays(n: int, S: Sequence[int], T: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """S and T as int64 arrays of vertex ids.  Raises ValueError unless
    both are 1-D of one length; then, as query does for one pair, TypeError
    for an id that is not an integer and IndexError for one outside [0, n),
    named by its given value: the smallest if negative, else the largest."""
    S, T = np.asarray(S), np.asarray(T)
    if S.ndim != 1 or S.shape != T.shape:
        raise ValueError(f"S and T must be 1-D of equal length, got shapes {S.shape} and {T.shape}")
    if not S.size:
        return S.astype(np.int64), T.astype(np.int64)  # [] is float64
    # exact ints whatever the dtype, uint64 or Python ints past int64 too;
    # operator.index refuses floats, which int64 would truncate
    S, T = (
        ids if ids.dtype.kind in "biu" else np.array([operator.index(x) for x in ids.tolist()], object)
        for ids in (S, T)
    )
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


def _pack_keys(ix: ReachIndex) -> PackedKeys:
    """The negative observations of the search but the levels, as one key
    per vertex.

    Each observation becomes fields u with u(a) <= u(b) whenever a reaches
    b: wcc and W - wcc (B2), per ordering pos and N - Max, or N - pos and
    Max for a backward one (B4, C), and one 2-bit field per support bit of
    the forward masks and of the complemented backward masks (S2, S3).  The
    other fields take whole bytes.  The top bit of each field is its guard
    bit, g has every guard bit set and the values stay below them: then each
    field of g + keys[b] - keys[a] holds 2^w + u(b) - u(a), with w the
    guard's place in it, which lies in [1, 2^(w+1)) and so borrows nothing
    from its neighbour, and the guard bit stays set exactly when u does not
    refute (a, b).  So one addition, one & and one compare test every
    observation at once (Lamport, "Multiple byte processing with full-word
    instructions", CACM 1975).
    """
    n, ss = len(ix.wcc), ix.supports

    def col(a: array) -> np.ndarray:
        return np.frombuffer(a, dtype=np.uint32).astype(np.int64)

    def fields():  # one at a time, so that only one int64 column is alive
        wcc = col(ix.wcc)
        yield wcc
        yield wcc.max(initial=0) - wcc
        for o in ix.orderings:
            if o.flavor == FORWARD:
                yield col(o.pos)
                yield n - 1 - col(o.mx)
            else:
                yield n - 1 - col(o.pos)
                yield col(o.mx)

    parts, guard = [], bytearray()
    for values in fields():
        width = (int(values.max(initial=0)).bit_length() + 8) // 8  # room for the guard bit
        parts.append(values.astype("<u8").view(np.uint8).reshape(n, 8)[:, :width].copy())
        guard += bytes(width - 1) + b"\x80"
    for rows, flip in ((ss.fwd_rows, 0), (ss.bwd_rows, 1)):
        bits = np.unpackbits(ss.rows(rows), axis=1, bitorder="little") ^ flip
        spread = np.zeros((n, 2 * bits.shape[1]), dtype=np.uint8)
        spread[:, ::2] = bits  # bit i of the mask to bit 2i, its guard at 2i + 1
        parts.append(np.packbits(spread, axis=1, bitorder="little"))
        guard += b"\xaa" * (bits.shape[1] // 4)
    data, size, from_bytes = np.hstack(parts).tobytes(), len(guard), int.from_bytes
    # one bytes object per key from struct, not a slice per key: 6.1 against
    # 8.8 ms at n = 65511 (map over chained 1-tuples took 7.9)
    keys = [from_bytes(key, "little") for (key,) in struct.iter_unpack(f"{size}s", data)]
    return PackedKeys(keys, from_bytes(guard, "little"))


def _endpoint_test(ix: ReachIndex, x: int, towards: bool) -> Callable[[int], bool | None]:
    """The positive observations bound to the fixed endpoint x of one search
    side, for a v != x that no negative observation refutes (the search
    checks that first, with the level window and the packed keys).

    For such v, towards=True gives test(v) == try_observations(ix, v, x)[0]
    (forward side, x = t) and towards=False gives
    test(v) == try_observations(ix, x, v)[0] (backward side, x = s): True
    when S1, T1 or T3 of some ordering proves the pair, else None.  x's masks
    and ordering indices are read once.

    The tests are written for the forward side.  The backward side swaps the
    two mask lists, which gives it S1 of (x, v).  An ordering whose own graph
    has the pair (v, x) (a forward one on the forward side, a backward one on
    the backward side) is an own ordering: v's High and Max are read per
    call.  The others hold (x, v) and are fixed orderings: their tests
    reduce to pos(v) in [pos(x), High(x)] or on Max(x), and pos(v) >= pos(x)
    holds already, as B4 does not refute the pair.
    """
    fm, bm = ix.supports.fwd_mask, ix.supports.bwd_mask
    if not towards:
        fm, bm = bm, fm
    fmx = fm[x]
    own: list[tuple[array, array, int]] = []
    fixed: list[tuple[array, int, int]] = []
    for o in ix.orderings:
        if (o.flavor == FORWARD) == towards:
            own.append((o.hi, o.mx, o.pos[x]))
        else:
            fixed.append((o.pos, o.hi[x], o.mx[x]))

    def test(v: int) -> bool | None:
        if bm[v] & fmx:  # S1
            return True
        for hi, mx, px in own:  # T1, T3
            if px <= hi[v] or px == mx[v]:
                return True
        for pos, b, m in fixed:  # T1, T3
            p = pos[v]
            if p <= b or p == m:
                return True
        return None

    return test


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
    side's _endpoint_test, built on that side's first pop.  The index's keys
    are built on its first search with s != t.
    Raises IndexError when s or t is not a vertex id in [0, n).
    """
    g = ix.graph
    n = g.n
    if not (0 <= s < n and 0 <= t < n):  # inline: keeps a call off the hot path
        check_ids(n, s, t)
    if s == t:
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
    if ix.keys is None:
        ix.keys = _pack_keys(ix)
    pk = ix.keys
    keys, guard = pk.keys, pk.guard
    work = 0
    while fq and bq:
        if len(fq) <= len(bq):
            if fwd is None:
                fwd = (fq, g.out_off, g.out_tg, lf, lf[t], lb, lb[t],
                       *pk.bound(t, True), _endpoint_test(ix, t, True))
            q, off, tg, a, ax, b, bx, c, want, test = fwd
        else:
            if bwd is None:
                bwd = (bq, g.in_off, g.in_tg, lb, lb[s], lf, lf[s],
                       *pk.bound(s, False), _endpoint_test(ix, s, False))
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
        observe = ix.observe = _bind_observations(ix)
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

    With enough undecided pairs (see _forks), one forked _Worker answers
    every other one while this process answers the rest; the packed keys
    are built before the fork, so the worker inherits them.  If the worker
    fails to deliver, its pairs are answered here.  The outcomes are the
    same either way, and the worker does not outlive the call."""
    held = np.array([mask for _, _, mask in rows]).reshape(len(rows), len(S))
    decided = held.any(axis=0)
    first = np.where(decided, held.argmax(axis=0), len(rows))
    answer = np.array([ans for _, ans, _ in rows] + [False])[first]
    work = np.zeros(len(S), dtype=np.int64)
    undecided = np.flatnonzero(~decided)
    S, T = (np.asarray(ids, np.int64)[undecided].tolist() for ids in (S, T))
    found = np.empty((len(S), 2), dtype=np.int64)
    worker = None
    try:
        if _forks(len(S), _FALLBACK_FORK_MIN):
            if ix.keys is None:
                ix.keys = _pack_keys(ix)
            worker = _Worker.fork(lambda: [_fallbacks(ix, S[1::2], T[1::2])])
        step = 1 if worker is None else 2
        found[::step] = _fallbacks(ix, S[::step], T[::step])
        if worker is not None:
            data = worker.collect(found[1::2].nbytes)
            if data is None:  # the worker failed: its pairs here
                found[1::2] = _fallbacks(ix, S[1::2], T[1::2])
            else:
                found[1::2] = np.frombuffer(data, np.int64).reshape(-1, 2)
    finally:
        if worker is not None:
            worker.stop()
    answer[undecided], work[undecided] = found[:, 0], found[:, 1]
    return held, first, answer, work


def _fallbacks(ix: ReachIndex, S: list[int], T: list[int]) -> np.ndarray:
    """PBIBFS's (answer, work) for each pair (S[i], T[i]), as the rows of a
    (len(S), 2) int64 array: the fallback worker's job."""
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


def serialize_index(ix: ReachIndex) -> bytes:
    """Little-endian header, then each column contiguous: the 3 + 3t uint32
    columns of n cells (wcc, levels.fwd, levels.bwd, then pos, hi and mx per
    ordering), then the forward and the backward mask rows."""
    ss = ix.supports
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
    n_fwd = (t + 1) // 2
    orderings = [
        ExtTopOrder(*rest[3 * j : 3 * j + 3], flavor=FORWARD if j < n_fwd else BACKWARD)
        for j in range(t)
    ]
    fwd_rows, bwd_rows = raw[masks_at:].reshape(2, n, (k + 7) // 8)
    supports: list[int] = []
    if k:
        # A support is the unique vertex with its own bit set in both masks:
        # both directions reachable means same SCC, hence the same vertex.
        # So at most k rows of fwd & bwd are nonzero; only those are unpacked.
        both = fwd_rows & bwd_rows
        rows = np.flatnonzero(both.any(axis=1))
        bits = np.unpackbits(both[rows], axis=1, bitorder="little")[:, :k]
        for i in range(k):
            owners = rows[np.flatnonzero(bits[:, i])]
            if owners.size == 0:
                break
            supports.append(int(owners[0]))
    # copies, so that the index does not keep the file's buffer alive
    support_set = SupportSet(supports, fwd_rows.tobytes(), bwd_rows.tobytes(), k, n)
    return ReachIndex(dag, wcc, levels, orderings, support_set)

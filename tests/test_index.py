from __future__ import annotations

import copy
import dataclasses
import errno
import inspect
import os
import pickle
import random
import re
import threading
import traceback
import warnings
import zlib
from array import array
from collections import Counter, deque
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reachidx.index as index_mod
import reachidx.supportive as supportive_mod
from reachidx.baselines import build_matrix
from reachidx.core import GraphFormatError, SupportSet, graph_checksum
from reachidx.graph import (
    AcyclicityError,
    DiGraph,
    ParseResult,
    topological_levels,
    weak_components,
)
from reachidx.index import (
    PBIBFS,
    PLAIN_BFS,
    HEADER,
    Condensed,
    IndexFormatError,
    IndexParams,
    ObservationStats,
    QueryOutcome,
    ReachIndex,
    _OUTCOMES,
    _substream,
    build_index,
    deserialize_index,
    observation_stats,
    observation_table,
    payload_bytes_per_vertex,
    query,
    query_batch,
    serialize_index,
    try_observations,
)
from reachidx.supportive import pick_supports, select_candidates
from reachidx.toporder import (
    BACKWARD,
    FORWARD,
    extended_topsort,
    extended_topsort_backward,
    start_sequence,
)
from reachidx.workbench import gen_random_dag

from conftest import (
    NoShuffle,
    dags,
    diamond,
    digraphs,
    edge_pairs,
    layered_dag,
    path_graph,
    predecessors,
    successors,
    support_owners,
)

SMALL = IndexParams(t=2, k=4, p=2, h=3)

# k=0, t=0/1 and odd t included: empty masks, no or one ordering, unpaired flavors
ANY_PARAMS = st.builds(
    IndexParams,
    t=st.integers(0, 5),
    k=st.sampled_from([0, 1, 2, 3, 9]),
    p=st.integers(1, 3),
    h=st.integers(1, 4),
)

POSITIVE_OBS = {"EQ", "T1", "T3", "T4", "T6", "S1"}
NEGATIVE_OBS = {"B2", "B4", "B5", "B6", "C", "T2", "T5", "S2", "S3"}


def manual_diamond_index() -> ReachIndex:
    """Fully hand-traced index: NoShuffle orderings, support vertex 0."""
    g = diamond()
    lv = topological_levels(g)
    fwd = extended_topsort(g, [0], NoShuffle())
    bwd = extended_topsort_backward(g, NoShuffle())
    pool = select_candidates(g, lv, 1, 4, 8, random.Random(0))
    ss = pick_supports(pool, g, 1, lv)
    return ReachIndex(g, weak_components(g), lv, [fwd, bwd], ss)


# ---------------------------------------------------------------------------
# build structure


def test_build_default_params_ordering_flavors():
    ix = build_index(diamond(), seed=0)
    assert ix.params == IndexParams(4, 16, 75, 8)
    assert [o.flavor for o in ix.orderings] == [FORWARD, FORWARD, BACKWARD, BACKWARD]
    assert len(support_owners(ix.supports)) <= 16


@pytest.mark.parametrize("name", ["t", "k", "p", "h"])
def test_index_params_reject_negative(name):
    with pytest.raises(ValueError, match=f"index parameter {name} must be >= 0, got -1"):
        IndexParams(**{name: -1})
    assert getattr(IndexParams(**{name: 0}), name) == 0


@pytest.mark.parametrize("name", ["t", "k"])
def test_index_params_fit_the_header(name):
    with pytest.raises(ValueError, match=f"index parameter {name} must be <= 65535, got 65536"):
        IndexParams(**{name: 65536})
    assert getattr(IndexParams(**{name: 65535}), name) == 65535
    IndexParams(p=65536, h=65536)  # the file holds neither


@pytest.mark.parametrize(
    "name,value", [("p", 1.5), ("h", 2.5), ("t", 2.5), ("k", 16.0), ("t", "4"), ("k", None)]
)
def test_index_params_reject_non_integers(name, value):
    """p and h were kept as given, and t and k failed inside build_index
    or with a comparison TypeError that named no parameter."""
    with pytest.raises(TypeError, match=f"^index parameter {name} must be an integer, got {value!r}$"):
        IndexParams(**{name: value})
    assert getattr(IndexParams(**{name: np.int64(3)}), name) == 3


def test_build_odd_t_rounds_forward_up():
    ix = build_index(diamond(), IndexParams(t=3, k=2, p=2, h=2), seed=0)
    assert [o.flavor for o in ix.orderings] == [FORWARD, FORWARD, BACKWARD]
    ix0 = build_index(diamond(), IndexParams(t=0, k=2, p=2, h=2), seed=0)
    assert ix0.orderings == []


@given(dags(max_n=12), st.integers(0, 2**32 - 1))
def test_build_is_deterministic_per_seed(g, seed):
    a = build_index(g, SMALL, seed=seed)
    b = build_index(g, SMALL, seed=seed)
    assert a.orderings == b.orderings
    assert a.supports == b.supports
    assert a.wcc == b.wcc and a.levels == b.levels


@pytest.mark.parametrize("t", [3, 4])
def test_stage_by_stage_rebuild_gives_build_index_bytes(t):
    """The stages called one by one through the public functions, each rng
    seeded from build_index's substreams, give build_index's bytes: the
    traced benchmark replays the build this way to time each stage."""
    g = gen_random_dag(300, 1200, seed=0)
    params, seed = IndexParams(t=t, k=16), 5
    orderings = []
    for j in range((t + 1) // 2):
        s = _substream(seed, "fwd", j)
        rng = random.Random(s)
        orderings.append(extended_topsort(g, start_sequence(g, rng), rng, seed=s))
    for j in range(t // 2):
        s = _substream(seed, "bwd", j)
        orderings.append(extended_topsort_backward(g, random.Random(s), seed=s))
    lv = topological_levels(g)
    crng = random.Random(_substream(seed, "cand"))
    pool = select_candidates(g, lv, params.k, params.p, params.h, crng)
    ss = pick_supports(pool, g, params.k, lv)
    replayed = ReachIndex(g, weak_components(g), lv, orderings, ss, params, seed)
    assert_uint_columns(replayed)
    assert serialize_index(replayed) == serialize_index(build_index(g, params, seed=seed))


def test_substream_labels_are_independent():
    assert _substream(7, "fwd", 0) == _substream(7, "fwd", 0)
    assert _substream(7, "fwd", 0) != _substream(7, "fwd", 1)
    assert _substream(7, "fwd", 0) != _substream(7, "bwd", 0)
    assert _substream(7, "fwd", 0) != _substream(8, "fwd", 0)


# ---------------------------------------------------------------------------
# orderings built in a forked worker; each path forced through index._cpus


def several_components() -> DiGraph:
    """Three random DAGs side by side, then two isolated vertices: just
    large enough for a forked build."""
    edges, base = [], 0
    for seed, (n, m) in enumerate([(1500, 4000), (800, 1500), (300, 400)]):
        part = gen_random_dag(n, m, seed=seed)
        edges += [(base + u, base + v) for u, v in edge_pairs(part)]
        base += n
    return DiGraph.from_edges(base + 2, edges)


# Python >= 3.12 issues this in the parent of every fork() while the OS
# counts more than one thread (numpy's BLAS pool is one)
FORK_WARNING = (
    "This process (pid={}) is multi-threaded, use of fork() may lead to deadlocks in the child."
)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the workers forked while the test runs.  Each fork also
    warns as Python >= 3.12 does, and any warning fails the test."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
            warnings.warn(FORK_WARNING.format(os.getpid()), DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield pids


def int_columns(ix: ReachIndex) -> list:
    columns = [ix.wcc, ix.levels.fwd, ix.levels.bwd]
    for o in ix.orderings:
        columns += [o.pos, o.hi, o.mx]
    return columns


def assert_uint_columns(ix: ReachIndex) -> None:
    """Every integer column is the array('I') its stage returned."""
    for col in int_columns(ix):
        assert type(col) is array and col.typecode == "I"


def build_bytes(monkeypatch, cpus: int, g: DiGraph, params: IndexParams, seed: int = 0) -> bytes:
    monkeypatch.setattr(index_mod, "_cpus", lambda: cpus)
    ix = build_index(g, params, seed=seed)
    assert_uint_columns(ix)
    return serialize_index(ix)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k", [0, 16, 130])
@pytest.mark.parametrize("t", [0, 1, 2, 4, 5])
def test_forked_and_inline_builds_give_the_same_bytes(monkeypatch, forks, t, k):
    g = several_components()
    params = IndexParams(t=t, k=k, p=2)
    inline = build_bytes(monkeypatch, 1, g, params, seed=3)
    assert forks == []
    for cpus in (2, 8):  # one worker however many CPUs are spare
        del forks[:]
        assert build_bytes(monkeypatch, cpus, g, params, seed=3) == inline
        assert len(forks) == (t >= 2)
        assert_no_child_left()


def test_build_stays_inline_while_other_threads_run(monkeypatch, forks):
    g, params = several_components(), IndexParams(t=4, k=16, p=2)
    inline = build_bytes(monkeypatch, 1, g, params)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert build_bytes(monkeypatch, 2, g, params) == inline
    finally:
        stop.set()
        other.join()
    assert forks == []


def test_orderings_called_without_levels_give_the_build_columns():
    """The public ordering calls, without levels and with build_index's
    substream seeds (as a stage-by-stage replay of the build makes them),
    give build_index's orderings."""
    g = gen_random_dag(2**12, 2**14, seed=0)
    ix = build_index(g, seed=0)
    replayed = []
    for j in range((ix.params.t + 1) // 2):
        s = _substream(0, "fwd", j)
        rng = random.Random(s)
        replayed.append(extended_topsort(g, start_sequence(g, rng), rng, seed=s))
    for j in range(ix.params.t // 2):
        s = _substream(0, "bwd", j)
        replayed.append(extended_topsort_backward(g, random.Random(s), seed=s))
    assert replayed == ix.orderings


def test_small_graph_builds_inline(monkeypatch, forks):
    g = gen_random_dag(1000, index_mod._FORK_MIN_SIZE - 1001, seed=0)
    assert build_bytes(monkeypatch, 4, g, IndexParams(t=4)) == build_bytes(
        monkeypatch, 1, g, IndexParams(t=4)
    )
    assert forks == []


def test_cyclic_input_raises_the_inline_error_and_leaves_no_child(monkeypatch, forks):
    dag = gen_random_dag(3000, 6000, seed=0)
    edges = edge_pairs(dag)
    g = DiGraph.from_edges(dag.n, edges + [(v, u) for u, v in edges[:3]])
    errors = []
    for cpus in (1, 2, 4):
        with pytest.raises(AcyclicityError) as e:
            build_bytes(monkeypatch, cpus, g, IndexParams(t=4))
        errors.append(str(e.value))
        assert_no_child_left()
    assert errors[1:] == errors[:-1] and forks == []


def random_pairs(n: int, count: int, seed: int = 2) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, count), rng.integers(0, n, count)


def fallback_case() -> tuple[ReachIndex, np.ndarray, np.ndarray]:
    """An index and 8200 pairs that all fall back, so that a forked query
    forks: the worker's half writes 8200 int64 cells, more than a 64 KB
    pipe holds.  The graph is too small for its build to fork."""
    ix = build_index(gen_random_dag(1500, 6000, seed=0), seed=0)
    S, T = random_pairs(ix.graph.n, 6000)
    held = np.array([mask for _, _, mask in observation_table(ix, S, T)]).any(axis=0)
    return ix, np.resize(S[~held], 8200), np.resize(T[~held], 8200)


def batch_outcomes(monkeypatch, cpus: int, ix: ReachIndex, S, T) -> tuple:
    monkeypatch.setattr(index_mod, "_cpus", lambda: cpus)
    answer, tags, work = query_batch(ix, S, T)
    return answer.tolist(), tags, work.tolist()


@dataclasses.dataclass(frozen=True)
class Job:
    """One of the two jobs a forked worker runs: target, the index function
    the job calls in the worker; run(monkeypatch, cpus), the call that
    forks it, with a result to compare; shorten, a result of target one
    cell short; and calls_here, target's calls in the parent when the
    worker fails or cannot be forked."""

    target: str
    run: object
    shorten: object
    calls_here: int


JOBS = {
    "build": Job(
        "_ordering",
        lambda mp, cpus: build_bytes(mp, cpus, several_components(), IndexParams(t=4, k=16, p=2)),
        lambda o: dataclasses.replace(o, **{c: getattr(o, c)[:-1] for c in ("pos", "hi", "mx")}),
        4,  # ordering 0, then the failed three
    ),
    "fallbacks": Job(
        "_fallbacks",
        lambda mp, cpus: batch_outcomes(mp, cpus, *fallback_case()),
        lambda found: found.reshape(-1)[:-1],
        2,  # its own half, then the failed one
    ),
}
FAILURES = ["raises", "exits-early", "short-columns", "exits-1-after-writing", "fork-raises"]


@pytest.mark.parametrize(
    "job, failure",
    [(job, failure) for job in JOBS for failure in FAILURES],
    # the build's ids are the ones from before the worker took a second job
    ids=[failure if job == "build" else f"{job}-{failure}" for job in JOBS for failure in FAILURES],
)
def test_failed_worker_gives_the_inline_bytes(monkeypatch, forks, job, failure):
    """A worker that raises (exit status 1), exits 0 before writing, writes
    one cell short, or writes everything and exits 1, or a fork that raises
    (as on EAGAIN at the process limit): the parent does the worker's
    share, and the result is the inline one (the index bytes of a build,
    query_batch's outcomes of the fallbacks).  A failed fork closes both
    ends of its pipe."""
    job = JOBS[job]
    inline = job.run(monkeypatch, 1)
    parent = os.getpid()
    real, exit_ = getattr(index_mod, job.target), os._exit
    in_parent = []
    fds = os.listdir("/proc/self/fd")

    def in_worker(*args):
        if os.getpid() == parent:
            in_parent.append(args)
        elif failure == "raises":
            raise MemoryError
        elif failure == "exits-early":
            exit_(0)
        elif failure == "short-columns":
            return job.shorten(real(*args))
        return real(*args)

    def worker_exit(code):
        exit_(1 if failure == "exits-1-after-writing" else code)

    def fork_fails():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(index_mod, job.target, in_worker)
    monkeypatch.setattr(os, "_exit", worker_exit)
    if failure == "fork-raises":
        monkeypatch.setattr(os, "fork", fork_fails)
    assert job.run(monkeypatch, 2) == inline
    assert len(forks) == (failure != "fork-raises") and len(in_parent) == job.calls_here
    assert os.listdir("/proc/self/fd") == fds
    assert_no_child_left()


@pytest.mark.parametrize(
    "job, module, step",
    [("build", supportive_mod, "pick_supports"), ("fallbacks", index_mod, "_fallbacks")],
    ids=["build", "fallbacks"],
)
def test_parent_failure_kills_a_worker_blocked_on_its_pipe(monkeypatch, forks, job, module, step):
    """The parent raises KeyboardInterrupt in its own share (pick_supports,
    or its half of the fallbacks) only once the worker's job is done, and
    what the job returned (36 n bytes of orderings, 8200 int64 cells of
    fallback outcomes) fills the pipe long before the parent would read
    it.  The job's target in the worker (_ordering_columns, or _fallbacks)
    signals once it has returned.  build_index imports pick_supports from
    its module when it runs."""
    parent = os.getpid()
    done_r, done_w = os.pipe()
    target = "_ordering_columns" if job == "build" else "_fallbacks"
    real_target = getattr(index_mod, target)

    def signalling(*args):
        result = real_target(*args)
        if os.getpid() != parent:
            os.write(done_w, b".")
        return result

    monkeypatch.setattr(index_mod, target, signalling)
    real_step = getattr(module, step)  # for the fallbacks, signalling itself

    def failing(*args):
        if os.getpid() != parent:
            return real_step(*args)
        os.read(done_r, 1)  # the worker is about to write
        raise KeyboardInterrupt

    monkeypatch.setattr(module, step, failing)
    try:
        with pytest.raises(KeyboardInterrupt):
            JOBS[job].run(monkeypatch, 2)
    finally:
        os.close(done_r)
        os.close(done_w)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("k", [0, 16, 130])
def test_forked_and_inline_fallbacks_give_the_same_outcomes(monkeypatch, forks, k):
    """query_batch and observation_stats answer half their fallbacks in a
    forked worker with a spare CPU: the same answers, tags, work and stats
    as inline."""
    ix = build_index(gen_random_dag(2000, 8000, seed=0), IndexParams(k=k), seed=0)
    S, T = random_pairs(ix.graph.n, 6000)
    S[:50] = T[:50]
    results = []
    for cpus in (1, 2, 8):  # one worker however many CPUs are spare
        del forks[:]
        outcomes = batch_outcomes(monkeypatch, cpus, ix, S, T)
        results.append((outcomes, observation_stats(ix, S, T)))
        assert len(forks) == (2 if cpus > 1 else 0)
        assert_no_child_left()
    assert results[1] == results[0] == results[2]
    assert outcomes[1].count(PBIBFS.tag) >= index_mod._FALLBACK_FORK_MIN


def test_fallbacks_stay_inline_below_the_cutoff_and_beside_other_threads(monkeypatch, forks):
    ix, S, T = fallback_case()
    cut = index_mod._FALLBACK_FORK_MIN
    below = batch_outcomes(monkeypatch, 2, ix, S[: cut - 1], T[: cut - 1])
    assert forks == []
    assert below == batch_outcomes(monkeypatch, 1, ix, S[: cut - 1], T[: cut - 1])
    inline = batch_outcomes(monkeypatch, 1, ix, S[:cut], T[:cut])
    assert batch_outcomes(monkeypatch, 2, ix, S[:cut], T[:cut]) == inline
    assert len(forks) == 1
    del forks[:]
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert batch_outcomes(monkeypatch, 2, ix, S[:cut], T[:cut]) == inline
        stats = observation_stats(ix, S[:cut], T[:cut])
    finally:
        stop.set()
        other.join()
    assert forks == []
    assert stats.fallbacks == cut
    assert_no_child_left()


# ---------------------------------------------------------------------------
# observation pipeline, hand-frozen cases


def test_observations_diamond_manual():
    ix = manual_diamond_index()
    assert try_observations(ix, 2, 2) == (True, "1:EQ")
    # equal forward levels refute (1, 2) before anything else runs
    assert try_observations(ix, 1, 2) == (False, "2:B5")
    assert try_observations(ix, 0, 3) == (True, "3:S1")
    # support 0 cannot see (1, 3); the first ordering certifies it
    assert try_observations(ix, 1, 3) == (True, "4:T1")


# (edges, params, seed, s, t, answer, tag): small generated graphs picked so
# the pipeline lands on each branch; answers re-checked against the matrix.
T2K2 = IndexParams(t=2, k=2, p=2, h=2)
T4K1 = IndexParams(t=4, k=1, p=1, h=1)
T2K1 = IndexParams(t=2, k=1, p=1, h=1)
T2K0 = IndexParams(t=2, k=0, p=1, h=1)

FROZEN_TAG_CASES = [
    (4, [(1, 2)], T2K2, 0, 0, 2, False, "2:B6"),
    (4, [(0, 2), (1, 3)], T2K1, 0, 1, 2, False, "4:B4"),
    (4, [(0, 2), (1, 3)], T2K1, 0, 0, 3, False, "4:T2"),
    (4, [(0, 1), (1, 3), (2, 3)], T2K1, 0, 2, 3, True, "4:T3"),
    (5, [(0, 1), (0, 2), (0, 4), (1, 4), (2, 3)], T2K2, 8, 1, 3, False, "5:S2"),
    (5, [(0, 3), (1, 2), (1, 4), (2, 4), (3, 4)], T2K2, 0, 0, 2, False, "5:S3"),
    (4, [(0, 2), (0, 3), (1, 2)], T2K2, 4, 1, 3, False, "6:B4"),
    (5, [(0, 2), (0, 4), (1, 2), (1, 3), (3, 4)], T4K1, 3, 1, 2, True, "6:T1"),
    (5, [(0, 1), (0, 4), (1, 2), (1, 4), (3, 4)], T4K1, 4, 3, 2, False, "6:T2"),
    (5, [(0, 3), (0, 4), (1, 2), (2, 3), (2, 4)], T4K1, 0, 0, 3, True, "6:T3"),
    (5, [(0, 3), (0, 4), (1, 2), (2, 3), (2, 4)], T2K2, 0, 0, 3, True, "6:T4"),
    (5, [(0, 1), (0, 4), (1, 2), (1, 4), (3, 4)], T2K2, 4, 3, 2, False, "6:T5"),
    (5, [(0, 2), (0, 4), (1, 3), (1, 4), (2, 3)], T2K2, 4, 1, 3, True, "6:T6"),
    (9, [(0, 1), (0, 3), (4, 6), (5, 6)], T2K0, 62, 5, 1, False, "7:B2"),
    # every other row of observation_table is false for this pair
    (6, [(0, 2), (0, 3), (1, 2), (1, 4), (2, 4), (3, 4), (3, 5)], T2K0, 9, 2, 5, False, "7:C"),
]


@pytest.mark.parametrize(
    "n,edges,params,seed,s,t,ans,tag",
    FROZEN_TAG_CASES,
    ids=[c[-1] for c in FROZEN_TAG_CASES],
)
def test_observation_tag_cases(n, edges, params, seed, s, t, ans, tag):
    g = DiGraph.from_edges(n, edges)
    ix = build_index(g, params, seed=seed)
    assert try_observations(ix, s, t) == (ans, tag)
    assert build_matrix(g).query(s, t) == ans


def test_observation_undecided_goes_to_fallback():
    g = DiGraph.from_edges(5, [(0, 2), (1, 2), (1, 3), (1, 4), (2, 3)])
    ix = build_index(g, T2K2, seed=0)
    assert try_observations(ix, 0, 4) == (None, None)
    out = query(ix, 0, 4)
    assert out.answer is False
    assert out.answered_by == "fallback:pbibfs"
    assert out.work >= 1


def test_observations_never_touch_adjacency():
    ix = build_index(diamond(), SMALL, seed=1)
    blind = dataclasses.replace(ix, graph=None)
    for s in range(4):
        for t in range(4):
            ans, tag = try_observations(blind, s, t)
            assert ans == build_matrix(diamond()).query(s, t) or ans is None
            if tag is not None:  # query answers it through the bound pass alone
                assert query(blind, s, t) is _OUTCOMES[tag]
    assert blind.observe is not None
    S, T = all_pairs(4)
    assert first_rows(observation_table(blind, S, T)) == first_rows(observation_table(ix, S, T))


# ---------------------------------------------------------------------------
# soundness and overlap properties


@settings(max_examples=50)
@given(dags(max_n=12), st.integers(0, 2**16))
def test_observations_sound_on_all_pairs(g, seed):
    ix = build_index(g, SMALL, seed=seed)
    mx = build_matrix(g)
    for s in range(g.n):
        for t in range(g.n):
            ans, tag = try_observations(ix, s, t)
            if ans is None:
                assert tag is None
            else:
                assert ans == mx.query(s, t), (s, t, tag)


@settings(max_examples=50)
@given(dags(max_n=10), st.integers(0, 2**16))
def test_collected_observations_have_correct_sign(g, seed):
    ix = build_index(g, SMALL, seed=seed)
    mx = build_matrix(g)
    S, T = all_pairs(g.n)
    rows = observation_table(ix, S, T)
    for tag, ans, mask in rows:
        obs = tag.split(":", 1)[1]
        assert obs in (POSITIVE_OBS if ans else NEGATIVE_OBS), tag
        for i in np.flatnonzero(mask).tolist():
            s, t = S[i], T[i]
            if s == t:
                assert obs == "EQ", (s, t, tag)
            assert ans == mx.query(s, t), (s, t, tag)
    # the decisive first hit must be among the observations that hold
    for i, (s, t) in enumerate(zip(S, T)):
        ans, tag = try_observations(ix, s, t)
        if tag is not None:
            assert any(row_tag == tag and mask[i] for row_tag, _, mask in rows)


def all_pairs(n: int) -> tuple[list[int], list[int]]:
    """Every ordered pair (s, t) of [0, n), s-major, as two id lists."""
    return [s for s in range(n) for _ in range(n)], list(range(n)) * n


def first_rows(rows) -> list[tuple[bool, str] | tuple[None, None]]:
    """Each pair's first true row as try_observations reports it."""
    first: list = [(None, None)] * len(rows[0][2])
    for tag, ans, mask in reversed(rows):
        for i in np.flatnonzero(mask).tolist():
            first[i] = (ans, tag)
    return first


# ANY_PARAMS, plus wider masks: k = 32, 64 and 128 give rows the table reads
# as one uint32, one uint64 and two uint64 cells, k = 70 rows of 9 byte cells
TABLE_PARAMS = ANY_PARAMS | st.builds(
    IndexParams,
    t=st.integers(0, 5),
    k=st.sampled_from([32, 64, 70, 128]),
    p=st.integers(1, 3),
    h=st.integers(1, 4),
)


@settings(max_examples=80)
@given(dags(max_n=12), TABLE_PARAMS, st.integers(0, 2**16))
def test_table_matches_try_observations_and_is_sound(g, params, seed):
    ix = build_index(g, params, seed=seed)
    mx = build_matrix(g)
    S, T = all_pairs(g.n)
    rows = observation_table(ix, S, T)
    assert first_rows(rows) == [try_observations(ix, s, t) for s, t in zip(S, T)]
    for tag, ans, mask in rows:
        for i in np.flatnonzero(mask).tolist():
            assert ans == mx.query(S[i], T[i]), (S[i], T[i], tag)


# a graph big enough for more than 64 supports, so that k = 130 gives masks
# wider than one machine word
WIDE_DAGS = st.builds(gen_random_dag, st.just(150), st.just(450), st.integers(0, 2**8))


@settings(max_examples=30, deadline=None)
@given(
    dags(max_n=12) | WIDE_DAGS,
    st.sampled_from([0, 1, 4]),
    st.sampled_from([0, 16, 130]),
    st.integers(0, 2**16),
    st.booleans(),
)
def test_query_gives_the_shared_outcome_of_the_first_true_row(g, t, k, seed, flip):
    """A decided query returns the one shared outcome of its pair's first
    table row, from the bound pass; flip reverses the orderings, so that
    the first one is backward (t = 4)."""
    ix = build_index(g, IndexParams(t=t, k=k, p=2, h=3), seed=seed)
    if flip:
        ix = dataclasses.replace(ix, orderings=ix.orderings[::-1])
    S, T = all_pairs(g.n)
    for (_, tag), s, v in zip(first_rows(observation_table(ix, S, T)), S, T):
        out = query(ix, s, v)
        if tag is None:
            assert out.answered_by == PBIBFS.tag
        else:
            assert out is _OUTCOMES[tag]


def test_the_pass_is_bound_on_first_use():
    g = gen_random_dag(64, 160, 0)
    ix = build_index(g, SMALL, seed=0)
    loaded = deserialize_index(serialize_index(ix), g)
    assert ix.observe is None and loaded.observe is None
    try_observations(ix, 0, 1)
    observe = ix.observe
    assert observe is not None
    query(ix, 1, 0)
    assert ix.observe is observe  # bound once per index
    query(loaded, 0, 1)
    assert loaded.observe is not None and loaded.observe is not observe
    flipped = dataclasses.replace(ix, orderings=ix.orderings[::-1])
    assert flipped.observe is None  # binds its own orderings on first use
    S, T = all_pairs(g.n)
    tags = [query(flipped, s, t).answered_by for s, t in zip(S, T)]
    assert "4:T5" in tags and "4:T2" not in tags  # its first ordering is backward


def test_the_pass_is_compiled_once_per_flavor_tuple():
    """Every index with the same ordering flavors binds one shared code
    object to its own columns, as globals: no closure, so a call copies no
    cells."""
    ix = build_index(gen_random_dag(64, 160, 0), SMALL, seed=0)
    other = build_index(gen_random_dag(90, 200, 1), SMALL, seed=7)
    query(ix, 0, 1)
    query(other, 0, 1)
    assert ix.observe.__closure__ is None
    assert ix.observe.__code__ is other.observe.__code__
    assert ix.observe.__globals__["pos0"] is ix.orderings[0].pos
    assert other.observe.__globals__["pos0"] is other.orderings[0].pos
    flipped = dataclasses.replace(ix, orderings=ix.orderings[::-1])
    query(flipped, 0, 1)
    assert flipped.observe.__code__ is not ix.observe.__code__


def test_the_generated_pass_shows_its_lines():
    """The generated source is in linecache under a filename naming the
    flavors, so inspect and tracebacks show it."""
    ix = build_index(gen_random_dag(64, 160, 0), SMALL, seed=0)
    query(ix, 0, 1)
    assert ix.observe.__code__.co_filename == "<reachidx observe (forward, backward)>"
    source = inspect.getsource(ix.observe)
    assert source.startswith("def observe(s, t):\n") and "return out_4_B4" in source
    with pytest.raises(TypeError) as raised:  # a float id gets past the range check
        query(ix, 1.5, 0)
    assert "if lf[s] >= lf[t]:" in "".join(traceback.format_exception(raised.value))


@pytest.mark.parametrize("clone", [lambda ix: pickle.loads(pickle.dumps(ix)), copy.deepcopy])
def test_a_queried_index_survives_pickle_and_deepcopy(clone):
    """The bound pass and tester makers, functions whose globals hold the
    index's columns, are left out of the copy's state and bound again on
    its first query; the packed keys are copied."""
    g = gen_random_dag(64, 160, 0)
    ix = build_index(g, SMALL, seed=0)
    pairs = list(zip(*all_pairs(g.n)))
    expected = [query(ix, s, t) for s, t in pairs]
    assert ix.observe is not None and ix.keys is not None
    twin = clone(ix)
    assert ix.testers is not None and twin.testers is None
    assert twin.observe is None and twin.keys == ix.keys
    assert twin == ix and twin.graph is not ix.graph  # graphs compare by their rows
    assert [query(twin, s, t) for s, t in pairs] == expected
    assert ix.observe is not None  # the original keeps its pass


@settings(max_examples=80)
@given(dags(max_n=12), TABLE_PARAMS, st.integers(0, 2**16))
def test_containment_subsumes_t2_t5_and_is_sound(g, params, seed):
    # Max(t) >= pos(t) > Max(s) for T2, and the same for the pair (t, s) in a
    # backward ordering for T5
    ix = build_index(g, params, seed=seed)
    S, T = all_pairs(g.n)
    rows = {tag: mask for tag, _, mask in observation_table(ix, S, T)}
    contained = rows["7:C"]
    for tag, mask in rows.items():
        if tag.endswith((":T2", ":T5")):
            assert not (mask & ~contained).any(), tag
    assert not (contained & build_matrix(g).to_dense()[S, T]).any()


# ---------------------------------------------------------------------------
# fallback resolvers


@settings(max_examples=60)
@given(dags(max_n=12), ANY_PARAMS, st.integers(0, 2**16))
def test_resolvers_are_exact(g, params, seed):
    ix = build_index(g, params, seed=seed)
    mx = build_matrix(g)
    for s in range(g.n):
        for t in range(g.n):
            truth = mx.query(s, t)
            for r in (PBIBFS, PLAIN_BFS):
                ans, work = r.run(ix, s, t)
                assert ans == truth, (r.name, s, t)
                assert 0 <= work <= 2 * g.n
            assert query(ix, s, t).answer == truth


def assert_endpoint_tests_match(ix: ReachIndex) -> None:
    """Each side's negative checks and generated tester together equal
    try_observations for every v != x: where the level window, (a, b) =
    (levels.fwd, levels.bwd) towards x and (levels.bwd, levels.fwd) from x,
    or the packed key refutes the pair, try_observations answers False, and
    elsewhere the side's tester answers what try_observations does, True or
    None.  v == x sits in the other side's seen set, where the sides meet,
    just as EQ answers it."""
    n = ix.graph.n
    lf, lb = ix.levels.fwd, ix.levels.bwd
    pk, *makers = index_mod._search_parts(ix)
    for x in range(n):
        for towards, maker, a, b in ((True, makers[0], lf, lb), (False, makers[1], lb, lf)):
            c, want = pk.bound(x, towards)
            test = maker(x)
            for v in range(n):
                if v == x:
                    continue
                pair = (v, x) if towards else (x, v)
                expected = try_observations(ix, *pair)[0]
                if a[v] >= a[x] or b[v] <= b[x] or (pk.keys[v] + c) & pk.guard != want:
                    assert expected is False, pair
                else:
                    assert test(v) == expected, pair


@settings(max_examples=100)
@given(dags(max_n=12), ANY_PARAMS, st.integers(0, 2**16))
def test_endpoint_test_matches_try_observations(g, params, seed):
    # t=0, k=0 leaves the levels and B2 to decide on their own
    for p in (params, IndexParams(t=0, k=0, p=1, h=1)):
        assert_endpoint_tests_match(build_index(g, p, seed=seed))


@pytest.mark.parametrize(
    "n,edges,params,seed", [c[:4] for c in FROZEN_TAG_CASES], ids=[c[-1] for c in FROZEN_TAG_CASES]
)
def test_endpoint_test_on_tag_cases(n, edges, params, seed):
    # graphs on which one observation decides alone, such as T3, T6 or B2
    assert_endpoint_tests_match(build_index(DiGraph.from_edges(n, edges), params, seed=seed))


# Packed-key edges that ANY_PARAMS never reaches: masks of two words, one
# vertex, a key of the components alone (t = 0, k = 0), and positions that
# fill their fields' bytes (n = 128: at most 127) or need one byte more
# (n = 129), also on paths, where the levels reach n - 1
KEY_EDGE_CASES = {
    "k70": (lambda: gen_random_dag(300, 1200, 0), IndexParams(t=4, k=70, p=3, h=8)),
    "n1": (lambda: path_graph(1), IndexParams()),
    "t0-k0": (lambda: gen_random_dag(128, 400, 1), IndexParams(t=0, k=0)),
    "n128": (lambda: gen_random_dag(128, 400, 2), IndexParams(t=3, k=9)),
    "n129": (lambda: gen_random_dag(129, 400, 3), IndexParams(t=3, k=9)),
    "path128": (lambda: path_graph(128), IndexParams(t=2, k=2)),
    "path129": (lambda: path_graph(129), IndexParams(t=2, k=2)),
}


@pytest.mark.parametrize("graph,params", KEY_EDGE_CASES.values(), ids=KEY_EDGE_CASES)
def test_search_on_key_edge_cases(graph, params):
    g = graph()
    ix = build_index(g, params, seed=0)
    assert_endpoint_tests_match(ix)
    mx = build_matrix(g)
    rng = random.Random(0)
    for _ in range(300):
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        assert PBIBFS.run(ix, s, t) == reference_search(ix, s, t), (s, t)
        assert query(ix, s, t).answer == mx.query(s, t), (s, t)


def test_search_with_three_byte_key_fields():
    # n > 2^15: positions, High and Max reach 16 bits, so their fields take a
    # third byte for the guard bit (the edge cases above stop at two)
    g = gen_random_dag(40000, 160000, 4)
    ix = build_index(g, seed=0)
    rng = random.Random(0)
    for _ in range(300):
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        assert PBIBFS.run(ix, s, t) == reference_search(ix, s, t), (s, t)
    guard = ix.keys.guard
    assert b"\x00\x00\x80" in guard.to_bytes((guard.bit_length() + 7) // 8, "little")


def test_keys_are_built_on_the_first_fallback():
    g = gen_random_dag(64, 160, 0)
    ix = build_index(g, SMALL, seed=0)
    loaded = deserialize_index(serialize_index(ix), g)
    for s in range(g.n):  # the observations never build them
        for t in range(g.n):
            try_observations(ix, s, t)
    assert ix.keys is None and loaded.keys is None
    PBIBFS.run(ix, 3, 3)  # s == t: no search
    assert ix.keys is None
    PBIBFS.run(ix, 0, 1)
    keys = ix.keys
    assert keys is not None
    PBIBFS.run(ix, 1, 0)
    assert ix.keys is keys  # built once per index
    assert dataclasses.replace(ix, orderings=ix.orderings[:1]).keys is None


def reference_search(ix: ReachIndex, s: int, t: int) -> tuple[bool, int]:
    """The pruned bidirectional search written plainly: two seen sets, and
    every new neighbour tested with try_observations as (v, t) or (s, v)."""
    if s == t:
        return True, 0
    g = ix.graph
    fq, bq = deque((s,)), deque((t,))
    fseen, bseen = {s}, {t}
    fwd = (fq, fseen, bseen, successors, lambda v: try_observations(ix, v, t)[0])
    bwd = (bq, bseen, fseen, predecessors, lambda v: try_observations(ix, s, v)[0])
    work = 0
    while fq and bq:
        q, seen, other, nbrs, test = fwd if len(fq) <= len(bq) else bwd
        u = q.popleft()
        work += 1
        for v in nbrs(g, u):
            if v in other:
                return True, work
            if v in seen:
                continue
            sub = test(v)
            if sub is True:
                return True, work
            if sub is False:
                continue
            seen.add(v)
            q.append(v)
    return False, work


@st.composite
def dag_unions(draw):
    """Disjoint union of one to three drawn DAGs, ids shuffled across them."""
    parts = draw(st.lists(dags(max_n=7), min_size=1, max_size=3))
    n, edges = 0, []
    for part in parts:
        edges += [(n + u, n + v) for u, v in edge_pairs(part)]
        n += part.n
    perm = draw(st.permutations(range(n)))
    return DiGraph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=100)
@given(dag_unions(), ANY_PARAMS, st.integers(0, 2**16))
def test_search_matches_reference_search(g, params, seed):
    # every ordered pair, decided or not: same pruning, same pops
    ix = build_index(g, params, seed=seed)
    for s in range(g.n):
        for t in range(g.n):
            assert PBIBFS.run(ix, s, t) == reference_search(ix, s, t), (s, t)


def test_positive_observations_prune_the_search_on_a_deep_graph():
    # ~1000 levels of width 4, where most fallbacks are reachable: with S1, T1
    # and T3 in each side's tester the search pops 3.9 vertices per fallback on
    # these 461 fallbacks, without them 679.  No benchmark workload is this
    # deep, and on the uniform ones these tests cost more than they save.
    g = layered_dag(4096, 4, np.random.default_rng(1))
    ix = build_index(g, seed=0)
    work = []
    for s, t in np.random.default_rng(5).integers(0, g.n, (2, 2000)).T.tolist():
        outcome = query(ix, s, t)
        if outcome.answered_by == PBIBFS.tag:
            assert outcome.answer == reference_search(ix, s, t)[0], (s, t)
            work.append(outcome.work)
    assert len(work) > 200
    assert sum(work) / len(work) < 50


@pytest.mark.parametrize("resolver", [PBIBFS, PLAIN_BFS], ids=lambda r: r.name)
@pytest.mark.parametrize("s,t,bad", [(3, -1, -1), (-1, 3, -1), (0, 5, 5), (7, 7, 7)])
def test_resolvers_reject_out_of_range_ids(resolver, s, t, bad):
    ix = build_index(DiGraph.from_edges(5, [(i, i + 1) for i in range(4)]), SMALL, seed=0)
    with pytest.raises(IndexError, match=rf"vertex id {bad} .*n=5"):
        resolver.run(ix, s, t)


# Frozen (answer, work) of every ordered pair on one fixed DAG: pins each
# fallback's side choice, stopping rule, meeting test, pruning and pop
# counting, not just its answers.
FALLBACK_EDGES = [
    (0, 5), (1, 6), (2, 3), (2, 4), (2, 7), (2, 8),
    (3, 7), (4, 5), (4, 6), (4, 7), (5, 8), (6, 7),
]
FALLBACK_REACH = [
    "100001001",
    "010000110",
    "001111111",
    "000100010",
    "000011111",
    "000001001",
    "000000110",
    "000000010",
    "000000001",
]
FALLBACK_WORK = {
    "pbibfs": [
        [0, 1, 1, 1, 1, 1, 1, 1, 1],
        [1, 0, 1, 1, 1, 1, 1, 1, 1],
        [1, 1, 0, 1, 1, 2, 2, 1, 1],
        [1, 1, 1, 0, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, 0, 1, 1, 1, 1],
        [1, 1, 1, 1, 1, 0, 1, 1, 1],
        [1, 1, 1, 1, 1, 1, 0, 1, 1],
        [1, 1, 1, 1, 1, 1, 1, 0, 1],
        [1, 1, 1, 1, 1, 1, 1, 1, 0],
    ],
    "bfs": [
        [0, 3, 3, 3, 3, 1, 3, 3, 2],
        [3, 0, 3, 3, 3, 3, 1, 2, 3],
        [7, 7, 0, 1, 1, 3, 3, 1, 1],
        [2, 2, 2, 0, 2, 2, 2, 1, 2],
        [5, 5, 5, 5, 0, 1, 1, 1, 2],
        [2, 2, 2, 2, 2, 0, 2, 2, 1],
        [2, 2, 2, 2, 2, 2, 0, 1, 2],
        [1, 1, 1, 1, 1, 1, 1, 0, 1],
        [1, 1, 1, 1, 1, 1, 1, 1, 0],
    ],
}


@pytest.mark.parametrize("resolver", [PBIBFS, PLAIN_BFS], ids=lambda r: r.name)
def test_fallback_work_frozen(resolver):
    g = DiGraph.from_edges(9, FALLBACK_EDGES)
    ix = build_index(g, IndexParams(t=1, k=1, p=1, h=1), seed=0)
    mx = build_matrix(g)
    for s in range(g.n):
        for t in range(g.n):
            ans = FALLBACK_REACH[s][t] == "1"
            assert ans == mx.query(s, t)
            assert resolver.run(ix, s, t) == (ans, FALLBACK_WORK[resolver.name][s][t]), (s, t)


def test_endpoint_tests_are_built_lazily():
    """Each side's tester is made on that side's first pop, from the makers
    bound with the index's first search."""
    built = []
    g = gen_random_dag(64, 160, 0)
    ix = build_index(g, SMALL, seed=0)
    index_mod._search_parts(ix)

    def counting(maker, towards):
        def make(x):
            built.append(towards)
            return maker(x)

        return make

    ix.testers = [counting(maker, towards) for maker, towards in zip(ix.testers, (True, False))]
    sink = next(v for v in range(g.n) if not successors(g, v))
    # the forward side pops first; a sink empties its queue on that pop
    assert PBIBFS.run(ix, sink, (sink + 1) % g.n) == (False, 1)
    assert built == [True]
    counts = []
    for s in range(g.n):
        for t in range(g.n):
            built.clear()
            PBIBFS.run(ix, s, t)
            counts.append(len(built))
    assert set(counts) == {0, 1, 2} and counts.count(0) == g.n  # s == t builds none


# ---------------------------------------------------------------------------
# query wrapper and statistics


def test_query_decided_has_zero_work():
    ix = manual_diamond_index()
    out = query(ix, 0, 3)
    assert out.answer is True
    assert out.answered_by == "3:S1"
    assert out.work == 0


@pytest.mark.parametrize(
    "s,t,bad",
    [(-1, 5, -1), (5, 50, 50), (50, 50, 50), (-3, -3, -3), (2**70, 0, 2**70),
     (0, np.uint64(2**63), 2**63)],
)
def test_query_rejects_out_of_range_ids(s, t, bad):
    """The same text from the pass's first call, which binds it, and later."""
    ix = build_index(DiGraph.from_edges(50, [(i, i + 1) for i in range(49)]), SMALL, seed=0)
    for _ in range(2):
        with pytest.raises(IndexError, match=rf"^vertex id {bad} out of range for n=50$"):
            query(ix, s, t)
    assert ix.observe is not None


@pytest.mark.parametrize(
    "s,t,bad", [(-4, -1, -4), (-1, 0, -1), (0, 4, 4), (2, -5, -5), (2**70, 1, 2**70)]
)
def test_try_observations_rejects_out_of_range_ids(s, t, bad):
    """Negative ids used to read the columns from their ends: (-4, -1)
    answered (True, '3:S1') and (-1, 0) answered (False, '2:B5')."""
    ix = build_index(DiGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]), T2K2, seed=0)
    message = rf"^vertex id {bad} out of range for n=4$"
    with pytest.raises(IndexError, match=message):
        try_observations(ix, s, t)
    with pytest.raises(IndexError, match=message):
        try_observations(ix, s, t, ObservationStats())
    with pytest.raises(IndexError, match=message):
        query(ix, s, t)


def test_every_table_tag_has_one_shared_outcome():
    """Each tag observation_table's rows can produce maps to one outcome with
    that row's answer and no work, so the shared table cannot drift from
    the observations."""
    g = gen_random_dag(40, 90, 0)
    ix = build_index(g, IndexParams(t=4, k=4, p=2, h=3), seed=0)
    flipped = dataclasses.replace(ix, orderings=ix.orderings[::-1])  # gives 4:T4-T6
    S, T = all_pairs(g.n)
    tags = set()
    for index in (ix, flipped):
        for tag, ans, _mask in observation_table(index, S, T):
            assert _OUTCOMES[tag] == QueryOutcome(ans, tag, 0)
            tags.add(tag)
    assert tags == set(_OUTCOMES)


def test_observation_answers_share_one_frozen_outcome():
    g = gen_random_dag(40, 90, 0)
    ix = build_index(g, SMALL, seed=0)
    decided = 0
    for s, t in zip(*all_pairs(g.n)):
        out = query(ix, s, t)
        if not out.answered_by.startswith("fallback:"):
            assert out is _OUTCOMES[out.answered_by]
            decided += 1
    assert decided > len(_OUTCOMES)  # tags repeat: 1:EQ alone decides 40 pairs
    out = query(ix, 3, 3)
    assert out is query(ix, 7, 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.answer = not out.answer
    assert dataclasses.replace(out, work=5).work == 5 and out.work == 0


def test_fallback_outcomes_carry_work_and_resolver_tag():
    g = DiGraph.from_edges(9, FALLBACK_EDGES)
    ix = build_index(g, IndexParams(t=1, k=1, p=1, h=1), seed=0)
    assert PBIBFS.tag == "fallback:pbibfs"
    pairs = [(s, t) for s in range(g.n) for t in range(g.n)]
    undecided = [(s, t) for s, t in pairs if try_observations(ix, s, t)[1] is None]
    assert undecided
    for s, t in undecided:
        out = query(ix, s, t)
        work = FALLBACK_WORK["pbibfs"][s][t]
        assert out == QueryOutcome(FALLBACK_REACH[s][t] == "1", PBIBFS.tag, work)
        assert out is not query(ix, s, t)


@settings(max_examples=40)
@given(dags(max_n=10), st.integers(0, 2**16))
def test_stats_conservation(g, seed):
    ix = build_index(g, SMALL, seed=seed)
    mx = build_matrix(g)
    stats = observation_stats(ix, *all_pairs(g.n))
    pos = 0
    for s in range(g.n):
        for t in range(g.n):
            out = query(ix, s, t)
            assert out.answer == mx.query(s, t)
            pos += out.answer
    assert stats.queries == g.n * g.n
    assert sum(stats.first_hit.values()) + stats.fallbacks == stats.queries
    assert stats.outcomes["reachable"] == pos
    assert stats.outcomes["reachable"] + stats.outcomes["unreachable"] == stats.queries
    assert stats.overlap["EQ"] == g.n
    assert stats.fallback_rate == stats.fallbacks / stats.queries


def test_try_observations_counts_first_hits():
    g = gen_random_dag(40, 90, 0)
    ix = build_index(g, SMALL, seed=0)
    S, T = all_pairs(g.n)
    stats = ObservationStats()
    got = [try_observations(ix, s, t, stats) for s, t in zip(S, T)]
    assert got == [try_observations(ix, s, t) for s, t in zip(S, T)]
    assert stats.first_hit == observation_stats(ix, S, T).first_hit


def reference_stats(ix, pairs) -> ObservationStats:
    """ObservationStats counted pair by pair: the first hit and outcome from
    query(), the overlap from each observation's own test."""
    st_ = ObservationStats()
    fm, bm, wcc = ix.supports.fwd_mask, ix.supports.bwd_mask, ix.wcc
    lf, lb = ix.levels.fwd, ix.levels.bwd
    for s, t in pairs:
        out = query(ix, s, t)
        st_.queries += 1
        if out.answered_by.startswith("fallback:"):
            st_.fallbacks += 1
        else:
            st_.first_hit[out.answered_by] += 1
        st_.outcomes["reachable" if out.answer else "unreachable"] += 1
        if s == t:
            holds = {"EQ"}
        else:
            holds = {
                obs
                for obs, cond in [
                    ("B5", lf[t] <= lf[s]),
                    ("B6", lb[s] <= lb[t]),
                    ("B2", wcc[s] != wcc[t]),
                    ("S1", bm[s] & fm[t]),
                    ("S2", fm[s] & ~fm[t]),
                    ("S3", bm[t] & ~bm[s]),
                ]
                if cond
            }
            for o in ix.orderings:
                # a backward ordering answers (t, s) in the reverse graph
                a, b = (s, t) if o.flavor == FORWARD else (t, s)
                pa, pb, hi, mx = o.pos[a], o.pos[b], o.hi[a], o.mx[a]
                t1, t2, t3 = ("T1", "T2", "T3") if o.flavor == FORWARD else ("T4", "T5", "T6")
                if o.mx[b] > mx:
                    holds.add("C")  # Max(b) > Max(a)
                if pb < pa:
                    holds.add("B4")
                else:
                    holds |= {t1} if pb <= hi else set()
                    holds |= {t2} if pb > mx else {t3} if pb == mx else set()
        st_.overlap.update(holds)
    return st_


@settings(max_examples=40)
@given(dags(max_n=10), TABLE_PARAMS, st.integers(0, 2**16), st.data())
def test_observation_stats_equals_per_pair_reference(g, params, seed, data):
    ix = build_index(g, params, seed=seed)
    pairs = data.draw(st.lists(st.tuples(*[st.integers(0, g.n - 1)] * 2), max_size=60))
    got = observation_stats(ix, [s for s, _ in pairs], [t for _, t in pairs])
    assert got == reference_stats(ix, pairs)


def assert_batch_is_per_pair_query(ix, S, T):
    answer, tags, work = query_batch(ix, S, T)
    assert answer.dtype == bool and work.dtype == np.int64
    outcomes = [query(ix, s, t) for s, t in zip(S, T)]
    assert list(zip(answer.tolist(), tags, work.tolist())) == [
        (o.answer, o.answered_by, o.work) for o in outcomes
    ]


@settings(max_examples=40)
@given(dags(max_n=10), TABLE_PARAMS, st.integers(0, 2**16), st.data())
def test_query_batch_is_per_pair_query(g, params, seed, data):
    ix = build_index(g, params, seed=seed)
    pairs = data.draw(st.lists(st.tuples(*[st.integers(0, g.n - 1)] * 2), max_size=60))
    assert_batch_is_per_pair_query(ix, [s for s, _ in pairs], [t for _, t in pairs])


def test_query_batch_is_per_pair_query_with_fallbacks():
    g = gen_random_dag(2000, 8000, seed=0)
    ix = build_index(g, seed=0)
    rng = np.random.default_rng(2)
    S, T = rng.integers(0, g.n, 3000), rng.integers(0, g.n, 3000)
    S[:50] = T[:50]
    assert_batch_is_per_pair_query(ix, S, T)
    assert_batch_is_per_pair_query(ix, [], [])
    assert "fallback:pbibfs" in query_batch(ix, S, T)[1]
    with pytest.raises(IndexError, match="vertex id 2000 out of range"):
        query_batch(ix, [0, 1], [1, 2000])


def test_table_with_two_word_masks():
    """70 supports, so S1-S3 read bits 64.. from the masks' second word."""
    g = gen_random_dag(300, 1200, seed=0)
    ix = build_index(g, IndexParams(t=3, k=70, p=3), seed=0)
    assert len(support_owners(ix.supports)) == 70
    rnd = random.Random(1)
    S = [rnd.randrange(300) for _ in range(3000)]
    T = [rnd.randrange(300) for _ in range(3000)]
    expected = [try_observations(ix, s, t) for s, t in zip(S, T)]
    assert first_rows(observation_table(ix, S, T)) == expected
    high = [s for s in range(300) if ix.supports.fwd_mask[s] >> 64]
    assert high
    S, T = [s for s in high for _ in high], high * len(high)
    rows = {tag: mask for tag, _, mask in observation_table(ix, S, T)}
    assert [bool(m) for m in rows["5:S2"]] == [
        bool(ix.supports.fwd_mask[s] & ~ix.supports.fwd_mask[t]) for s, t in zip(S, T)
    ]


def test_observation_stats_rejects_out_of_range_ids():
    """The bulk path refuses ids as query does: out of range by the value
    given, and not integers with TypeError.  observation_table used to read
    [1.9] as [1] and ['3'] as [3], report uint64 2**63 as a negative id and
    raise OverflowError for 2**70.  A float id equal to an int one reads no
    column when s == t: query, try_observations and both resolvers used to
    answer (2.0, 2.0) reachable."""
    ix = build_index(DiGraph.from_edges(50, [(i, i + 1) for i in range(49)]), SMALL, seed=0)
    out_of_range = [
        ([0, -1], [1, 2], -1),
        ([0, 1], [2, -4], -4),
        ([0, 3], [1, 50], 50),
        ([0, 2**70], [1, 2], 2**70),
        (np.array([2**63, 3], np.uint64), [1, 2], 2**63),
    ]
    not_integers = [(np.array([1.9]), [0]), (["3"], [0]), ([0, 1], [2, 0.5]), ([2.0], [2.0])]
    for bulk in (observation_table, query_batch, observation_stats):
        for S, T, bad in out_of_range:
            with pytest.raises(IndexError, match=rf"^vertex id {bad} out of range for n=50$"):
                bulk(ix, S, T)
        for S, T in not_integers:
            with pytest.raises(TypeError):
                bulk(ix, S, T)
    for scalar in (query, try_observations, PBIBFS.run, PLAIN_BFS.run):
        for s, t in [(1.9, 0), ("3", 0), (2.0, 2.0), (2, 2.0)]:
            with pytest.raises(TypeError):
                scalar(ix, s, t)


def test_observation_stats_rejects_mismatched_shapes():
    """S and T must be 1-D lists of one length: a shorter T used to be
    broadcast, and a longer one or 2-D input failed inside numpy."""
    ix = build_index(gen_random_dag(50, 120, 0), SMALL, seed=0)
    for S, T, shapes in [
        ([0, 1], [2], r"\(2,\) and \(1,\)"),
        ([0], [2, 3], r"\(1,\) and \(2,\)"),
        ([[0, 1]], [[2, 3]], r"\(1, 2\) and \(1, 2\)"),
        (0, 2, r"\(\) and \(\)"),
    ]:
        with pytest.raises(ValueError, match=rf"1-D of equal length, got shapes {shapes}"):
            observation_stats(ix, S, T)


def test_stats_empty_rate_is_none():
    assert ObservationStats().fallback_rate is None


# ---------------------------------------------------------------------------
# original vertex ids: Condensed


def condensed(g: DiGraph, ids) -> Condensed:
    """g's condensation, with ids[v] the original id of g's vertex v."""
    return Condensed.from_parse(ParseResult(g, np.array(ids)))


@settings(max_examples=60, deadline=None)
@given(digraphs(max_n=10), st.integers(0, 2**16))
def test_condensed_answers_original_ids_as_the_uncondensed_matrix(g, seed):
    """Every ordered pair of a digraph with cycles and sparse ids, negative
    ones too: the answer is the uncondensed graph's, 0:B3 tags exactly the
    distinct ids of one SCC, the other pairs get query's outcome for their
    SCCs, and stats counts what query tagged."""
    ids = 7 * np.arange(g.n) - 3
    cond = condensed(g, ids)
    ix = build_index(cond.dag, SMALL, seed=seed)
    dS, dT = (np.array(v) for v in all_pairs(g.n))
    S, T = ids[dS], ids[dT]
    answer, tags, work = cond.query(ix, S, T)
    assert answer.tolist() == build_matrix(g).to_dense()[dS, dT].tolist()
    same = (cond.scc_of[dS] == cond.scc_of[dT]) & (dS != dT)
    assert [tag == "0:B3" for tag in tags] == same.tolist()
    CS, CT = cond.sccs(S, T)
    assert (CS.tolist(), CT.tolist()) == (cond.scc_of[dS].tolist(), cond.scc_of[dT].tolist())
    for i in np.flatnonzero(~same).tolist():
        out = query(ix, int(CS[i]), int(CT[i]))
        assert (answer[i], tags[i], work[i]) == (out.answer, out.answered_by, out.work)
    stats = cond.stats(ix, S, T)
    assert stats.queries == len(S) and stats.fallbacks == tags.count(PBIBFS.tag)
    assert stats.first_hit == Counter(tag for tag in tags if tag != PBIBFS.tag)
    assert stats.first_hit["0:B3"] == int(same.sum()) and "B3" not in stats.overlap
    assert stats.outcomes["reachable"] == int(answer.sum())


def test_condensed_checks_every_id_before_any_answer(monkeypatch):
    """The ids are translated as a whole and then answered QUERY_CHUNK
    pairs to a query_batch call: an unknown id in the last pair fails
    before the first call."""
    g = path_graph(5)
    cond = condensed(g, [-9, 0, 4, 11, 12])
    ix = build_index(cond.dag, SMALL, seed=0)
    calls = []

    def counting(*args):
        calls.append(args)
        return query_batch(*args)

    S, T = [-9, 0, 4, 11, 12, 12, 4], [12, 11, 4, 0, -9, 0, 4]
    answer, tags, work = cond.query(ix, S, T)
    assert "0:B3" not in tags and tags.count("1:EQ") == 2
    monkeypatch.setattr(index_mod, "QUERY_CHUNK", 2)
    monkeypatch.setattr(index_mod, "query_batch", counting)
    chunked = cond.query(ix, S, T)
    assert len(calls) == 4
    assert (chunked[0].tolist(), chunked[1], chunked[2].tolist()) == (
        answer.tolist(), tags, work.tolist()
    )
    calls.clear()
    with pytest.raises(GraphFormatError, match="^unknown vertex id 13$"):
        cond.query(ix, S + [0], T + [13])
    assert not calls


def test_condensed_refusals():
    """An unknown id is named, the first in reading order (s, then t, pair
    by pair); an id that is not an integer is a TypeError, even one equal
    to an id; an index of another DAG is refused."""
    g = DiGraph.from_edges(4, [(0, 1), (1, 0), (1, 2)])
    cond = condensed(g, [-3, 2, 11, 1000])
    ix = build_index(cond.dag, SMALL, seed=0)
    assert cond.sccs([2, 1000], [-3, 11])[0].tolist() == cond.scc_of[[1, 3]].tolist()
    for S, T, bad in [([-3, 2, 5], [7, 11, 6], 7), ([4, 2], [2, 6], 4), ([2], [2**70], 2**70)]:
        for call in (cond.sccs, partial(cond.query, ix), partial(cond.stats, ix)):
            with pytest.raises(GraphFormatError, match=f"^unknown vertex id {bad}$"):
                call(S, T)
    for bad in (np.array([2.5]), np.array([1.5], dtype=object), [2.0], np.array([2.0])):
        with pytest.raises(TypeError):
            cond.sccs(bad, [2])
        with pytest.raises(TypeError):
            cond.query(ix, [2], bad)
    with pytest.raises(ValueError, match="1-D of equal length"):
        cond.sccs([2, 11], [2])
    other = build_index(DiGraph.from_edges(cond.dag.n, []), SMALL, seed=0)
    for call in (cond.query, cond.stats):
        with pytest.raises(IndexFormatError, match="another graph"):
            call(other, [2], [11])
    assert cond.query(ix, [], [])[1] == [] and cond.stats(ix, [], []).queries == 0


def test_condensed_ids_beyond_64_bits():
    """Ids that need more than 64 bits are Python ints on either side, and
    compare as ints with int64 ones."""
    g = DiGraph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    big = condensed(g, np.array([-(2**70), 0, 2**70], dtype=object))
    ix = build_index(big.dag, SMALL, seed=0)
    answer, tags, _work = big.query(ix, [2**70, -(2**70), 0], np.array([0, 0, 2**70]))
    assert answer.tolist() == [False, True, True] and tags[1] == "0:B3"
    small = condensed(g, [-3, 4, 11])
    with pytest.raises(GraphFormatError, match=f"^unknown vertex id {2**70}$"):
        small.sccs([4], [2**70])
    assert small.sccs(np.array([11], np.uint64), [4])[1].tolist() == small.scc_of[[1]].tolist()


# ---------------------------------------------------------------------------
# serialization


def test_payload_bytes_formula():
    assert payload_bytes_per_vertex(4, 16) == 64
    assert payload_bytes_per_vertex(2, 1) == 38
    assert payload_bytes_per_vertex(0, 0) == 12


def test_serialized_length_diamond():
    ix = build_index(diamond(), IndexParams(t=2, k=1, p=4, h=8), seed=0)
    blob = serialize_index(ix)
    assert len(blob) == HEADER.size + 4 * 38
    assert blob[:4] == b"RIDX"


def roundtrip_equal(ix: ReachIndex, g: DiGraph) -> None:
    loaded = deserialize_index(serialize_index(ix), g)
    assert_uint_columns(loaded)
    assert loaded.wcc == ix.wcc
    assert loaded.levels == ix.levels
    assert support_owners(loaded.supports) == support_owners(ix.supports)
    assert loaded.supports.fwd_mask == ix.supports.fwd_mask
    assert loaded.supports.bwd_mask == ix.supports.bwd_mask
    assert loaded.supports.k == ix.supports.k
    assert len(loaded.orderings) == len(ix.orderings)
    for a, b in zip(loaded.orderings, ix.orderings):
        assert (a.pos, a.hi, a.mx, a.flavor) == (b.pos, b.hi, b.mx, b.flavor)
    for s in range(g.n):
        for t in range(g.n):
            assert try_observations(loaded, s, t) == try_observations(ix, s, t)


@settings(max_examples=40)
@given(dags(max_n=10), st.integers(0, 2**16))
def test_roundtrip_preserves_behaviour(g, seed):
    roundtrip_equal(build_index(g, SMALL, seed=seed), g)


def test_roundtrip_degenerate_shapes():
    g = diamond()
    roundtrip_equal(build_index(g, IndexParams(t=0, k=0, p=1, h=1), seed=0), g)
    roundtrip_equal(build_index(g, IndexParams(t=1, k=1, p=1, h=1), seed=0), g)
    big_k = IndexParams(t=2, k=70, p=2, h=8)  # multi-word masks, k > candidates
    roundtrip_equal(build_index(g, big_k, seed=0), g)
    g = gen_random_dag(300, 1200, seed=0)
    ix = build_index(g, IndexParams(t=3, k=70), seed=0)
    assert len(support_owners(ix.supports)) == 70  # bits in the second 64-bit word
    roundtrip_equal(ix, g)


def test_serialize_refuses_an_index_its_file_cannot_hold():
    """The file records no ordering flavors (ceil(t/2) forward ones come
    first) and holds t and k in 16 bits each.  An index outside that is
    refused, naming the field, instead of being written to read back as
    another index: with its orderings flipped, this one answered 12269 of
    its 90000 pairs wrongly after a round trip.  In memory it stays valid."""
    g = gen_random_dag(300, 1200, seed=1)
    ix = build_index(g, IndexParams(t=2, k=4, p=2), seed=0)
    flipped = dataclasses.replace(ix, orderings=ix.orderings[::-1])
    S, T = random_pairs(g.n, 3000)
    assert query_batch(flipped, S, T)[0].tolist() == query_batch(ix, S, T)[0].tolist()
    with pytest.raises(ValueError, match=r"^orderings have flavors \['backward', 'forward'\]"):
        serialize_index(flipped)
    w = (70000 + 7) // 8
    wide = SupportSet(bytes(g.n * w), bytes(g.n * w), 70000, g.n)
    with pytest.raises(ValueError, match=r"^supports\.k = 70000 does not fit"):
        serialize_index(dataclasses.replace(ix, supports=wide))
    many = ix.orderings[:1] * 32768 + ix.orderings[1:] * 32768
    with pytest.raises(ValueError, match=r"^len\(orderings\) = 65536 does not fit"):
        serialize_index(dataclasses.replace(ix, orderings=many))
    assert deserialize_index(serialize_index(ix), g) == ix


@pytest.mark.parametrize("k", [0, 16, 130])
def test_support_rows_and_ints_agree(k):
    """A built and a loaded index hold each direction's masks as rows of
    mask_bytes bytes and as ints, one per vertex, with the same values; the
    loaded rows are bytes of their own, not views of the file."""
    g = gen_random_dag(300, 1200, seed=0)
    built = build_index(g, IndexParams(t=2, k=k), seed=0)
    blob = serialize_index(built)
    loaded = deserialize_index(blob, g)
    for ss in (built.supports, loaded.supports):
        w = ss.mask_bytes
        for rows, ints in ((ss.fwd_rows, ss.fwd_mask), (ss.bwd_rows, ss.bwd_mask)):
            assert type(rows) is bytes and len(rows) == g.n * w and len(ints) == g.n
            assert [int.from_bytes(rows[v * w : (v + 1) * w], "little") for v in range(g.n)] == ints
            assert any(ints) == (k > 0)
    assert loaded.supports == built.supports
    assert blob.endswith(built.supports.fwd_rows + built.supports.bwd_rows)


def test_int_masks_are_derived_on_the_first_query():
    """A build and a load keep the masks as rows only, and so does a
    query_batch whose pairs all decide: observation_table reads the rows.
    The first query binds the scalar pass, which derives both int lists
    from the rows, equal to the built index's."""
    g = gen_random_dag(300, 1200, seed=0)
    built = build_index(g, IndexParams(t=2, k=16), seed=0)
    loaded = deserialize_index(serialize_index(built), g)
    lazy = ("fwd_mask", "bwd_mask")
    assert not any(name in ss.__dict__ for ss in (built.supports, loaded.supports) for name in lazy)
    S, T = np.random.default_rng(5).integers(0, g.n, (2, 2000)).tolist()
    S, T = zip(*[(s, t) for s, t in zip(S, T) if try_observations(built, s, t)[1]])
    assert "fallback:pbibfs" not in query_batch(loaded, S, T)[1]
    assert not any(name in loaded.supports.__dict__ for name in lazy)
    assert query(loaded, S[0], T[0]) == query(built, S[0], T[0])
    assert all(name in loaded.supports.__dict__ for name in lazy)
    assert loaded.supports.fwd_mask == built.supports.fwd_mask
    assert loaded.supports.bwd_mask == built.supports.bwd_mask


def test_a_queried_index_pickles_as_a_fresh_one():
    """The int masks a query derives stay out of the pickle: the copy
    derives them from its rows on its first query, and answers as the
    original does."""
    g = gen_random_dag(300, 1200, seed=0)
    ix = build_index(g, IndexParams(t=2, k=16), seed=0)
    fresh = pickle.dumps(ix)
    assert query(ix, 0, 0).answered_by == "1:EQ"  # decided: binds the pass, builds no keys
    assert "fwd_mask" in ix.supports.__dict__ and ix.keys is None
    queried = pickle.dumps(ix)
    assert len(queried) == len(fresh)
    twin = pickle.loads(queried)
    assert not {"fwd_mask", "bwd_mask"} & twin.supports.__dict__.keys()
    S, T = np.random.default_rng(5).integers(0, g.n, (2, 300)).tolist()
    assert [query(twin, s, t) for s, t in zip(S, T)] == [query(ix, s, t) for s, t in zip(S, T)]
    assert twin.supports.fwd_mask == ix.supports.fwd_mask
    assert twin.supports.bwd_mask == ix.supports.bwd_mask


@pytest.mark.parametrize(
    "t, k, size, crc",
    [(4, 16, 19224, 687330637), (3, 70, 19824, 1733714632)],
    ids=["t4-k16", "t3-k70"],  # a re-freeze changes size and crc, not the ids
)
def test_index_bytes_frozen(t, k, size, crc):
    """Lengths recorded before the mask codec moved into one place, CRC32s
    once format version 3 kept backward orderings in the reverse graph's
    coordinates."""
    g = gen_random_dag(300, 1200, seed=0)
    blob = serialize_index(build_index(g, IndexParams(t=t, k=k), seed=0))
    assert (len(blob), zlib.crc32(blob)) == (size, crc)


def test_deserialize_rejects_corruption():
    g = diamond()
    blob = serialize_index(build_index(g, SMALL, seed=0))
    with pytest.raises(IndexFormatError, match="magic"):
        deserialize_index(b"XXXX" + blob[4:], g)
    with pytest.raises(IndexFormatError, match="version"):
        bad = blob[:4] + (99).to_bytes(4, "little") + blob[8:]
        deserialize_index(bad, g)
    with pytest.raises(IndexFormatError, match="truncated"):
        deserialize_index(blob[:10], g)
    with pytest.raises(IndexFormatError, match="bytes"):
        deserialize_index(blob + b"\0", g)
    with pytest.raises(IndexFormatError, match="n="):
        deserialize_index(blob, DiGraph.from_edges(5, []))
    other = DiGraph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
    with pytest.raises(IndexFormatError, match="checksum"):
        deserialize_index(blob, other)


def resign(blob: bytearray) -> bytes:
    """blob with its payload CRC, the last four header bytes, recomputed over
    every byte but those four."""
    crc = zlib.crc32(blob[HEADER.size :], zlib.crc32(blob[: HEADER.size - 4]))
    blob[HEADER.size - 4 : HEADER.size] = crc.to_bytes(4, "little")
    return bytes(blob)


def test_file_holds_each_column_contiguously():
    g = gen_random_dag(50, 150, seed=0)
    ix = build_index(g, IndexParams(t=3, k=9), seed=0)
    blob = serialize_index(ix)
    magic, version, t, k, n, checksum, _crc = HEADER.unpack_from(blob)
    assert (magic, version, t, k, n, checksum) == (b"RIDX", 3, 3, 9, 50, graph_checksum(g))
    assert resign(bytearray(blob)) == blob
    cells = np.frombuffer(blob, "<u4", 12 * 50, HEADER.size).reshape(12, 50)
    assert [col.tolist() for col in cells] == [list(col) for col in int_columns(ix)]
    masks = blob[HEADER.size + 4 * 12 * 50 :]  # 2 bytes per vertex and direction
    assert len(masks) == 2 * 50 * 2
    fwd = [int.from_bytes(masks[2 * v : 2 * v + 2], "little") for v in range(50)]
    bwd = [int.from_bytes(masks[100 + 2 * v : 102 + 2 * v], "little") for v in range(50)]
    assert (fwd, bwd) == (ix.supports.fwd_mask, ix.supports.bwd_mask)


def test_every_changed_byte_is_rejected():
    """Each byte of a small index, changed to any of three other values, makes
    the load fail: the header fields through their own checks, the rest (and
    t and k where the length still fits) through the payload CRC."""
    g = gen_random_dag(12, 30, seed=0)
    blob = serialize_index(build_index(g, IndexParams(t=2, k=4), seed=0))
    assert len(blob) == HEADER.size + 12 * payload_bytes_per_vertex(2, 4)
    deserialize_index(blob, g)
    for at, byte in enumerate(blob):
        for other in {byte ^ 0x01, byte ^ 0x80, byte ^ 0xFF}:
            bad = blob[:at] + bytes([other]) + blob[at + 1 :]
            with pytest.raises(IndexFormatError):
                deserialize_index(bad, g)


@pytest.fixture(scope="module")
def default_blob_200():
    g = gen_random_dag(200, 600, seed=0)
    return g, serialize_index(build_index(g, seed=0))


COLUMN_NAMES = [
    (0, "wcc"),
    (1, "levels.fwd"),
    (2, "levels.bwd"),
    (3, "orderings[0].pos"),
    (4, "orderings[0].hi"),
    (5, "orderings[0].mx"),
    (14, "orderings[3].mx"),
]


@pytest.mark.parametrize("value", [200, 10**9])
@pytest.mark.parametrize(
    "column, name",
    COLUMN_NAMES,
    ids=[f"col{column}" for column, _ in COLUMN_NAMES],  # a renamed column keeps its id
)
def test_deserialize_rejects_out_of_range_columns(default_blob_200, column, name, value):
    """A value >= n in any integer column (here at vertex 5) is refused at
    load, even under a payload CRC that matches; ordering 0's pos[5] = 10**9
    used to load and answer wrongly."""
    g, blob = default_blob_200
    bad = bytearray(blob)
    at = HEADER.size + 4 * (200 * column + 5)
    bad[at : at + 4] = value.to_bytes(4, "little")
    message = rf"{re.escape(name)}\[5\] = {value} is out of range for n=200"
    with pytest.raises(IndexFormatError, match=message):
        deserialize_index(resign(bad), g)
    bad[at : at + 4] = (199).to_bytes(4, "little")
    deserialize_index(resign(bad), g)  # n - 1 is in range


@settings(max_examples=40, deadline=None)
@given(
    dags(max_n=12),
    st.integers(0, 5),
    st.sampled_from([0, 1, 9, 70]),
    st.integers(0, 2**16),
)
def test_loaded_index_equals_the_built_one(g, t, k, seed):
    """== skips what the file does not hold: the build's params and seeds."""
    built = build_index(g, IndexParams(t=t, k=k, p=2, h=3), seed=seed)
    loaded = deserialize_index(serialize_index(built), g)
    assert loaded == built
    assert loaded.params is None and loaded.seed is None
    assert all(o.seed is None for o in loaded.orderings)


@settings(max_examples=40, deadline=None)
@given(
    dags(max_n=12),
    st.integers(0, 5),
    st.sampled_from([0, 1, 9, 70]),
    st.integers(0, 2**16),
)
def test_built_and_loaded_indexes_agree(g, t, k, seed):
    built = build_index(g, IndexParams(t=t, k=k, p=2, h=3), seed=seed)
    loaded = deserialize_index(serialize_index(built), g)
    assert len(int_columns(built)) == len(int_columns(loaded)) == 3 + 3 * t
    for a, b in zip(int_columns(built), int_columns(loaded)):
        assert type(a) is array and type(b) is array
        assert a.typecode == b.typecode == "I"
        assert a == b and len(a) == g.n
    assert loaded.levels == built.levels
    for s in range(g.n):
        for v in range(g.n):
            assert query(loaded, s, v) == query(built, s, v)
            assert PLAIN_BFS.run(loaded, s, v) == PLAIN_BFS.run(built, s, v)


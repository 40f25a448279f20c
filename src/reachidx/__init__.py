"""Reachability index toolkit for directed acyclic graphs.

Builds a compact per-vertex index (weak components, topological levels,
randomized extended topological orderings, supportive-vertex bitmasks) that
answers most reachability queries in constant time; the rest go to a pruned
bidirectional BFS.  Ships exact baselines, generators, and a benchmark CLI.

The names below are imported from their modules on first access (PEP 562),
so that `import reachidx.cli` loads only what a command uses: `reachidx
build` and `reachidx query` never load the workbench.
"""

from importlib import import_module

_EXPORTS = {
    "baselines": (
        "CapacityError", "InfeasibleError", "ReachMatrix", "bfs_query", "build_matrix",
        "matrix_query", "reachability_rho",
    ),
    "graph": (
        "AcyclicityError", "CondensationMap", "DiGraph", "GraphFormatError", "LevelAssignment",
        "ParseResult", "graph_checksum", "load_graph", "parse_graph", "scc_condense",
        "topological_levels", "weak_components",
    ),
    "index": (
        "PBIBFS", "PLAIN_BFS", "IndexFormatError", "IndexParams", "ObservationStats",
        "QueryOutcome", "ReachIndex", "Resolver", "build_index", "deserialize_index",
        "observation_stats", "observation_table", "query", "query_batch", "serialize_index",
        "try_observations",
    ),
    "supportive": ("CandidatePool", "SupportSet", "pick_supports", "select_candidates"),
    "toporder": (
        "AnalysisReport", "ExtTopOrder", "answer_T", "extended_topsort",
        "extended_topsort_backward", "ordering_analysis",
    ),
    "workbench": (
        "AnswerMismatchError", "BenchReport", "QuerySet", "bench", "build_oracle", "gen_queries",
        "gen_random_dag", "stats_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as after the eager imports this replaces
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

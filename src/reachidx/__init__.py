"""Reachability index toolkit for directed acyclic graphs.

Builds a compact per-vertex index (weak components, topological levels,
randomized extended topological orderings, supportive-vertex bitmasks) that
answers most reachability queries in constant time; the rest go to a pruned
bidirectional BFS.  Ships exact baselines, generators, and a benchmark CLI.
"""

from .baselines import (
    CapacityError,
    ReachMatrix,
    bfs_query,
    build_matrix,
    matrix_query,
    reachability_rho,
)
from .graph import (
    AcyclicityError,
    CondensationMap,
    DiGraph,
    GraphFormatError,
    LevelAssignment,
    ParseResult,
    graph_checksum,
    load_graph,
    parse_graph,
    scc_condense,
    topological_levels,
    weak_components,
)
from .index import (
    PBIBFS,
    PLAIN_BFS,
    IndexFormatError,
    IndexParams,
    ObservationStats,
    QueryOutcome,
    ReachIndex,
    Resolver,
    build_index,
    deserialize_index,
    observation_stats,
    observation_table,
    query,
    query_batch,
    serialize_index,
    try_observations,
)
from .supportive import (
    CandidatePool,
    SupportSet,
    pick_supports,
    select_candidates,
)
from .toporder import (
    AnalysisReport,
    ExtTopOrder,
    answer_T,
    extended_topsort,
    extended_topsort_backward,
    ordering_analysis,
)
from .workbench import (
    AnswerMismatchError,
    BenchReport,
    InfeasibleError,
    QuerySet,
    bench,
    build_oracle,
    gen_queries,
    gen_random_dag,
    stats_report,
)

__version__ = "0.1.0"

"""In-memory evaluation engine: the executable specification of BMO.

The paper implements Preference SQL purely by rewriting to the host SQL
system.  This package provides the second evaluation path: a small
relational engine that executes the Preference SQL query block directly
over in-memory relations.  It serves as

* the semantics oracle — differential tests assert the rewriter and this
  engine agree on every query,
* the home of the winnow kernels (:mod:`repro.engine.algorithms`: the
  paper's abstract nested-loop selection method as the oracle, plus one
  kernel per rank shape chosen in one place),
* the evaluator used by the COSIMA-style meta-search simulation, which in
  the paper ran Preference SQL over a temporary database.
"""

from repro.engine.relation import Relation, column_index_map
from repro.engine.expressions import Evaluator, RowEnvironment
from repro.engine.columns import (
    RankColumns,
    compute_rank_columns,
    rank_columns_from_values,
    rank_shape,
)
from repro.engine.algorithms import (
    columnar_skyline,
    nested_loop_maximal,
    winnow_kernel,
)
from repro.engine.bmo import (
    PreferenceEngine,
    Winners,
    bmo_filter,
)
from repro.engine.parallel import (
    ParallelExecutor,
    default_worker_count,
    parallel_maximal_indices,
    partition_count,
    shared_executor,
)

__all__ = [
    "ParallelExecutor",
    "parallel_maximal_indices",
    "partition_count",
    "default_worker_count",
    "shared_executor",
    "Relation",
    "column_index_map",
    "Evaluator",
    "RowEnvironment",
    "RankColumns",
    "columnar_skyline",
    "compute_rank_columns",
    "rank_columns_from_values",
    "rank_shape",
    "nested_loop_maximal",
    "winnow_kernel",
    "PreferenceEngine",
    "Winners",
    "bmo_filter",
]

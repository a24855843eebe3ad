"""Cost-based plan selection for preference queries.

The paper's optimizer picks between rewriting preferences to standard SQL
and dedicated skyline evaluation (sections 3.2–3.3); this package makes
that choice automatic, per query, from cheap table statistics:

* :mod:`repro.plan.statistics` — row counts and per-column distinct
  counts, cached per connection and invalidated on DML,
* :mod:`repro.plan.cost` — the calibrated cost model pricing the
  ``NOT EXISTS`` rewrite against the in-memory winnow — serial
  (``bnl``) or partitioned (``parallel``) — with a System-R-style WHERE
  selectivity and the classical ``(ln n)^(d-1)/(d-1)!`` skyline-size
  estimate,
* :mod:`repro.plan.planner` — :func:`~repro.plan.planner.plan_statement`,
  producing a :class:`~repro.plan.planner.Plan` with the chosen strategy,
  the rewritten SQL and (for in-memory strategies) the hard-condition
  pushdown plus residual preference block,
* :mod:`repro.plan.cache` — the LRU parse+plan cache keyed on
  ``(statement text, catalog version)`` that lets repeated parameterized
  queries skip parsing and planning,
* :mod:`repro.plan.explain` — the ``EXPLAIN PREFERENCE`` report.

The driver (:mod:`repro.driver.dbapi`) wires all of this together; the
``plan`` benchmark (``python -m repro.bench plan``) measures auto-selection
against every fixed strategy.
"""

from repro.plan.cache import CacheStats, PlanCache
from repro.plan.cost import (
    DEFAULT_COST_MODEL,
    IN_MEMORY_STRATEGIES,
    PREJOIN_STRATEGY,
    STRATEGIES,
    CostEstimate,
    CostModel,
    PrejoinShape,
    choose_rank_source,
    choose_strategy,
    estimate_costs,
    estimate_selectivity,
    estimate_skyline_size,
    rank_source_costs,
)
from repro.plan.explain import plan_relation, plan_text
from repro.plan.joins import (
    JOIN_RELATION,
    JoinScan,
    analyze_prejoin,
    build_join_scan,
    estimation_predicate,
)
from repro.plan.planner import (
    MaterializedView,
    Plan,
    in_memory_parts,
    plan_statement,
    rebind_plan,
)
from repro.plan.statistics import StatisticsCache, TableStatistics

__all__ = [
    "MaterializedView",
    "Plan",
    "plan_statement",
    "rebind_plan",
    "in_memory_parts",
    "plan_relation",
    "plan_text",
    "PlanCache",
    "CacheStats",
    "StatisticsCache",
    "TableStatistics",
    "CostModel",
    "CostEstimate",
    "DEFAULT_COST_MODEL",
    "STRATEGIES",
    "IN_MEMORY_STRATEGIES",
    "PREJOIN_STRATEGY",
    "PrejoinShape",
    "JOIN_RELATION",
    "JoinScan",
    "analyze_prejoin",
    "build_join_scan",
    "estimation_predicate",
    "choose_rank_source",
    "rank_source_costs",
    "estimate_costs",
    "estimate_selectivity",
    "estimate_skyline_size",
    "choose_strategy",
]

"""Cost-based plan selection for preference queries.

The paper's optimizer picks between rewriting preferences to standard SQL
and dedicated skyline evaluation (sections 3.2–3.3); this package makes
that choice automatic, per query, from cheap table statistics:

* :mod:`repro.plan.statistics` — row counts and per-column distinct
  counts, cached per connection and invalidated on DML,
* :mod:`repro.plan.cost` — the calibrated cost model pricing the
  ``NOT EXISTS`` rewrite against the in-memory winnow (``bnl``) with a
  System-R-style WHERE selectivity and the classical
  ``(ln n)^(d-1)/(d-1)!`` skyline-size estimate,
* :mod:`repro.plan.planner` — :func:`~repro.plan.planner.plan_statement`,
  producing a :class:`~repro.plan.planner.Plan` with the chosen strategy
  and the stages that execute it, built by the strategy's entry of
  :data:`~repro.plan.planner.STRATEGY_TABLE`,
* :mod:`repro.plan.cache` — the LRU parse+plan cache keyed on
  ``(statement text, catalog version)`` that lets repeated parameterized
  queries skip parsing and planning,
* :mod:`repro.plan.explain` — the ``EXPLAIN PREFERENCE`` report.

The driver (:mod:`repro.driver.dbapi`) wires all of this together; the
repository benchmark's ``plan.regret_*`` metrics (``python3 -m benchmark``,
see ``benchmark/README.md``) measure auto-selection against every pinned
strategy.
"""

from repro.plan.cache import CacheStats, PlanCache
from repro.plan.cost import (
    CostEstimate,
    choose_rank_source,
    estimate_selectivity,
    estimate_skyline_size,
)
from repro.plan.explain import plan_relation, plan_text
from repro.plan.joins import (
    JOIN_RELATION,
    JoinScan,
    build_join_scan,
    estimation_predicate,
)
from repro.plan.planner import (
    IN_MEMORY_STRATEGIES,
    STRATEGIES,
    MaterializedView,
    Plan,
    choose_strategy,
    estimate_costs,
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
    "CostEstimate",
    "STRATEGIES",
    "IN_MEMORY_STRATEGIES",
    "JOIN_RELATION",
    "JoinScan",
    "build_join_scan",
    "estimation_predicate",
    "choose_rank_source",
    "estimate_costs",
    "estimate_selectivity",
    "estimate_skyline_size",
    "choose_strategy",
]

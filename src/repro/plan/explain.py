"""Render a :class:`~repro.plan.planner.Plan` for humans and tools.

``EXPLAIN PREFERENCE <select>`` returns :func:`plan_relation` — a
two-column ``(item, detail)`` relation that is stable enough to assert on
in tests yet readable at a REPL.  :func:`plan_text` is the same content as
an indented text block, used by :meth:`repro.driver.Connection.explain`.
"""

from __future__ import annotations

from repro.engine.relation import Relation
from repro.plan.cost import PREJOIN_STRATEGY, SESSION_STRATEGY, STRATEGIES
from repro.plan.planner import Plan

#: Column names of the EXPLAIN PREFERENCE result relation.
REPORT_COLUMNS = ("item", "detail")

_RANK_SOURCE_LABELS = {
    "sql": "sql — rank expressions pushed into the scan SELECT",
    "python": "python — engine fills shared rank columns once per query",
    "closure": "closure — per-pair comparisons (EXPLICIT/custom preference)",
}

_STRATEGY_LABELS = {
    "passthrough": "pass-through (no PREFERRING clause)",
    "rewrite": "NOT EXISTS rewrite on the host database",
    "bnl": "in-memory winnow after hard-condition pushdown — sort-filter "
    "on flat Pareto ranks, minimum-bucket scan on flat cascades, window "
    "BNL otherwise",
    "parallel": "the same winnow kernels per partition, then a merge "
    "filter, after hard-condition pushdown",
    "view": "materialized preference view scan",
    "prejoin": "winnow pushdown — BMO on the preference table, then join "
    "only the winners",
    "session": "session reuse — re-winnow cached winners ∪ bounded delta",
}

#: Cost-row order: rewrite first, then the join pushdown, then the
#: in-memory strategies (mirrors the tie-breaking order of the model),
#: then session reuse when the cache held a refined entry.
_COST_ORDER = (
    (STRATEGIES[0], PREJOIN_STRATEGY) + STRATEGIES[1:] + (SESSION_STRATEGY,)
)


def plan_relation(
    plan: Plan, source_sql: str | None = None, cache_note: str | None = None
) -> Relation:
    """The EXPLAIN PREFERENCE result for one plan."""
    rows: list[tuple[str, str]] = []

    def add(item: str, detail: object) -> None:
        rows.append((item, str(detail)))

    if source_sql is not None:
        add("statement", source_sql)
    label = _STRATEGY_LABELS.get(plan.strategy, plan.strategy)
    add("strategy", f"{plan.strategy} — {label}" + (" [forced]" if plan.forced else ""))
    if plan.view_name:
        add("materialized view", plan.view_name)
        add("maintenance", plan.view_maintenance)
    if plan.preference_sql:
        add("preference", plan.preference_sql)
        add("dimensions", plan.dimensions)
    if plan.semantic_rule is not None:
        add("semantic rewrite", plan.semantic_rule)
        add("constraints used", ", ".join(plan.semantic_constraints))
    if plan.session_match is not None:
        add("refinement relation", plan.session_match.relation)
        if plan.strategy == SESSION_STRATEGY:
            winners = len(plan.session_match.entry.winners)
            detail = f"re-winnow {winners} cached winners"
            detail += " ∪ delta" if plan.session_delta_sql else " (no delta scan)"
            add("session reuse", detail)
        if plan.session_delta_sql:
            add("delta SQL", plan.session_delta_sql)
    if plan.table:
        add("table", plan.table)
    if plan.join_tables:
        add("join tables", ", ".join(plan.join_tables))
        add("join cardinality (est)", f"{plan.candidate_estimate:.0f}")
    if plan.winnow_pushdown:
        add("winnow pushdown", plan.winnow_pushdown)
    if plan.statistics is not None:
        add("table rows", plan.statistics.row_count)
        if plan.statistics.distinct:
            add(
                "distinct counts",
                ", ".join(
                    f"{column}={count}"
                    for column, count in sorted(plan.statistics.distinct.items())
                ),
            )
    if plan.strategy != "passthrough":
        add("candidates (est)", f"{plan.candidate_estimate:.0f}")
        add("maximal set (est)", f"{plan.skyline_estimate:.0f}")
    if plan.rank_source is not None and (plan.uses_engine or plan.is_prejoin):
        label = _RANK_SOURCE_LABELS.get(plan.rank_source, plan.rank_source)
        if plan.rank_width:
            label += f" ({plan.rank_width} rank columns)"
        add("rank source", label)
        add("columnar", plan.columnar or "no")
    if plan.partitions:
        kind = "GROUPING" if plan.group_estimate is not None else "hash"
        add("parallel partitions (est)", f"{plan.partitions} ({kind})")
        add("parallel worker degree", plan.workers)
        if plan.parallel_backend is not None:
            add("parallel backend", plan.parallel_backend)
    for name in _COST_ORDER:
        estimate = plan.estimates.get(name)
        if estimate is None:
            continue
        chosen = "  <- chosen" if name == plan.strategy else ""
        add(f"cost: {name}", f"{estimate.milliseconds:.2f} ms{chosen}")
    chosen_cost = plan.chosen_cost
    if chosen_cost is not None:
        for label_, seconds in chosen_cost.steps:
            add(f"step: {label_}", f"{seconds * 1000:.2f} ms")
    if plan.rewritten_sql:
        add("rewritten SQL", plan.rewritten_sql)
    if plan.pushdown_sql:
        add("pushdown SQL", plan.pushdown_sql)
    if plan.prejoin_scan_sql:
        add("winnow scan SQL", plan.prejoin_scan_sql)
    for note in plan.notes:
        add("note", note)
    if cache_note is not None:
        add("plan cache", cache_note)
    return Relation(columns=REPORT_COLUMNS, rows=rows)


def plan_text(
    plan: Plan, source_sql: str | None = None, cache_note: str | None = None
) -> str:
    """The same report as an indented text block."""
    relation = plan_relation(plan, source_sql=source_sql, cache_note=cache_note)
    width = max(len(item) for item, _detail in relation.rows)
    return "\n".join(
        f"{item.ljust(width)}  {detail}" for item, detail in relation.rows
    )

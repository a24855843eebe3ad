"""Render a :class:`~repro.plan.planner.Plan` for humans and tools.

``EXPLAIN PREFERENCE <select>`` returns :func:`plan_relation` — a
two-column ``(item, detail)`` relation that is stable enough to assert on
in tests yet readable at a REPL.  :func:`plan_text` is the same content as
an indented text block, used by :meth:`repro.driver.Connection.explain`.
"""

from __future__ import annotations

from repro.engine.bmo import Reuse, Scan
from repro.engine.relation import Relation
from repro.plan.planner import STRATEGY_TABLE, Plan

#: Column names of the EXPLAIN PREFERENCE result relation.
REPORT_COLUMNS = ("item", "detail")

_RANK_SOURCE_LABELS = {
    "sql": "sql — rank expressions pushed into the scan SELECT",
    "python": "python — engine fills shared rank columns once per query",
    "closure": "closure — per-pair comparisons (EXPLICIT/custom preference)",
}


def plan_relation(
    plan: Plan, source_sql: str | None = None, cache_note: str | None = None
) -> Relation:
    """The EXPLAIN PREFERENCE result for one plan."""
    rows: list[tuple[str, str]] = []

    def add(item: str, detail: object) -> None:
        rows.append((item, str(detail)))

    if source_sql is not None:
        add("statement", source_sql)
    label = STRATEGY_TABLE[plan.strategy].label
    add("strategy", f"{plan.strategy} — {label}" + (" [forced]" if plan.forced else ""))
    if plan.preference_sql:
        add("preference", plan.preference_sql)
        add("dimensions", plan.dimensions)
    if plan.semantic_rule is not None:
        add("semantic rewrite", plan.semantic_rule)
        add("constraints used", ", ".join(plan.semantic_constraints))
    if plan.session_match is not None:
        add("refinement relation", plan.session_match.relation)
    reuse = plan.stage(Reuse)
    if reuse is not None:
        detail = f"re-winnow {len(reuse.match.entry.winners)} cached winners"
        detail += " ∪ delta" if reuse.delta_sql else " (no delta scan)"
        add("session reuse", detail)
        if reuse.delta_sql:
            add("delta SQL", reuse.delta_sql)
    if plan.table:
        add("table", plan.table)
    if plan.join_tables:
        add("join tables", ", ".join(plan.join_tables))
        add("join cardinality (est)", f"{plan.candidate_estimate:.0f}")
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
    if plan.stages:
        add("candidates (est)", f"{plan.candidate_estimate:.0f}")
        add("maximal set (est)", f"{plan.skyline_estimate:.0f}")
    scan = plan.stage(Scan)
    if scan is not None and plan.rank_source is not None:
        label = _RANK_SOURCE_LABELS[plan.rank_source]
        if scan.rank_width:
            label += f" ({scan.rank_width} rank columns)"
        add("rank source", label)
        add("columnar", plan.columnar or "no")
    for name in STRATEGY_TABLE:
        estimate = plan.estimates.get(name)
        if estimate is None:
            continue
        chosen = "  <- chosen" if name == plan.strategy else ""
        add(f"cost: {name}", f"{estimate.milliseconds:.2f} ms{chosen}")
    chosen_cost = plan.chosen_cost
    if chosen_cost is not None:
        for label_, seconds in chosen_cost.steps:
            add(f"step: {label_}", f"{seconds * 1000:.2f} ms")
    rewritten_sql = plan.rewritten_sql
    if rewritten_sql:
        add("rewritten SQL", rewritten_sql)
    if scan is not None:
        add("pushdown SQL", scan.sql)
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

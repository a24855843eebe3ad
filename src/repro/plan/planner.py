"""Cost-based selection between the NOT EXISTS rewrite and in-memory skylines.

This is the seam between the Preference SQL Optimizer (:mod:`repro.rewrite`)
and the two execution paths the repo has had since the seed: the paper's
rewrite executed by the host database, and the in-memory BMO engine with
its skyline algorithms.  The paper notes that dedicated skyline algorithms
"clearly hold much promise for additional speed-ups" (section 3.3); here
the choice is made per query from cheap table statistics instead of a
hardcoded string argument.

:func:`plan_statement` produces a :class:`Plan` that fully describes one
execution: the chosen strategy, the cost estimates of every candidate, the
rewritten statement (always built — it is both the ``rewrite`` execution
text and the EXPLAIN PREFERENCE exhibit, printed when first read) and, for
in-memory strategies, the
hard-condition *pushdown* query plus the *residual* preference block the
engine evaluates over the fetched candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.deadline import active_deadline
from repro.engine.columns import rank_shape
from repro.errors import (
    CatalogError,
    PlanError,
    PreferenceConstructionError,
    RewriteError,
)
from repro.model.builder import NameResolver, build_preference
from repro.model.preference import Preference
from repro.model.quality import QUALITY_FUNCTIONS
from repro.plan.cost import (
    DEFAULT_COST_MODEL,
    IN_MEMORY_STRATEGIES,
    SESSION_STRATEGY,
    STRATEGIES,
    CostEstimate,
    CostModel,
    choose_rank_source,
    choose_strategy,
    estimate_costs,
    estimate_selectivity,
    estimate_skyline_size,
    semantic_pass_estimate,
    session_reuse_estimate,
)
from repro.plan.joins import (
    JoinScan,
    build_join_scan,
    estimation_predicate,
    join_memory_parts,
)
from repro.plan.pivot import ranked_scan_sql
from repro.plan.semantic import (
    ConstraintProvider,
    SemanticRewrite,
    semantic_rewrite,
)
from repro.plan.session import SessionMatch
from repro.plan.statistics import TableStatistics
from repro.rewrite.levels import pushdown_rank_expressions
from repro.rewrite.planner import (
    Schema,
    pref_expressions,
    rewrite_statement,
)
from repro.sql import ast
from repro.sql.printer import quote_identifier, to_sql

#: Provider signature: (table, columns needing distinct counts) → stats.
StatisticsProvider = Callable[[str, Sequence[str]], TableStatistics]

#: Row-count guess when no statistics provider is available.
_DEFAULT_ROW_ESTIMATE = 1000


@dataclass(frozen=True)
class MaterializedView:
    """A materialized preference view the planner may answer from.

    Produced by the driver's view matcher
    (:meth:`repro.engine.incremental.ViewMaintainer.match`); the planner
    only needs the backing table to scan and the maintenance verdict for
    the EXPLAIN PREFERENCE report.
    """

    name: str
    backing_table: str
    maintainable: bool
    reason: str = ""


#: Matcher signature: SELECT statement → matching view, or None.
ViewMatcher = Callable[[ast.Select], MaterializedView | None]

#: Session matcher signature: (parameter-bound) SELECT → the judgment
#: against the connection's session cache, or None.  Provided by the
#: driver (:meth:`repro.driver.Connection._session_matcher`).
SessionMatcher = Callable[[ast.Select], SessionMatch | None]


@dataclass
class Plan:
    """One fully-described execution of a preference statement."""

    statement: ast.Statement
    strategy: str  # 'passthrough' | 'rewrite' | 'bnl' | 'session' | 'view'
    #: The host SQL of the ``rewrite`` strategy, read as ``rewritten_sql``.
    #: The rewriter's statement is printed on first read: most plans run
    #: another strategy and only EXPLAIN shows it.
    rewritten: ast.Statement | str | None = None
    pushdown_sql: str | None = None
    residual: ast.Select | None = None
    estimates: dict[str, CostEstimate] = field(default_factory=dict)
    statistics: TableStatistics | None = None
    table: str | None = None
    candidate_estimate: float = 0.0
    skyline_estimate: float = 0.0
    dimensions: int = 0
    preference_sql: str | None = None
    notes: list[str] = field(default_factory=list)
    forced: bool = False
    #: Set when the query is answered from a materialized preference
    #: view: the view's name and a human-readable description of how the
    #: driver keeps the materialization fresh under DML.
    view_name: str | None = None
    view_maintenance: str | None = None
    #: Columnar execution shape of the in-memory strategies: how the rank
    #: columns are obtained (``'sql'`` pushdown / ``'python'`` /
    #: ``'closure'`` fallback, None for host-only plans), how many rank
    #: columns the pushdown scan appends, and the kernel the comparisons
    #: run through (a human-readable label for EXPLAIN PREFERENCE).
    rank_source: str | None = None
    rank_width: int = 0
    columnar: str | None = None
    #: Join-aware plan shape: the joined base tables in FROM order
    #: (display form ``table AS binding``, empty for single-table plans).
    join_tables: tuple[str, ...] = ()
    #: Semantic-optimization outcome (see :mod:`repro.plan.semantic`):
    #: the fired rule's label and the integrity constraints — with
    #: their declared/schema/observed provenance — that justified it.
    semantic_rule: str | None = None
    semantic_constraints: tuple[str, ...] = ()
    #: Session-reuse judgment (see :mod:`repro.plan.session`): set
    #: whenever the connection's session cache held a related entry —
    #: servable or not, so EXPLAIN can surface the refinement relation
    #: either way.  ``session_delta_sql`` is the bounded delta scan of a
    #: chosen session plan (None when the old candidate set contains the
    #: new one).
    session_match: SessionMatch | None = None
    session_delta_sql: str | None = None

    @property
    def rewritten_sql(self) -> str | None:
        # Cached plans are shared between threads: read the field once, so
        # a concurrent first read can only store the same text again.
        rewritten = self.rewritten
        if isinstance(rewritten, ast.Node):
            rewritten = self.rewritten = to_sql(rewritten)
        return rewritten

    @property
    def uses_engine(self) -> bool:
        """True when the strategy evaluates in-memory after a pushdown."""
        return self.strategy in IN_MEMORY_STRATEGIES

    @property
    def prejoin_scan_sql(self) -> str | None:
        # Always None, and not a field: ``benchmark/tracing.py`` still
        # reads it; the ROADMAP's ``benchmark/``-only chores change
        # removes it.
        return None

    @property
    def host_sql(self) -> str | None:
        """The first statement this plan sends to the host — the value
        ``Cursor.executed_sql`` gets.  None for pass-through and for a
        session hit without a delta scan (nothing goes to the host)."""
        if self.strategy == "passthrough":
            return None
        if self.strategy == SESSION_STRATEGY:
            return self.session_delta_sql
        return self.pushdown_sql or self.rewritten_sql

    @property
    def chosen_cost(self) -> CostEstimate | None:
        return self.estimates.get(self.strategy)


def plan_statement(
    statement: ast.Statement,
    schema: Schema | None = None,
    resolver: NameResolver | None = None,
    statistics: StatisticsProvider | None = None,
    model: CostModel = DEFAULT_COST_MODEL,
    force: str | None = None,
    views: ViewMatcher | None = None,
    constraints: ConstraintProvider | None = None,
    session: SessionMatcher | None = None,
) -> Plan:
    """Plan one (parameter-bound) statement.

    ``force`` pins the strategy (benchmarks and differential tests);
    forcing an in-memory strategy on an ineligible statement raises
    :class:`~repro.errors.PlanError`.  ``views`` lets the planner
    answer a matching preference query from a materialized view's
    backing table (skipped whenever a strategy is forced, so pinned
    executions always compute from the base tables).  ``constraints``
    enables the semantic-optimization pass (also skipped under
    ``force``, so pinned executions evaluate the original preference).
    ``session`` consults the connection's session cache for a previous
    winner base this query provably refines — a servable match adds a
    ``session`` strategy to the priced candidates (and suppresses the
    semantic pass, whose rewritten statement would no longer line up
    with the cached entry's canonical form).
    """
    deadline = active_deadline()
    if deadline is not None:
        deadline.check()
    if isinstance(statement, ast.ExplainPreference):
        statement = statement.statement

    if (
        views is not None
        and force is None
        and isinstance(statement, ast.Select)
        and statement.preferring is not None
    ):
        hit = views(statement)
        if hit is not None:
            return _view_plan(statement, hit, statistics)

    session_match: SessionMatch | None = None
    if (
        session is not None
        and force is None
        and isinstance(statement, ast.Select)
        and statement.preferring is not None
    ):
        session_match = session(statement)

    semantic: SemanticRewrite | None = None
    if (
        constraints is not None
        and force is None
        and isinstance(statement, ast.Select)
        and statement.preferring is not None
        and (session_match is None or not session_match.servable)
    ):
        semantic = _try_semantic(statement, resolver, constraints)
        if semantic is not None:
            if semantic.select.preferring is None:
                # Winnow eliminated entirely: nothing left to price.
                return _winnow_free_plan(semantic, statistics, model)
            statement = semantic.select

    result = rewrite_statement(statement, schema=schema, resolver=resolver)
    if not result.rewritten:
        return Plan(statement=statement, strategy="passthrough")

    select = statement.query if isinstance(statement, ast.Insert) else statement
    preference = result.preference
    bases = list(preference.iter_base())
    dimensions = len(bases)
    notes = list(result.notes)
    rewritten: ast.Statement | str = result.statement

    table, join_scan, ineligible_reason = _scan_shape(statement, select, schema)
    in_memory = table is not None or join_scan is not None
    if not in_memory:
        notes.append(f"host-only: {ineligible_reason}")

    # Comma-join lists carry the join predicate in WHERE, JOIN syntax in
    # the ON clause; estimation folds both into one conjunction so the
    # two spellings of the same query price identically.
    predicate = estimation_predicate(select)

    stats: TableStatistics | None = None
    join_stats: dict[str, TableStatistics] = {}
    if statistics is not None:
        if table is not None:
            try:
                stats = statistics(
                    table, _statistics_columns(select, bases, predicate)
                )
            except PlanError as error:
                notes.append(f"statistics unavailable: {error}")
        elif join_scan is not None:
            wanted = _join_statistics_columns(join_scan, select, bases, predicate)
            try:
                for source in join_scan.sources:
                    join_stats[source.binding.lower()] = statistics(
                        source.table, wanted.get(source.binding.lower(), ())
                    )
            except PlanError as error:
                join_stats = {}
                notes.append(f"statistics unavailable: {error}")

    if stats is not None:
        row_count = float(stats.row_count)
        lookup = _binding_lookup(stats, _single_binding(select))
    elif join_stats:
        # Join cardinality composes from per-table statistics: the
        # cross-product of the base row counts, cut down below by the
        # selectivity of the combined join/WHERE predicate.
        row_count = 1.0
        for source in join_scan.sources:
            row_count *= float(join_stats[source.binding.lower()].row_count)
        lookup = _join_lookup(join_scan, join_stats)
    else:
        row_count = float(_DEFAULT_ROW_ESTIMATE)
        lookup = lambda _name: None  # noqa: E731 - trivial fallback
        notes.append(f"no statistics; assuming {_DEFAULT_ROW_ESTIMATE} rows")

    selectivity = estimate_selectivity(predicate, lookup)
    candidates = max(1.0, row_count * selectivity) if row_count else 0.0
    distinct_counts = [
        lookup(base.operands[0].qualified)
        if base.operands and isinstance(base.operands[0], ast.Column)
        else None
        for base in bases
    ]
    skyline = estimate_skyline_size(candidates, dimensions, distinct_counts)
    include = STRATEGIES if in_memory else ("rewrite",)
    probe = _probe_ranks(select, resolver) if in_memory else None
    rank_source = (
        choose_rank_source(
            candidates,
            dimensions,
            probe.columnar,
            probe.sql_exprs is not None,
            model=model,
        )
        if probe is not None
        else None
    )
    estimates = estimate_costs(
        candidates,
        dimensions,
        distinct_counts,
        model=model,
        include=include,
        row_width=(
            sum(len(source.columns) for source in join_scan.sources)
            if join_scan is not None
            else _row_width(table, schema)
        ),
        columnar=probe.columnar if probe is not None else False,
        rank_source=rank_source,
    )
    if semantic is not None and semantic.single_pass_sql is not None:
        # The semantic single pass takes over the 'rewrite' slot: its SQL
        # replaces the NOT EXISTS text and the strategy is re-priced, so
        # the cost model weighs it against the in-memory skylines.
        rewritten = semantic.single_pass_sql
        estimates["rewrite"] = semantic_pass_estimate(
            candidates,
            1.0 if semantic.winners == "one" else skyline,
            semantic.sort_keys,
            semantic.scans,
            model=model,
        )

    if (
        session_match is not None
        and session_match.servable
        and table is not None
    ):
        delta_estimate = 0.0
        if session_match.delta_where is not None:
            delta_estimate = row_count * estimate_selectivity(
                session_match.delta_where, lookup
            )
        estimates[SESSION_STRATEGY] = session_reuse_estimate(
            winners=float(len(session_match.entry.winners)),
            delta=delta_estimate,
            table_rows=row_count,
            dimensions=dimensions,
            distinct_counts=distinct_counts,
            model=model,
            delta_scan=session_match.delta_where is not None,
            row_width=_row_width(table, schema),
        )

    if force is not None:
        if force not in STRATEGIES:
            raise PlanError(
                f"unknown strategy {force!r}; choose from {', '.join(STRATEGIES)}"
            )
        if force in IN_MEMORY_STRATEGIES and not in_memory:
            raise PlanError(
                f"cannot force in-memory strategy {force!r}: {ineligible_reason}"
            )
        strategy = force
    else:
        strategy = choose_strategy(estimates)

    join_tables: tuple[str, ...] = ()
    if join_scan is not None:
        join_tables = tuple(
            _join_table_display(source, join_stats) for source in join_scan.sources
        )

    plan = Plan(
        statement=statement,
        strategy=strategy,
        rewritten=rewritten,
        estimates=estimates,
        statistics=stats,
        table=table,
        candidate_estimate=candidates,
        skyline_estimate=skyline,
        dimensions=dimensions,
        preference_sql=to_sql(select.preferring),
        notes=notes,
        forced=force is not None,
        rank_source=rank_source,
        columnar=probe.label if probe is not None else None,
        join_tables=join_tables,
    )
    if semantic is not None:
        plan.semantic_rule = semantic.rule
        plan.semantic_constraints = semantic.constraints_used
        plan.preference_sql = semantic.original_preference
        if semantic.original_dimensions != dimensions:
            plan.notes.append(
                "semantic reduction: PREFERRING "
                + to_sql(semantic.select.preferring)
            )
    if session_match is not None:
        plan.session_match = session_match
        if strategy == SESSION_STRATEGY:
            # The residual is the original query block over the cached
            # winner base ∪ delta; no pushdown scan runs, so
            # ``pushdown_sql`` stays None and rank columns (which only
            # pay off on large scans) are recomputed in Python over the
            # small re-winnow input.
            _pushdown, plan.residual, _width = in_memory_parts(select, resolver)
            if session_match.delta_select is not None:
                plan.session_delta_sql = to_sql(session_match.delta_select)
            plan.notes.append(
                "answered from the session cache: " + session_match.relation
            )
    rank_exprs = (
        probe.sql_exprs
        if probe is not None and rank_source == "sql"
        else None
    )
    if plan.uses_engine:
        if join_scan is not None:
            plan.pushdown_sql, plan.residual, plan.rank_width = join_memory_parts(
                select,
                join_scan,
                resolver,
                rank_exprs=rank_exprs,
                preference=probe.preference,
            )
        else:
            plan.pushdown_sql, plan.residual, plan.rank_width = in_memory_parts(
                select,
                resolver,
                rank_exprs=rank_exprs,
                preference=probe.preference,
                schema=schema,
            )
    return plan


def _try_semantic(
    statement: ast.Select,
    resolver: NameResolver | None,
    constraints: ConstraintProvider,
) -> SemanticRewrite | None:
    """Run the semantic pass; analysis failures never fail planning."""
    term = statement.preferring
    try:
        if resolver is not None:
            term = inline_named_preferences(term, resolver)
        return semantic_rewrite(statement, term, constraints)
    except (CatalogError, PlanError, PreferenceConstructionError, RewriteError):
        return None


def _winnow_free_plan(
    semantic: SemanticRewrite,
    statistics: StatisticsProvider | None,
    model: CostModel,
) -> Plan:
    """A plan whose winnow the constraints eliminated entirely.

    The statement left over is plain SQL; it executes through the
    ``rewrite`` strategy (the host runs ``rewritten_sql`` verbatim).
    """
    select = semantic.select
    source = select.sources[0]
    assert isinstance(source, ast.TableRef)
    table = source.name.lower()
    stats: TableStatistics | None = None
    notes: list[str] = []
    if statistics is not None:
        try:
            stats = statistics(table, ())
        except PlanError as error:
            notes.append(f"statistics unavailable: {error}")
    if stats is not None:
        row_count = float(stats.row_count)
        lookup = _binding_lookup(stats, _single_binding(select))
    else:
        row_count = float(_DEFAULT_ROW_ESTIMATE)
        lookup = lambda _name: None  # noqa: E731 - trivial fallback
    selectivity = estimate_selectivity(select.where, lookup)
    candidates = max(1.0, row_count * selectivity) if row_count else 0.0
    winners = 1.0 if semantic.winners == "one" else candidates
    estimate = semantic_pass_estimate(candidates, winners, 0, 1, model=model)
    return Plan(
        statement=select,
        strategy="rewrite",
        rewritten=semantic.single_pass_sql,
        estimates={"rewrite": estimate},
        statistics=stats,
        table=table,
        candidate_estimate=candidates,
        skyline_estimate=winners,
        dimensions=semantic.original_dimensions,
        preference_sql=semantic.original_preference,
        notes=notes,
        semantic_rule=semantic.rule,
        semantic_constraints=semantic.constraints_used,
    )


def _view_plan(
    statement: ast.Select,
    hit: MaterializedView,
    statistics: StatisticsProvider | None,
) -> Plan:
    """A plan that scans a materialized view's backing table."""
    stats: TableStatistics | None = None
    row_count = 0.0
    if statistics is not None:
        try:
            stats = statistics(hit.backing_table, ())
            row_count = float(stats.row_count)
        except PlanError:  # pragma: no cover - backing table just created
            stats = None
    maintenance = (
        "incremental (insert dominance test, bounded re-derivation on "
        "member deletes)"
        if hit.maintainable
        else f"full recompute ({hit.reason})"
    )
    return Plan(
        statement=statement,
        strategy="view",
        rewritten=f"SELECT * FROM {quote_identifier(hit.backing_table)}",
        statistics=stats,
        table=hit.backing_table,
        candidate_estimate=row_count,
        skyline_estimate=row_count,
        dimensions=len(ast.base_terms(statement.preferring)),
        preference_sql=to_sql(statement.preferring),
        notes=[f"answered from materialized preference view {hit.name!r}"],
        view_name=hit.name,
        view_maintenance=maintenance,
    )


def rebind_plan(
    plan: Plan,
    statement: ast.Statement,
    schema: Schema | None = None,
    resolver: NameResolver | None = None,
) -> Plan:
    """Reuse a cached strategy decision for a freshly parameter-bound
    statement, regenerating only the SQL texts (the rewrite embeds the
    bound literals, so they are per-execution)."""
    if plan.semantic_rule is not None:
        # Semantic SQL depends on the constraint analysis, not just the
        # bound literals; the driver re-plans instead of rebinding.
        raise PlanError("semantic plans must be re-planned, not rebound")
    if plan.strategy == SESSION_STRATEGY:
        # A session plan is only valid against the exact cached entry it
        # was matched with; the driver never caches one (it stores the
        # parsed statement with ``plan=None``), so reaching here means a
        # stale-serve bug upstream.
        raise PlanError("session-reuse plans must be re-planned, not rebound")
    if plan.strategy == "passthrough":
        return plan
    if plan.strategy == "view":
        # View scans carry no bound parameters (a parameterized text can
        # never equal a stored definition); keep the scan as-is.
        return replace(plan, statement=statement)
    if plan.uses_engine:
        select = statement.query if isinstance(statement, ast.Insert) else statement
        rank_exprs = preference = None
        if plan.rank_width:
            # The rank expressions embed bound literals (AROUND targets,
            # bucket values), so they are re-derived per execution.
            probe = _probe_ranks(select, resolver)
            rank_exprs, preference = probe.sql_exprs, probe.preference
        if plan.join_tables:
            scan, reason = build_join_scan(select, schema)
            if scan is None:  # pragma: no cover - the cached plan proved it
                raise PlanError(f"cannot rebind join plan: {reason}")
            pushdown_sql, residual, rank_width = join_memory_parts(
                select, scan, resolver, rank_exprs=rank_exprs, preference=preference
            )
        else:
            pushdown_sql, residual, rank_width = in_memory_parts(
                select,
                resolver,
                rank_exprs=rank_exprs,
                preference=preference,
                schema=schema,
            )
        return replace(
            plan,
            statement=statement,
            pushdown_sql=pushdown_sql,
            residual=residual,
            rank_width=rank_width,
        )
    result = rewrite_statement(statement, schema=schema, resolver=resolver)
    return replace(plan, statement=statement, rewritten=result.statement)


@dataclass(frozen=True)
class _RankProbe:
    """Columnar/pushdown eligibility of one query's preference tree.

    ``columnar`` — every base is rank-based, so the engine can run the
    columnar kernels (or compiled closures over shared rank columns for
    mixed nesting); ``sql_exprs`` — the per-base rank expressions the
    pushdown would append to the scan SELECT, None when any base has no
    SQL rank form; ``label`` — the kernel description for EXPLAIN.
    """

    preference: Preference | None
    columnar: bool
    mode: str | None
    sql_exprs: tuple[ast.Expr, ...] | None

    @property
    def label(self) -> str:
        if not self.columnar:
            return "no — per-pair closures (EXPLICIT/custom preference)"
        if self.mode == "pareto":
            return "pareto rank tuples"
        if self.mode == "cascade":
            return "cascade rank tuples"
        return "compiled closures over shared rank columns"


def _probe_ranks(
    select: ast.Select, resolver: NameResolver | None
) -> _RankProbe:
    """Inspect the preference the in-memory engine would evaluate.

    Builds the *residual* preference (named references inlined, no
    normalisation — exactly what the engine builds), so the emitted rank
    expressions line up one-to-one with the engine's base preferences.
    """
    term = select.preferring
    if term is None:
        return _RankProbe(None, False, None, None)
    try:
        if resolver is not None:
            term = inline_named_preferences(term, resolver)
        preference = build_preference(term)
    except (PlanError, PreferenceConstructionError):
        return _RankProbe(None, False, None, None)
    shape = rank_shape(preference)
    if shape is None:
        return _RankProbe(preference, False, None, None)
    return _RankProbe(
        preference, True, shape.mode, pushdown_rank_expressions(preference)
    )


def in_memory_parts(
    select: ast.Select,
    resolver: NameResolver | None = None,
    rank_exprs: Sequence[ast.Expr] | None = None,
    preference: Preference | None = None,
    schema: Schema | None = None,
) -> tuple[str, ast.Select, int]:
    """Split one SELECT into (pushdown SQL, residual block, rank width).

    The pushdown ships the hard conditions to the host database —
    ``SELECT * FROM <source> WHERE <original WHERE>`` — and the residual is
    the same query block with the WHERE consumed, evaluated by the
    in-memory engine over the fetched candidates.  Named preferences are
    inlined so the engine never needs catalog access.

    ``rank_exprs`` (the SQL rank pushdown) appends one aliased rank
    expression per base preference of ``preference`` to the scan's select
    list, so the host database returns ready-made rank columns; the
    returned width counts them (0 without pushdown).  With them the scan
    ships only the candidates one pivot row per GROUPING partition does
    not beat (:mod:`repro.plan.pivot`); ``schema`` names the table's
    columns, which the rank columns are named apart from.
    """
    pushdown = ranked_scan_sql(
        select,
        (ast.Star(),),
        _table_columns(select.sources[0].name, schema),
        [column.name for column in select.grouping],
        rank_exprs,
        preference,
    )
    term = select.preferring
    if term is not None and resolver is not None:
        term = inline_named_preferences(term, resolver)
    residual = replace(select, where=None, preferring=term)
    return pushdown, residual, len(rank_exprs or ())


def inline_named_preferences(
    term: ast.PrefTerm, resolver: NameResolver, _seen: tuple[str, ...] = ()
) -> ast.PrefTerm:
    """Replace every ``PREFERENCE name`` reference by its definition."""
    if isinstance(term, ast.NamedPref):
        key = term.name.lower()
        if key in _seen:
            raise PlanError(f"cyclic preference definition {term.name!r}")
        return inline_named_preferences(resolver(term.name), resolver, _seen + (key,))
    if isinstance(term, (ast.ParetoPref, ast.CascadePref, ast.ElsePref)):
        parts = tuple(
            inline_named_preferences(part, resolver, _seen) for part in term.parts
        )
        return type(term)(parts=parts)
    return term


def _table_columns(table: str | None, schema: Schema | None) -> Sequence[str] | None:
    """Column names of the candidate table, when the schema knows it."""
    if table is None or not schema:
        return None
    for name, columns in schema.items():
        if name.lower() == table.lower():
            return columns
    return None


def _row_width(table: str | None, schema: Schema | None) -> int | None:
    """Column count of the candidate table, when the schema knows it."""
    columns = _table_columns(table, schema)
    return None if columns is None else len(columns)


# ----------------------------------------------------------------------
# Eligibility and statistics wishlist


def _surface_ineligibility(
    statement: ast.Statement, select: ast.Select
) -> str:
    """Why a statement cannot run in memory regardless of its FROM shape."""
    if isinstance(statement, ast.Insert):
        return "INSERT materialises its result on the host database"

    surface: list[ast.Expr] = [
        item.expr for item in select.items if isinstance(item, ast.SelectItem)
    ]
    surface.extend(order_item.expr for order_item in select.order_by)
    for expr in surface:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.FuncCall) and node.name in QUALITY_FUNCTIONS:
                return "quality-function adornments keep host-database result types"

    everywhere = list(surface)
    if select.but_only is not None:
        everywhere.append(select.but_only)
    for clause in (select.limit, select.offset):
        if clause is not None:
            everywhere.append(clause)
    if select.preferring is not None:
        for term in ast.walk_pref(select.preferring):
            everywhere.extend(pref_expressions(term))
    for expr in everywhere:
        for node in ast.walk_expr(expr):
            if isinstance(node, (ast.InSubquery, ast.Exists, ast.ScalarSubquery)):
                return "sub-queries outside WHERE need the host database"
    return ""


def _scan_shape(
    statement: ast.Statement, select: ast.Select, schema: Schema | None
) -> tuple[str | None, JoinScan | None, str]:
    """Resolve the in-memory scan shape: a single table, a join, or neither.

    Returns ``(table, join_scan, reason)`` — exactly one of the first two
    is set for an in-memory-eligible statement; otherwise both are None
    and ``reason`` says why the plan is host-only.
    """
    reason = _surface_ineligibility(statement, select)
    if reason:
        return None, None, reason
    if len(select.sources) == 1 and isinstance(select.sources[0], ast.TableRef):
        return select.sources[0].name, None, ""
    scan, join_reason = build_join_scan(select, schema)
    if scan is None:
        return None, None, join_reason
    return None, scan, ""


def _single_binding(select: ast.Select) -> str | None:
    """The visible binding of a single-table FROM, or None."""
    if len(select.sources) == 1 and isinstance(select.sources[0], ast.TableRef):
        return select.sources[0].binding
    return None


def _binding_lookup(stats: TableStatistics, binding: str | None):
    """Distinct-count lookup accepting qualified and bare column keys."""
    key = binding.lower() if binding else None

    def lookup(name: str) -> int | None:
        qualifier, _, column = name.rpartition(".")
        if qualifier and key is not None and qualifier.lower() != key:
            return None
        return stats.distinct_count(column)

    return lookup


def _join_lookup(scan: JoinScan, join_stats: dict[str, TableStatistics]):
    """Distinct-count lookup attributing columns across joined tables."""

    def lookup(name: str) -> int | None:
        qualifier, _, column = name.rpartition(".")
        if qualifier:
            binding = qualifier.lower()
            if binding not in join_stats:
                return None
        else:
            owner = scan.owners.get(column.lower())
            if owner is None:
                return None
            binding = owner.lower()
        stats = join_stats.get(binding)
        return stats.distinct_count(column) if stats is not None else None

    return lookup


def _join_table_display(source, join_stats: dict[str, TableStatistics]) -> str:
    """One EXPLAIN-able ``table AS binding (n rows)`` entry."""
    label = source.table
    if source.binding.lower() != source.table.lower():
        label += f" AS {source.binding}"
    stats = join_stats.get(source.binding.lower())
    if stats is not None:
        label += f" ({stats.row_count} rows)"
    return label


def _statistics_columns(
    select: ast.Select, bases: Sequence, predicate: ast.Expr | None
) -> list[str]:
    """Columns worth a distinct count: preference operands and predicate
    columns (WHERE plus any JOIN … ON conditions)."""
    columns: list[str] = []
    seen: set[str] = set()

    def add(name: str) -> None:
        key = name.lower()
        if key not in seen:
            seen.add(key)
            columns.append(name)

    for base in bases:
        if base.operands and isinstance(base.operands[0], ast.Column):
            add(base.operands[0].name)
    if predicate is not None:
        for node in ast.walk_expr(predicate):
            if isinstance(node, ast.Column):
                add(node.name)
    for expr in select.grouping:
        if isinstance(expr, ast.Column):
            add(expr.name)
    return columns


def _join_statistics_columns(
    scan: JoinScan,
    select: ast.Select,
    bases: Sequence,
    predicate: ast.Expr | None,
) -> dict[str, list[str]]:
    """Per-binding distinct-count wishlist for a join scan."""
    wanted: dict[str, list[str]] = {}
    seen: set[tuple[str, str]] = set()

    def add(column: ast.Column) -> None:
        try:
            binding = scan.owner_of(column).lower()
        except PlanError:
            return
        key = (binding, column.name.lower())
        if key not in seen:
            seen.add(key)
            wanted.setdefault(binding, []).append(column.name)

    for base in bases:
        if base.operands and isinstance(base.operands[0], ast.Column):
            add(base.operands[0])
    if predicate is not None:
        for node in ast.walk_expr(predicate):
            if isinstance(node, ast.Column):
                add(node)
    for expr in select.grouping:
        add(expr)
    return wanted

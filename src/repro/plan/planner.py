"""Cost-based selection between the NOT EXISTS rewrite and in-memory skylines.

This is the seam between the Preference SQL Optimizer (:mod:`repro.rewrite`)
and the two execution paths the repo has had since the seed: the paper's
rewrite executed by the host database, and the in-memory BMO engine with
its skyline algorithms.  The paper notes that dedicated skyline algorithms
"clearly hold much promise for additional speed-ups" (section 3.3); here
the choice is made per query from cheap table statistics instead of a
hardcoded string argument.

:func:`plan_statement` produces a :class:`Plan`: the chosen strategy, the
cost estimates of every candidate and the *stages* that execute it
(:mod:`repro.engine.bmo`: a host statement, or a scan and a winnow).
Each strategy is one entry of :data:`STRATEGY_TABLE`, whose ``build`` makes
those stages; every plan is made through it, and a cached plan is rebound
to new parameters by running its build again (:func:`rebind_plan`).
What only EXPLAIN PREFERENCE shows is derived when it is read.  A plan
never depends on the session cache; :func:`with_session` prices the
session strategy on top of it, per execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

from repro.deadline import active_deadline
from repro.engine.bmo import Host, Reuse, Scan, Winnow
from repro.engine.columns import rank_shape
from repro.errors import (
    CatalogError,
    PlanError,
    PreferenceConstructionError,
    RewriteError,
)
from repro.model.algebra import normalize
from repro.model.builder import NameResolver, build_preference
from repro.model.preference import Preference
from repro.model.quality import QUALITY_FUNCTIONS
from repro.plan.cost import (
    SESSION_STRATEGY,
    CostEstimate,
    Shape,
    bnl_estimate,
    choose_rank_source,
    estimate_selectivity,
    estimate_skyline_size,
    rewrite_estimate,
    semantic_pass_estimate,
    session_reuse_estimate,
)
from repro.plan.joins import (
    JoinScan,
    build_join_scan,
    estimation_predicate,
    join_memory_parts,
)
from repro.plan.pivot import PIVOT_MIN_ROWS, ranked_scan_sql
from repro.plan.semantic import (
    ConstraintProvider,
    SemanticRewrite,
    semantic_rewrite,
)
from repro.plan.session import SessionMatch, conjoin
from repro.plan.statistics import TableStatistics
from repro.rewrite.levels import pushdown_rank_expressions
from repro.rewrite.planner import (
    RewriteResult,
    Schema,
    prepare_preference,
    rewrite_statement,
)
from repro.sql import ast
from repro.sql.printer import to_sql

#: Provider signature: (table, columns needing distinct counts) → stats.
StatisticsProvider = Callable[[str, Sequence[str]], TableStatistics]

#: Row-count guess when no statistics provider is available.
_DEFAULT_ROW_ESTIMATE = 1000


@dataclass(frozen=True)
class Decisions:
    """What planning decided and found that no build recomputes: a forced
    strategy, the semantic outcome, the session judgment (servable or
    not, for EXPLAIN), the notes, the scan shape (``table``: one
    in-memory table; ``join_tables``: ``table AS binding (n rows)``), the
    estimates, the rank source priced for the in-memory winnow
    (:func:`~repro.plan.cost.choose_rank_source`; None when the statement
    cannot run in memory), the rewriter's statement, which only
    EXPLAIN shows unless the plan runs it, and a join's statistics,
    one entry per source (:attr:`Plan.sources`)."""

    forced: bool = False
    semantic: SemanticRewrite | None = None
    session: SessionMatch | None = None
    notes: tuple[str, ...] = ()
    table: str | None = None
    join_tables: tuple[str, ...] = ()
    candidates: float = 0.0
    skyline: float = 0.0
    dimensions: int = 0
    rank_source: str | None = None
    rewrite: ast.Statement | str | None = None
    join_statistics: tuple[TableStatistics, ...] = ()


def _staged(kind: type, name: str, default=None) -> property:
    """A plan attribute read off its first stage of type ``kind``."""
    return property(lambda plan: getattr(plan.stage(kind), name, default))


def _decided(name: str) -> property:
    """A plan attribute read off its :class:`Decisions`."""
    return property(lambda plan: getattr(plan.decisions, name))


@dataclass(frozen=True)
class Plan:
    """One fully-described execution of a preference statement: its
    ``stages`` (none for pass-through) run through
    :func:`repro.engine.bmo.run`.  Plans are shared between pooled
    threads through the plan cache, so they are never changed in place.
    """

    statement: ast.Statement
    strategy: str  # a key of STRATEGY_TABLE
    stages: tuple = ()
    estimates: dict[str, CostEstimate] = field(default_factory=dict)
    statistics: TableStatistics | None = None
    decisions: Decisions = Decisions()

    def stage(self, kind: type):
        """The first stage of type ``kind``, or None."""
        return next((stage for stage in self.stages if isinstance(stage, kind)), None)

    @property
    def host_sql(self) -> str | None:
        """The first statement this plan sends to the host — the value
        ``Cursor.executed_sql`` gets.  None for pass-through and for a
        session hit without a delta scan (nothing goes to the host)."""
        return next((s.sql for s in self.stages if s.sql is not None), None)

    @property
    def rewritten_sql(self) -> str | None:
        """The host SQL of the ``rewrite`` strategy (EXPLAIN's exhibit
        when another strategy runs)."""
        host = self.stage(Host)
        if host is not None:
            return host.sql
        rewrite = self.decisions.rewrite
        return to_sql(rewrite) if isinstance(rewrite, ast.Node) else rewrite

    @property
    def preference_sql(self) -> str | None:
        semantic, statement = self.decisions.semantic, self.statement
        if semantic is not None:
            return semantic.original_preference
        select = statement.query if isinstance(statement, ast.Insert) else statement
        term = getattr(select, "preferring", None)
        return to_sql(term) if term is not None and self.stages else None

    # Read-only views of the stages and decisions.
    pushdown_sql = _staged(Scan, "sql")
    rank_width = _staged(Scan, "rank_width", 0)
    residual = _staged(Winnow, "residual")
    session_delta_sql = _staged(Reuse, "delta_sql")
    pivot = _staged(Host, "pivot", False)
    uses_engine = property(lambda plan: plan.stage(Scan) is not None)
    forced = _decided("forced")
    notes = _decided("notes")
    table = _decided("table")
    join_tables = _decided("join_tables")
    candidate_estimate = _decided("candidates")
    skyline_estimate = _decided("skyline")
    dimensions = _decided("dimensions")
    rank_source = _decided("rank_source")
    session_match = _decided("session")
    semantic_rule = property(
        lambda plan: getattr(plan.decisions.semantic, "rule", None)
    )
    semantic_constraints = property(
        lambda plan: getattr(plan.decisions.semantic, "constraints_used", ())
    )
    columnar = property(  # the winnow's kernel, for EXPLAIN
        lambda plan: plan.residual and _probe_ranks(plan.residual, None).label
    )
    chosen_cost = property(lambda plan: plan.estimates.get(plan.strategy))

    @property
    def sources(self) -> tuple[TableStatistics, ...]:
        """The statistics of every table the plan was priced on, which
        the driver watches for drift; empty when none were gathered."""
        if self.decisions.join_statistics:
            return self.decisions.join_statistics
        return (self.statistics,) if self.statistics is not None else ()
    #: Always None: ``benchmark/tracing.py`` still reads it.
    prejoin_scan_sql = None


@dataclass(frozen=True)
class Build:
    """What a strategy's build reads besides the statement.  Planning
    hands it the ``rewritten`` result, ``probe`` and ``join_scan`` it
    already made; a rebind leaves them empty, to be made again, except a
    probe without SQL ranks when the cached scan appends none."""

    schema: Schema | None = None
    resolver: NameResolver | None = None
    statistics: TableStatistics | None = None
    decisions: Decisions = Decisions()
    rewritten: RewriteResult | None = None
    probe: "_RankProbe | None" = None
    join_scan: JoinScan | None = None


def _build_rewrite(statement: ast.Statement, build: Build) -> tuple:
    """One host statement: the semantic pass's single pass when it fired,
    else the NOT EXISTS rewrite, behind the rank-CTE pivot
    (:mod:`repro.plan.pivot`) on tables of at least
    :data:`~repro.plan.pivot.PIVOT_MIN_ROWS` rows."""
    semantic = build.decisions.semantic
    if semantic is not None and semantic.single_pass_sql is not None:
        return (Host(semantic.single_pass_sql),)
    rewritten = build.rewritten or rewrite_statement(
        statement,
        schema=build.schema,
        resolver=build.resolver,
        pivot=_wants_pivot(build.statistics),
    )
    return (Host(to_sql(rewritten.statement), pivot=rewritten.pivot),)


def _wants_pivot(stats: TableStatistics | None) -> bool:
    """Whether a rewrite asks for the rank-CTE pivot: only over a table
    with statistics of at least :data:`~repro.plan.pivot.PIVOT_MIN_ROWS`
    rows."""
    return stats is not None and stats.row_count >= PIVOT_MIN_ROWS


def _build_bnl(statement: ast.Statement, build: Build) -> tuple:
    """A pushdown scan of the candidates (SQL rank columns appended when
    every base has an SQL rank) and the in-memory winnow of the residual."""
    probe = build.probe or _probe_ranks(statement, build.resolver)
    if len(statement.sources) == 1 and isinstance(statement.sources[0], ast.TableRef):
        sql, residual, width = in_memory_parts(
            statement, build.resolver, probe.sql_exprs, probe.preference, build.schema
        )
    else:
        # Planning proved the join scan; a rebind builds it again.
        scan = build.join_scan or build_join_scan(statement, build.schema)[0]
        sql, residual, width = join_memory_parts(
            statement, scan, build.resolver, probe.sql_exprs, probe.preference
        )
    return (Scan(sql, width), Winnow(residual))


def _build_session(statement: ast.Select, build: Build) -> tuple:
    """The session cache's winner base plus the bounded delta rows,
    re-winnowed by the query block filtered by any added grouping-column
    conjuncts.  No pushdown scan runs, and rank columns (which only pay
    off on large scans) are recomputed in Python over the small input."""
    match = build.decisions.session
    delta = match.delta_select
    residual = _residual(statement, build.resolver)
    return (
        Reuse(match, to_sql(delta) if delta is not None else None),
        Winnow(replace(residual, where=conjoin(match.added))),
    )


@dataclass(frozen=True)
class Strategy:
    """One way to execute a statement: its EXPLAIN ``label``, the
    ``build`` of its stages and, for the strategies
    :func:`plan_statement` prices, the ``price`` of a
    :class:`~repro.plan.cost.Shape`; an ``in_memory`` strategy is
    eligible only when the statement can run in memory.  The session
    strategy has its own gate (:func:`with_session`)."""

    label: str
    build: Callable[[ast.Statement, Build], tuple]
    price: Callable[[Shape], CostEstimate] | None = None
    in_memory: bool = False


#: Every strategy by name, in tie-breaking order (also the order of the
#: ``cost:`` rows in EXPLAIN PREFERENCE).
STRATEGY_TABLE: dict[str, Strategy] = {
    "rewrite": Strategy(
        "NOT EXISTS rewrite on the host database", _build_rewrite, rewrite_estimate
    ),
    "bnl": Strategy(
        "in-memory winnow after hard-condition pushdown — sort-filter on "
        "flat Pareto ranks, minimum-bucket scan on flat cascades, window "
        "BNL otherwise",
        _build_bnl,
        bnl_estimate,
        in_memory=True,
    ),
    SESSION_STRATEGY: Strategy(
        "session reuse — re-winnow cached winners ∪ bounded delta", _build_session
    ),
    "passthrough": Strategy(
        "pass-through (no PREFERRING clause)", lambda statement, build: ()
    ),
}

#: The strategies :func:`plan_statement` prices and ``force`` accepts.
STRATEGIES: tuple[str, ...] = tuple(
    name for name, strategy in STRATEGY_TABLE.items() if strategy.price is not None
)

#: The priced strategies that evaluate the BMO set in Python after a pushdown.
IN_MEMORY_STRATEGIES: tuple[str, ...] = tuple(
    name for name in STRATEGIES if STRATEGY_TABLE[name].in_memory
)


def choose_strategy(estimates: Mapping[str, CostEstimate]) -> str:
    """The cheapest strategy; ties break in :data:`STRATEGY_TABLE` order."""
    if not estimates:
        raise PlanError("no cost estimates to choose from")
    order = list(STRATEGY_TABLE)
    return min(estimates, key=lambda name: (estimates[name].seconds, order.index(name)))


def estimate_costs(
    candidates: float,
    dimensions: int,
    distinct_counts: Sequence[int | None] = (),
    include: Sequence[str] = STRATEGIES,
    row_width: int | None = None,
    rank_source: str | None = None,
) -> dict[str, CostEstimate]:
    """Price every strategy in ``include`` for the given input shape
    (:class:`~repro.plan.cost.Shape` says what each input means)."""
    shape = Shape(candidates, dimensions, tuple(distinct_counts), row_width, rank_source)
    return {name: STRATEGY_TABLE[name].price(shape) for name in include}


def plan_statement(
    statement: ast.Statement,
    schema: Schema | None = None,
    resolver: NameResolver | None = None,
    statistics: StatisticsProvider | None = None,
    force: str | None = None,
    constraints: ConstraintProvider | None = None,
) -> Plan:
    """Plan one (parameter-bound) statement.

    ``force`` pins the strategy (benchmarks and differential tests);
    forcing an in-memory strategy on an ineligible statement raises
    :class:`~repro.errors.PlanError`.  ``constraints`` enables the
    semantic-optimization pass (skipped under ``force``, so pinned
    executions evaluate the original preference).

    The result is the *base* plan: it never consults the session cache,
    so it stays valid while the cache's contents change and the driver
    caches it for every statement.  :func:`with_session` prices the
    session on top of it, per execution.
    """
    deadline = active_deadline()
    if deadline is not None:
        deadline.check()
    if isinstance(statement, ast.ExplainPreference):
        statement = statement.statement

    semantic: SemanticRewrite | None = None
    if (
        constraints is not None
        and force is None
        and isinstance(statement, ast.Select)
        and statement.preferring is not None
    ):
        semantic = _try_semantic(statement, resolver, constraints)
        if semantic is not None:
            if semantic.select.preferring is None:
                # Winnow eliminated entirely: nothing left to price.
                return _winnow_free_plan(semantic, statistics)
            statement = semantic.select

    select = statement.query if isinstance(statement, ast.Insert) else statement
    if not isinstance(select, ast.Select) or select.preferring is None:
        return Plan(statement=statement, strategy="passthrough")
    # Pricing needs only the preference; the rewrite is built once, after
    # the statistics decide its pivot.
    prepared = prepare_preference(select, resolver)
    preference = prepared[0]
    bases = list(preference.iter_base())
    dimensions = len(bases)
    notes: list[str] = []

    table, join_scan, ineligible_reason = _scan_shape(
        statement, select, preference, schema
    )
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

    if join_stats:
        # Join cardinality composes from per-table statistics: the
        # cross-product of the base row counts, cut down below by the
        # selectivity of the combined join/WHERE predicate.
        row_count = 1.0
        for source in join_scan.sources:
            row_count *= float(join_stats[source.binding.lower()].row_count)
        lookup = _join_lookup(join_scan, join_stats)
    else:
        row_count, lookup = _row_lookup(stats, select)
        if stats is None:
            notes.append(f"no statistics; assuming {_DEFAULT_ROW_ESTIMATE} rows")

    result = rewrite_statement(
        statement, schema, resolver, _wants_pivot(stats), prepared
    )
    notes[:0] = result.notes
    rewritten: ast.Statement | str = result.statement
    selectivity = estimate_selectivity(predicate, lookup)
    candidates = max(1.0, row_count * selectivity) if row_count else 0.0
    distinct_counts = _distinct_counts(bases, lookup)
    skyline = estimate_skyline_size(candidates, dimensions, distinct_counts)
    probe = _probe_ranks(select, resolver) if in_memory else None
    row_width = (
        sum(len(source.columns) for source in join_scan.sources)
        if join_scan is not None
        else _row_width(table, schema)
    )
    rank_source = (
        choose_rank_source(probe.columnar, probe.sql_exprs is not None)
        if probe is not None
        else None
    )
    include = [
        name for name in STRATEGIES if in_memory or name not in IN_MEMORY_STRATEGIES
    ]
    estimates = estimate_costs(
        candidates, dimensions, distinct_counts, include, row_width, rank_source
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
        )

    if force is not None:
        if force not in STRATEGIES:
            raise PlanError(
                f"unknown strategy {force!r}; choose from {', '.join(STRATEGIES)}"
            )
        if force not in include:
            raise PlanError(
                f"cannot force in-memory strategy {force!r}: {ineligible_reason}"
            )
        strategy = force
    else:
        strategy = choose_strategy(estimates)

    decided = Decisions(semantic=semantic)
    context = Build(schema, resolver, stats, decided, result, probe, join_scan)
    stages = STRATEGY_TABLE[strategy].build(statement, context)
    if isinstance(stages[0], Host):
        # The plan keeps the text it runs, not the rewriter's tree.
        rewritten = stages[0].sql
        if stages[0].pivot:
            notes.append(
                f"rank CTE pivot: {stats.row_count} table rows >= {PIVOT_MIN_ROWS}"
            )
    if semantic is not None and semantic.original_dimensions != dimensions:
        notes.append(
            "semantic reduction: PREFERRING " + to_sql(semantic.select.preferring)
        )
    return Plan(
        statement=statement,
        strategy=strategy,
        stages=stages,
        estimates=estimates,
        statistics=stats,
        decisions=Decisions(
            forced=force is not None,
            semantic=semantic,
            notes=tuple(notes),
            table=table,
            join_tables=tuple(
                _join_table_display(source, join_stats)
                for source in (join_scan.sources if join_scan is not None else ())
            ),
            candidates=candidates,
            skyline=skyline,
            dimensions=dimensions,
            rank_source=rank_source,
            rewrite=rewritten,
            join_statistics=tuple(join_stats.values()),
        ),
    )


def with_session(
    base: Plan,
    select: ast.Select,
    match: SessionMatch,
    resolver: NameResolver | None = None,
    schema: Schema | None = None,
) -> Plan:
    """Price answering ``select`` from the session cache on top of its
    base plan (:func:`plan_statement`'s result for the same statement).

    The session answer depends only on the live ``match``: re-winnowing
    the cached winners ∪ delta is exact whenever the match is servable
    (:mod:`repro.plan.session`), so the base plan's estimates are reused
    as they stand and only the session's own is added.  When it is the
    cheapest, the result is a new ``session`` plan; otherwise it is the
    base with the judgment attached for EXPLAIN.  ``base`` is never
    mutated: the driver shares it through the plan cache.

    This is the one gate for session plans.  Only a single-table plan
    the engine can evaluate (``table`` set) is priced, and only when no
    preference operand holds a CAST, which the engine cannot evaluate.
    The caller passes no forced plan, and re-plans a base
    whose semantic pass fired without it first.
    """
    decisions = replace(base.decisions, session=match)
    attached = replace(base, decisions=decisions)
    if not match.servable or base.table is None or base.semantic_rule is not None:
        return attached
    bases = list(
        build_preference(normalize(select.preferring), resolver=resolver).iter_base()
    )
    if _casts_an_operand(bases):
        return attached
    row_count, lookup = _row_lookup(base.statistics, select)
    delta = 0.0
    if match.delta_where is not None:
        delta = row_count * estimate_selectivity(match.delta_where, lookup)
    estimates = dict(base.estimates)
    estimates[SESSION_STRATEGY] = session_reuse_estimate(
        winners=float(len(match.entry.winners)),
        delta=delta,
        table_rows=row_count,
        dimensions=base.dimensions,
        distinct_counts=_distinct_counts(bases, lookup),
        delta_scan=match.delta_where is not None,
        row_width=_row_width(base.table, schema),
    )
    if choose_strategy(estimates) != SESSION_STRATEGY:
        return replace(attached, estimates=estimates)
    decisions = replace(
        decisions,
        notes=decisions.notes + ("answered from the session cache: " + match.relation,),
    )
    return replace(
        base,
        strategy=SESSION_STRATEGY,
        stages=STRATEGY_TABLE[SESSION_STRATEGY].build(
            select, Build(schema, resolver, base.statistics, decisions)
        ),
        estimates=estimates,
        decisions=decisions,
    )


def _row_lookup(
    stats: TableStatistics | None, select: ast.Select
) -> tuple[float, Callable[[str], int | None]]:
    """A single-table plan's row count and distinct-count lookup, with
    the default row guess when no statistics are available."""
    if stats is None:
        return float(_DEFAULT_ROW_ESTIMATE), lambda _name: None
    return float(stats.row_count), _binding_lookup(stats, _single_binding(select))


def _distinct_counts(bases, lookup) -> list[int | None]:
    """Distinct counts of the base preferences' column operands."""
    return [
        lookup(base.operands[0].qualified)
        if base.operands and isinstance(base.operands[0], ast.Column)
        else None
        for base in bases
    ]


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
    semantic: SemanticRewrite, statistics: StatisticsProvider | None
) -> Plan:
    """A plan whose winnow the constraints eliminated entirely.

    The statement left over is plain SQL; it executes through the
    ``rewrite`` strategy (the host runs the semantic pass's SQL verbatim).
    """
    select = semantic.select
    source = select.sources[0]
    assert isinstance(source, ast.TableRef)
    table = source.name.lower()
    stats: TableStatistics | None = None
    notes: tuple[str, ...] = ()
    if statistics is not None:
        try:
            stats = statistics(table, ())
        except PlanError as error:
            notes = (f"statistics unavailable: {error}",)
    row_count, lookup = _row_lookup(stats, select)
    selectivity = estimate_selectivity(select.where, lookup)
    candidates = max(1.0, row_count * selectivity) if row_count else 0.0
    winners = 1.0 if semantic.winners == "one" else candidates
    decisions = Decisions(
        semantic=semantic,
        notes=notes,
        table=table,
        candidates=candidates,
        skyline=winners,
        dimensions=semantic.original_dimensions,
    )
    return Plan(
        statement=select,
        strategy="rewrite",
        stages=STRATEGY_TABLE["rewrite"].build(select, Build(decisions=decisions)),
        estimates={"rewrite": semantic_pass_estimate(candidates, winners, 0, 1)},
        statistics=stats,
        decisions=decisions,
    )


def rebind_plan(
    plan: Plan,
    statement: ast.Statement,
    schema: Schema | None = None,
    resolver: NameResolver | None = None,
) -> Plan:
    """Reuse a cached strategy decision for a freshly parameter-bound
    statement: run the strategy's build again on it (the stages embed the
    bound literals), without statistics look-ups or pricing.  Semantic
    SQL depends on the constraint analysis of the bound literals, and a
    session plan on the cached entry it was matched with, so both are
    re-planned instead."""
    if plan.semantic_rule is not None or plan.stage(Reuse) is not None:
        kind = "semantic" if plan.semantic_rule is not None else "session-reuse"
        raise PlanError(f"{kind} plans must be re-planned, not rebound")
    probe = None if plan.rank_width else _RankProbe(None, False, None, None)
    build = Build(schema, resolver, plan.statistics, plan.decisions, probe=probe)
    stages = STRATEGY_TABLE[plan.strategy].build(statement, build)
    return replace(plan, statement=statement, stages=stages)


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
    return pushdown, _residual(select, resolver), len(rank_exprs or ())


def _residual(select: ast.Select, resolver: NameResolver | None) -> ast.Select:
    """The query block the engine evaluates over fetched candidates: the
    WHERE consumed by the scan, named preferences inlined."""
    term = select.preferring
    if term is not None and resolver is not None:
        term = inline_named_preferences(term, resolver)
    return replace(select, where=None, preferring=term)


def inline_named_preferences(
    term: ast.PrefTerm, resolver: NameResolver, _seen: tuple[str, ...] = ()
) -> ast.PrefTerm:
    """Replace every ``PREFERENCE name`` reference by its definition."""

    def inline(node: ast.Node) -> ast.Node | None:
        if isinstance(node, ast.NamedPref):
            key = node.name.lower()
            if key in _seen:
                raise PlanError(f"cyclic preference definition {node.name!r}")
            return inline_named_preferences(resolver(node.name), resolver, _seen + (key,))
        return None if isinstance(node, ast.COMPOSITES) else node

    return ast.transform(term, inline)


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
    statement: ast.Statement, select: ast.Select, preference: Preference
) -> str:
    """Why a statement cannot run in memory regardless of its FROM shape.

    ``preference`` is the statement's preference, named ones inlined."""
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

    roots: list[ast.Node] = list(surface)
    for clause in (select.but_only, select.limit, select.offset):
        if clause is not None:
            roots.append(clause)
    if select.preferring is not None:
        roots.append(select.preferring)
    for root in roots:
        for node in ast.walk(root, (ast.PrefTerm, ast.Expr)):
            if isinstance(node, ast.SUBQUERIES):
                return "sub-queries outside WHERE need the host database"
            if isinstance(node, ast.Collate):
                return "collations outside WHERE need the host database"
            # The engine evaluates no CAST; a preference operand's CAST
            # reaches the host inside the SQL rank expressions.
            if isinstance(node, ast.Cast) and root is not select.preferring:
                return "casts outside WHERE need the host database"
    if _casts_an_operand(preference.iter_base()) and (
        pushdown_rank_expressions(preference) is None
    ):
        return "casts in preference operands without a SQL rank need the host database"
    return ""


def _casts_an_operand(bases: Iterable[Preference]) -> bool:
    """Whether a base preference's operand holds a CAST.  The engine
    evaluates no CAST, so such a preference runs in memory only over SQL
    rank columns (which the cost model always prefers to Python ones),
    never through closures or a session's re-winnow."""
    return any(
        isinstance(node, ast.Cast)
        for base in bases
        for operand in base.operands
        for node in ast.walk_expr(operand)
    )


def _scan_shape(
    statement: ast.Statement,
    select: ast.Select,
    preference: Preference,
    schema: Schema | None,
) -> tuple[str | None, JoinScan | None, str]:
    """Resolve the in-memory scan shape: a single table, a join, or neither.

    Returns ``(table, join_scan, reason)`` — exactly one of the first two
    is set for an in-memory-eligible statement; otherwise both are None
    and ``reason`` says why the plan is host-only.
    """
    reason = _surface_ineligibility(statement, select, preference)
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

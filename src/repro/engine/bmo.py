"""The BMO ("Best Matches Only") evaluator, the in-memory query engine
and the plan runner.

One path leads from a :class:`~repro.plan.planner.Plan` to its rows:
:func:`run` executes the plan's stages — a :class:`Host` statement, or
candidates from a :class:`Scan` or a session :class:`Reuse` that one
:class:`Winnow` winnows (:meth:`PreferenceEngine.winnow`, once) and
surfaces (:meth:`Winners.surface`, the select list) — and the driver,
the view maintainer and the benchmark's :func:`run_plan` all go through
it.

Answer semantics per paper section 2.2.5:

* preferences only apply to tuples fulfilling the WHERE condition,
* perfect matches win; otherwise all non-dominated tuples are returned,
* the BUT ONLY condition is logically tested after the preferences:
  candidates outside the quality threshold are discarded, and worse values
  w.r.t. ``<_P`` are discarded on the fly — i.e. the result is the maximal
  set of the threshold-surviving candidates,
* GROUPING partitions the candidates by the listed attributes and applies
  BMO within each partition (what GROUP BY does with hard constraints,
  GROUPING does with soft ones).

Because every perfect match dominates every non-perfect candidate, the
"perfect matches first" rule of the BMO model coincides with maximality —
computed here by the kernels of :mod:`repro.engine.algorithms`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from repro.deadline import CHECK_EVERY, active_deadline
from repro.engine.algorithms import nested_loop_maximal, winnow_kernel
from repro.engine.columns import RankColumns, rank_columns_from_values
from repro.engine.expressions import Evaluator, RowEnvironment
from repro.engine.relation import Relation
from repro.errors import EvaluationError, PreferenceConstructionError
from repro.model.builder import build_preference
from repro.model.preference import Preference, WeakOrderBase
from repro.model.quality import (
    QUALITY_FUNCTIONS,
    QualityResolver,
    ResolvedQuality,
    result_name,
)
from repro.sql import ast
from repro.sql.parser import parse_statement


def bmo_filter(
    preference: Preference,
    vectors: Sequence[tuple] | None,
    group_keys: Sequence[object] | None = None,
    threshold: Callable[[int], bool] | None = None,
    algorithm: str = "bnl",
    ranks: RankColumns | None = None,
) -> list[int]:
    """Indices of BMO winners among candidate operand vectors.

    ``group_keys[i]`` assigns candidate ``i`` to a GROUPING partition;
    ``threshold(i)`` is the BUT ONLY test.  Winners are reported in their
    original input order.  ``ranks`` supplies precomputed rank columns
    (the SQL rank pushdown path); ``vectors`` may then be None for
    rank-based trees.  Without them, the ranks are computed **once** and
    shared across every GROUPING partition.  ``algorithm`` is ``"bnl"``
    (the planner's name for the in-memory winnow: every partition runs in
    this thread through :func:`~repro.engine.algorithms.winnow_kernel`'s
    choice of kernel) or ``"nested_loop"``, the quadratic oracle.
    """
    deadline = active_deadline()
    if deadline is not None:
        deadline.check()
    count = len(vectors) if vectors is not None else len(ranks or ())
    indices = list(range(count))
    if threshold is not None:
        # BUT ONLY evaluates one expression per candidate row — poll the
        # deadline at the same amortised cadence as the skyline loops.
        survivors = []
        for i in indices:
            if deadline is not None and not i % CHECK_EVERY:
                deadline.check()
            if threshold(i):
                survivors.append(i)
        indices = survivors

    if group_keys is None:
        groups = [indices]
    else:
        by_key: dict[object, list[int]] = {}
        for i in indices:
            by_key.setdefault(group_keys[i], []).append(i)
        groups = list(by_key.values())

    if algorithm == "nested_loop":
        # The oracle stays on per-group operand slices and its own
        # comparator, independent of the kernels it checks.
        if vectors is None:
            raise EvaluationError("the nested-loop oracle needs operand vectors")
        return sorted(
            members[local]
            for members in groups
            for local in nested_loop_maximal(
                preference, [vectors[i] for i in members]
            )
        )
    if algorithm != "bnl":
        raise EvaluationError(
            f"unknown skyline algorithm {algorithm!r}; "
            "choose from bnl, nested_loop"
        )
    # One kernel per query; every GROUPING partition indexes the shared
    # rank columns through it — no per-group slicing, no recompilation.
    evaluate = winnow_kernel(preference, vectors, indices, ranks)
    return sorted(i for members in groups for i in evaluate(members))


# ----------------------------------------------------------------------
# The plan runner.  Each strategy's build (:mod:`repro.plan.planner`)
# makes a plan's stages: ``rewrite`` one :class:`Host`, ``bnl`` a
# :class:`Scan` and a :class:`Winnow`, ``session`` a :class:`Reuse` and
# a :class:`Winnow`, pass-through none.


@dataclass(frozen=True)
class Host:
    """Send one statement to the host database; its rows stay on the
    cursor.  ``pivot`` marks a rewrite whose anti-join reads only the
    rows one pivot cannot beat (:mod:`repro.plan.pivot`)."""

    sql: str
    pivot: bool = False


@dataclass(frozen=True)
class Scan:
    """Fetch the candidates with one host scan, whose last ``rank_width``
    columns are SQL rank columns."""

    sql: str
    rank_width: int = 0


@dataclass(frozen=True)
class Reuse:
    """Take the candidates from the session cache: the matched entry's
    winner base plus the rows of the bounded delta scan ``delta_sql``
    (None when the old candidate set contains the new one)."""

    match: object
    delta_sql: str | None

    @property
    def sql(self) -> str | None:
        return self.delta_sql


@dataclass(frozen=True)
class Winnow:
    """Winnow the candidates by ``residual`` — the query block with its
    WHERE consumed by the candidates' source — and surface its select
    list.  Sends nothing to the host."""

    residual: ast.Select
    sql = None


def scan(execute, scan_sql: str, rank_width: int):
    """Scan stage: run one pushdown scan, splitting appended rank columns off.

    ``execute`` runs SQL on the host database and returns a cursor
    (``sqlite3.Connection.execute``-shaped).  Returns ``(relation,
    rank_values)``, one value list per appended rank column, which the
    Winnow stage adopts so the evaluator never touches a candidate row;
    the scan's pivot filter (:mod:`repro.plan.pivot`) compared the same
    cells on the host.
    """
    cursor = execute(scan_sql)
    columns = [description[0] for description in cursor.description]
    rows = cursor.fetchall()
    rank_values = None
    if rank_width:
        split = len(columns) - rank_width
        rank_values = [
            [row[split + k] for row in rows] for k in range(rank_width)
        ]
        columns = columns[:split]
        rows = [row[:split] for row in rows]
    return Relation(columns=columns, rows=rows), rank_values


def host_relation(cursor) -> Relation:
    """What a host cursor still holds, as a relation.

    The relation merely carries the host's result — a ``SELECT *`` over
    a join reports the same column name once per table — so duplicate
    names are allowed.
    """
    columns = [description[0] for description in cursor.description]
    return Relation(columns=columns, rows=cursor.fetchall(), allow_duplicates=True)


def winnow(
    select: ast.Select, candidates: Relation, ranks: RankColumns | None = None
) -> "Winners":
    """Winnow stage: the BMO winners of ``select`` over ``candidates``.

    The candidates register under the block's FROM name — the base table
    for single-table plans, the synthetic
    :data:`~repro.plan.joins.JOIN_RELATION` when the scan executed a
    multi-table join on the host database.  The returned
    :class:`Winners` can be surfaced any number of times.
    """
    engine = PreferenceEngine({select.sources[0].name: candidates}, rank_columns=ranks)
    return engine.winnow(select)


@dataclass(frozen=True)
class PlanRun:
    """What running one plan produced.

    ``relation`` is None when the rows were left on ``cursor`` (a host
    statement: nothing is fetched until the caller asks); ``note`` is the
    full trace text, and ``winner_base`` every BMO row with the scan's
    complete column list — what the session cache answers later
    refinements from.
    """

    relation: Relation | None
    cursor: object
    note: str
    winner_base: Relation | None = None


def run(execute, plan, capture: bool = False) -> PlanRun:
    """Execute a plan's stages — the one path from a plan to rows.

    A :class:`Host` stage sends its statement and leaves the rows on the
    cursor.  Otherwise a :class:`Scan` or :class:`Reuse` stage produces
    the candidates, which the :class:`Winnow` stage after it winnows once
    and surfaces by the residual's select list.  ``capture`` asks for the
    session winner base as well — ``*`` over the *same* winners — of a
    single-table plan without BUT ONLY (aggregation never reaches an
    in-memory plan).
    """
    source, *winnows = plan.stages
    if isinstance(source, Host):
        return PlanRun(None, execute(source.sql), source.sql)
    rank_values = None
    if isinstance(source, Scan):
        candidates, rank_values = scan(execute, source.sql, source.rank_width)
        note = f"{source.sql} /* + in-memory {plan.strategy} */"
    else:
        # A Reuse stage — no base-table rescan: the cached winner base,
        # unioned with the bounded delta rows (fetched only when the
        # WHERE was weakened), is re-winnowed under the *new* preference.
        # The new winner base replaces the served entry, so a whole
        # drill-down chain keeps re-winnowing ever-smaller sets.
        cached = source.match.entry.winners
        rows = list(cached.rows)
        if source.delta_sql is not None:
            rows += execute(source.delta_sql).fetchall()
        candidates = Relation(columns=cached.columns, rows=rows)
        note = (
            f"{source.delta_sql or '/* no delta scan */'} "
            f"/* + session reuse: {', '.join(source.match.rules)} */"
        )
    (stage,) = winnows
    select = stage.residual
    ranks = None
    if rank_values is not None:
        # Non-numeric rank cells (a host-affinity corner) drop the
        # adoption, and the engine recomputes the ranks in Python.
        ranks = rank_columns_from_values(
            build_preference(select.preferring), rank_values
        )
    winners = winnow(select, candidates, ranks=ranks)
    winner_base = None
    if capture and select.but_only is None and plan.table is not None:
        winner_base = winners.surface(
            replace(
                select,
                items=(ast.Star(),),
                order_by=(),
                limit=None,
                offset=None,
                distinct=False,
            )
        )
    return PlanRun(winners.surface(select), None, note, winner_base)


def run_plan(execute, plan) -> Relation:
    """Execute any SELECT plan and materialise its rows."""
    outcome = run(execute, plan)
    if outcome.relation is None:
        return host_relation(outcome.cursor)
    return outcome.relation


@dataclass
class Winners:
    """The Winnow stage's output: the winner rows of one query block.

    Still in bundle form — every column of every FROM binding — so the
    Surface stage can run over the same winners more than once (the
    query's own select list, and ``*`` for the session winner base).
    """

    engine: "PreferenceEngine"
    bundles: Sequence["_Bundle"]
    quality_values: Sequence[Mapping[str, object]]
    quality_columns: dict[ast.Expr, ast.Expr]
    evaluator: Evaluator
    outer: RowEnvironment | None
    candidate_count: int
    group_count: int

    def surface(self, select: ast.Select) -> Relation:
        """Surface stage: ``select``'s ORDER BY, select list, DISTINCT and
        LIMIT/OFFSET over these winners.

        ``select`` is the winnowed block or differs from it only in
        those clauses (quality functions resolve against the block that
        was winnowed).
        """
        engine = self.engine
        ordered = engine._sort_bundles(select, self) if select.order_by else self
        rows, columns = engine._project(select, ordered)
        if select.distinct:
            rows = list(dict.fromkeys(rows))
        if select.limit is not None:
            env = RowEnvironment({})
            limit = int(self.evaluator.evaluate(select.limit, env))
            offset = (
                int(self.evaluator.evaluate(select.offset, env))
                if select.offset is not None
                else 0
            )
            rows = rows[offset : offset + limit]
        # Names follow the host's: ``SELECT a.x, b.x`` repeats ``x``.
        return Relation(columns=columns, rows=rows, allow_duplicates=True)


# ----------------------------------------------------------------------
# Row bundles: rows of the FROM clause with their binding structure


@dataclass(slots=True)
class _Bundle:
    """One joined row: parallel (binding, columns, values) segments."""

    segments: tuple[tuple[str, tuple[str, ...], tuple[object, ...]], ...]

    # prefcheck: disable=deadline-poll -- loops over this row's joined-table segments (query width); per-row callers poll
    def environment(self, outer: RowEnvironment | None = None) -> RowEnvironment:
        scopes: dict[str, dict[str, object]] = {}
        for binding, columns, values in self.segments:
            scopes[binding.lower()] = {
                name.lower(): value for name, value in zip(columns, values)
            }
        return RowEnvironment(scopes, parent=outer)

    def merged(self, other: "_Bundle") -> "_Bundle":
        return _Bundle(segments=self.segments + other.segments)

    # prefcheck: disable=deadline-poll -- loops over this row's joined-table segments (query width); per-row callers poll
    def star_columns(self, table: str | None = None) -> list[tuple[str, object]]:
        """(name, value) pairs for ``*`` or ``table.*`` expansion."""
        pairs: list[tuple[str, object]] = []
        for binding, columns, values in self.segments:
            if table is not None and binding.lower() != table.lower():
                continue
            pairs.extend(zip(columns, values))
        if table is not None and not pairs:
            raise EvaluationError(f"unknown table binding {table!r} in select list")
        return pairs


class _TableBundles:
    """Lazy bundles over a single base table: rows wrap on demand.

    A pushdown scan hands the engine tens of thousands of candidate rows
    of which only the BMO winners ever need an environment or a
    projection; materialising a :class:`_Bundle` per candidate up front
    was the single biggest constant of the hot path.  This sequence
    carries the raw row tuples and builds a bundle only when one is
    actually indexed; the group-key and ``SELECT *`` fast paths read
    ``rows`` directly and never wrap at all.
    """

    __slots__ = ("binding", "columns", "rows")

    def __init__(
        self,
        binding: str,
        columns: tuple[str, ...],
        rows: Sequence[tuple],
    ):
        self.binding = binding
        self.columns = columns
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                _Bundle(segments=((self.binding, self.columns, row),))
                for row in self.rows[index]
            ]
        return _Bundle(
            segments=((self.binding, self.columns, self.rows[index]),)
        )

    # prefcheck: disable=deadline-poll -- lazy generator: yields interleave with the consuming loops, which poll
    def __iter__(self):
        binding = self.binding
        columns = self.columns
        for row in self.rows:
            yield _Bundle(segments=((binding, columns, row),))


#: The quality scope of every candidate of a block without quality
#: functions: read-only, so sharing one is safe.
_NO_QUALITY: Mapping[str, object] = MappingProxyType({})


class PreferenceEngine:
    """Executes Preference SQL directly over in-memory relations.

    The engine understands the preference query block plus enough plain
    SQL (joins, sub-queries, ORDER BY, LIMIT) to run realistic workloads;
    aggregation (GROUP BY / HAVING) is intentionally left to the host
    database path.  It doubles as the semantics oracle for the rewriter.
    """

    # prefcheck: disable=deadline-poll -- registers the caller's relations dict at construction; no query is running yet
    def __init__(
        self,
        relations: dict[str, Relation] | None = None,
        algorithm: str = "bnl",
        rank_columns: RankColumns | None = None,
    ):
        self._relations: dict[str, Relation] = {}
        if relations:
            for name, relation in relations.items():
                self.register(name, relation)
        self._algorithm = algorithm
        self._preferences: dict[str, ast.PrefTerm] = {}
        #: Host-database-computed rank columns for the next preference
        #: SELECT (the SQL rank pushdown path, see the driver).  Consumed
        #: only when the query shape guarantees row alignment; otherwise
        #: the engine silently recomputes the ranks itself.
        self._rank_columns = rank_columns

    def register(self, name: str, relation: Relation) -> None:
        """Register (or replace) a named relation."""
        self._relations[name.lower()] = relation

    def relation(self, name: str) -> Relation:
        """Look up a registered relation (case-insensitive)."""
        key = name.lower()
        if key not in self._relations:
            raise EvaluationError(f"unknown table {name!r}")
        return self._relations[key]

    def resolve_preference(self, name: str) -> ast.PrefTerm:
        """Resolve a named preference (the engine's in-memory catalog)."""
        key = name.lower()
        if key not in self._preferences:
            raise PreferenceConstructionError(f"unknown preference {name!r}")
        return self._preferences[key]

    # ------------------------------------------------------------------

    def execute(self, statement: ast.Statement | str, params: Sequence[object] = ()) -> Relation:
        """Execute a statement; SELECTs return their result relation."""
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if isinstance(statement, ast.Select):
            return self.execute_select(statement, params=params)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, params)
        if isinstance(statement, ast.CreatePreference):
            self._preferences[statement.name.lower()] = statement.term
            return Relation(columns=("status",), rows=[("preference created",)])
        if isinstance(statement, ast.DropPreference):
            if statement.name.lower() not in self._preferences:
                raise PreferenceConstructionError(
                    f"unknown preference {statement.name!r}"
                )
            del self._preferences[statement.name.lower()]
            return Relation(columns=("status",), rows=[("preference dropped",)])
        raise EvaluationError(f"cannot execute {type(statement).__name__}")

    # prefcheck: disable=deadline-poll -- linear append pass over rows the polled SELECT/VALUES evaluation already materialised
    def _execute_insert(self, insert: ast.Insert, params: Sequence[object]) -> Relation:
        target = self.relation(insert.table)
        if insert.query is not None:
            source = self.execute_select(insert.query, params=params)
            incoming = source.rows
        else:
            evaluator = Evaluator(params=params)
            empty = RowEnvironment({})
            incoming = [
                tuple(evaluator.evaluate(value, empty) for value in row)
                for row in insert.values
            ]
        if insert.columns:
            positions = [target.column_position(name) for name in insert.columns]
            for row in incoming:
                if len(row) != len(positions):
                    raise EvaluationError(
                        f"INSERT row width {len(row)} does not match column "
                        f"list width {len(positions)}"
                    )
                full: list[object] = [None] * len(target.columns)
                for position, value in zip(positions, row):
                    full[position] = value
                target.append(full)
        else:
            for row in incoming:
                target.append(row)
        return Relation(
            columns=("inserted",), rows=[(len(incoming),)]
        )

    def execute_select(
        self,
        select: ast.Select,
        params: Sequence[object] = (),
        outer: RowEnvironment | None = None,
    ) -> Relation:
        """Run one (possibly preference-extended) SELECT block."""
        return self.winnow(select, params, outer).surface(select)

    def winnow(
        self,
        select: ast.Select,
        params: Sequence[object] = (),
        outer: RowEnvironment | None = None,
    ) -> Winners:
        """FROM, WHERE, PREFERRING, GROUPING and BUT ONLY of one block:
        everything up to, and excluding, its result surface."""
        if select.group_by or select.having:
            raise EvaluationError(
                "the in-memory engine does not aggregate; GROUP BY/HAVING "
                "queries run through the driver against the host database"
            )

        def run_subquery(query: ast.Select, env: RowEnvironment) -> list[tuple]:
            return self.execute_select(query, params=params, outer=env).rows

        evaluator = Evaluator(params=params, query_executor=run_subquery)

        bundles = self._from_rows(select.sources, evaluator, params, outer)
        if select.where is not None:
            bundles = [
                bundle
                for bundle in bundles
                if evaluator.is_true(select.where, bundle.environment(outer))
            ]
        candidate_count = len(bundles)
        group_count = 1

        quality_columns: dict[ast.Expr, ast.Expr] = {}
        quality_calls = (
            self._collect_quality_calls(select)
            if select.preferring is not None
            else []
        )
        # One value dict per candidate only when some quality function
        # fills it; otherwise every candidate shares the one empty scope.
        quality_values: list[Mapping[str, object]] = (
            [dict() for _ in range(len(bundles))]
            if quality_calls
            else [_NO_QUALITY] * len(bundles)
        )

        if select.preferring is not None:
            preference = build_preference(
                select.preferring, resolver=self.resolve_preference
            )
            environments: list[RowEnvironment] | None = None

            def row_environments() -> list[RowEnvironment]:
                nonlocal environments
                if environments is None:
                    environments = [
                        bundle.environment(outer) for bundle in bundles
                    ]
                return environments

            ranks = (
                self._adopted_rank_columns(select, len(bundles), preference)
                if not quality_calls
                else None
            )
            vectors: list[tuple] | None = None
            if ranks is None or quality_calls:
                # Operand evaluation walks an expression tree per row —
                # on wide candidate sets it rivals the skyline itself,
                # so it polls the deadline at the same cadence.
                deadline = active_deadline()
                vectors = []
                for position, env in enumerate(row_environments()):
                    if deadline is not None and not position % CHECK_EVERY:
                        deadline.check()
                    vectors.append(
                        tuple(
                            evaluator.evaluate(op, env)
                            for op in preference.operands
                        )
                    )

            group_keys = None
            if select.grouping:
                group_keys = self._fast_group_keys(select, bundles, outer)
                if group_keys is None:
                    group_keys = [
                        tuple(
                            evaluator.evaluate(col, env)
                            for col in select.grouping
                        )
                        for env in row_environments()
                    ]
                group_count = len(set(group_keys))

            resolver = QualityResolver(preference)
            optima = self._candidate_optima(
                resolver, quality_calls, vectors or (), group_keys
            )
            for call in quality_calls:
                column = ast.Column(name=f"q{len(quality_columns)}", table="#quality")
                quality_columns[call] = column
                resolved = resolver.resolve(call.args[0])
                for i, vector in enumerate(vectors):
                    key = (group_keys[i] if group_keys is not None else None, id(resolved.base))
                    optimum = optima.get(key)
                    quality_values[i][column.name.lower()] = self._quality_value(
                        resolver, call.name, resolved, vector, optimum
                    )

            threshold = None
            if select.but_only is not None:
                but_only = ast.substitute(select.but_only, quality_columns)
                threshold_environments = row_environments()

                def threshold(i: int) -> bool:
                    env = self._with_quality(
                        threshold_environments[i], quality_values[i]
                    )
                    return evaluator.is_true(but_only, env)

            winners = bmo_filter(
                preference,
                vectors,
                group_keys=group_keys,
                threshold=threshold,
                algorithm=self._algorithm,
                ranks=ranks,
            )
            bundles = [bundles[i] for i in winners]
            quality_values = [quality_values[i] for i in winners]

        return Winners(
            engine=self,
            bundles=bundles,
            quality_values=quality_values,
            quality_columns=quality_columns,
            evaluator=evaluator,
            outer=outer,
            candidate_count=candidate_count,
            group_count=group_count,
        )

    @staticmethod
    # prefcheck: disable=deadline-poll -- the explicit loop is over GROUP BY columns (query width); the row-scale slot reads are single linear comprehensions feeding the grouped kernel, which polls
    def _fast_group_keys(
        select: ast.Select, bundles: Sequence["_Bundle"], outer
    ) -> list[tuple] | None:
        """GROUPING keys read directly from the rows, or None.

        When every grouping expression is a plain column of a single
        base-table FROM, building one RowEnvironment per candidate just
        to look the values up again is the hot path's biggest constant —
        read the slots straight out of the row tuples instead.  Any
        other shape falls back to full expression evaluation.
        """
        if (
            outer is not None
            or len(select.sources) != 1
            or not isinstance(select.sources[0], ast.TableRef)
            or not bundles
        ):
            return None
        if isinstance(bundles, _TableBundles):
            binding, columns = bundles.binding, bundles.columns
        else:
            binding, columns, _values = bundles[0].segments[0]
        # Duplicate names resolve to the last occurrence, matching the
        # RowEnvironment scope dict built from the same zip.
        positions = {name.lower(): k for k, name in enumerate(columns)}
        slots: list[int] = []
        for expr in select.grouping:
            if not isinstance(expr, ast.Column):
                return None
            if expr.table is not None and expr.table.lower() != binding.lower():
                return None
            slot = positions.get(expr.name.lower())
            if slot is None:
                return None
            slots.append(slot)
        if isinstance(bundles, _TableBundles):
            rows = bundles.rows
            if len(slots) == 1:
                slot = slots[0]
                return [(row[slot],) for row in rows]
            return [tuple(row[slot] for slot in slots) for row in rows]
        if len(slots) == 1:
            slot = slots[0]
            return [(bundle.segments[0][2][slot],) for bundle in bundles]
        return [
            tuple(bundle.segments[0][2][slot] for slot in slots)
            for bundle in bundles
        ]

    def _adopted_rank_columns(
        self, select: ast.Select, row_count: int, preference: Preference
    ) -> RankColumns | None:
        """Host-computed rank columns, when they provably align with rows.

        The SQL rank pushdown hands the engine one rank column per base
        preference, indexed by scan order.  They are adopted only when
        this SELECT's candidate rows *are* the scan rows in order — a
        single base-table FROM, no residual WHERE, a matching row count —
        and the columns' shape matches the preference this SELECT
        actually evaluates (tree structure, leaf types and operand
        expressions), so injected columns built for a different
        PREFERRING clause are refused rather than silently misread.
        Adoption consumes the columns: a second SELECT on the same
        engine recomputes.  ``nested_loop`` stays on operand vectors so
        the oracle remains independent of the pushdown.  Any mismatch
        silently degrades to the in-Python rank computation.
        """
        ranks = self._rank_columns
        if (
            ranks is None
            or self._algorithm == "nested_loop"
            or select.where is not None
            or len(select.sources) != 1
            or not isinstance(select.sources[0], ast.TableRef)
            or len(ranks) != row_count
        ):
            return None
        from repro.engine.columns import rank_shape

        expected = rank_shape(preference)
        if (
            expected is None
            or expected.tree != ranks.shape.tree
            or len(expected.leaves) != len(ranks.shape.leaves)
            or any(
                type(mine) is not type(theirs)
                or mine.operands != theirs.operands
                for mine, theirs in zip(expected.leaves, ranks.shape.leaves)
            )
        ):
            return None
        self._rank_columns = None  # consume once
        return ranks

    # ------------------------------------------------------------------
    # FROM clause

    def _from_rows(
        self,
        sources: Sequence[ast.FromSource],
        evaluator: Evaluator,
        params: Sequence[object],
        outer: RowEnvironment | None,
    ) -> list[_Bundle]:
        bundles: list[_Bundle] | None = None
        deadline = active_deadline()
        for source in sources:
            current = self._source_rows(source, evaluator, params, outer)
            if bundles is None:
                bundles = current
            else:
                # Comma-join cross product: the one place a FROM clause
                # goes quadratic, so poll at the skyline cadence.
                product: list[_Bundle] = []
                for a in bundles:
                    for b in current:
                        if deadline is not None and not len(product) % CHECK_EVERY:
                            deadline.check()
                        product.append(a.merged(b))
                bundles = product
        return bundles if bundles is not None else []

    def _source_rows(
        self,
        source: ast.FromSource,
        evaluator: Evaluator,
        params: Sequence[object],
        outer: RowEnvironment | None,
    ) -> list[_Bundle]:
        if isinstance(source, ast.TableRef):
            relation = self.relation(source.name)
            return _TableBundles(
                source.binding, relation.columns, relation.rows
            )
        if isinstance(source, ast.SubquerySource):
            relation = self.execute_select(source.query, params=params, outer=outer)
            return [
                _Bundle(segments=((source.alias, relation.columns, row),))
                for row in relation.rows
            ]
        if isinstance(source, ast.Join):
            left = self._source_rows(source.left, evaluator, params, outer)
            right = self._source_rows(source.right, evaluator, params, outer)
            deadline = active_deadline()
            if source.kind == "CROSS":
                crossed: list[_Bundle] = []
                for a in left:
                    for b in right:
                        if deadline is not None and not len(crossed) % CHECK_EVERY:
                            deadline.check()
                        crossed.append(a.merged(b))
                return crossed
            # Nested-loop join: |left| x |right| condition evaluations,
            # the engine's worst-case quadratic path — poll amortised.
            pairs = 0
            joined: list[_Bundle] = []
            for a in left:
                matched = False
                for b in right:
                    if deadline is not None and not pairs % CHECK_EVERY:
                        deadline.check()
                    pairs += 1
                    bundle = a.merged(b)
                    if evaluator.is_true(source.condition, bundle.environment(outer)):
                        joined.append(bundle)
                        matched = True
                if source.kind == "LEFT" and not matched:
                    null_segments = tuple(
                        (binding, columns, tuple(None for _ in columns))
                        for b in right[:1]
                        for binding, columns, _values in b.segments
                    )
                    if right:
                        joined.append(_Bundle(segments=a.segments + null_segments))
                    else:
                        joined.append(a)
            return joined
        raise EvaluationError(f"unknown FROM source {type(source).__name__}")

    # ------------------------------------------------------------------
    # Quality functions

    # prefcheck: disable=deadline-poll -- walks the SELECT's expression trees (query width), never the data
    def _collect_quality_calls(self, select: ast.Select) -> list[ast.FuncCall]:
        calls: list[ast.FuncCall] = []

        # prefcheck: disable=deadline-poll -- same expression-tree walk as its enclosing collector
        def collect(expr: ast.Expr) -> None:
            for node in ast.walk_expr(expr):
                if (
                    isinstance(node, ast.FuncCall)
                    and node.name in QUALITY_FUNCTIONS
                    and node not in calls
                ):
                    if len(node.args) != 1:
                        raise PreferenceConstructionError(
                            f"{node.name} takes exactly one argument"
                        )
                    calls.append(node)

        for item in select.items:
            if isinstance(item, ast.SelectItem):
                collect(item.expr)
        if select.but_only is not None:
            collect(select.but_only)
        for order_item in select.order_by:
            collect(order_item.expr)
        return calls

    def _candidate_optima(
        self,
        resolver: QualityResolver,
        calls: Sequence[ast.FuncCall],
        vectors: Sequence[tuple],
        group_keys: Sequence[object] | None,
    ) -> dict[tuple, float]:
        """Per-(group, base) minimum rank for data-dependent optima."""
        optima: dict[tuple, float] = {}
        deadline = active_deadline()
        for call in calls:
            resolved = resolver.resolve(call.args[0])
            if not resolved.dynamic_optimum:
                continue
            base = resolved.base
            assert isinstance(base, WeakOrderBase)
            for i, vector in enumerate(vectors):
                if deadline is not None and not i % CHECK_EVERY:
                    deadline.check()
                key = (group_keys[i] if group_keys is not None else None, id(base))
                rank = base.rank(vector[resolved.vector_slice][0])
                if key not in optima or rank < optima[key]:
                    optima[key] = rank
        return optima

    def _quality_value(
        self,
        resolver: QualityResolver,
        function: str,
        resolved: ResolvedQuality,
        vector: tuple,
        optimum: float | None,
    ) -> object:
        if function == "LEVEL":
            return resolver.level(resolved, vector)
        if function == "DISTANCE":
            return resolver.distance(resolved, vector, candidate_optimum=optimum)
        return 1 if resolver.top(resolved, vector, candidate_optimum=optimum) else 0

    @staticmethod
    def _with_quality(
        env: RowEnvironment, values: Mapping[str, object]
    ) -> RowEnvironment:
        scopes = dict(env._scopes)
        scopes["#quality"] = values
        return RowEnvironment(scopes, parent=env._parent)

    # ------------------------------------------------------------------
    # Projection and ordering

    def _project(
        self, select: ast.Select, winners: Winners
    ) -> tuple[list[tuple], list[str]]:
        bundles, quality_values = winners.bundles, winners.quality_values
        plain_star = (
            len(select.items) == 1
            and isinstance(select.items[0], ast.Star)
            and select.items[0].table is None
        )
        if plain_star and isinstance(bundles, _TableBundles):
            return list(bundles.rows), list(bundles.columns)
        first_bundle = bundles[0] if bundles else None
        if (
            plain_star
            and first_bundle is not None
            and len(first_bundle.segments) == 1
        ):
            # ``SELECT *`` over a single source: the winner rows *are*
            # the output rows — skip per-winner environment construction
            # and star expansion (the hot path of every pushdown query).
            _binding, names, _values = first_bundle.segments[0]
            return (
                [bundle.segments[0][2] for bundle in bundles],
                list(names),
            )

        columns: list[str] = []
        evaluators: list[ast.Expr | ast.Star] = []

        for item in select.items:
            if isinstance(item, ast.Star):
                if first_bundle is None:
                    # Empty input: derive names from registered relations.
                    names = self._star_names(select.sources, item.table)
                else:
                    names = [n for n, _v in first_bundle.star_columns(item.table)]
                columns.extend(names)
                evaluators.append(item)
                continue
            expr = ast.substitute(item.expr, winners.quality_columns)
            columns.append(item.alias or result_name(item.expr))
            evaluators.append(expr)

        rows: list[tuple] = []
        deadline = active_deadline()
        for i, bundle in enumerate(bundles):
            if deadline is not None and not i % CHECK_EVERY:
                deadline.check()
            env = self._with_quality(
                bundle.environment(winners.outer), quality_values[i]
            )
            values: list[object] = []
            for expr in evaluators:
                if isinstance(expr, ast.Star):
                    values.extend(v for _n, v in bundle.star_columns(expr.table))
                else:
                    values.append(winners.evaluator.evaluate(expr, env))
            rows.append(tuple(values))
        return rows, columns

    # prefcheck: disable=deadline-poll -- walks the FROM clause's source tree (query width), never the data
    def _star_names(
        self, sources: Sequence[ast.FromSource], table: str | None
    ) -> list[str]:
        names: list[str] = []
        for source in sources:
            for node in ast.walk(source, ast.FROM_SOURCES):
                if isinstance(node, ast.TableRef):
                    if table is None or node.binding.lower() == table.lower():
                        names.extend(self.relation(node.name).columns)
                elif isinstance(node, ast.SubquerySource):
                    if table is None or node.alias.lower() == table.lower():
                        names.extend(
                            self.execute_select(node.query).columns
                        )  # pragma: no cover - empty-input star expansion
        return names

    # prefcheck: disable=deadline-poll -- explicit loops are over select/ORDER BY terms (query width); the row-scale work happens inside host sorted(), which cannot be polled mid-sort
    def _sort_bundles(self, select: ast.Select, winners: Winners) -> Winners:
        """Sort winner rows before projection, so ORDER BY can reference
        source columns that are not in the select list (standard SQL)."""
        bundles, quality_values = winners.bundles, winners.quality_values
        aliases: dict[str, ast.Expr] = {}
        for item in select.items:
            if isinstance(item, ast.SelectItem) and item.alias:
                aliases[item.alias.lower()] = item.expr

        order_exprs: list[ast.Expr] = []
        for order_item in select.order_by:
            expr = order_item.expr
            if isinstance(expr, ast.Column) and expr.table is None:
                expr = aliases.get(expr.name.lower(), expr)
            order_exprs.append(ast.substitute(expr, winners.quality_columns))

        # prefcheck: disable=deadline-poll -- per-row sort key builder looping over ORDER BY terms (query width); called from inside host sorted()
        def key_for(index: int) -> tuple:
            env = self._with_quality(
                bundles[index].environment(winners.outer), quality_values[index]
            )
            parts = []
            for order_item, expr in zip(select.order_by, order_exprs):
                value = winners.evaluator.evaluate(expr, env)
                # SQL sorts NULLs first ascending; encode as a rank prefix.
                null_rank = 0 if value is None else 1
                if order_item.descending:
                    parts.append((-null_rank, _Reversed(value)))
                else:
                    parts.append((null_rank, _Sortable(value)))
            return tuple(parts)

        order = sorted(range(len(bundles)), key=key_for)
        return replace(
            winners,
            bundles=[bundles[i] for i in order],
            quality_values=[quality_values[i] for i in order],
        )


class _Sortable:
    """Total-order wrapper so mixed None/values never reach ``<``."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value

    def __lt__(self, other: "_Sortable") -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Sortable) and self.value == other.value


class _Reversed(_Sortable):
    """Descending order wrapper."""

    def __lt__(self, other: "_Sortable") -> bool:
        return _Sortable(other.value).__lt__(_Sortable(self.value))

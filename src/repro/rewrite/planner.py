"""Whole-query rewriting: Preference SQL block → standard SQL.

A query over one table with a rowid becomes the paper's selection method
(section 3.2) in a single statement.  Its auxiliary view ``Aux`` is a
materialized CTE that computes every level column once per row, and the
anti-join runs over ``Aux``:

.. code-block:: sql

    WITH __pref AS MATERIALIZED (
      SELECT rowid AS __rid, <rank_0> AS __r0, ..., <GROUPING key> AS __k0
      FROM t WHERE <original WHERE> AND <BUT ONLY threshold>)
    SELECT <items, quality functions inlined> FROM t
    WHERE rowid IN (
      SELECT c.__rid FROM __pref AS c
      WHERE NOT EXISTS (
        SELECT 1 FROM __pref AS d
        WHERE d.__k0 IS c.__k0 COLLATE BINARY        -- same GROUPING partition
          AND <dominance condition over d.__rK, c.__rK>))
    [ORDER BY ... LIMIT ...]

That anti-join is quadratic in ``Aux``.  Asked for the ``pivot`` (the
planner asks on large tables), the rewrite has
:func:`repro.plan.pivot.rank_cte` — the builder that filters ``bnl``'s
scan — follow ``__pref`` with a pivot CTE holding one row per GROUPING
partition, and materialises the rows that pivot does not beat:

.. code-block:: sql

    WITH __pref AS MATERIALIZED (...),
    <pivot> AS MATERIALIZED (                         -- named by plan.pivot
      SELECT __r0, ..., __k0, min(__r0 + ...) FROM __pref
      GROUP BY __k0 COLLATE BINARY),
    __pref_live AS MATERIALIZED (
      SELECT c.* FROM __pref AS c WHERE NOT EXISTS (
        SELECT 1 FROM <pivot> AS d WHERE <same partition, d beats c>))
    SELECT <items> FROM t
    WHERE rowid IN (
      SELECT c.__rid FROM __pref_live AS c
      WHERE NOT EXISTS (SELECT 1 FROM __pref_live AS d WHERE <the same>))

Both sides of the anti-join read ``__pref_live``: a row the pivot beats
is not maximal, and whatever beats a survivor the pivot does not beat,
since dominance is transitive.  The pivot minimises a rank, so a tree
with an EXPLICIT preference keeps the first shape.

A multi-table FROM, and a view, a WITHOUT ROWID table or a table with a
column named ``rowid``, has no rowid to join back on; there every level is
inlined on both copies instead:

.. code-block:: sql

    SELECT <items> FROM <original sources>           -- the candidate copy
    WHERE <original WHERE> AND <BUT ONLY threshold on the candidate>
      AND NOT EXISTS (
            SELECT 1 FROM <sources re-aliased>       -- the dominator copy
            WHERE <original WHERE on the dominator>
              AND <GROUPING key> IS <GROUPING key of the candidate>
              AND <BUT ONLY threshold on the dominator>
              AND <dominance condition over inline rank expressions>)

Either way a tuple survives iff no threshold-satisfying tuple of the same
GROUPING partition is strictly better, and both shapes share one dominance
builder (:mod:`repro.rewrite.conditions`).  Quality functions become rank
expressions; LOWEST/HIGHEST/SCORE optima, which are candidate-set-
dependent, become correlated ``SELECT MIN(...)`` sub-queries over a third
aliased copy.

Schema knowledge: the commercial optimizer read the host catalog; here an
optional ``schema`` mapping (table name → column names) lets unqualified
columns be attributed to their tables in multi-table queries, and a
:class:`HostSchema` also names the sources without a rowid.  With no
schema every single-table source is taken to be a rowid table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import PreferenceConstructionError, RewriteError
from repro.model.algebra import normalize
from repro.model.builder import NameResolver, build_preference
from repro.model.categorical import ExplicitPreference, LayeredPreference
from repro.model.preference import Preference, WeakOrderBase
from repro.model.quality import QUALITY_FUNCTIONS, QualityResolver, result_name
from repro.model.text import ContainsPreference
from repro.rewrite.conditions import Accessor, better_condition, same_group
from repro.rewrite.levels import (
    Qualifier,
    explicit_level_expression,
    leaf_value,
    level_columns,
    rank_expression,
)
from repro.sql import ast
from repro.sql.printer import to_sql

Schema = Mapping[str, Sequence[str]]


class HostSchema(dict):
    """Table → column names read from the host catalog, plus ``rowless``:
    the (lowercased) sources whose ``rowid`` the rewrite cannot join back
    on — views, WITHOUT ROWID tables and tables with a column named
    ``rowid``.  :meth:`repro.driver.dbapi.Connection.schema` builds it."""

    def __init__(self, tables: Mapping[str, Sequence[str]], rowless: Iterable[str] = ()):
        super().__init__(tables)
        self.rowless = frozenset(name.lower() for name in rowless)


@dataclass
class RewriteResult:
    """Outcome of rewriting one statement."""

    statement: ast.Statement
    rewritten: bool
    preference: Preference | None = None
    notes: list[str] = field(default_factory=list)
    #: Whether the anti-join reads only the rows one pivot cannot beat.
    pivot: bool = False


def rewrite_statement(
    statement: ast.Statement,
    schema: Schema | None = None,
    resolver: NameResolver | None = None,
    pivot: bool = False,
    prepared: tuple[Preference, list[str]] | None = None,
) -> RewriteResult:
    """Rewrite any statement; non-preference statements pass through."""
    if isinstance(statement, ast.Select):
        return rewrite_select(statement, schema, resolver, pivot, prepared)
    if isinstance(statement, ast.Insert) and statement.query is not None:
        inner = rewrite_select(statement.query, schema, resolver, pivot, prepared)
        if not inner.rewritten:
            return RewriteResult(statement=statement, rewritten=False)
        rewritten = ast.Insert(
            table=statement.table,
            columns=statement.columns,
            query=inner.statement,
        )
        return RewriteResult(
            statement=rewritten,
            rewritten=True,
            preference=inner.preference,
            notes=inner.notes,
            pivot=inner.pivot,
        )
    return RewriteResult(statement=statement, rewritten=False)


def rewrite_select(
    select: ast.Select,
    schema: Schema | None = None,
    resolver: NameResolver | None = None,
    pivot: bool = False,
    prepared: tuple[Preference, list[str]] | None = None,
) -> RewriteResult:
    """Rewrite one SELECT block.  Plain SQL queries pass through.

    ``pivot`` asks for the rank CTE's pivot filter; the rewrite takes it
    where the CTE shape applies and every base preference has a rank.
    ``prepared`` is the block's :func:`prepare_preference` when the
    caller has made it already."""
    if not select.is_preference_query:
        return RewriteResult(statement=select, rewritten=False)
    rewriter = _SelectRewriter(select, schema=schema, resolver=resolver)
    return rewriter.run(pivot, prepared)


def prepare_preference(
    select: ast.Select, resolver: NameResolver | None = None
) -> tuple[Preference, list[str]]:
    """A preference block's preference, built over its normalised term,
    and the rewrite notes normalising made."""
    term = normalize(select.preferring)
    notes: list[str] = []
    if term != select.preferring:
        notes.append("preference term simplified by algebra laws")
    return build_preference(term, resolver=resolver), notes


class _SelectRewriter:
    """One-shot rewriting context for a single preference SELECT."""

    def __init__(
        self,
        select: ast.Select,
        schema: Schema | None,
        resolver: NameResolver | None,
    ):
        self._select = select
        self._schema = {k.lower(): [c.lower() for c in v] for k, v in (schema or {}).items()}
        self._rowless = schema.rowless if isinstance(schema, HostSchema) else frozenset()
        self._resolver = resolver

    def run(
        self, pivot: bool = False, prepared: tuple[Preference, list[str]] | None = None
    ) -> RewriteResult:
        select = self._select
        self._check_supported(select)

        self._bindings = self._collect_bindings(select.sources)
        self._inner_alias = self._fresh_aliases("d")
        self._optimum_alias = self._fresh_aliases("m")

        preference, notes = prepared or prepare_preference(select, self._resolver)
        self._notes = list(notes)
        self._preference = preference
        self._quality = QualityResolver(preference)

        ctes: tuple[ast.CommonTable, ...] = ()
        if self._has_rowid(select.sources):
            # An EXPLICIT preference compares its operand, not a rank the
            # pivot could minimise.
            pivot = pivot and not any(
                isinstance(leaf, ExplicitPreference) for leaf in preference.iter_base()
            )
            ctes, winners = self._rank_table(preference, pivot)
            where = ast.InSubquery(operand=ast.Column(name="rowid"), query=winners)
        else:
            pivot = False
            where = self._inline_anti_join(preference)

        items = tuple(
            item
            if isinstance(item, ast.Star)
            else ast.SelectItem(
                expr=self._inline_quality(item.expr, "outer"),
                alias=item.alias or self._quality_alias(item.expr),
            )
            for item in select.items
        )
        order_by = tuple(
            ast.OrderItem(
                expr=self._inline_quality(order_item.expr, "outer"),
                descending=order_item.descending,
            )
            for order_item in select.order_by
        )

        rewritten = ast.Select(
            items=items,
            sources=select.sources,
            where=where,
            order_by=order_by,
            limit=select.limit,
            offset=select.offset,
            distinct=select.distinct,
            ctes=ctes,
        )
        return RewriteResult(
            statement=rewritten,
            rewritten=True,
            preference=preference,
            notes=self._notes,
            pivot=pivot,
        )

    # ------------------------------------------------------------------
    # The anti-join, over the rank CTE or inline

    def _has_rowid(self, sources: Sequence[ast.FromSource]) -> bool:
        """One table that the schema does not name as rowid-less."""
        if len(sources) != 1 or not isinstance(sources[0], ast.TableRef):
            return False
        return sources[0].name.lower() not in self._rowless

    def _rank_table(
        self, preference: Preference, pivot: bool
    ) -> tuple[tuple[ast.CommonTable, ...], ast.Select]:
        """The paper's ``Aux`` as a materialized CTE, and the query for the
        rowids of its maximal rows.  Its WHERE is the original one plus the
        BUT ONLY threshold — applied once per row, so to both copies.

        With ``pivot`` the anti-join compares only ``Aux``'s rows that one
        pivot per GROUPING partition does not beat, on both sides
        (:func:`repro.plan.pivot.rank_cte`)."""
        select = self._select
        outer = self._make_qualifier({b: b for b, _t in self._bindings})
        hard = self._candidate_conditions(
            outer(select.where) if select.where is not None else None
        )
        leaves = list(preference.iter_base())
        columns, levels = level_columns(leaves, outer)
        keys = tuple(
            ast.SelectItem(expr=outer(column), alias=f"__k{index}")
            for index, column in enumerate(select.grouping)
        )
        name = self._cte_name()
        query = ast.Select(
            items=(ast.SelectItem(expr=ast.Column(name="rowid"), alias="__rid"),)
            + levels
            + keys,
            sources=select.sources,
            where=_conjoin(hard),
        )
        ctes: tuple[ast.CommonTable, ...] = (
            ast.CommonTable(name=name, query=query, materialized=True),
        )
        if pivot:
            # plan.pivot imports the rewriter's package; import it late.
            from repro.plan.pivot import fresh_name, rank_cte

            taken = to_sql(query).lower()
            ctes, survivors = rank_cte(
                name,
                query,
                preference,
                [columns[leaf] for leaf in leaves],
                [key.alias for key in keys],
                taken,
            )
            name = fresh_name("__pref_live", taken)
            ctes += (ast.CommonTable(name=name, query=survivors, materialized=True),)

        def copy(alias: str) -> Accessor:
            return lambda leaf: ast.Column(name=columns[leaf], table=alias)

        conditions: list[ast.Expr] = [
            same_group(
                ast.Column(name=key.alias, table="d"),
                ast.Column(name=key.alias, table="c"),
            )
            for key in keys
        ]
        conditions.append(better_condition(preference, copy("d"), copy("c")))
        winners = ast.Select(
            items=(ast.SelectItem(expr=ast.Column(name="__rid", table="c")),),
            sources=(ast.TableRef(name=name, alias="c"),),
            where=_not_exists((ast.TableRef(name=name, alias="d"),), conditions),
        )
        return ctes, winners

    def _cte_name(self) -> str:
        taken = {name.lower() for pair in self._bindings for name in pair}
        name, counter = "__pref", 0
        while name in taken:
            counter += 1
            name = f"__pref{counter}"
        return name

    def _inline_anti_join(self, preference: Preference) -> ast.Expr:
        """The candidate's WHERE and threshold, then ``NOT EXISTS`` over a
        re-aliased copy of the sources, with every level inlined on both
        copies (for sources without a rowid)."""
        select = self._select
        outer = self._make_qualifier({b: b for b, _t in self._bindings})
        inner = self._make_qualifier(self._inner_alias)
        conditions: list[ast.Expr] = []
        if select.where is not None:
            conditions.append(self._requalify(select.where, self._inner_alias))
        for column in select.grouping:
            conditions.append(same_group(inner(column), outer(column)))
        if select.but_only is not None:
            conditions.append(self._threshold("inner"))
        conditions.append(
            better_condition(preference, _inline(inner), _inline(outer))
        )
        anti_join = _not_exists(
            self._realias_sources(select.sources, self._inner_alias), conditions
        )
        return _conjoin(self._candidate_conditions(select.where) + [anti_join])

    def _candidate_conditions(self, where: ast.Expr | None) -> list[ast.Expr]:
        """A candidate's hard conditions: ``where``, then the BUT ONLY
        threshold."""
        hard = [where] if where is not None else []
        if self._select.but_only is not None:
            hard.append(self._threshold("outer"))
        return hard

    # ------------------------------------------------------------------
    # Validation and binding discovery

    def _check_supported(self, select: ast.Select) -> None:
        if select.group_by or select.having:
            raise RewriteError(
                "GROUP BY/HAVING cannot be combined with PREFERRING; use "
                "GROUPING for soft partitions (paper section 2.2.5)"
            )
        for node in ast.walk(select):
            if isinstance(node, ast.Param):
                raise RewriteError(
                    "preference queries must have parameters bound before "
                    "rewriting (the driver literalises them)"
                )

    def _collect_bindings(
        self, sources: Sequence[ast.FromSource]
    ) -> list[tuple[str, str]]:
        bindings: list[tuple[str, str]] = []
        for source in sources:
            for node in ast.walk(source, ast.FROM_SOURCES):
                if isinstance(node, ast.TableRef):
                    bindings.append((node.binding, node.name))
                elif isinstance(node, ast.SubquerySource):
                    raise RewriteError(
                        "derived tables in the FROM clause of a preference "
                        "query are not supported by the rewriter"
                    )
        seen = set()
        for binding, _table in bindings:
            if binding.lower() in seen:
                raise RewriteError(f"duplicate table binding {binding!r}")
            seen.add(binding.lower())
        return bindings

    def _fresh_aliases(self, suffix: str) -> dict[str, str]:
        taken = {binding.lower() for binding, _t in self._bindings}
        aliases: dict[str, str] = {}
        for binding, _table in self._bindings:
            candidate = f"{binding}_{suffix}"
            counter = 0
            while candidate.lower() in taken:
                counter += 1
                candidate = f"{binding}_{suffix}{counter}"
            taken.add(candidate.lower())
            aliases[binding] = candidate
        return aliases

    # ------------------------------------------------------------------
    # Column qualification

    def _owner_of(self, column: ast.Column) -> str:
        if column.table is not None:
            for binding, _table in self._bindings:
                if binding.lower() == column.table.lower():
                    return binding
            raise RewriteError(f"unknown table qualifier {column.table!r}")
        if len(self._bindings) == 1:
            return self._bindings[0][0]
        owners = [
            binding
            for binding, table in self._bindings
            if column.name.lower() in self._schema.get(table.lower(), ())
        ]
        if len(owners) == 1:
            return owners[0]
        if not owners:
            raise RewriteError(
                f"cannot attribute column {column.name!r} to a table; "
                "qualify it or provide a schema"
            )
        raise RewriteError(
            f"column {column.name!r} is ambiguous across: {', '.join(owners)}"
        )

    def _make_qualifier(self, alias_map: dict[str, str]):
        def qualify(expr: ast.Expr) -> ast.Expr:
            return self._requalify(expr, alias_map)

        return qualify

    def _requalify(self, expr: ast.Expr, alias_map: dict[str, str]) -> ast.Expr:
        """Deep-rewrite column references into the given alias family."""

        def visit(node: ast.Node) -> ast.Node | None:
            if isinstance(node, (*ast.SUBQUERIES, ast.Star)):
                raise RewriteError(
                    "unsupported expression in a preference query: "
                    f"{type(node).__name__}"
                )
            if isinstance(node, ast.Column):
                return ast.Column(name=node.name, table=alias_map[self._owner_of(node)])
            return None

        return ast.transform(expr, visit)

    def _realias_sources(
        self, sources: Sequence[ast.FromSource], alias_map: dict[str, str]
    ) -> tuple[ast.FromSource, ...]:
        def visit(node: ast.Node) -> ast.Node | None:
            if isinstance(node, ast.TableRef):
                return ast.TableRef(name=node.name, alias=alias_map[node.binding])
            if isinstance(node, ast.Expr):
                return self._requalify(node, alias_map)
            return None

        return tuple(ast.transform(source, visit) for source in sources)

    # ------------------------------------------------------------------
    # GROUPING and BUT ONLY

    def _threshold(self, family: str) -> ast.Expr:
        return self._inline_quality(self._select.but_only, family)

    # ------------------------------------------------------------------
    # Quality functions

    def _family_alias_map(self, family: str) -> dict[str, str]:
        if family == "outer":
            return {binding: binding for binding, _t in self._bindings}
        if family == "inner":
            return self._inner_alias
        raise RewriteError(f"unknown alias family {family!r}")  # pragma: no cover

    def _inline_quality(self, expr: ast.Expr, family: str) -> ast.Expr:
        """Replace TOP/LEVEL/DISTANCE calls with rank expressions.

        Only quality calls are replaced; other column references are left
        as written (they are correct in the outer scope).  For the inner
        family the *whole* expression is requalified afterwards, because
        it moves into the NOT EXISTS sub-query.
        """
        mapping: dict[ast.Expr, ast.Expr] = {}
        for node in ast.walk_expr(expr):
            if (
                isinstance(node, ast.FuncCall)
                and node.name in QUALITY_FUNCTIONS
                and node not in mapping
            ):
                if len(node.args) != 1:
                    raise PreferenceConstructionError(
                        f"{node.name} takes exactly one argument"
                    )
                mapping[node] = self._quality_sql(node.name, node.args[0], family)
        if family == "inner":
            # The expression moves into the NOT EXISTS sub-query: its plain
            # column references move to the dominator aliases, its quality
            # calls become their rank expressions, its sub-queries stay.
            def visit(node: ast.Node) -> ast.Node | None:
                if node in mapping:
                    return mapping[node]
                if isinstance(node, ast.SUBQUERIES):
                    return node
                if isinstance(node, ast.Column):
                    return ast.Column(
                        name=node.name, table=self._inner_alias[self._owner_of(node)]
                    )
                return None

            return ast.transform(expr, visit)
        return ast.substitute(expr, mapping) if mapping else expr

    def _quality_sql(self, function: str, target: ast.Expr, family: str) -> ast.Expr:
        resolved = self._quality.resolve(target)
        base = resolved.base
        qualify = self._make_qualifier(self._family_alias_map(family))

        if function == "LEVEL":
            if isinstance(base, LayeredPreference):
                level = rank_expression(base, qualify)
            elif isinstance(base, ExplicitPreference):
                level = explicit_level_expression(base, qualify)
            elif isinstance(base, ContainsPreference):
                level = rank_expression(base, qualify)
            else:
                raise RewriteError(
                    f"LEVEL is not defined for {base.kind} preferences"
                )
            return ast.Binary(op="+", left=level, right=ast.Literal(value=1))

        if isinstance(base, LayeredPreference) or isinstance(
            base, ExplicitPreference
        ):
            if function == "DISTANCE":
                raise RewriteError(
                    f"DISTANCE is not defined for {base.kind} preferences"
                )
            # TOP on layered/explicit: level 0 is the perfect match.
            if isinstance(base, LayeredPreference):
                level = rank_expression(base, qualify)
            else:
                level = explicit_level_expression(base, qualify)
            return _boolean_case(
                ast.Binary(op="=", left=level, right=ast.Literal(value=0))
            )

        if not isinstance(base, WeakOrderBase):
            raise RewriteError(
                f"{function} is not defined for {base.kind} preferences"
            )  # pragma: no cover - all bases are weak orders or explicit

        rank = rank_expression(base, qualify)
        best: ast.Expr
        if base.best_rank() is not None:
            best = ast.Literal(value=base.best_rank())
        else:
            best = self._optimum_subquery(base, family)
            self._notes.append(
                f"{function}({to_sql(target)}) uses a candidate-set optimum "
                "sub-query (data-dependent best value)"
            )
        if function == "DISTANCE":
            if base.best_rank() == 0.0:
                return rank
            return ast.Binary(op="-", left=rank, right=best)
        return _boolean_case(ast.Binary(op="=", left=rank, right=best))

    def _optimum_subquery(self, base: Preference, family: str) -> ast.Expr:
        """``(SELECT MIN(rank) FROM <sources as m> WHERE <W on m> AND
        <same GROUPING partition as this row>)``."""
        optimum_qualify = self._make_qualifier(self._optimum_alias)
        family_qualify = self._make_qualifier(self._family_alias_map(family))
        conditions: list[ast.Expr] = []
        if self._select.where is not None:
            conditions.append(
                self._requalify(self._select.where, self._optimum_alias)
            )
        for column in self._select.grouping:
            conditions.append(
                same_group(optimum_qualify(column), family_qualify(column))
            )
        rank = rank_expression(base, optimum_qualify)
        return ast.ScalarSubquery(
            query=ast.Select(
                items=(
                    ast.SelectItem(expr=ast.FuncCall(name="MIN", args=(rank,))),
                ),
                sources=self._realias_sources(
                    self._select.sources, self._optimum_alias
                ),
                where=_conjoin(conditions) if conditions else None,
            )
        )

    @staticmethod
    def _quality_alias(expr: ast.Expr) -> str | None:
        """Give bare quality-function items a stable, readable column name."""
        if isinstance(expr, ast.FuncCall) and expr.name in QUALITY_FUNCTIONS:
            return result_name(expr)
        return None


# ----------------------------------------------------------------------
# Small helpers


def _conjoin(parts: list[ast.Expr]) -> ast.Expr | None:
    if not parts:
        return None
    result = parts[0]
    for part in parts[1:]:
        result = ast.Binary(op="AND", left=result, right=part)
    return result


def _inline(qualify: Qualifier) -> Accessor:
    return lambda leaf: leaf_value(leaf, qualify)


def _not_exists(
    sources: Sequence[ast.FromSource], conditions: list[ast.Expr]
) -> ast.Exists:
    return ast.Exists(
        query=ast.Select(
            items=(ast.SelectItem(expr=ast.Literal(value=1)),),
            sources=tuple(sources),
            where=_conjoin(conditions),
        ),
        negated=True,
    )


def _boolean_case(condition: ast.Expr) -> ast.Expr:
    return ast.CaseWhen(
        branches=((condition, ast.Literal(value=1)),),
        otherwise=ast.Literal(value=0),
    )

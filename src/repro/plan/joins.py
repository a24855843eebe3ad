"""Join-aware preference planning: in-memory scans and winnow pushdown.

The paper's Preference SQL Optimizer rewrites the *full* SQL92 query
block, joins included; until this module existed, the in-memory fast
paths of :mod:`repro.plan.planner` were confined to single-table FROM
clauses and every join was forced through the quadratic ``NOT EXISTS``
anti-join.  Two ideas lift that restriction:

* **Join scan** (:func:`build_join_scan` / :func:`join_memory_parts`) —
  the host database is already the right place to execute a join, so the
  hard-condition pushdown simply ships the whole multi-table FROM: the
  scan SELECT projects every column of every joined table under a
  *flattened* (collision-free) alias, sqlite materialises the joined
  candidate rows, and the residual preference block is requalified onto
  one synthetic single-table relation the engine evaluates exactly like
  any pushdown result — columnar kernels, SQL rank pushdown, GROUPING
  fast paths and the partitioned executor included.

* **Winnow-over-join pushdown** (:func:`analyze_prejoin` /
  :func:`prejoin_parts`) — Chomicki's semantic-optimization laws for
  preference queries (PAPERS.md) give the algebraic condition under
  which winnow commutes with a join: when every preference (and
  GROUPING) attribute resolves to one table ``R``, dominance between
  joined tuples depends only on their ``R``-part, so

  .. code-block:: text

      ω_P(σ_W(R × S)) = σ_W((ω_P over the W-joinable R-rows) × S)

  The safe general form computes the BMO set over the *semijoin-reduced*
  ``R`` (only rows with at least one join partner — a winner the join
  predicate would eliminate must never suppress joinable runners-up),
  then joins only the winners back.  Key–foreign-key and many-to-one
  joins are the common cases where this collapses the candidate set by
  orders of magnitude; anything outside the conditions (preference
  attributes spanning tables, LEFT joins, BUT ONLY thresholds) falls
  back conservatively to the generic join scan or the rewrite.

The module also owns :func:`estimation_predicate`, which folds explicit
``JOIN … ON`` conditions into the WHERE conjunction so comma-join lists
and JOIN syntax price identically (they are the same query).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.errors import PlanError
from repro.model.builder import NameResolver
from repro.model.preference import Preference
from repro.plan.pivot import RANK_COLUMN_PREFIX, ranked_scan_sql
from repro.rewrite.planner import Schema
from repro.sql import ast
from repro.sql.printer import to_sql

#: Registration name of the synthetic single-table relation the residual
#: of a join scan runs over (the joined candidate rows).
JOIN_RELATION = "__pref_join"

#: Alias of the preference table's rowid in a winnow-pushdown scan; the
#: executor joins the winners back through ``rowid IN (...)``.
PREJOIN_ROWID = "__pref_rowid"


@dataclass(frozen=True)
class JoinSource:
    """One base table of a multi-table FROM, with its schema columns."""

    binding: str
    table: str
    columns: tuple[str, ...]


@dataclass(frozen=True)
class JoinScan:
    """A join-eligible FROM clause, flattened for the in-memory engine.

    ``flat_names`` maps ``(binding_lower, column_lower)`` to the unique
    output name the scan SELECT aliases that column to; ``owners`` maps
    an unqualified column name to its owning binding when exactly one
    joined table has it (the rewriter rejects genuinely ambiguous
    references before planning reaches this point).
    """

    sources: tuple[JoinSource, ...]
    flat_names: dict[tuple[str, str], str]
    owners: dict[str, str]
    inner_only: bool

    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(source.table for source in self.sources)

    def source_for(self, binding: str) -> JoinSource:
        key = binding.lower()
        for source in self.sources:
            if source.binding.lower() == key:
                return source
        raise PlanError(f"unknown table binding {binding!r}")

    def owner_of(self, column: ast.Column) -> str:
        """The binding a column reference belongs to."""
        if column.table is not None:
            return self.source_for(column.table).binding
        owner = self.owners.get(column.name.lower())
        if owner is None:
            raise PlanError(
                f"cannot attribute column {column.name!r} to a joined table"
            )
        return owner

    def flat_name(self, column: ast.Column) -> str:
        binding = self.owner_of(column)
        key = (binding.lower(), column.name.lower())
        if key not in self.flat_names:
            raise PlanError(
                f"unknown column {column.qualified!r} in the join scan"
            )
        return self.flat_names[key]


# ----------------------------------------------------------------------
# FROM-shape analysis


def _collect_table_refs(
    source: ast.FromSource, refs: list[ast.TableRef], flags: dict
) -> bool:
    """Collect base tables of one FROM source; False on derived tables."""
    if isinstance(source, ast.TableRef):
        refs.append(source)
        return True
    if isinstance(source, ast.Join):
        if source.kind != "INNER" and source.kind != "CROSS":
            flags["inner_only"] = False
        return _collect_table_refs(source.left, refs, flags) and (
            _collect_table_refs(source.right, refs, flags)
        )
    return False


def join_predicates(sources: Sequence[ast.FromSource]) -> list[ast.Expr]:
    """Every ``JOIN … ON`` condition in a FROM clause, in tree order."""
    conditions: list[ast.Expr] = []

    def visit(source: ast.FromSource) -> None:
        if isinstance(source, ast.Join):
            visit(source.left)
            visit(source.right)
            if source.condition is not None:
                conditions.append(source.condition)
        elif isinstance(source, ast.SubquerySource):
            pass  # nested queries estimate independently

    for source in sources:
        visit(source)
    return conditions


def estimation_predicate(select: ast.Select) -> ast.Expr | None:
    """The WHERE conjunction *plus* every JOIN … ON condition.

    Comma-join lists put the join predicate in WHERE; explicit JOIN
    syntax puts it in the ON clause.  Selectivity estimation must see
    both, or semantically identical queries price differently.
    """
    parts = join_predicates(select.sources)
    if select.where is not None:
        parts.append(select.where)
    if not parts:
        return None
    predicate = parts[0]
    for part in parts[1:]:
        predicate = ast.Binary(op="AND", left=predicate, right=part)
    return predicate


def build_join_scan(
    select: ast.Select, schema: Schema | None
) -> tuple[JoinScan | None, str]:
    """Analyse a multi-table FROM into a :class:`JoinScan`, or a reason.

    Requires every source to be a base table (or a join tree of base
    tables) present in ``schema`` — the flattened projection needs the
    column lists.  LEFT joins are scan-eligible (sqlite executes the
    join either way); they only disable the winnow pushdown.
    """
    refs: list[ast.TableRef] = []
    flags = {"inner_only": True}
    for source in select.sources:
        if not _collect_table_refs(source, refs, flags):
            return None, "derived tables in FROM need the host database"
    if len(refs) < 2:
        return None, "in-memory evaluation needs base-table sources"
    lowered = {name.lower(): columns for name, columns in (schema or {}).items()}
    sources: list[JoinSource] = []
    for ref in refs:
        columns = lowered.get(ref.name.lower())
        if columns is None:
            return None, (
                f"join pushdown needs schema knowledge of table {ref.name!r}"
            )
        sources.append(
            JoinSource(
                binding=ref.binding, table=ref.name, columns=tuple(columns)
            )
        )

    # Flattened output names: keep a column's own name when it is unique
    # across the whole join, else prefix the binding; a numeric suffix
    # breaks any remaining tie (e.g. a table literally named ``d_k``).
    counts: dict[str, int] = {}
    for source in sources:
        for column in source.columns:
            counts[column.lower()] = counts.get(column.lower(), 0) + 1
    flat_names: dict[tuple[str, str], str] = {}
    taken: set[str] = set()
    owners: dict[str, str] = {}
    for source in sources:
        for column in source.columns:
            key = column.lower()
            if counts[key] == 1:
                owners[key] = source.binding
                candidate = column
            else:
                candidate = f"{source.binding}_{column}"
            suffix = 2
            while candidate.lower() in taken:
                candidate = f"{source.binding}_{column}_{suffix}"
                suffix += 1
            taken.add(candidate.lower())
            flat_names[(source.binding.lower(), key)] = candidate
    return (
        JoinScan(
            sources=tuple(sources),
            flat_names=flat_names,
            owners=owners,
            inner_only=flags["inner_only"],
        ),
        "",
    )


# ----------------------------------------------------------------------
# Residual flattening


def _flatten_expr(expr: ast.Expr, rename: Callable[[ast.Column], ast.Column]) -> ast.Expr:
    mapping = {
        node: rename(node)
        for node in ast.walk_expr(expr)
        if isinstance(node, ast.Column)
    }
    return ast.substitute(expr, mapping) if mapping else expr


def _flatten_pref(
    term: ast.PrefTerm, rename: Callable[[ast.Column], ast.Column]
) -> ast.PrefTerm:
    """Rebuild a preference term with every operand expression renamed."""
    if isinstance(term, (ast.ParetoPref, ast.CascadePref, ast.ElsePref)):
        return type(term)(
            parts=tuple(_flatten_pref(part, rename) for part in term.parts)
        )
    if isinstance(term, ast.AroundPref):
        return ast.AroundPref(
            operand=_flatten_expr(term.operand, rename),
            target=_flatten_expr(term.target, rename),
        )
    if isinstance(term, ast.BetweenPref):
        return ast.BetweenPref(
            operand=_flatten_expr(term.operand, rename),
            low=_flatten_expr(term.low, rename),
            high=_flatten_expr(term.high, rename),
        )
    if isinstance(term, (ast.LowestPref, ast.HighestPref, ast.ScorePref)):
        return type(term)(operand=_flatten_expr(term.operand, rename))
    if isinstance(term, (ast.PosPref, ast.NegPref)):
        return type(term)(
            operand=_flatten_expr(term.operand, rename),
            values=tuple(_flatten_expr(value, rename) for value in term.values),
        )
    if isinstance(term, ast.ContainsPref):
        return ast.ContainsPref(
            operand=_flatten_expr(term.operand, rename),
            terms=_flatten_expr(term.terms, rename),
        )
    if isinstance(term, ast.ExplicitPref):
        return ast.ExplicitPref(
            operand=_flatten_expr(term.operand, rename),
            pairs=tuple(
                (_flatten_expr(better, rename), _flatten_expr(worse, rename))
                for better, worse in term.pairs
            ),
        )
    if isinstance(term, ast.NamedPref):  # pragma: no cover - inlined upstream
        raise PlanError("named preferences must be inlined before flattening")
    raise PlanError(f"cannot flatten preference term {type(term).__name__}")


def _scan_items(scan: JoinScan) -> tuple[ast.SelectItem, ...]:
    """The flattened projection the join scan SELECT ships to sqlite."""
    items: list[ast.SelectItem] = []
    for source in scan.sources:
        for column in source.columns:
            items.append(
                ast.SelectItem(
                    expr=ast.Column(name=column, table=source.binding),
                    alias=scan.flat_names[(source.binding.lower(), column.lower())],
                )
            )
    return tuple(items)


def join_memory_parts(
    select: ast.Select,
    scan: JoinScan,
    resolver: NameResolver | None = None,
    rank_exprs: Sequence[ast.Expr] | None = None,
    preference: Preference | None = None,
) -> tuple[str, ast.Select, int]:
    """Split a join SELECT into (pushdown SQL, residual block, rank width).

    The pushdown executes the whole join (and the original WHERE) on the
    host database under the flattened projection, behind the same pivot
    filter (:func:`repro.plan.pivot.ranked_scan_sql`); the residual is the
    same query block requalified onto the synthetic single-table relation
    :data:`JOIN_RELATION` holding the joined candidate rows.  Mirrors
    :func:`repro.plan.planner.in_memory_parts` for single tables.
    """
    from repro.plan.planner import inline_named_preferences

    def rename(column: ast.Column) -> ast.Column:
        return ast.Column(name=scan.flat_name(column))

    pushdown = ranked_scan_sql(
        select,
        _scan_items(scan),
        list(scan.flat_names.values()),
        [scan.flat_name(column) for column in select.grouping],
        rank_exprs,
        preference,
    )

    residual_items: list[ast.SelectItem | ast.Star] = []
    for item in select.items:
        if isinstance(item, ast.Star):
            if item.table is None:
                residual_items.append(ast.Star())
                continue
            source = scan.source_for(item.table)
            for column in source.columns:
                flat = scan.flat_names[(source.binding.lower(), column.lower())]
                residual_items.append(
                    ast.SelectItem(expr=ast.Column(name=flat), alias=flat)
                )
            continue
        residual_items.append(
            ast.SelectItem(
                expr=_flatten_expr(item.expr, rename),
                alias=item.alias or to_sql(item.expr),
            )
        )

    term = select.preferring
    if term is not None:
        if resolver is not None:
            term = inline_named_preferences(term, resolver)
        term = _flatten_pref(term, rename)

    # ORDER BY may reference a select-list alias (standard SQL); those
    # names are not table columns — keep them verbatim so the engine's
    # own alias resolution maps them to the (already flattened) item
    # expressions.
    aliases = {
        item.alias.lower()
        for item in select.items
        if isinstance(item, ast.SelectItem) and item.alias
    }

    def rename_order(column: ast.Column) -> ast.Column:
        if column.table is None and column.name.lower() in aliases:
            return column
        return rename(column)

    residual = ast.Select(
        items=tuple(residual_items),
        sources=(ast.TableRef(name=JOIN_RELATION),),
        where=None,
        preferring=term,
        grouping=tuple(rename(column) for column in select.grouping),
        but_only=(
            _flatten_expr(select.but_only, rename)
            if select.but_only is not None
            else None
        ),
        order_by=tuple(
            ast.OrderItem(
                expr=_flatten_expr(order_item.expr, rename_order),
                descending=order_item.descending,
            )
            for order_item in select.order_by
        ),
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )
    return pushdown, residual, len(rank_exprs or ())


# ----------------------------------------------------------------------
# Winnow-over-join pushdown (Chomicki's commute conditions)


def _preference_columns(
    term: ast.PrefTerm, resolver: NameResolver | None
) -> list[ast.Column]:
    from repro.plan.planner import inline_named_preferences
    from repro.rewrite.planner import pref_expressions

    if resolver is not None:
        term = inline_named_preferences(term, resolver)
    columns: list[ast.Column] = []
    for node in ast.walk_pref(term):
        for expr in pref_expressions(node):
            for sub in ast.walk_expr(expr):
                if isinstance(sub, ast.Column):
                    columns.append(sub)
    return columns


def analyze_prejoin(
    select: ast.Select,
    scan: JoinScan,
    resolver: NameResolver | None = None,
) -> tuple[str | None, str]:
    """Decide whether winnow commutes with this join, conservatively.

    Returns ``(binding, "")`` naming the preference-bearing table when
    the BMO set may be computed before the join, or ``(None, reason)``.
    The conditions (after Chomicki's semantic-optimization laws):

    * every preference attribute resolves to one table ``R`` — dominance
      between joined tuples then depends only on their ``R``-part,
    * every GROUPING attribute resolves to ``R`` too — partitions are a
      function of the ``R``-part,
    * no ``BUT ONLY`` threshold — its quality functions range over the
      *joined* candidate set,
    * only INNER/CROSS joins — a LEFT join pads unmatched rows instead
      of eliminating them, which the semijoin reduction cannot model.

    The executed form winnows the semijoin-reduced ``R`` (rows with at
    least one join partner), so a best-of-``R`` row the join predicate
    would eliminate never suppresses joinable runners-up — the
    conservative fallback built into the plan shape itself.
    """
    if select.preferring is None:  # pragma: no cover - guarded upstream
        return None, "no PREFERRING clause"
    if not scan.inner_only:
        return None, "LEFT joins pad unmatched rows instead of eliminating them"
    if select.but_only is not None:
        return None, "BUT ONLY thresholds range over the joined candidates"
    try:
        columns = _preference_columns(select.preferring, resolver)
    except PlanError as error:
        return None, str(error)
    owners = set()
    for column in columns:
        try:
            owners.add(scan.owner_of(column).lower())
        except PlanError as error:
            return None, str(error)
    if not owners:
        return None, "the preference references no table column"
    if len(owners) > 1:
        return None, (
            "preference attributes span tables "
            + ", ".join(sorted(owners))
        )
    binding = next(iter(owners))
    for column in select.grouping:
        try:
            owner = scan.owner_of(column).lower()
        except PlanError as error:
            return None, str(error)
        if owner != binding:
            return None, (
                f"GROUPING attribute {column.qualified!r} is not on the "
                "preference-bearing table"
            )
    return scan.source_for(binding).binding, ""


def _other_sources(
    select: ast.Select, scan: JoinScan, binding: str
) -> tuple[tuple[ast.TableRef, ...], list[ast.Expr]]:
    """The non-preference tables and every join condition, flattened.

    Only called for inner-only FROM shapes, where a join tree is
    equivalent to the comma list of its tables plus the conjunction of
    its ON conditions.
    """
    refs: list[ast.TableRef] = []
    flags = {"inner_only": True}
    for source in select.sources:
        _collect_table_refs(source, refs, flags)
    others = tuple(
        ast.TableRef(name=ref.name, alias=ref.alias)
        for ref in refs
        if ref.binding.lower() != binding.lower()
    )
    return others, join_predicates(select.sources)


def prejoin_parts(
    select: ast.Select,
    scan: JoinScan,
    binding: str,
    resolver: NameResolver | None = None,
    rank_exprs: Sequence[ast.Expr] | None = None,
) -> tuple[str, ast.Select, ast.Select, int]:
    """Build the three pieces of a winnow-over-join execution.

    Returns ``(scan_sql, residual, join_back, rank_width)``:

    * ``scan_sql`` — ``SELECT R.rowid AS __pref_rowid, R.* (aliased),
      <rank expressions> FROM R WHERE EXISTS (SELECT 1 FROM <other
      tables> WHERE <join conditions AND original WHERE>)`` — the
      semijoin-reduced preference table, with the SQL rank pushdown
      riding along exactly like on a single-table scan,
    * ``residual`` — ``SELECT __pref_rowid FROM __pref_join PREFERRING …
      GROUPING …`` — the BMO computation the engine runs over the
      fetched rows, projecting only the winners' rowids,
    * ``join_back`` — the original query block minus its preference
      clauses; the executor conjoins ``R.rowid IN (<winners>)`` into its
      WHERE and ships it back to the host database, so projection,
      ORDER BY, LIMIT and DISTINCT keep exact host semantics.
    """
    from repro.plan.planner import inline_named_preferences

    source = scan.source_for(binding)
    others, conditions = _other_sources(select, scan, binding)
    if select.where is not None:
        conditions = conditions + [select.where]
    predicate: ast.Expr | None = None
    for part in conditions:
        predicate = (
            part
            if predicate is None
            else ast.Binary(op="AND", left=predicate, right=part)
        )
    semijoin = ast.Exists(
        query=ast.Select(
            items=(ast.SelectItem(expr=ast.Literal(value=1)),),
            sources=others,
            where=predicate,
        )
    )

    items: list[ast.SelectItem] = [
        ast.SelectItem(
            expr=ast.Column(name="rowid", table=source.binding),
            alias=PREJOIN_ROWID,
        )
    ]
    for column in source.columns:
        items.append(
            ast.SelectItem(
                expr=ast.Column(name=column, table=source.binding), alias=column
            )
        )
    if rank_exprs:
        items.extend(
            ast.SelectItem(expr=expr, alias=f"{RANK_COLUMN_PREFIX}{index}")
            for index, expr in enumerate(rank_exprs)
        )
    scan_select = ast.Select(
        items=tuple(items),
        sources=(
            ast.TableRef(
                name=source.table,
                alias=(
                    source.binding
                    if source.binding.lower() != source.table.lower()
                    else None
                ),
            ),
        ),
        where=semijoin,
    )

    def rename(column: ast.Column) -> ast.Column:
        # Preference attributes all live on R; within one table the
        # column names are unique, so the bare name is unambiguous.
        return ast.Column(name=column.name)

    term = select.preferring
    if term is not None:
        if resolver is not None:
            term = inline_named_preferences(term, resolver)
        term = _flatten_pref(term, rename)
    residual = ast.Select(
        items=(ast.SelectItem(expr=ast.Column(name=PREJOIN_ROWID)),),
        sources=(ast.TableRef(name=JOIN_RELATION),),
        where=None,
        preferring=term,
        grouping=tuple(rename(column) for column in select.grouping),
    )

    join_back = replace(
        select, preferring=None, grouping=(), but_only=None
    )
    return to_sql(scan_select), residual, join_back, len(rank_exprs or ())


def join_back_sql(join_back: ast.Select, binding: str, rowids: Sequence[int]) -> str:
    """The final SQL of a winnow pushdown: the join restricted to winners."""
    rowid = ast.Column(name="rowid", table=binding)
    if rowids:
        condition: ast.Expr = ast.InList(
            operand=rowid,
            items=tuple(ast.Literal(value=int(r)) for r in rowids),
        )
    else:
        condition = ast.Binary(
            op="=", left=ast.Literal(value=0), right=ast.Literal(value=1)
        )
    where = (
        condition
        if join_back.where is None
        else ast.Binary(op="AND", left=join_back.where, right=condition)
    )
    return to_sql(replace(join_back, where=where))

"""Incremental maintenance of materialized preference views.

The paper positions Preference SQL as middleware serving repeated BMO
queries over slowly changing relations; Chomicki's *Database Querying
under Changing Preferences* shows that winnow results can be maintained
incrementally instead of recomputed.  This module implements that idea
for the driver's ``CREATE PREFERENCE VIEW`` statement:

* the view's BMO result is materialized into a backing table (named
  after the view, so plain SQL can read it),
* when the driver intercepts INSERT/DELETE/UPDATE on a base table, the
  backing rows are brought up to date **incrementally** where the
  dominance structure allows it, and by a **flagged full recompute**
  otherwise.

The incremental step rests on the classical winnow lemma for strict
partial orders: for a preference ``P`` over a relation ``R`` with delta
``Δ``,

    ``BMO(R ∪ Δ) = BMO(BMO(R) ∪ Δ)``

because every non-maximal tuple of ``R`` is — by transitivity and
finiteness — dominated by some *maximal* tuple of ``R``, which is still
present on the right-hand side.  Inserts therefore only need a dominance
test of the new tuples against the current BMO set (promoting the
newcomers that survive and evicting members they dominate).  Deleting a
tuple that is *not* in the BMO set cannot change it (removing tuples
never demotes a maximal one); deleting a BMO member triggers a **bounded
re-derivation** — only the GROUPING partitions that lost a member are
recomputed from the remaining candidates, every other partition keeps
its rows (plus the incremental insert step for additions).  Updates are
handled as delete + insert via a rowid snapshot diff.

Views whose shape defeats delta reasoning — projections that hide the
dominance attributes, ``BUT ONLY`` thresholds that shift with the data,
joins, sub-queries, LIMIT — fall back to full recompute, with the reason
recorded in the catalog (``Connection.views()``).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.engine.bmo import run_plan, winnow
from repro.engine.relation import Relation
from repro.errors import CatalogError, DriverError, EvaluationError
from repro.pdl.catalog import ViewEntry
from repro.plan.planner import in_memory_parts
from repro.sql import ast
from repro.sql.printer import quote_identifier as _quote
from repro.sql.printer import to_sql

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.driver.dbapi import Connection

# ----------------------------------------------------------------------
# CREATE-time analysis


@dataclass(frozen=True)
class ViewAnalysis:
    """CREATE-time maintainability verdict for one view definition."""

    maintainable: bool
    reason: str
    base_table: str | None
    base_tables: tuple[str, ...]


def base_tables_of(select: ast.Select) -> tuple[str, ...]:
    """All base tables referenced anywhere in the query (lowercased)."""
    names = {node.name.lower() for node in ast.walk(select) if isinstance(node, ast.TableRef)}
    return tuple(sorted(names))


def validate_view(query: ast.Select) -> None:
    """Reject view definitions the subsystem cannot persist at all."""
    if query.preferring is None:
        raise CatalogError("a preference view needs a PREFERRING clause")
    for node in ast.walk(query):
        if isinstance(node, ast.Param):
            raise CatalogError(
                "preference view definitions cannot contain '?' parameters"
            )


def analyze_view(query: ast.Select) -> ViewAnalysis:
    """Decide whether delta maintenance is sound for one view definition.

    The verdict is conservative: anything that would make the winnow
    lemma inapplicable (or hide the attributes the dominance test needs)
    routes the view to flagged full recompute instead.
    """
    tables = base_tables_of(query)

    def fallback(reason: str) -> ViewAnalysis:
        return ViewAnalysis(
            maintainable=False, reason=reason, base_table=None, base_tables=tables
        )

    if len(query.sources) != 1 or not isinstance(query.sources[0], ast.TableRef):
        return fallback("delta maintenance needs a single base table")
    source = query.sources[0]
    if len(query.items) != 1 or not isinstance(query.items[0], ast.Star):
        return fallback("projections hide base columns from the dominance test")
    star = query.items[0]
    if star.table is not None and star.table.lower() != source.binding.lower():
        return fallback("projections hide base columns from the dominance test")
    if query.but_only is not None:
        return fallback("BUT ONLY thresholds can shift with the data")
    if query.group_by or query.having:
        return fallback("aggregation requires full recompute")
    if query.order_by:
        return fallback("ORDER BY requires full recompute")
    if query.limit is not None:
        return fallback("LIMIT requires full recompute")
    if query.distinct:
        return fallback("DISTINCT requires full recompute")
    if query.where is not None:
        for node in ast.walk_expr(query.where):
            if isinstance(node, ast.SUBQUERIES):
                return fallback("sub-queries in WHERE see the whole database")
    return ViewAnalysis(
        maintainable=True,
        reason="",
        base_table=source.name.lower(),
        base_tables=tables,
    )


# ----------------------------------------------------------------------
# DML delta capture


@dataclass
class PendingMaintenance:
    """Delta capture taken *before* one DML statement executes."""

    op: str  # 'insert' | 'delete' | 'update' | 'alter'
    table: str
    views: tuple[ViewEntry, ...]
    max_rowid: int | None = None
    pre_rows: list[tuple] | None = None
    snapshot: dict[int, tuple] | None = None
    #: True when ``snapshot`` holds only the UPDATE's WHERE-matching rows
    #: (captured via the statement's own tail) instead of the whole table.
    targeted: bool = False
    force_recompute: bool = False
    recompute_reason: str = ""


@dataclass(frozen=True)
class MaintenanceEvent:
    """One maintenance action on one view (for tests and diagnostics)."""

    view: str
    strategy: str  # 'incremental' | 're-derive' | 'recompute' | 'noop'
    removed: int
    added: int
    size: int


class ViewMaintainer:
    """Keeps every materialized preference view consistent with its bases.

    Owned by one driver :class:`~repro.driver.dbapi.Connection`; all
    reads and writes go through the *raw* sqlite connection, so
    maintenance can never recurse into the driver's own interception.
    """

    def __init__(self, connection: "Connection"):
        self._connection = connection
        #: Per-view counters: name → {strategy: count}.
        self.stats: dict[str, dict[str, int]] = {}
        #: Recent maintenance events, newest last (bounded).
        self.events: list[MaintenanceEvent] = []
        self._index: tuple[tuple, dict[str, tuple[ViewEntry, ...]]] | None = None

    # ------------------------------------------------------------------
    # Catalog-backed index

    @property
    def _raw(self) -> sqlite3.Connection:
        return self._connection.raw

    def _views_table_exists(self) -> bool:
        row = self._raw.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' AND name = ?",
            ("prefsql_views",),
        ).fetchone()
        return row is not None

    def _catalog_state(self) -> tuple:
        """Cache key for the base-table index.

        The connection's own catalog version covers view DDL through this
        driver; ``PRAGMA data_version`` changes whenever *another*
        connection commits to the same database file, so views created or
        dropped by a second driver connection are picked up too.
        """
        external = self._raw.execute("PRAGMA data_version").fetchone()[0]
        return (self._connection.catalog_version, external)

    def entries(self) -> list[ViewEntry]:
        """All stored views (empty without touching a missing catalog)."""
        if not self._views_table_exists():
            return []
        return self._connection.catalog.views()

    def _base_index(self) -> dict[str, tuple[ViewEntry, ...]]:
        """base table (lowercase) → views to maintain on its DML."""
        version = self._catalog_state()
        if self._index is not None and self._index[0] == version:
            return self._index[1]
        mapping: dict[str, list[ViewEntry]] = {}
        for entry in self.entries():
            for table in entry.base_tables:
                mapping.setdefault(table, []).append(entry)
        frozen = {table: tuple(views) for table, views in mapping.items()}
        self._index = (version, frozen)
        return frozen

    def views_on(self, table: str) -> tuple[ViewEntry, ...]:
        """Views whose contents depend on ``table``."""
        return self._base_index().get(table.lower(), ())

    def views_using_preference(self, name: str) -> list[str]:
        """Names of views whose PREFERRING references a named preference."""
        key = name.lower()
        dependents = []
        for entry in self.entries():
            preferring = entry.query.preferring
            if preferring is None:
                continue
            for term in ast.walk_pref(preferring):
                if isinstance(term, ast.NamedPref) and term.name.lower() == key:
                    dependents.append(entry.name)
                    break
        return dependents

    # ------------------------------------------------------------------
    # View lifecycle

    def create(self, statement: ast.CreatePreferenceView) -> ViewEntry:
        """Register a view and materialize its initial BMO result."""
        validate_view(statement.query)
        analysis = analyze_view(statement.query)
        catalog = self._connection.catalog
        entry = catalog.create_view(
            statement,
            backing_table=statement.name.lower(),
            base_tables=analysis.base_tables,
            maintainable=analysis.maintainable,
            reason=analysis.reason,
        )
        try:
            relation = self._execute_select(entry.query)
            self._create_backing(entry.backing_table, relation)
        except (sqlite3.Error, EvaluationError) as error:
            catalog.drop_view(entry.name)
            raise DriverError(
                f"cannot materialize preference view {entry.name!r}: {error}"
            ) from error
        self._record(entry, "recompute", removed=0, added=len(relation.rows),
                     size=len(relation.rows))
        return entry

    def drop(self, name: str) -> ViewEntry:
        """Drop a view and its backing table."""
        entry = self._connection.catalog.drop_view(name)
        self._raw.execute(f"DROP TABLE IF EXISTS {_quote(entry.backing_table)}")
        self.stats.pop(entry.name, None)
        return entry

    def refresh(self, entry: ViewEntry, strategy: str = "recompute") -> None:
        """Full recompute of one view's materialized rows."""
        relation = self._execute_select(entry.query)
        try:
            self._write_back(entry, relation.rows)
        except (sqlite3.Error, EvaluationError):
            # Backing schema drifted (e.g. ALTER TABLE on the base):
            # rebuild the backing table from the fresh result.
            self._raw.execute(
                f"DROP TABLE IF EXISTS {_quote(entry.backing_table)}"
            )
            self._create_backing(entry.backing_table, relation)
        self._record(entry, strategy, removed=0, added=0, size=len(relation.rows))

    def refresh_all(self, strategy: str = "recompute") -> None:
        """Recompute every view (e.g. after ``executescript``)."""
        for entry in self.entries():
            self.refresh(entry, strategy=strategy)

    # ------------------------------------------------------------------
    # DML interception (driven by the driver's cursor)

    def prepare(
        self, op: str, table: str, select_sql: str | None,
        params: Sequence[object], conflict: bool = False,
    ) -> PendingMaintenance | None:
        """Capture the pre-DML state needed to compute the delta.

        Returns None when no view depends on ``table``.  Runs *before*
        the user's statement; any capture failure (e.g. a WITHOUT ROWID
        table) degrades to a flagged full recompute, never to silence.
        """
        views = self.views_on(table)
        if not views:
            return None
        pending = PendingMaintenance(op, table, views)
        try:
            if op == "insert":
                if conflict:
                    pending.force_recompute = True
                    pending.recompute_reason = "INSERT with conflict clause"
                else:
                    pending.max_rowid = self._raw.execute(
                        f"SELECT COALESCE(MAX(rowid), 0) FROM {_quote(table)}"
                    ).fetchone()[0]
            elif op == "delete":
                if select_sql is None:
                    pending.force_recompute = True
                    pending.recompute_reason = "pre-image unavailable"
                else:
                    pending.pre_rows = self._raw.execute(
                        select_sql, tuple(params)
                    ).fetchall()
            elif op == "update":
                if conflict:
                    # UPDATE OR REPLACE may delete conflicting rows the
                    # WHERE-matching snapshot cannot see.
                    pending.force_recompute = True
                    pending.recompute_reason = "UPDATE with conflict clause"
                elif select_sql is not None:
                    # Targeted capture: only the statement's own
                    # WHERE-matching rows, not the whole table.
                    try:
                        pending.snapshot = {
                            row[0]: tuple(row[1:])
                            for row in self._raw.execute(
                                select_sql, tuple(params)
                            )
                        }
                        pending.targeted = True
                    except sqlite3.Error:
                        # Alias-qualified WHERE etc.: the spliced SELECT
                        # cannot run — degrade to the full snapshot.
                        pending.snapshot = self._full_snapshot(table)
                else:
                    pending.snapshot = self._full_snapshot(table)
            elif op == "alter":
                pending.force_recompute = True
                pending.recompute_reason = "ALTER TABLE on a base table"
            else:  # pragma: no cover - scanner emits no other ops
                pending.force_recompute = True
                pending.recompute_reason = f"unhandled operation {op!r}"
        except sqlite3.Error as error:
            pending.force_recompute = True
            pending.recompute_reason = f"delta capture failed: {error}"
        return pending

    def finish(self, pending: PendingMaintenance, rowcount: int | None) -> None:
        """Bring every dependent view up to date after the DML executed."""
        removed: list[tuple] = []
        added: list[tuple] = []
        if pending.force_recompute:
            for entry in pending.views:
                self.refresh(entry)
            return
        if pending.op == "insert":
            delta = self._raw.execute(
                f"SELECT * FROM {_quote(pending.table)} WHERE rowid > ?",
                (pending.max_rowid,),
            ).fetchall()
            if rowcount is not None and rowcount >= 0 and len(delta) != rowcount:
                # Explicit rowids below the high-water mark (or triggers)
                # defeated the capture; recompute rather than guess.
                for entry in pending.views:
                    self.refresh(entry)
                return
            added = [tuple(row) for row in delta]
        elif pending.op == "delete":
            removed = [tuple(row) for row in (pending.pre_rows or [])]
        elif pending.op == "update":
            snapshot = pending.snapshot or {}
            if pending.targeted:
                post = self._rows_by_rowid(pending.table, list(snapshot))
                if len(post) != len(snapshot):
                    # A rowid itself changed (INTEGER PRIMARY KEY update):
                    # the delta is unknowable from the capture — recompute.
                    for entry in pending.views:
                        self.refresh(entry)
                    return
            else:
                post = self._full_snapshot(pending.table)
            removed = [
                row for rowid, row in snapshot.items() if post.get(rowid) != row
            ]
            added = [
                row for rowid, row in post.items() if snapshot.get(rowid) != row
            ]
        for entry in pending.views:
            self.apply_delta(entry, removed, added)

    def _full_snapshot(self, table: str) -> dict[int, tuple]:
        return {
            row[0]: tuple(row[1:])
            for row in self._raw.execute(f"SELECT rowid, * FROM {_quote(table)}")
        }

    def _rows_by_rowid(
        self, table: str, rowids: Sequence[int]
    ) -> dict[int, tuple]:
        post: dict[int, tuple] = {}
        for start in range(0, len(rowids), 400):
            chunk = rowids[start : start + 400]
            marks = ", ".join("?" for _ in chunk)
            for row in self._raw.execute(
                f"SELECT rowid, * FROM {_quote(table)} WHERE rowid IN ({marks})",
                chunk,
            ):
                post[row[0]] = tuple(row[1:])
        return post

    # ------------------------------------------------------------------
    # The incremental step

    def apply_delta(
        self,
        entry: ViewEntry,
        removed: Sequence[tuple],
        added: Sequence[tuple],
    ) -> None:
        """Maintain one view for a (removed, added) base-table delta."""
        if not entry.maintainable:
            self.refresh(entry)
            return
        if not removed and not added:
            self._record(entry, "noop", 0, 0, size=self._backing_count(entry))
            return
        try:
            self._apply_delta_incremental(entry, removed, added)
        except (sqlite3.Error, EvaluationError):
            # Schema drift or an unexpected evaluation failure: the
            # recompute path is always available and always right.
            self.refresh(entry)

    def _apply_delta_incremental(
        self,
        entry: ViewEntry,
        removed: Sequence[tuple],
        added: Sequence[tuple],
    ) -> None:
        query = entry.query
        source = query.sources[0]
        assert isinstance(source, ast.TableRef)
        # The planner's own split: the hard conditions as one host scan,
        # the soft ones (named preferences inlined) as the residual the
        # Winnow and Surface stages evaluate.
        pushdown_sql, residual, _width = in_memory_parts(
            query, self._connection.catalog.resolve
        )
        columns = self._backing_columns(entry)
        members = self._backing_rows(entry)
        member_set = set(members)
        deleted_members = [row for row in removed if tuple(row) in member_set]
        # The view's WHERE is applied to the delta by the *host database*
        # (not the engine), so hard-condition semantics — type affinity,
        # collation, NULL handling — match every recompute path exactly.
        added = self._filter_added(query, source, columns, added)

        if deleted_members:
            # Bounded re-derivation: only the GROUPING partitions that
            # lost a member are recomputed from the remaining candidates
            # (for ungrouped views that is the single global partition);
            # every other partition keeps its rows and absorbs additions
            # through the incremental union.
            strategy = "re-derive"
            fetched = [
                tuple(row) for row in self._raw.execute(pushdown_sql).fetchall()
            ]
            key_of = self._group_key_fn(query, columns)
            affected = {key_of(row) for row in deleted_members}
            union = [row for row in fetched if key_of(row) in affected]
            union += [row for row in members if key_of(row) not in affected]
            union += [
                tuple(row) for row in added if key_of(tuple(row)) not in affected
            ]
        else:
            if not added:
                # Only dominated tuples left the base table: removing
                # non-maximal tuples never changes the maximal set.
                self._record(entry, "noop", len(removed), 0, size=len(members))
                return
            # Winnow lemma: BMO(R ∪ Δ) = BMO(BMO(R) ∪ Δ) — the dominance
            # test of the additions against the current members.
            strategy = "incremental"
            union = list(members) + [tuple(row) for row in added]

        # Every candidate has already passed the view's WHERE on the
        # host database (backing members, the pushdown re-fetch and the
        # filtered delta alike), so only the residual remains.
        candidates = Relation(columns=columns, rows=union)
        result = winnow(residual, candidates).surface(residual)
        self._write_back(entry, result.rows)
        self._record(
            entry, strategy, len(removed), len(added), size=len(result.rows)
        )

    def _filter_added(
        self,
        query: ast.Select,
        source: ast.TableRef,
        columns: Sequence[str],
        added: Sequence[tuple],
    ) -> list[tuple]:
        """Apply the view's WHERE to delta rows with sqlite semantics.

        The rows are spooled through a VALUES CTE *named like the FROM
        binding* (CTEs shadow tables), so the original WHERE text —
        including qualified column references — evaluates against
        exactly the delta.
        """
        rows = [tuple(row) for row in added]
        if query.where is None or not rows:
            return rows
        where_sql = to_sql(query.where)
        binding = _quote(source.binding)
        column_list = ", ".join(_quote(column) for column in columns)
        width = len(columns)
        filtered: list[tuple] = []
        chunk_size = max(1, 400 // max(1, width))
        for start in range(0, len(rows), chunk_size):
            chunk = rows[start : start + chunk_size]
            values = ", ".join(
                "(" + ", ".join("?" for _ in range(width)) + ")" for _ in chunk
            )
            parameters = [value for row in chunk for value in row]
            filtered.extend(
                tuple(row)
                for row in self._raw.execute(
                    f"WITH {binding}({column_list}) AS (VALUES {values}) "
                    f"SELECT * FROM {binding} WHERE {where_sql}",
                    parameters,
                ).fetchall()
            )
        return filtered

    def _group_key_fn(
        self, query: ast.Select, columns: Sequence[str]
    ) -> Callable[[tuple], tuple | None]:
        """Row → GROUPING partition key (None for ungrouped views)."""
        if not query.grouping:
            return lambda _row: None
        positions = {name.lower(): i for i, name in enumerate(columns)}
        slots = [positions[column.name.lower()] for column in query.grouping]
        return lambda row: tuple(row[slot] for slot in slots)

    # ------------------------------------------------------------------
    # Backing-table plumbing

    def _execute_select(self, select: ast.Select) -> Relation:
        """Plan and execute one SELECT the way the driver would.

        Planning prices no session, so a refresh always scans the base
        table.
        """
        plan = self._connection._plan_statement(select)
        return run_plan(self._raw.execute, plan)

    def _create_backing(self, backing_table: str, relation: Relation) -> None:
        # Columns are declared without a type on purpose: sqlite's "none"
        # affinity stores every maintained value verbatim, so the backing
        # rows compare equal to a fresh recompute even when the view was
        # materialized while its base table was still empty.
        column_defs = ", ".join(_quote(column) for column in relation.columns)
        self._raw.execute(
            f"CREATE TABLE {_quote(backing_table)} ({column_defs})"
        )
        if relation.rows:
            placeholders = ", ".join("?" for _ in relation.columns)
            self._raw.executemany(
                f"INSERT INTO {_quote(backing_table)} VALUES ({placeholders})",
                relation.rows,
            )
        self._connection.statistics.invalidate(backing_table)

    def _write_back(self, entry: ViewEntry, rows: Iterable[tuple]) -> None:
        rows = list(rows)
        width = len(self._backing_columns(entry))
        if any(len(row) != width for row in rows):
            raise EvaluationError(
                f"view {entry.name!r}: result width does not match backing table"
            )
        self._raw.execute(f"DELETE FROM {_quote(entry.backing_table)}")
        if rows:
            placeholders = ", ".join("?" for _ in range(width))
            self._raw.executemany(
                f"INSERT INTO {_quote(entry.backing_table)} "
                f"VALUES ({placeholders})",
                rows,
            )
        self._connection.statistics.invalidate(entry.backing_table)

    def _backing_columns(self, entry: ViewEntry) -> list[str]:
        info = self._raw.execute(
            f"PRAGMA table_info({_quote(entry.backing_table)})"
        ).fetchall()
        if not info:
            raise EvaluationError(
                f"backing table of view {entry.name!r} is missing"
            )
        return [row[1] for row in info]

    def _backing_rows(self, entry: ViewEntry) -> list[tuple]:
        return [
            tuple(row)
            for row in self._raw.execute(
                f"SELECT * FROM {_quote(entry.backing_table)}"
            ).fetchall()
        ]

    def _backing_count(self, entry: ViewEntry) -> int:
        return self._raw.execute(
            f"SELECT COUNT(*) FROM {_quote(entry.backing_table)}"
        ).fetchone()[0]

    def _record(
        self, entry: ViewEntry, strategy: str, removed: int, added: int, size: int
    ) -> None:
        counters = self.stats.setdefault(entry.name, {})
        counters[strategy] = counters.get(strategy, 0) + 1
        self.events.append(
            MaintenanceEvent(
                view=entry.name,
                strategy=strategy,
                removed=removed,
                added=added,
                size=size,
            )
        )
        del self.events[:-200]

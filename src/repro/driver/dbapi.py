"""PEP 249-style driver wrapping sqlite3 with Preference SQL support.

Layering (paper section 3.1, figure — extended with the cost-based plan
selector of :mod:`repro.plan` and the plan runner of
:mod:`repro.engine.bmo`):

    application → Preference driver → parse+plan cache
                → Preference SQL Optimizer (rewrite)
                → cost-based plan selector
                → plan runner: the plan's stages ─┬→ Host → sqlite3
                                                  └→ Scan | Reuse → Winnow → Surface

Behaviour:

* statements without preference constructs pass straight through (native
  parameter binding; no parsing unless the text mentions a hint word),
* ``CREATE/DROP PREFERENCE [CONSTRAINT]`` maintain the persistent catalog
  and bump the *catalog version*, orphaning cached plans that resolved
  named preferences,
* preference SELECT/INSERT statements are parsed, planned (or served from
  the LRU parse+plan cache keyed on statement text and catalog version),
  their parameters bound, and handed — whatever strategy the cost model
  selected — to the one plan runner,
  :func:`repro.engine.bmo.run`; :meth:`Cursor._run` is the single place
  that turns its outcome into cursor state,
* ``EXPLAIN PREFERENCE <select>`` returns the chosen plan, per-step cost
  estimates and the rewritten SQL as a result relation without executing
  the query,
* ``CREATE/DROP PREFERENCE VIEW`` materialize a preference query's BMO
  result into a backing table; INSERT/DELETE/UPDATE on a base table is
  intercepted (:func:`repro.sql.scan.dml_target` sees through leading
  comments and CTE prologues) and the materialization is maintained
  incrementally where the dominance structure allows it, by flagged full
  recompute otherwise (:mod:`repro.engine.incremental`); plain SQL reads
  the backing table like any other table,
* every statement that may change table contents bumps the *data version*,
  invalidating the per-connection statistics cache (and, per view, the
  backing table's statistics after maintenance writes).
"""

from __future__ import annotations

import re
import sqlite3
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from repro.deadline import (
    Deadline,
    deadline_scope,
    sqlite_interrupt,
)
from repro.engine.bmo import Reuse, host_relation, run
from repro.engine.incremental import ViewMaintainer
from repro.engine.relation import Relation
from repro.errors import (
    CatalogError,
    DriverError,
    PlanError,
    PreferenceConstructionError,
    PreferenceSQLError,
    QueryTimeout,
)
from repro.model.algebra import describe, normalize
from repro.pdl.catalog import PreferenceCatalog, ViewEntry
from repro.plan.cache import CacheStats, PlanCache
from repro.plan.constraints import ConstraintCache
from repro.plan.explain import plan_relation, plan_text
from repro.plan.planner import (
    Plan,
    inline_named_preferences,
    plan_statement,
    rebind_plan,
    with_session,
)
from repro.plan.session import SessionCache, SessionEntry, SessionMatch
from repro.plan.statistics import StatisticsCache, TableStatistics
from repro.rewrite.planner import HostSchema
from repro.sql import ast
from repro.sql.params import bind_parameters
from repro.sql.parser import parse_statement
from repro.sql.printer import quote_identifier as _quote
from repro.sql.printer import to_sql
from repro.sql.scan import dml_target, first_keyword
from repro.testing import faults

#: Cheap detector for statements that *may* use Preference SQL constructs.
#:
#: The contract this fast path guarantees:
#:
#: * **False negatives are impossible.**  Every construct the dialect
#:   handles is introduced by one of these keywords — ``PREFERRING``
#:   (the preference query block), ``PREFERENCE`` (the PDL statements and
#:   named-preference references) and ``EXPLAIN`` (``EXPLAIN
#:   PREFERENCE``).  A statement matching none of them is standard SQL and
#:   is forwarded without any parsing overhead.
#: * **False positives are allowed and cheap.**  A plain-SQL statement
#:   that merely mentions one of the words — sqlite's own ``EXPLAIN QUERY
#:   PLAN``, a column named ``preference`` — costs one failed dialect
#:   parse and then takes the pass-through path with native parameter
#:   binding.  Correctness is never affected, only a few microseconds;
#:   the parse outcome is cached, so repeats pay nothing.
_PREFERENCE_HINT = re.compile(r"\b(PREFERRING|PREFERENCE|EXPLAIN)\b", re.IGNORECASE)

#: Constructs ``executescript`` genuinely cannot execute.  Narrower than
#: :data:`_PREFERENCE_HINT` on purpose: a script mentioning ``EXPLAIN``
#: (sqlite's own facility, or a comment) is still plain SQL.
_SCRIPT_HINT = re.compile(r"\b(PREFERRING|PREFERENCE)\b", re.IGNORECASE)

#: Statements that may change table contents (and hence the statistics).
#: Deliberately unanchored so CTE-prefixed DML (``WITH ... INSERT``)
#: matches too; over-matching is fine — a spurious data-version bump only
#: costs one re-gathered COUNT per table.
_DML_HINT = re.compile(
    r"\b(INSERT|UPDATE|DELETE|REPLACE|CREATE|DROP|ALTER)\b", re.IGNORECASE
)


#: How many ``(original, executed)`` statement pairs
#: :attr:`Connection.trace` remembers; older ones fall off the front, so a
#: long-lived connection's trace cannot grow without bound.
TRACE_LIMIT = 256


@dataclass
class _CachedStatement:
    """One parse+plan cache entry.

    ``statement is None`` marks text that is *not* parseable as Preference
    SQL (the pass-through path); ``plan`` is the base plan, never a
    session plan (the session is priced per execution on top of it);
    ``param_free`` records whether the cached plan's SQL texts can be
    reused verbatim (no ``?`` markers bound into them); ``data_version``
    is the connection's data version at planning time — a later DML means
    the statistics the strategy was chosen on are stale, so the statement
    is re-planned (parsing is still skipped).
    """

    statement: ast.Statement | None
    plan: Plan | None
    param_free: bool
    data_version: int = 0


def connect(
    database: str = ":memory:",
    shared=None,
    **kwargs,
) -> "Connection":
    """Open a Preference SQL connection to a sqlite database.

    ``shared`` attaches the connection to a
    :class:`repro.server.shared.SharedState`: the parse+plan cache
    and statistics store become cross-session, and the data/catalog
    version counters delegate to the shared write epochs so a write
    through any attached connection invalidates every sibling's caches.
    Extra ``kwargs`` (e.g. ``check_same_thread=False`` for pooled
    connections handed across threads) pass through to
    :func:`sqlite3.connect`.
    """
    raw = sqlite3.connect(database, **kwargs)
    return Connection(raw, shared=shared)


class Connection:
    """A connection through the Preference driver."""

    def __init__(self, raw: sqlite3.Connection, shared=None):
        self._raw = raw
        #: The cross-session serving state this connection is attached to
        #: (a :class:`repro.server.shared.SharedState`), or None for a
        #: standalone connection with private caches.
        self._shared = shared
        self._catalog: PreferenceCatalog | None = None
        #: The last :data:`TRACE_LIMIT` (original, executed) statement
        #: pairs, newest last; for tests and the answer-explanation
        #: examples.
        self.trace: deque[tuple[str, str]] = deque(maxlen=TRACE_LIMIT)
        self._data_version = 0
        self._catalog_version = 0
        #: Catalog version at the last commit — rollback restores it, so
        #: plans cached against the committed catalog stay servable.
        self._committed_catalog_version = 0
        #: Highest catalog version ever issued; versions burnt inside an
        #: aborted transaction are never reissued for a different catalog.
        self._catalog_high_water = 0
        self._statistics: StatisticsCache | None = None
        self._constraints: ConstraintCache | None = None
        self._plan_cache: PlanCache[_CachedStatement] = (
            shared.plan_cache if shared is not None else PlanCache()
        )
        self._schema_cache: tuple[int, HostSchema] | None = None
        self._maintainer: ViewMaintainer | None = None
        self._session = SessionCache()
        self._session_enabled = True

    @property
    def raw(self) -> sqlite3.Connection:
        """The underlying sqlite3 connection."""
        return self._raw

    @property
    def catalog(self) -> PreferenceCatalog:
        """The persistent preference catalog (created on first use)."""
        if self._catalog is None:
            self._catalog = PreferenceCatalog(self._raw)
        return self._catalog

    @property
    def data_version(self) -> int:
        """Bumped by every statement that may change table contents.

        Attached connections read the shared write epoch instead of a
        private counter, so a write through *any* pooled sibling is
        visible here — and therefore to the plan-cache staleness check,
        the statistics cache and the session cache, whose entries are
        all stamped with this version.  sqlite's own ``PRAGMA
        data_version`` cannot carry that signal: it never moves for a
        connection's *own* writes, and in-process sibling writes are
        exactly what a pooled server produces.
        """
        if self._shared is not None:
            return self._shared.data_epoch
        return self._data_version

    @property
    def catalog_version(self) -> int:
        """Bumped by CREATE/DROP PREFERENCE; part of the plan-cache key.

        Attached connections delegate to the shared catalog epoch so a
        catalog change on one pooled connection orphans every sibling's
        cached plans.
        """
        if self._shared is not None:
            return self._shared.catalog_epoch
        return self._catalog_version

    def _bump_catalog_version(self) -> None:
        if self._shared is not None:
            self._shared.bump_catalog()
            return
        self._catalog_high_water = (
            max(self._catalog_high_water, self._catalog_version) + 1
        )
        self._catalog_version = self._catalog_high_water

    def _note_transaction_statement(self, sql: str) -> None:
        """Keep the committed catalog version honest under raw SQL.

        ``COMMIT``/``END`` executed as pass-through SQL makes the current
        catalog durable just like :meth:`commit`; a raw ``ROLLBACK``
        reverts catalog writes without going through :meth:`rollback`, so
        cached plans from the aborted transaction are orphaned
        conservatively (no restore — we cannot know here which version
        the transaction started from relative to the raw statement).
        """
        keyword = first_keyword(sql)
        if keyword in ("COMMIT", "END"):
            self._committed_catalog_version = self.catalog_version
        elif keyword == "ROLLBACK":
            self._note_data_change()
            self._bump_catalog_version()
            self._committed_catalog_version = self.catalog_version

    def _catalog_is_transactional(self) -> bool:
        """True when rollback() actually reverts catalog writes.

        With ``isolation_level=None`` (or ``autocommit=True`` on newer
        sqlite3) every catalog write commits immediately, so a rollback
        reverts nothing and the committed catalog version must *not* be
        restored — cached plans from before the "rolled-back" change
        would describe the wrong catalog.
        """
        autocommit = getattr(self._raw, "autocommit", None)
        if autocommit is True:
            return False
        if autocommit is False:
            return True
        # Legacy transaction control: isolation_level None = autocommit.
        return self._raw.isolation_level is not None

    @property
    def statistics(self) -> StatisticsCache:
        """The per-connection table statistics cache."""
        if self._statistics is None:
            if self._shared is not None:
                # Pooled connections share one entry store (scans still
                # run on this connection's own sqlite handle), so a table
                # scanned for one session is known to all of them.
                self._statistics = StatisticsCache(
                    self._raw,
                    version=lambda: self.data_version,
                    entries=self._shared.statistics_entries,
                    lock=self._shared.statistics_lock,
                )
            else:
                self._statistics = StatisticsCache(
                    self._raw, version=lambda: self.data_version
                )
        return self._statistics

    @property
    def constraints(self) -> ConstraintCache:
        """The per-connection constraint catalog (semantic optimization)."""
        if self._constraints is None:
            self._constraints = ConstraintCache(
                self._raw,
                version=lambda: self.data_version,
                declared=self.catalog.constraints,
                catalog_version=lambda: self.catalog_version,
            )
        return self._constraints

    # ------------------------------------------------------------------
    # Session-level result reuse (refinement chains)

    @property
    def session_cache(self) -> SessionCache:
        """The per-connection cache of winner bases (refinement reuse)."""
        return self._session

    @property
    def session_reuse(self) -> bool:
        """Whether refined queries may be answered from cached winners."""
        return self._session_enabled

    @session_reuse.setter
    def session_reuse(self, value: bool) -> None:
        self._session_enabled = bool(value)
        if not value:
            self._session.clear()

    def session_stats(self) -> dict[str, int]:
        """Counters of the session cache: stores/hits/misses/served/…"""
        return self._session.stats()

    def _pragma_data_version(self) -> int:
        """sqlite's ``PRAGMA data_version``: moves when *another*
        connection changes the database file — the one write path the
        driver's own data version cannot see."""
        return int(self._raw.execute("PRAGMA data_version").fetchone()[0])

    def _session_versions(self) -> tuple[int, int, int]:
        return (
            self.data_version,
            self._pragma_data_version(),
            self.catalog_version,
        )

    def _canonical_term(self, term: ast.PrefTerm) -> ast.PrefTerm | None:
        """Inline named preferences and normalize — the canonical form
        the session cache stores and matches on (None when a reference
        does not resolve; the planner will surface that error itself)."""
        try:
            return normalize(inline_named_preferences(term, self.catalog.resolve))
        except (CatalogError, PlanError, PreferenceConstructionError):
            return None

    def _session_match(self, select: ast.Select) -> SessionMatch | None:
        """The session cache's judgment on one (parameter-bound) preference
        SELECT, or None when no entry relates to it (reuse disabled,
        nothing cached, or a reference that does not resolve)."""
        if not self._session_enabled or not self._session.entries:
            return None
        term = self._canonical_term(select.preferring)
        if term is None:
            return None
        return self._session.match(select, term, self._session_versions())

    def _store_session(self, select: ast.Statement, winners: Relation) -> None:
        """Cache one query's winner base for later refinement reuse."""
        if not isinstance(select, ast.Select) or select.preferring is None:
            return
        term = self._canonical_term(select.preferring)
        if term is None:
            return
        self._session.store(
            SessionEntry(
                select=select,
                term=term,
                winners=winners,
                data_version=self.data_version,
                pragma_version=self._pragma_data_version(),
                catalog_version=self.catalog_version,
                text=to_sql(select),
            )
        )

    def table_statistics(
        self, table: str, columns: Sequence[str] = ()
    ) -> TableStatistics:
        """Row count and distinct counts for a table (cached)."""
        return self.statistics.for_table(table, columns)

    def plan_cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the parse+plan cache."""
        return self._plan_cache.stats()

    def clear_plan_cache(self) -> None:
        """Drop all cached plans (counters keep accumulating)."""
        self._plan_cache.clear()

    def _note_data_change(self) -> None:
        if self._shared is not None:
            # The explicit write epoch every pooled sibling reads; see
            # :attr:`data_version` for why PRAGMA data_version cannot
            # carry this signal.
            self._shared.bump_data()
            return
        self._data_version += 1

    # ------------------------------------------------------------------
    # Materialized preference views

    @property
    def view_maintainer(self) -> ViewMaintainer:
        """The connection's view maintenance engine (created on first use)."""
        if self._maintainer is None:
            self._maintainer = ViewMaintainer(self)
        return self._maintainer

    def views(self) -> list[ViewEntry]:
        """All materialized preference views of this database."""
        return self.view_maintainer.entries()

    def view_maintenance_stats(self) -> dict[str, dict[str, int]]:
        """Per-view maintenance counters: name → {strategy: count}."""
        return {
            name: dict(counters)
            for name, counters in self.view_maintainer.stats.items()
        }

    def refresh_preference_view(self, name: str) -> None:
        """Force a full recompute of one view's materialized rows."""
        self.view_maintainer.refresh(self.catalog.get_view(name))
        self._note_data_change()

    def _prepare_maintenance(self, sql: str, params: Sequence[object]):
        """Pre-DML delta capture for view maintenance (None when inert).

        Callers filter on the :data:`_DML_HINT` over-approximation;
        :func:`~repro.sql.scan.dml_target` resolves the actual operation
        and target table, seeing through leading comments and CTE
        prologues so maintenance cannot be silently skipped.
        """
        target = dml_target(sql)
        if target is None:
            return None
        maintainer = self.view_maintainer
        if target.op in ("drop_table", "alter_rename"):
            # Dropping or renaming a table out from under a view would
            # leave the materialization silently orphaned; refuse, like
            # DROP PREFERENCE refuses while a view references it.
            affected = sorted(
                {entry.name for entry in maintainer.views_on(target.table)}
                | {
                    entry.name
                    for entry in maintainer.entries()
                    if entry.backing_table == target.table
                }
            )
            if affected:
                raise CatalogError(
                    f"table {target.table!r} backs materialized preference "
                    f"view(s) {', '.join(affected)}; drop them first"
                )
            return None
        # The UPDATE pre-image SELECT reuses only the statement's WHERE
        # tail, so the SET clause's leading parameters are skipped.
        return maintainer.prepare(
            target.op,
            target.table,
            target.select_sql,
            tuple(params)[target.param_offset :],
            conflict=target.conflict,
        )

    def cursor(self) -> "Cursor":
        """Open a cursor."""
        return Cursor(self)

    def execute(
        self,
        sql: str,
        params: Sequence[object] = (),
        algorithm: str | None = None,
        timeout_ms: float | None = None,
        deadline: Deadline | None = None,
    ) -> "Cursor":
        """Convenience: open a cursor and execute one statement.

        ``timeout_ms`` bounds the statement's wall clock: planning, host
        scans and the in-memory skyline loops all observe the deadline
        and abort with :class:`~repro.errors.QueryTimeout` (retryable)
        once it passes.  ``deadline`` passes an already-armed
        :class:`~repro.deadline.Deadline` instead (the server shares one
        across retries of the same request).
        """
        cursor = self.cursor()
        cursor.execute(
            sql,
            params,
            algorithm=algorithm,
            timeout_ms=timeout_ms,
            deadline=deadline,
        )
        return cursor

    def commit(self) -> None:
        self._raw.commit()
        self._committed_catalog_version = self.catalog_version

    def rollback(self) -> None:
        self._raw.rollback()
        # Rolled-back DML may have bumped the data version already, but a
        # rollback can also *revert* table contents — either way the
        # statistics must not survive it.  CREATE/DROP PREFERENCE are
        # transactional too: the rollback reverts the catalog to its last
        # committed state, so the committed catalog version is *restored*
        # — plans cached against it (e.g. before a rolled-back DROP
        # PREFERENCE) become servable again, while plans cached against
        # versions issued inside the aborted transaction are orphaned
        # (the high-water mark guarantees those versions are never
        # reissued for a different catalog).
        self._note_data_change()
        if self._shared is not None:
            # The shared catalog epoch is monotonic across sessions:
            # siblings may have planned against versions issued since
            # this transaction began, so the rollback orphans cached
            # plans conservatively instead of restoring an epoch that
            # could now describe a different catalog.
            self._bump_catalog_version()
            self._committed_catalog_version = self.catalog_version
        elif self._catalog_is_transactional():
            self._catalog_high_water = max(
                self._catalog_high_water, self._catalog_version
            )
            self._catalog_version = self._committed_catalog_version
        else:
            # Autocommit mode: the catalog kept every change, so cached
            # plans must be orphaned, not restored.
            self._bump_catalog_version()
            self._committed_catalog_version = self.catalog_version

    def close(self) -> None:
        self._raw.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.rollback()
        self.close()

    # ------------------------------------------------------------------

    def schema(self) -> HostSchema:
        """Table → column names, read from the sqlite catalog (temporary
        objects last, as they shadow main ones), plus the sources without a
        usable rowid: views, WITHOUT ROWID tables and tables with a column
        named ``rowid``.

        Cached per data version: the catalog scan plus one PRAGMA per
        table would otherwise run on every preference execution, dwarfing
        what the plan cache saves.  DDL bumps the data version and
        refreshes it.
        """
        cached = self._schema_cache
        if cached is not None and cached[0] == self.data_version:
            return cached[1]
        sources = self._raw.execute(
            "SELECT schema, name, type, wr FROM pragma_table_list "
            "WHERE schema IN ('main', 'temp') "
            "AND name NOT IN ('sqlite_schema', 'sqlite_temp_schema') "
            "ORDER BY schema = 'temp'"
        ).fetchall()
        tables: dict[str, list[str]] = {}
        rowless: dict[str, bool] = {}
        for schema, name, kind, without_rowid in sources:
            info = self._raw.execute(
                f"PRAGMA {_quote(schema)}.table_info({_quote(name)})"
            ).fetchall()
            tables[name] = [row[1] for row in info]
            rowless[name] = (
                kind == "view"
                or bool(without_rowid)
                or any(column.lower() == "rowid" for column in tables[name])
            )
        result = HostSchema(tables, [name for name, flag in rowless.items() if flag])
        self._schema_cache = (self.data_version, result)
        return result

    def plan(
        self,
        statement: ast.Statement | str,
        params: Sequence[object] = (),
        force: str | None = None,
    ) -> Plan:
        """Plan a statement without executing it."""
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if isinstance(statement, ast.ExplainPreference):
            statement = statement.statement
        if params:
            statement = bind_parameters(statement, params)
        return self._with_session(self._plan_statement(statement, force), statement)

    def _plan_statement(
        self,
        statement: ast.Statement,
        force: str | None = None,
        semantic: bool = True,
    ) -> Plan:
        """The base plan of one parameter-bound statement: everything but
        the session cache, which :meth:`_with_session` prices on top.
        ``semantic`` off skips the semantic pass (as a forced strategy
        does).
        """
        return plan_statement(
            statement,
            schema=self.schema(),
            resolver=self.catalog.resolve,
            statistics=self.statistics.for_table,
            force=force,
            constraints=self.constraints if semantic else None,
        )

    def _with_session(self, plan: Plan, statement: ast.Statement) -> Plan:
        """Price the session cache on top of a base plan (cached or fresh).

        Runs the session matcher once.  Matching is safe under parameters
        — it runs on the *bound* statement, so every binding is judged on
        its own literal WHERE conjuncts.  A forced plan is never turned
        into a session plan, so it skips the matcher; a base whose
        semantic pass fired is re-planned without it before a servable
        match is priced (:func:`~repro.plan.planner.with_session`).
        """
        if (
            plan.forced
            or not isinstance(statement, ast.Select)
            or statement.preferring is None
        ):
            return plan
        match = self._session_match(statement)
        if match is None:
            return plan
        if match.servable and plan.semantic_rule is not None:
            plan = self._plan_statement(statement, semantic=False)
        return with_session(
            plan, statement, match, self.catalog.resolve, self.schema()
        )

    def explain(self, sql: str) -> str:
        """Explain how a statement would be executed, without running it.

        For preference queries the report shows the normalised preference
        tree, the selected execution strategy with its cost estimates, the
        rewrite notes of the Preference SQL Optimizer, the emitted
        standard SQL and the host database's own query plan.  Plain SQL
        reports the pass-through path.
        """
        if not _PREFERENCE_HINT.search(sql):
            return "pass-through: no preference constructs, executed as-is"
        try:
            statement = parse_statement(sql)
        except PreferenceSQLError as error:
            return f"pass-through: not parseable as Preference SQL ({error})"
        if type(statement) in _CATALOG_STATEMENTS:
            return "catalog statement: maintains the persistent preference catalog"
        if isinstance(statement, ast.ExplainPreference):
            statement = statement.statement

        plan = self.plan(statement)
        if not plan.stages:
            return "pass-through: no PREFERRING clause, executed as-is"

        query = statement.query if isinstance(statement, ast.Insert) else statement
        lines = ["preference query", "", "preference tree:"]
        lines.append(describe(normalize(query.preferring), indent=1))
        lines += ["", plan_text(plan)]
        host_sql = plan.host_sql
        if host_sql is None:
            lines += ["", "host plan: none — answered from the session cache"]
            return "\n".join(lines)
        lines += ["", "host plan:"]
        try:
            host_plan = self._raw.execute(
                f"EXPLAIN QUERY PLAN {host_sql}"
            ).fetchall()
            lines += [f"  {row[-1]}" for row in host_plan]
        except sqlite3.Error as error:  # pragma: no cover - plan is advisory
            lines.append(f"  (unavailable: {error})")
        return "\n".join(lines)


def _drop_preference(connection: Connection, statement: ast.DropPreference) -> None:
    dependents = connection.view_maintainer.views_using_preference(statement.name)
    if dependents:
        raise CatalogError(
            f"preference {statement.name!r} is used by materialized "
            f"view(s) {', '.join(sorted(dependents))}; drop them first"
        )
    connection.catalog.drop(statement.name)


#: The PDL statements: how each maintains the persistent catalog, and
#: whether it makes a table appear or disappear (a view's backing table).
#: Every one of them bumps the catalog version and leaves no result set.
_CATALOG_STATEMENTS = {
    ast.CreatePreference: (lambda con, stmt: con.catalog.create(stmt), False),
    ast.DropPreference: (_drop_preference, False),
    ast.CreatePreferenceConstraint: (lambda con, stmt: con.catalog.create_constraint(stmt), False),
    ast.DropPreferenceConstraint: (lambda con, stmt: con.catalog.drop_constraint(stmt.name), False),
    ast.CreatePreferenceView: (lambda con, stmt: con.view_maintainer.create(stmt), True),
    ast.DropPreferenceView: (lambda con, stmt: con.view_maintainer.drop(stmt.name), True),
}


class _LocalResult:
    """A locally-materialised result set (in-memory engine or EXPLAIN),
    read through the same methods as a host cursor."""

    rowcount = -1

    def __init__(self, relation: Relation):
        self.description = tuple(
            (name, None, None, None, None, None, None) for name in relation.columns
        )
        self._rows = iter(relation.rows)

    def fetchone(self):
        return next(self._rows, None)

    def fetchmany(self, size: int):
        return list(islice(self._rows, size))

    def fetchall(self):
        return list(self._rows)

    def __iter__(self):
        return self._rows


class Cursor:
    """A DB-API cursor that understands Preference SQL."""

    arraysize = 1

    def __init__(self, connection: Connection):
        self._connection = connection
        self._raw = connection.raw.cursor()
        #: The SQL text actually sent to the host database, None before
        #: the first execute.  For preference queries this is the rewrite
        #: (or, for in-memory strategies, the hard-condition pushdown).
        self.executed_sql: str | None = None
        #: True when the last statement went through the planner.
        self.was_rewritten: bool = False
        #: The :class:`~repro.plan.planner.Plan` of the last preference
        #: statement, None for pass-through and catalog statements.
        self.plan: Plan | None = None
        self._result: _LocalResult | None = None

    # ------------------------------------------------------------------
    # Execution

    def execute(
        self,
        sql: str,
        params: Sequence[object] = (),
        algorithm: str | None = None,
        timeout_ms: float | None = None,
        deadline: Deadline | None = None,
    ) -> "Cursor":
        """Execute one statement (preference-extended or plain SQL).

        ``algorithm`` pins the execution strategy — ``rewrite`` (host
        NOT EXISTS) or ``bnl`` (in-memory winnow; the kernel follows the
        rank shape) — instead of letting the cost model choose; pinned
        executions bypass the plan cache.

        ``timeout_ms`` (or a pre-armed ``deadline``) bounds wall clock.
        The deadline is installed as the thread's active scope — the
        planner and the skyline kernels poll it — and a watchdog
        interrupts the raw sqlite connection so rewrite and
        pushdown scans abort mid-scan.  Expiry surfaces as
        :class:`~repro.errors.QueryTimeout` (code ``timeout``,
        ``retryable``); statements without a timeout take the exact
        pre-deadline code path.
        """
        faults.fire("driver.execute", sql=sql)
        if deadline is None and timeout_ms is not None:
            deadline = Deadline.after_ms(timeout_ms)
        if deadline is None:
            return self._execute_inner(sql, params, algorithm)
        deadline.check()
        raw = self._connection._raw
        # The catalog creates its tables on first use.  That DDL must not
        # run under the watchdog: sqlite answers an interrupted write by
        # rolling back the caller's whole open transaction.
        _ = self._connection.catalog
        try:
            with deadline_scope(deadline), sqlite_interrupt(raw, deadline):
                self._execute_inner(sql, params, algorithm)
                # Rewrite and pass-through results are normally fetched
                # lazily, which would move the host's scan work *outside*
                # the deadline (sqlite steps the statement at fetch
                # time).  A timed statement therefore materialises here,
                # while the watchdog is still armed.
                if self._result is None and self._raw.description is not None:
                    self._result = _LocalResult(host_relation(self._raw))
                return self
        except QueryTimeout:
            raise
        except (DriverError, sqlite3.Error) as exc:
            # The watchdog surfaces as "interrupted" from sqlite (wrapped
            # in DriverError by the execution paths) — report it as the
            # timeout it is, but only when the deadline really expired.
            if deadline.expired():
                raise QueryTimeout() from exc
            raise

    def _parse(
        self, sql: str, use_cache: bool = True
    ) -> tuple["_CachedStatement | None", ast.Statement | None]:
        """The plan-cache entry of ``sql`` (None on a miss) and its dialect
        parse — None when the text is plain SQL for the host database."""
        if not _PREFERENCE_HINT.search(sql):
            return None, None
        connection = self._connection
        entry = (
            connection._plan_cache.get(sql, connection.catalog_version)
            if use_cache
            else None
        )
        if entry is not None:
            return entry, entry.statement
        try:
            return None, parse_statement(sql)
        except PreferenceSQLError:
            # Keyword was a column/table name in plain SQL the dialect
            # parser does not fully cover — let the host database
            # decide (and remember the verdict).
            if use_cache:
                self._remember(sql, _CachedStatement(None, None, param_free=True))
            return None, None

    def _remember(self, sql: str, entry: "_CachedStatement") -> None:
        connection = self._connection
        connection._plan_cache.put(sql, connection.catalog_version, entry)

    def _execute_inner(
        self,
        sql: str,
        params: Sequence[object] = (),
        algorithm: str | None = None,
    ) -> "Cursor":
        self.plan = None
        self._result = None
        connection = self._connection
        use_cache = algorithm is None
        entry, statement = self._parse(sql, use_cache)
        if statement is None:
            return self._passthrough(sql, params)

        catalog_statement = _CATALOG_STATEMENTS.get(type(statement))
        if catalog_statement is not None:
            apply, changes_tables = catalog_statement
            apply(connection, statement)
            connection._bump_catalog_version()
            if changes_tables:
                connection._note_data_change()
            # A reused cursor must not keep describing its previous
            # statement's rows: a fresh host cursor has none.
            self._raw = connection.raw.cursor()
            self.executed_sql = None
            self.was_rewritten = False
            return self
        if isinstance(statement, ast.ExplainPreference):
            if entry is None and use_cache:
                self._remember(sql, _CachedStatement(statement, None, param_free=True))
            return self._execute_explain(statement, params, algorithm)

        bound = bind_parameters(statement, params) if params else statement
        fresh = entry is not None and entry.data_version == connection.data_version
        plan: Plan | None = None
        if entry is not None and entry.plan is not None and fresh:
            plan = entry.plan
            if params or not entry.param_free:
                if plan.semantic_rule is not None:
                    # Semantic SQL embeds the constraint analysis of the
                    # originally bound literals; rebinding would clobber
                    # it with the NOT EXISTS rewrite, so re-plan instead.
                    plan = None
                else:
                    plan = rebind_plan(
                        plan,
                        bound,
                        schema=connection.schema(),
                        resolver=connection.catalog.resolve,
                    )
        if plan is None:
            # First sighting, or the data version moved under a cached
            # plan: re-plan so the strategy tracks the current statistics
            # (parsing was still skipped on the stale-hit path).  The
            # cache keeps the base plan, which never depends on the
            # session cache's contents.
            plan = connection._plan_statement(bound, algorithm)
            if use_cache:
                self._remember(
                    sql,
                    _CachedStatement(
                        statement=statement,
                        plan=plan,
                        param_free=not params,
                        data_version=connection.data_version,
                    ),
                )
        # The session answer depends only on the live match, so the
        # session is priced per execution on top of the base plan.
        plan = connection._with_session(plan, bound)

        if not plan.stages:
            return self._passthrough(sql, params)
        return self._run(sql, bound, plan, capture=use_cache)

    def _run(
        self, sql: str, bound: ast.Statement, plan: Plan, capture: bool
    ) -> "Cursor":
        """Execute one planned statement through the plan runner.

        ``capture`` — the execution came through the plan cache (no
        pinned strategy) — lets the runner hand back the winner base for
        the session cache when reuse is enabled.  A rewrite's rows stay
        on this cursor's host cursor and are fetched lazily.
        """
        connection = self._connection
        self.plan = plan
        pending = None
        if isinstance(bound, ast.Insert):
            pending = connection.view_maintainer.prepare(
                "insert", bound.table.lower(), None, ()
            )
        try:
            outcome = run(
                self._raw.execute,
                plan,
                capture=capture and connection._session_enabled,
            )
        except sqlite3.Error as error:
            raise DriverError(
                f"host database rejected the {plan.strategy} strategy's "
                f"SQL: {error}\n{plan.host_sql}"
            ) from error
        if isinstance(bound, ast.Insert):
            connection._note_data_change()
            if pending is not None:
                connection.view_maintainer.finish(
                    pending, rowcount=self._raw.rowcount
                )
        if outcome.winner_base is not None:
            connection._store_session(plan.statement, outcome.winner_base)
        if plan.stage(Reuse) is not None:
            connection.session_cache.served += 1
        if outcome.relation is not None:
            self._result = _LocalResult(outcome.relation)
        self.executed_sql = plan.host_sql
        self.was_rewritten = True
        connection.trace.append((sql, outcome.note))
        return self

    def _execute_explain(
        self,
        statement: ast.ExplainPreference,
        params: Sequence[object],
        algorithm: str | None = None,
    ) -> "Cursor":
        connection = self._connection
        inner = statement.statement
        bound = bind_parameters(inner, params) if params else inner
        plan = connection._with_session(
            connection._plan_statement(bound, algorithm), bound
        )
        stats = connection.plan_cache_stats()
        cache_note = (
            f"{stats.hits} hits / {stats.misses} misses, "
            f"size {stats.size}/{stats.maxsize}"
        )
        self._result = _LocalResult(
            plan_relation(plan, source_sql=to_sql(bound), cache_note=cache_note)
        )
        self.executed_sql = None
        self.was_rewritten = False
        self.plan = plan
        return self

    def _passthrough(
        self, sql: str, params: Sequence[object], batch: bool = False
    ) -> "Cursor":
        """Hand plain SQL to the host database, keeping dependent views fresh.

        ``batch`` treats ``params`` as executemany's rows.  They stay
        with sqlite's bulk path; delta captures that need them (a
        parameterized DELETE pre-image) fail to bind and degrade to a
        flagged full recompute inside prepare(), while INSERT's rowid
        high-water mark and the UPDATE snapshot span the whole batch.
        """
        connection = self._connection
        self.executed_sql = sql
        self.was_rewritten = False
        connection.trace.append((sql, sql))
        changes_data = _DML_HINT.search(sql) is not None
        pending = (
            connection._prepare_maintenance(sql, () if batch else params)
            if changes_data
            else None
        )
        try:
            if batch:
                self._raw.executemany(sql, [tuple(row) for row in params])
            else:
                self._raw.execute(sql, tuple(params))
        except sqlite3.Error as error:
            message = str(error)
            if _PREFERENCE_HINT.search(sql):
                # The statement failed the dialect parse *and* the host
                # database: the dialect's diagnosis (e.g. the targeted
                # missing-parenthesis message for ``PREFERRING LOWEST
                # price``) is almost always the actionable one — surface
                # it instead of burying it under sqlite's syntax error.
                try:
                    parse_statement(sql)
                except PreferenceSQLError as dialect_error:
                    message = (
                        f"{error} (not parseable as Preference SQL "
                        f"either: {dialect_error})"
                    )
            raise DriverError(message) from error
        if changes_data:
            connection._note_data_change()
        if pending is not None:
            connection.view_maintainer.finish(pending, rowcount=self._raw.rowcount)
        connection._note_transaction_statement(sql)
        return self

    def executemany(self, sql: str, rows: Iterable[Sequence[object]]) -> "Cursor":
        """Bulk execution; preference statements are executed row by row.

        Plain INSERT/UPDATE batches against a view base table keep the
        bulk fast path and maintain the views from one combined delta
        (rowid high-water mark / snapshot diff); a batched DELETE falls
        back to a flagged full recompute, since its pre-image SELECT
        cannot be bound once per batch.  What counts as plain is the
        dialect parse's verdict (cached), not the keyword hint: a column
        that is merely *named* ``preference`` keeps the bulk path.
        """
        statement = self._parse(sql)[1]
        if statement is None or (
            isinstance(statement, (ast.Select, ast.Insert))
            and not statement.is_preference_query
        ):
            self.plan = None
            self._result = None
            return self._passthrough(sql, rows, batch=True)
        for row in rows:
            self.execute(sql, row)
        return self

    def executescript(self, script: str) -> "Cursor":
        """Run a plain SQL script (no preference constructs)."""
        if _SCRIPT_HINT.search(script):
            raise DriverError(
                "executescript is a plain-SQL fast path; execute preference "
                "statements one by one"
            )
        self.plan = None
        self._result = None
        self._raw.executescript(script)
        self._connection._note_data_change()
        # sqlite3's executescript implicitly COMMITs any pending
        # transaction, so the current catalog state is durable now.
        self._connection._committed_catalog_version = (
            self._connection.catalog_version
        )
        # A script can touch any table in any way; every materialized
        # view is recomputed rather than trusting a delta.
        self._connection.view_maintainer.refresh_all()
        return self

    # ------------------------------------------------------------------
    # Results

    @property
    def _rows(self):
        """Where the last statement's rows are: a local relation, or —
        rewrite and pass-through — still on the host cursor."""
        return self._raw if self._result is None else self._result

    @property
    def description(self):
        return self._rows.description

    @property
    def rowcount(self) -> int:
        return self._rows.rowcount

    @property
    def lastrowid(self):
        return self._raw.lastrowid

    def fetchone(self):
        return self._rows.fetchone()

    def fetchall(self):
        return self._rows.fetchall()

    def fetchmany(self, size: int | None = None):
        return self._rows.fetchmany(size if size is not None else self.arraysize)

    def __iter__(self):
        return iter(self._rows)

    def close(self) -> None:
        self._raw.close()

    @property
    def column_names(self) -> list[str]:
        """Result column names of the last query."""
        if self.description is None:
            return []
        return [entry[0] for entry in self.description]

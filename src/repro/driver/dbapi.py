"""PEP 249-style driver wrapping sqlite3 with Preference SQL support.

Layering (paper section 3.1, figure — extended with the cost-based plan
selector of :mod:`repro.plan`):

    application → Preference driver → parse+plan cache
                → Preference SQL Optimizer (rewrite)
                → cost-based plan selector ─┬→ standard driver (sqlite3)
                                            └→ pushdown + in-memory engine

Behaviour:

* statements without preference keywords pass straight through (native
  parameter binding, zero parsing overhead),
* ``CREATE/DROP PREFERENCE`` maintain the persistent catalog and bump the
  *catalog version*, orphaning cached plans that resolved named
  preferences,
* preference SELECT/INSERT statements are parsed, planned (or served from
  the LRU parse+plan cache keyed on statement text, catalog version and
  worker degree), their parameters bound, and executed on the strategy the
  cost model selected: the ``NOT EXISTS`` rewrite on the host database, a
  hard-condition pushdown followed by an in-memory skyline algorithm, or
  the partitioned parallel executor (``max_workers`` caps its worker
  pool; changing it orphans the affected cached plans),
* ``EXPLAIN PREFERENCE <select>`` returns the chosen plan, per-step cost
  estimates and the rewritten SQL as a result relation without executing
  the query,
* ``CREATE/DROP PREFERENCE VIEW`` materialize a preference query's BMO
  result into a backing table; INSERT/DELETE/UPDATE on a base table is
  intercepted (seeing through leading comments and CTE prologues) and the
  materialization is maintained incrementally where the dominance
  structure allows it, by flagged full recompute otherwise
  (:mod:`repro.engine.incremental`); a SELECT that matches a view
  definition is answered from the backing table,
* every statement that may change table contents bumps the *data version*,
  invalidating the per-connection statistics cache (and, per view, the
  backing table's statistics after maintenance writes).
"""

from __future__ import annotations

import re
import sqlite3
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.deadline import (
    Deadline,
    deadline_scope,
    sqlite_interrupt,
)
from repro.engine.bmo import (
    PreferenceEngine,
    run_in_memory_plan,
    run_in_memory_plan_capturing,
    run_prejoin_plan,
)
from repro.engine.incremental import ViewMaintainer
from repro.engine.parallel import ParallelExecutor, default_worker_count
from repro.engine.relation import Relation
from repro.errors import (
    CatalogError,
    DriverError,
    PlanError,
    PreferenceConstructionError,
    PreferenceSQLError,
    QueryTimeout,
)
from repro.model.algebra import normalize
from repro.pdl.catalog import PreferenceCatalog, ViewEntry
from repro.plan.cache import CacheStats, PlanCache
from repro.plan.constraints import ConstraintCache
from repro.plan.cost import SESSION_STRATEGY
from repro.plan.explain import plan_relation, plan_text
from repro.plan.planner import (
    Plan,
    inline_named_preferences,
    plan_statement,
    rebind_plan,
)
from repro.plan.session import SessionCache, SessionEntry, conjoin
from repro.plan.statistics import StatisticsCache, TableStatistics
from repro.sql import ast
from repro.sql.params import bind_parameters
from repro.sql.parser import parse_statement
from repro.sql.printer import quote_identifier as _quote
from repro.sql.printer import to_sql
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

#: Cheap detector for statements that may require preference-view
#: maintenance (or must be refused while views depend on the table).
#: Like :data:`_DML_HINT` this may over-match (word inside a string
#: literal); the :func:`_preference_dml_target` scanner then decides
#: precisely.  Under-matching is impossible: every maintained operation
#: starts (possibly after comments or a CTE prologue) with one of these
#: keywords.
_PREFERENCE_DML = re.compile(
    r"\b(INSERT|UPDATE|DELETE|REPLACE|DROP|ALTER)\b", re.IGNORECASE
)


@dataclass(frozen=True)
class _DmlTarget:
    """One intercepted statement, resolved to its target table.

    ``select_sql`` is the pre-image SELECT — for DELETE the statement
    with its DELETE keyword spliced to ``SELECT *`` (parameters
    untouched), for UPDATE a rowid-targeted ``SELECT rowid, * … WHERE``
    built from the statement's own top-level WHERE tail (None when the
    tail cannot be reused, e.g. exotic parameter styles or an UPDATE …
    FROM); ``param_offset`` counts the ``?`` markers consumed by the SET
    clause, i.e. how many leading parameters the pre-image SELECT must
    skip; ``conflict`` marks conflict clauses (``INSERT OR REPLACE`` /
    ``REPLACE INTO`` / ``UPDATE OR …``), whose side-deletions delta
    capture cannot see.  ``op`` may also be ``drop_table`` /
    ``alter_rename`` (refused while views depend on the table) or
    ``alter`` (full recompute after execution).
    """

    op: str
    table: str  # lowercase, unquoted
    select_sql: str | None = None
    conflict: bool = False
    param_offset: int = 0


def _skip_trivia(sql: str, pos: int) -> int:
    """Skip whitespace, ``--`` line comments and ``/* */`` comments."""
    length = len(sql)
    while pos < length:
        char = sql[pos]
        if char.isspace():
            pos += 1
        elif sql.startswith("--", pos):
            newline = sql.find("\n", pos)
            pos = length if newline == -1 else newline + 1
        elif sql.startswith("/*", pos):
            end = sql.find("*/", pos + 2)
            pos = length if end == -1 else end + 2
        else:
            break
    return pos


def _read_word(sql: str, pos: int) -> tuple[str, int]:
    start = pos
    while pos < len(sql) and (sql[pos].isalnum() or sql[pos] == "_"):
        pos += 1
    return sql[start:pos], pos


def _next_word(sql: str, pos: int) -> tuple[str, int]:
    return _read_word(sql, _skip_trivia(sql, pos))


def _read_table_name(sql: str, pos: int) -> tuple[str, int]:
    """Read a possibly quoted, possibly schema-qualified table name."""
    pos = _skip_trivia(sql, pos)
    if pos < len(sql) and sql[pos] in "\"`[":
        quote = sql[pos]
        close = "]" if quote == "[" else quote
        pos += 1
        parts: list[str] = []
        while pos < len(sql):
            if sql[pos] == close:
                if close in "\"`" and sql.startswith(close * 2, pos):
                    parts.append(close)
                    pos += 2
                    continue
                pos += 1
                break
            parts.append(sql[pos])
            pos += 1
        name = "".join(parts)
    else:
        name, pos = _read_word(sql, pos)
    after = _skip_trivia(sql, pos)
    if after < len(sql) and sql[after] == ".":
        # Schema qualification (``main.t``): the table is the last part.
        return _read_table_name(sql, after + 1)
    return name, pos


def _top_level_keyword(sql: str, pos: int) -> tuple[str | None, int, int]:
    """First INSERT/DELETE/UPDATE/REPLACE/SELECT at parenthesis depth 0.

    Used to step over a CTE prologue (``WITH ... AS (...), ...``);
    strings, quoted identifiers and comments are skipped so keywords
    inside them cannot fool the scan.  Returns (keyword, start, end).
    """
    depth = 0
    length = len(sql)
    while pos < length:
        char = sql[pos]
        if char.isspace():
            pos += 1
        elif sql.startswith("--", pos) or sql.startswith("/*", pos):
            pos = _skip_trivia(sql, pos)
        elif char == "'":
            pos += 1
            while pos < length:
                if sql[pos] == "'":
                    if sql.startswith("''", pos):
                        pos += 2
                        continue
                    pos += 1
                    break
                pos += 1
        elif char in "\"`":
            close = char
            pos += 1
            while pos < length and sql[pos] != close:
                pos += 1
            pos += 1
        elif char == "[":
            end = sql.find("]", pos)
            pos = length if end == -1 else end + 1
        elif char == "(":
            depth += 1
            pos += 1
        elif char == ")":
            depth -= 1
            pos += 1
        elif char.isalpha() or char == "_":
            word, end = _read_word(sql, pos)
            if depth == 0 and word.upper() in (
                "INSERT",
                "DELETE",
                "UPDATE",
                "REPLACE",
                "SELECT",
            ):
                return word.upper(), pos, end
            pos = end
        else:
            pos += 1
    return None, length, length


def _scan_update_tail(sql: str, pos: int) -> tuple[int | None, int, bool]:
    """Scan an UPDATE statement's SET clause for its top-level WHERE.

    Returns ``(where_start, placeholders_before, supported)`` —
    ``where_start`` is None when the statement has no top-level WHERE,
    ``placeholders_before`` counts the plain ``?`` markers the SET clause
    consumes, and ``supported`` turns False when the tail cannot be
    reused as a pre-image SELECT (numbered/named parameter styles, or an
    ``UPDATE … FROM`` join whose WHERE references other tables).
    """
    depth = 0
    placeholders = 0
    length = len(sql)
    while pos < length:
        char = sql[pos]
        if char.isspace():
            pos += 1
        elif sql.startswith("--", pos) or sql.startswith("/*", pos):
            pos = _skip_trivia(sql, pos)
        elif char == "'":
            pos += 1
            while pos < length:
                if sql[pos] == "'":
                    if sql.startswith("''", pos):
                        pos += 2
                        continue
                    pos += 1
                    break
                pos += 1
        elif char in "\"`":
            close = char
            pos += 1
            while pos < length and sql[pos] != close:
                pos += 1
            pos += 1
        elif char == "[":
            end = sql.find("]", pos)
            pos = length if end == -1 else end + 1
        elif char == "(":
            depth += 1
            pos += 1
        elif char == ")":
            depth -= 1
            pos += 1
        elif char == "?":
            if pos + 1 < length and sql[pos + 1].isdigit():
                return None, 0, False  # ?N numbered style
            placeholders += 1
            pos += 1
        elif char in ":@$":
            if pos + 1 < length and (sql[pos + 1].isalnum() or sql[pos + 1] == "_"):
                return None, 0, False  # named parameter style
            pos += 1
        elif char.isalpha() or char == "_":
            word, end = _read_word(sql, pos)
            if depth == 0:
                upper = word.upper()
                if upper == "WHERE":
                    return pos, placeholders, True
                if upper == "FROM":
                    return None, 0, False  # UPDATE … FROM join
            pos = end
        else:
            pos += 1
    return None, placeholders, True


def _preference_dml_target(sql: str) -> _DmlTarget | None:
    """Resolve one statement to the DML operation and table it targets.

    Robust against the ways a statement's *leading token* can hide the
    operation: ``--`` and ``/* */`` comments before the keyword, and CTE
    prologues (``WITH ... INSERT/UPDATE/DELETE``) — either would
    otherwise silently skip preference-view maintenance.  Returns None
    for anything that is not INSERT/DELETE/UPDATE (including plain
    SELECT behind a CTE).
    """
    pos = _skip_trivia(sql, 0)
    word, end = _read_word(sql, pos)
    keyword = word.upper()
    if keyword == "WITH":
        keyword, pos, end = _top_level_keyword(sql, end)
        if keyword is None or keyword == "SELECT":
            return None
    if keyword in ("INSERT", "REPLACE"):
        conflict = keyword == "REPLACE"
        word, cursor = _next_word(sql, end)
        if word.upper() == "OR":
            conflict = True
            _action, cursor = _next_word(sql, cursor)
            word, cursor = _next_word(sql, cursor)
        if word.upper() != "INTO":
            return None
        table, _after = _read_table_name(sql, cursor)
        return _DmlTarget(op="insert", table=table.lower(), conflict=conflict)
    if keyword == "DELETE":
        word, cursor = _next_word(sql, end)
        if word.upper() != "FROM":
            return None
        table, _after = _read_table_name(sql, cursor)
        # Pre-image query: the same statement with DELETE spliced to
        # SELECT * — WHERE clause and parameter markers are untouched.
        select_sql = sql[:pos] + "SELECT *" + sql[end:]
        return _DmlTarget(op="delete", table=table.lower(), select_sql=select_sql)
    if keyword == "UPDATE":
        conflict = False
        word, cursor = _next_word(sql, end)
        if word.upper() == "OR":
            # UPDATE OR REPLACE may delete conflicting rows the snapshot
            # of the WHERE-matching set cannot see.
            action, cursor = _next_word(sql, cursor)
            conflict = action.upper() == "REPLACE"
        else:
            cursor = _skip_trivia(sql, end)
        table, after = _read_table_name(sql, cursor)
        where_start, placeholders, supported = _scan_update_tail(sql, after)
        select_sql = None
        if supported:
            tail = sql[where_start:] if where_start is not None else ""
            select_sql = f"SELECT rowid, * FROM {_quote(table)} {tail}".rstrip()
        return _DmlTarget(
            op="update",
            table=table.lower(),
            select_sql=select_sql,
            conflict=conflict,
            param_offset=placeholders if supported else 0,
        )
    if keyword == "DROP":
        word, cursor = _next_word(sql, end)
        if word.upper() != "TABLE":
            return None
        probe, after = _next_word(sql, cursor)
        if probe.upper() == "IF":
            _exists, cursor = _next_word(sql, after)
        table, _after = _read_table_name(sql, cursor)
        return _DmlTarget(op="drop_table", table=table.lower())
    if keyword == "ALTER":
        word, cursor = _next_word(sql, end)
        if word.upper() != "TABLE":
            return None
        table, after = _read_table_name(sql, cursor)
        action, _after = _next_word(sql, after)
        op = "alter_rename" if action.upper() == "RENAME" else "alter"
        return _DmlTarget(op=op, table=table.lower())
    return None


@dataclass
class _CachedStatement:
    """One parse+plan cache entry.

    ``statement is None`` marks text that is *not* parseable as Preference
    SQL (the pass-through path); ``param_free`` records whether the cached
    plan's SQL texts can be reused verbatim (no ``?`` markers bound into
    them); ``data_version`` is the connection's data version at planning
    time — a later DML means the statistics the strategy was chosen on are
    stale, so the statement is re-planned (parsing is still skipped).
    """

    statement: ast.Statement | None
    plan: Plan | None
    param_free: bool
    data_version: int = 0


def connect(
    database: str = ":memory:",
    max_workers: int | None = None,
    shared=None,
    **kwargs,
) -> "Connection":
    """Open a Preference SQL connection to a sqlite database.

    ``max_workers`` caps the worker degree of the parallel execution
    strategy (None lets the hardware decide); it can be changed later via
    :attr:`Connection.max_workers`.  ``shared`` attaches the connection
    to a :class:`repro.server.shared.SharedState`: the parse+plan cache
    and statistics store become cross-session, and the data/catalog
    version counters delegate to the shared write epochs so a write
    through any attached connection invalidates every sibling's caches.
    Extra ``kwargs`` (e.g. ``check_same_thread=False`` for pooled
    connections handed across threads) pass through to
    :func:`sqlite3.connect`.
    """
    raw = sqlite3.connect(database, **kwargs)
    return Connection(raw, max_workers=max_workers, shared=shared)


class Connection:
    """A connection through the Preference driver."""

    def __init__(
        self,
        raw: sqlite3.Connection,
        max_workers: int | None = None,
        shared=None,
    ):
        self._raw = raw
        #: The cross-session serving state this connection is attached to
        #: (a :class:`repro.server.shared.SharedState`), or None for a
        #: standalone connection with private caches.
        self._shared = shared
        self._catalog: PreferenceCatalog | None = None
        #: (original, executed) statement pairs, newest last; for tests
        #: and the answer-explanation examples.
        self.trace: list[tuple[str, str]] = []
        self._data_version = 0
        self._catalog_version = 0
        #: Catalog version at the last commit — rollback restores it, so
        #: plans cached against the committed catalog stay servable.
        self._committed_catalog_version = 0
        #: Highest catalog version ever issued; versions burnt inside an
        #: aborted transaction are never reissued for a different catalog.
        self._catalog_high_water = 0
        self._max_workers = max_workers
        self._parallel: ParallelExecutor | None = None
        self._statistics: StatisticsCache | None = None
        self._constraints: ConstraintCache | None = None
        self._plan_cache: PlanCache[_CachedStatement] = (
            shared.plan_cache if shared is not None else PlanCache()
        )
        self._schema_cache: tuple[int, dict[str, list[str]]] | None = None
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

    @property
    def max_workers(self) -> int | None:
        """Worker-degree cap of the parallel strategy (None = hardware)."""
        return self._max_workers

    @max_workers.setter
    def max_workers(self, value: int | None) -> None:
        if value is not None and value < 1:
            raise DriverError("max_workers must be at least 1")
        if value == self._max_workers:
            return
        self._max_workers = value
        # The plan-cache key embeds the worker degree, so cached parallel
        # plans (and cost comparisons priced for the old pool) are
        # orphaned automatically; the old pool itself is retired.
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None

    @property
    def parallel_executor(self) -> "ParallelExecutor":
        """The connection-wide partitioned executor (created on first use)."""
        if self._parallel is None:
            self._parallel = ParallelExecutor(max_workers=self._max_workers)
        return self._parallel

    def _effective_workers(self) -> int:
        return self._max_workers or default_worker_count()

    def _plan_version(self) -> tuple[int, int | None]:
        """The plan-cache version key: catalog version + worker degree."""
        return (self.catalog_version, self._max_workers)

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
        keyword = _next_word(sql, 0)[0].upper()
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

    def _session_matcher(self):
        """Planner hook consulting the session cache, or None when it
        cannot possibly match (disabled, or nothing cached)."""
        if not self._session_enabled or not self._session.entries:
            return None

        def match(select: ast.Select):
            if select.preferring is None:
                return None
            term = self._canonical_term(select.preferring)
            if term is None:
                return None
            return self._session.match(select, term, self._session_versions())

        return match

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

    @property
    def view_maintenance_mode(self) -> str:
        """``auto`` (incremental where sound) or ``recompute`` (always full)."""
        return self.view_maintainer.mode

    @view_maintenance_mode.setter
    def view_maintenance_mode(self, value: str) -> None:
        if value not in ("auto", "recompute"):
            raise DriverError(
                "view_maintenance_mode must be 'auto' or 'recompute'"
            )
        self.view_maintainer.mode = value

    def refresh_preference_view(self, name: str) -> None:
        """Force a full recompute of one view's materialized rows."""
        self.view_maintainer.refresh(self.catalog.get_view(name))
        self._note_data_change()

    def _view_matcher(self):
        """Planner hook answering matching queries from materialized views."""
        return self.view_maintainer.match

    def _prepare_maintenance(self, sql: str, params: Sequence[object]):
        """Pre-DML delta capture for view maintenance (None when inert).

        The :data:`_PREFERENCE_DML` hint is a fast over-approximation;
        :func:`_preference_dml_target` then resolves the actual operation
        and target table, seeing through leading comments and CTE
        prologues so maintenance cannot be silently skipped.
        """
        if not _PREFERENCE_DML.search(sql):
            return None
        target = _preference_dml_target(sql)
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
        capture_params = (
            tuple(params)[target.param_offset :]
            if target.param_offset
            else params
        )
        return maintainer.prepare(
            target.op,
            target.table,
            target.select_sql,
            capture_params,
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
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None
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

    def schema(self) -> dict[str, list[str]]:
        """Table → column names, read from the sqlite catalog.

        Cached per data version: the catalog scan plus one PRAGMA per
        table would otherwise run on every preference execution, dwarfing
        what the plan cache saves.  DDL bumps the data version and
        refreshes it.
        """
        cached = self._schema_cache
        if cached is not None and cached[0] == self.data_version:
            return cached[1]
        tables = self._raw.execute(
            "SELECT name FROM sqlite_master WHERE type IN ('table', 'view')"
        ).fetchall()
        result: dict[str, list[str]] = {}
        for (name,) in tables:
            info = self._raw.execute(f"PRAGMA table_info({_quote(name)})").fetchall()
            result[name] = [row[1] for row in info]
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
        return plan_statement(
            statement,
            schema=self.schema(),
            resolver=self.catalog.resolve,
            statistics=self.statistics.for_table,
            force=force,
            workers=self._effective_workers(),
            # A parameterized execution must never be answered from a
            # view: the bound literals can make one binding match the
            # definition while the cached plan is reused for others.
            views=self._view_matcher() if not params else None,
            constraints=self.constraints,
            # Session matching is safe under parameters — it runs on the
            # *bound* statement, so every binding is judged on its own
            # literal WHERE conjuncts.
            session=self._session_matcher() if force is None else None,
        )

    def explain(self, sql: str) -> str:
        """Explain how a statement would be executed, without running it.

        For preference queries the report shows the normalised preference
        tree, the selected execution strategy with its cost estimates, the
        rewrite notes of the Preference SQL Optimizer, the emitted
        standard SQL and the host database's own query plan.  Plain SQL
        reports the pass-through path.
        """
        from repro.model.algebra import describe, normalize

        if not _PREFERENCE_HINT.search(sql):
            return "pass-through: no preference constructs, executed as-is"
        try:
            statement = parse_statement(sql)
        except PreferenceSQLError as error:
            return f"pass-through: not parseable as Preference SQL ({error})"
        if isinstance(
            statement,
            (
                ast.CreatePreference,
                ast.DropPreference,
                ast.CreatePreferenceConstraint,
                ast.DropPreferenceConstraint,
            ),
        ):
            return "catalog statement: maintains the persistent preference catalog"
        if isinstance(statement, ast.ExplainPreference):
            statement = statement.statement

        plan = self.plan(statement)
        if plan.strategy == "passthrough":
            return "pass-through: no PREFERRING clause, executed as-is"

        query = statement.query if isinstance(statement, ast.Insert) else statement
        lines = ["preference query", "", "preference tree:"]
        lines.append(describe(normalize(query.preferring), indent=1))
        lines += ["", plan_text(plan)]
        host_sql = plan.pushdown_sql or plan.rewritten_sql
        lines += ["", "host plan:"]
        try:
            host_plan = self._raw.execute(
                f"EXPLAIN QUERY PLAN {host_sql}"
            ).fetchall()
            lines += [f"  {row[-1]}" for row in host_plan]
        except sqlite3.Error as error:  # pragma: no cover - plan is advisory
            lines.append(f"  (unavailable: {error})")
        return "\n".join(lines)


class _LocalResult:
    """A locally-materialised result set (in-memory engine or EXPLAIN)."""

    def __init__(self, relation: Relation):
        self.relation = relation
        self._position = 0

    @property
    def description(self):
        return tuple(
            (name, None, None, None, None, None, None)
            for name in self.relation.columns
        )

    def fetchone(self):
        if self._position >= len(self.relation.rows):
            return None
        row = self.relation.rows[self._position]
        self._position += 1
        return row

    def fetchmany(self, size: int):
        rows = self.relation.rows[self._position : self._position + size]
        self._position += len(rows)
        return rows

    def fetchall(self):
        rows = self.relation.rows[self._position :]
        self._position = len(self.relation.rows)
        return rows


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
        NOT EXISTS), ``bnl`` (serial in-memory winnow; the kernel follows
        the rank shape), ``parallel`` (the same kernels over partitions)
        or ``prejoin`` — instead of letting the cost model choose; pinned
        executions bypass the plan cache.

        ``timeout_ms`` (or a pre-armed ``deadline``) bounds wall clock.
        The deadline is installed as the thread's active scope — the
        planner, the skyline kernels and the worker pools poll it — and a
        watchdog interrupts the raw sqlite connection so rewrite and
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
        try:
            with deadline_scope(deadline), sqlite_interrupt(raw, deadline):
                self._execute_inner(sql, params, algorithm)
                # Rewrite and pass-through results are normally fetched
                # lazily, which would move the host's scan work *outside*
                # the deadline (sqlite steps the statement at fetch
                # time).  A timed statement therefore materialises here,
                # while the watchdog is still armed.
                if self._result is None and self._raw.description is not None:
                    self._result = _LocalResult(
                        Relation(
                            columns=[
                                entry[0] for entry in self._raw.description
                            ],
                            rows=self._raw.fetchall(),
                        )
                    )
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

    def _execute_inner(
        self,
        sql: str,
        params: Sequence[object] = (),
        algorithm: str | None = None,
    ) -> "Cursor":
        self.plan = None
        self._result = None
        if not _PREFERENCE_HINT.search(sql):
            return self._passthrough(sql, params)

        connection = self._connection
        use_cache = algorithm is None
        entry = (
            connection._plan_cache.get(sql, connection._plan_version())
            if use_cache
            else None
        )
        if entry is not None:
            if entry.statement is None:
                return self._passthrough(sql, params)
            statement = entry.statement
        else:
            try:
                statement = parse_statement(sql)
            except PreferenceSQLError:
                # Keyword was a column/table name in plain SQL the dialect
                # parser does not fully cover — let the host database
                # decide (and remember the verdict).
                if use_cache:
                    connection._plan_cache.put(
                        sql,
                        connection._plan_version(),
                        _CachedStatement(statement=None, plan=None, param_free=True),
                    )
                return self._passthrough(sql, params)

        if isinstance(statement, ast.CreatePreference):
            connection.catalog.create(statement)
            connection._bump_catalog_version()
            self.executed_sql = None
            self.was_rewritten = False
            return self
        if isinstance(statement, ast.DropPreference):
            dependents = connection.view_maintainer.views_using_preference(
                statement.name
            )
            if dependents:
                raise CatalogError(
                    f"preference {statement.name!r} is used by materialized "
                    f"view(s) {', '.join(sorted(dependents))}; drop them first"
                )
            connection.catalog.drop(statement.name)
            connection._bump_catalog_version()
            self.executed_sql = None
            self.was_rewritten = False
            return self
        if isinstance(statement, ast.CreatePreferenceConstraint):
            connection.catalog.create_constraint(statement)
            connection._bump_catalog_version()
            self.executed_sql = None
            self.was_rewritten = False
            return self
        if isinstance(statement, ast.DropPreferenceConstraint):
            connection.catalog.drop_constraint(statement.name)
            connection._bump_catalog_version()
            self.executed_sql = None
            self.was_rewritten = False
            return self
        if isinstance(statement, ast.CreatePreferenceView):
            connection.view_maintainer.create(statement)
            connection._bump_catalog_version()
            connection._note_data_change()  # the backing table appeared
            self.executed_sql = None
            self.was_rewritten = False
            return self
        if isinstance(statement, ast.DropPreferenceView):
            connection.view_maintainer.drop(statement.name)
            connection._bump_catalog_version()
            connection._note_data_change()  # the backing table is gone
            self.executed_sql = None
            self.was_rewritten = False
            return self
        if isinstance(statement, ast.ExplainPreference):
            if entry is None and use_cache:
                connection._plan_cache.put(
                    sql,
                    connection._plan_version(),
                    _CachedStatement(statement=statement, plan=None, param_free=True),
                )
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
        if (
            plan is not None
            and use_cache
            and algorithm is None
            and isinstance(bound, ast.Select)
            and bound.preferring is not None
        ):
            # The cached plan predates the current session-cache contents;
            # when a stored winner base now provably serves this query,
            # drop the hit and re-plan so the session strategy competes.
            matcher = connection._session_matcher()
            if matcher is not None:
                match = matcher(bound)
                if match is not None and match.servable:
                    plan = None
        if plan is None:
            # First sighting, or the data version moved under a cached
            # plan: re-plan so the strategy tracks the current statistics
            # (parsing was still skipped on the stale-hit path).
            plan = plan_statement(
                bound,
                schema=connection.schema(),
                resolver=connection.catalog.resolve,
                statistics=connection.statistics.for_table,
                force=algorithm,
                workers=connection._effective_workers(),
                views=connection._view_matcher() if not params else None,
                constraints=connection.constraints,
                session=connection._session_matcher() if use_cache else None,
            )
            if use_cache:
                connection._plan_cache.put(
                    sql,
                    connection._plan_version(),
                    _CachedStatement(
                        statement=statement,
                        # A session plan is valid only against the exact
                        # cached entry it matched; caching it could serve
                        # a stale winner base later.  Cache the parse
                        # only — the next execution re-plans, which
                        # re-validates the match against live versions.
                        plan=None if plan.strategy == SESSION_STRATEGY else plan,
                        param_free=not params,
                        data_version=connection.data_version,
                    ),
                )

        if plan.strategy == "passthrough":
            return self._passthrough(sql, params)
        self.plan = plan
        if plan.strategy == SESSION_STRATEGY:
            return self._execute_session(sql, plan)
        if plan.uses_engine:
            capture = (
                use_cache
                and connection._session_enabled
                and isinstance(plan.statement, ast.Select)
                and plan.statement.preferring is not None
                and plan.statement.but_only is None
                and not plan.statement.group_by
                and plan.statement.having is None
                and plan.table is not None
            )
            return self._execute_in_memory(sql, plan, capture=capture)
        if plan.is_prejoin:
            return self._execute_prejoin(sql, plan)
        return self._execute_rewrite(sql, bound, plan)

    def _execute_rewrite(
        self, sql: str, bound: ast.Statement, plan: Plan
    ) -> "Cursor":
        rewritten_sql = plan.rewritten_sql
        self._connection.trace.append((sql, rewritten_sql))
        self.executed_sql = rewritten_sql
        self.was_rewritten = True
        pending = None
        if isinstance(bound, ast.Insert):
            pending = self._connection.view_maintainer.prepare(
                "insert", bound.table.lower(), None, ()
            )
        try:
            self._raw.execute(rewritten_sql)
        except sqlite3.Error as error:
            raise DriverError(
                f"host database rejected rewritten SQL: {error}\n{rewritten_sql}"
            ) from error
        if isinstance(bound, ast.Insert):
            self._connection._note_data_change()
            if pending is not None:
                self._connection.view_maintainer.finish(
                    pending, rowcount=self._raw.rowcount
                )
        return self

    def _execute_in_memory(
        self, sql: str, plan: Plan, capture: bool = False
    ) -> "Cursor":
        connection = self._connection
        executor = (
            connection.parallel_executor if plan.strategy == "parallel" else None
        )
        try:
            if capture:
                result, winner_base = run_in_memory_plan_capturing(
                    connection.raw.execute, plan, executor=executor
                )
            else:
                result = run_in_memory_plan(
                    connection.raw.execute, plan, executor=executor
                )
        except sqlite3.Error as error:
            raise DriverError(
                f"host database rejected pushdown SQL: {error}\n{plan.pushdown_sql}"
            ) from error
        if capture:
            connection._store_session(plan.statement, winner_base)
        self._result = _LocalResult(result)
        self.executed_sql = plan.pushdown_sql
        self.was_rewritten = True
        connection.trace.append(
            (sql, f"{plan.pushdown_sql} /* + in-memory {plan.strategy} */")
        )
        return self

    def _execute_session(self, sql: str, plan: Plan) -> "Cursor":
        """Answer a provably-refined query from the session cache.

        No base-table rescan: the cached winner base (filtered by any
        added grouping-column conjuncts via the residual's first pass) is
        unioned with the bounded delta rows — fetched by
        ``session_delta_sql`` only when the WHERE was weakened — and
        re-winnowed under the *new* preference.  The resulting winner
        base replaces the served entry, so a whole drill-down chain keeps
        re-winnowing ever-smaller sets.
        """
        connection = self._connection
        match = plan.session_match
        winners = match.entry.winners
        delta_rows: list[tuple] = []
        if plan.session_delta_sql is not None:
            try:
                cursor = connection.raw.execute(plan.session_delta_sql)
            except sqlite3.Error as error:
                raise DriverError(
                    f"host database rejected session delta SQL: {error}\n"
                    f"{plan.session_delta_sql}"
                ) from error
            delta_rows = cursor.fetchall()
        pool = Relation(
            columns=winners.columns,
            rows=list(winners.rows) + [tuple(row) for row in delta_rows],
        )
        residual = plan.residual
        name = residual.sources[0].name
        engine = PreferenceEngine({name: pool})
        stage_one = replace(
            residual,
            items=(ast.Star(),),
            where=conjoin(match.added),
            order_by=(),
            limit=None,
            offset=None,
            distinct=False,
        )
        winner_base = engine.execute_select(stage_one)
        engine.register(name, winner_base)
        result = engine.execute_select(residual)
        connection._store_session(plan.statement, winner_base)
        connection.session_cache.served += 1
        self._result = _LocalResult(result)
        self.executed_sql = plan.session_delta_sql
        self.was_rewritten = True
        delta_note = plan.session_delta_sql or "/* no delta scan */"
        connection.trace.append(
            (sql, f"{delta_note} /* + session reuse: {', '.join(match.rules)} */")
        )
        return self

    def _execute_prejoin(self, sql: str, plan: Plan) -> "Cursor":
        """The winnow-over-join pushdown: BMO first, then join winners."""
        connection = self._connection
        fallback: dict = {}
        try:
            result = run_prejoin_plan(
                connection.raw.execute,
                plan,
                on_fallback=lambda: fallback.setdefault("rewrite", True),
            )
        except sqlite3.Error as error:
            raise DriverError(
                f"host database rejected winnow pushdown SQL: {error}\n"
                f"{plan.prejoin_scan_sql}"
            ) from error
        self._result = _LocalResult(result)
        self.was_rewritten = True
        if fallback:
            # The preference table had no rowid to scan; the rewrite ran
            # instead, and the trace must say so.
            self.executed_sql = plan.rewritten_sql
            connection.trace.append(
                (sql, f"{plan.rewritten_sql} /* winnow scan lacked rowid */")
            )
        else:
            self.executed_sql = plan.prejoin_scan_sql
            connection.trace.append(
                (sql, f"{plan.prejoin_scan_sql} /* + winnow pushdown join-back */")
            )
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
        plan = plan_statement(
            bound,
            schema=connection.schema(),
            resolver=connection.catalog.resolve,
            statistics=connection.statistics.for_table,
            force=algorithm,
            workers=connection._effective_workers(),
            views=connection._view_matcher() if not params else None,
            constraints=connection.constraints,
            session=connection._session_matcher() if algorithm is None else None,
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

    def _passthrough(self, sql: str, params: Sequence[object]) -> "Cursor":
        self.executed_sql = sql
        self.was_rewritten = False
        self._connection.trace.append((sql, sql))
        pending = (
            self._connection._prepare_maintenance(sql, params)
            if _DML_HINT.search(sql)
            else None
        )
        try:
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
        if _DML_HINT.search(sql):
            self._connection._note_data_change()
        if pending is not None:
            self._connection.view_maintainer.finish(
                pending, rowcount=self._raw.rowcount
            )
        self._connection._note_transaction_statement(sql)
        return self

    def executemany(self, sql: str, rows: Iterable[Sequence[object]]) -> "Cursor":
        """Bulk execution; preference statements are executed row by row.

        Plain INSERT/UPDATE batches against a view base table keep the
        bulk fast path and maintain the views from one combined delta
        (rowid high-water mark / snapshot diff); a batched DELETE falls
        back to a flagged full recompute, since its pre-image SELECT
        cannot be bound once per batch.
        """
        if not _PREFERENCE_HINT.search(sql):
            self.executed_sql = sql
            self.was_rewritten = False
            self.plan = None
            self._result = None
            # The per-statement parameters stay with sqlite's fast path;
            # captures that need them (a parameterized DELETE pre-image)
            # fail to bind and degrade to a flagged full recompute inside
            # prepare(), while INSERT's rowid high-water mark and the
            # UPDATE snapshot span the whole batch.
            pending = (
                self._connection._prepare_maintenance(sql, ())
                if _DML_HINT.search(sql)
                else None
            )
            try:
                self._raw.executemany(sql, [tuple(row) for row in rows])
            except sqlite3.Error as error:
                raise DriverError(str(error)) from error
            if _DML_HINT.search(sql):
                self._connection._note_data_change()
            if pending is not None:
                self._connection.view_maintainer.finish(
                    pending, rowcount=self._raw.rowcount
                )
            return self
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
    # Results (delegated, or served from a local relation)

    @property
    def description(self):
        if self._result is not None:
            return self._result.description
        return self._raw.description

    @property
    def rowcount(self) -> int:
        if self._result is not None:
            return -1
        return self._raw.rowcount

    @property
    def lastrowid(self):
        return self._raw.lastrowid

    def fetchone(self):
        if self._result is not None:
            return self._result.fetchone()
        return self._raw.fetchone()

    def fetchall(self):
        if self._result is not None:
            return self._result.fetchall()
        return self._raw.fetchall()

    def fetchmany(self, size: int | None = None):
        count = size if size is not None else self.arraysize
        if self._result is not None:
            return self._result.fetchmany(count)
        return self._raw.fetchmany(count)

    def __iter__(self):
        if self._result is not None:
            return iter(self._result.fetchall())
        return iter(self._raw)

    def close(self) -> None:
        self._raw.close()

    @property
    def column_names(self) -> list[str]:
        """Result column names of the last query."""
        if self.description is None:
            return []
        return [entry[0] for entry in self.description]

"""Persistent preference catalog stored in the host database."""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import CatalogError
from repro.sql import ast
from repro.sql.parser import parse_preferring, parse_statement
from repro.sql.printer import to_sql

#: Name of the catalog table created in the host database.
CATALOG_TABLE = "prefsql_preferences"

#: Name of the materialized-view catalog table.
VIEW_CATALOG_TABLE = "prefsql_views"

#: Name of the declared-constraint catalog table (semantic optimization).
CONSTRAINT_CATALOG_TABLE = "prefsql_constraints"


@dataclass(frozen=True)
class CatalogEntry:
    """One stored preference definition."""

    name: str
    table: str
    definition: str


@dataclass(frozen=True)
class ViewEntry:
    """One stored materialized preference view.

    ``definition`` is the view's SELECT in Preference SQL text (re-parsed
    on load, like named preferences); ``backing_table`` holds the
    materialized BMO rows; ``base_tables`` are the lowercase names of the
    tables whose DML must trigger maintenance; ``maintainable`` records
    the CREATE-time analysis of :func:`repro.engine.incremental.analyze_view`
    and ``reason`` explains a False verdict.
    """

    name: str
    definition: str
    backing_table: str
    base_tables: tuple[str, ...]
    maintainable: bool
    reason: str

    @property
    def query(self) -> ast.Select:
        """The parsed view definition."""
        statement = parse_statement(self.definition)
        assert isinstance(statement, ast.Select)
        return statement


@dataclass(frozen=True)
class ConstraintEntry:
    """One declared integrity constraint (semantic-optimization input).

    Stored as full DDL text and re-parsed on load, like named preferences,
    so the catalog stays inspectable and portable.
    """

    name: str
    table: str
    definition: str

    @property
    def statement(self) -> ast.CreatePreferenceConstraint:
        """The parsed constraint declaration."""
        parsed = parse_statement(self.definition)
        assert isinstance(parsed, ast.CreatePreferenceConstraint)
        return parsed


@lru_cache(maxsize=256)
def _parse_definition(definition: str) -> ast.PrefTerm:
    """A stored preference's term; the AST is frozen, so one parse per
    definition text serves every statement that names it."""
    return parse_preferring(definition)


class PreferenceCatalog:
    """CRUD for named preferences, backed by a table in the host database.

    Definitions are stored as Preference SQL text and re-parsed on load,
    which keeps the catalog portable across library versions and lets DBAs
    inspect it with plain SQL.
    """

    def __init__(self, connection: sqlite3.Connection):
        self._connection = connection
        self._ensure_table()

    def _ensure_table(self) -> None:
        self._connection.execute(
            f"CREATE TABLE IF NOT EXISTS {CATALOG_TABLE} ("
            "name TEXT PRIMARY KEY, table_name TEXT NOT NULL, "
            "definition TEXT NOT NULL)"
        )
        self._connection.execute(
            f"CREATE TABLE IF NOT EXISTS {VIEW_CATALOG_TABLE} ("
            "name TEXT PRIMARY KEY, definition TEXT NOT NULL, "
            "backing_table TEXT NOT NULL, base_tables TEXT NOT NULL, "
            "maintainable INTEGER NOT NULL, reason TEXT NOT NULL)"
        )
        self._connection.execute(
            f"CREATE TABLE IF NOT EXISTS {CONSTRAINT_CATALOG_TABLE} ("
            "name TEXT PRIMARY KEY, table_name TEXT NOT NULL, "
            "definition TEXT NOT NULL)"
        )

    def create(self, statement: ast.CreatePreference, replace: bool = False) -> None:
        """Store a preference definition; re-parse to validate round-trip."""
        definition = to_sql(statement.term)
        _parse_definition(definition)  # must round-trip or the catalog rots
        name = statement.name.lower()
        if replace:
            self._connection.execute(
                f"INSERT OR REPLACE INTO {CATALOG_TABLE} VALUES (?, ?, ?)",
                (name, statement.table.lower(), definition),
            )
            return
        try:
            self._connection.execute(
                f"INSERT INTO {CATALOG_TABLE} VALUES (?, ?, ?)",
                (name, statement.table.lower(), definition),
            )
        except sqlite3.IntegrityError:
            raise CatalogError(f"preference {statement.name!r} already exists")

    def drop(self, name: str) -> None:
        """Remove a stored preference."""
        cursor = self._connection.execute(
            f"DELETE FROM {CATALOG_TABLE} WHERE name = ?", (name.lower(),)
        )
        if cursor.rowcount == 0:
            raise CatalogError(f"unknown preference {name!r}")

    def get(self, name: str) -> CatalogEntry:
        """Load one stored preference."""
        row = self._connection.execute(
            f"SELECT name, table_name, definition FROM {CATALOG_TABLE} "
            "WHERE name = ?",
            (name.lower(),),
        ).fetchone()
        if row is None:
            raise CatalogError(f"unknown preference {name!r}")
        return CatalogEntry(name=row[0], table=row[1], definition=row[2])

    def entries(self) -> list[CatalogEntry]:
        """All stored preferences, alphabetically."""
        rows = self._connection.execute(
            f"SELECT name, table_name, definition FROM {CATALOG_TABLE} "
            "ORDER BY name"
        ).fetchall()
        return [CatalogEntry(*row) for row in rows]

    def resolve(self, name: str) -> ast.PrefTerm:
        """NameResolver interface for the builder/rewriter.  The catalog
        row is read on every call, so DDL is seen at once; its parse is
        shared by every call that reads the same definition text."""
        return _parse_definition(self.get(name).definition)

    # ------------------------------------------------------------------
    # Declared constraints (semantic optimization)

    def create_constraint(self, statement: ast.CreatePreferenceConstraint) -> None:
        """Store a constraint declaration; re-parse to validate round-trip."""
        definition = to_sql(statement)
        parsed = parse_statement(definition)  # must round-trip or the catalog rots
        assert isinstance(parsed, ast.CreatePreferenceConstraint)
        try:
            self._connection.execute(
                f"INSERT INTO {CONSTRAINT_CATALOG_TABLE} VALUES (?, ?, ?)",
                (statement.name.lower(), statement.table.lower(), definition),
            )
        except sqlite3.IntegrityError:
            raise CatalogError(
                f"preference constraint {statement.name!r} already exists"
            )

    def drop_constraint(self, name: str) -> None:
        """Remove a stored constraint declaration."""
        cursor = self._connection.execute(
            f"DELETE FROM {CONSTRAINT_CATALOG_TABLE} WHERE name = ?",
            (name.lower(),),
        )
        if cursor.rowcount == 0:
            raise CatalogError(f"unknown preference constraint {name!r}")

    def constraints(self, table: str | None = None) -> list[ConstraintEntry]:
        """Stored constraints, alphabetically, optionally for one table."""
        if table is None:
            rows = self._connection.execute(
                f"SELECT name, table_name, definition "
                f"FROM {CONSTRAINT_CATALOG_TABLE} ORDER BY name"
            ).fetchall()
        else:
            rows = self._connection.execute(
                f"SELECT name, table_name, definition "
                f"FROM {CONSTRAINT_CATALOG_TABLE} WHERE table_name = ? "
                "ORDER BY name",
                (table.lower(),),
            ).fetchall()
        return [ConstraintEntry(*row) for row in rows]

    # ------------------------------------------------------------------
    # Materialized preference views

    def create_view(
        self,
        statement: ast.CreatePreferenceView,
        backing_table: str,
        base_tables: tuple[str, ...],
        maintainable: bool,
        reason: str = "",
    ) -> ViewEntry:
        """Store a view definition; re-parse to validate round-trip."""
        definition = to_sql(statement.query)
        parsed = parse_statement(definition)  # must round-trip or the catalog rots
        assert isinstance(parsed, ast.Select)
        entry = ViewEntry(
            name=statement.name.lower(),
            definition=definition,
            backing_table=backing_table,
            base_tables=tuple(table.lower() for table in base_tables),
            maintainable=maintainable,
            reason=reason,
        )
        try:
            self._connection.execute(
                f"INSERT INTO {VIEW_CATALOG_TABLE} VALUES (?, ?, ?, ?, ?, ?)",
                (
                    entry.name,
                    entry.definition,
                    entry.backing_table,
                    ",".join(entry.base_tables),
                    int(entry.maintainable),
                    entry.reason,
                ),
            )
        except sqlite3.IntegrityError:
            raise CatalogError(
                f"preference view {statement.name!r} already exists"
            )
        return entry

    def drop_view(self, name: str) -> ViewEntry:
        """Remove a stored view, returning its entry (for backing cleanup)."""
        entry = self.get_view(name)
        self._connection.execute(
            f"DELETE FROM {VIEW_CATALOG_TABLE} WHERE name = ?", (name.lower(),)
        )
        return entry

    def get_view(self, name: str) -> ViewEntry:
        """Load one stored view."""
        row = self._connection.execute(
            f"SELECT name, definition, backing_table, base_tables, "
            f"maintainable, reason FROM {VIEW_CATALOG_TABLE} WHERE name = ?",
            (name.lower(),),
        ).fetchone()
        if row is None:
            raise CatalogError(f"unknown preference view {name!r}")
        return self._view_entry(row)

    def views(self) -> list[ViewEntry]:
        """All stored views, alphabetically."""
        rows = self._connection.execute(
            f"SELECT name, definition, backing_table, base_tables, "
            f"maintainable, reason FROM {VIEW_CATALOG_TABLE} ORDER BY name"
        ).fetchall()
        return [self._view_entry(row) for row in rows]

    @staticmethod
    def _view_entry(row: tuple) -> ViewEntry:
        return ViewEntry(
            name=row[0],
            definition=row[1],
            backing_table=row[2],
            base_tables=tuple(part for part in row[3].split(",") if part),
            maintainable=bool(row[4]),
            reason=row[5],
        )

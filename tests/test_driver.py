"""The Preference driver: pass-through, rewriting, DB-API behaviour."""

import pytest

import repro
from repro.errors import DriverError


class TestPassThrough:
    def test_plain_sql_is_not_parsed(self, connection):
        # A statement our dialect parser does not cover must still work.
        connection.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT DEFAULT 'x')")
        connection.execute("INSERT INTO t (a) VALUES (1)")
        rows = connection.execute("SELECT a, b FROM t").fetchall()
        assert rows == [(1, "x")]

    def test_passthrough_keeps_native_params(self, connection):
        connection.execute("CREATE TABLE t (a INTEGER)")
        connection.execute("INSERT INTO t VALUES (?)", (42,))
        rows = connection.execute("SELECT * FROM t WHERE a = ?", (42,)).fetchall()
        assert rows == [(42,)]

    def test_cursor_flags(self, connection):
        connection.execute("CREATE TABLE t (a INTEGER)")
        cursor = connection.execute("SELECT * FROM t")
        assert cursor.was_rewritten is False
        assert cursor.executed_sql == "SELECT * FROM t"

    def test_aggregates_pass_through(self, fixture_connection):
        rows = fixture_connection.execute(
            "SELECT color, COUNT(*) FROM oldtimer GROUP BY color ORDER BY color"
        ).fetchall()
        assert ("red", 2) in rows

    def test_preference_keyword_as_column_passes_through(self, connection):
        # 'preference' as a column name must not break plain SQL.
        connection.execute("CREATE TABLE prefs (preference TEXT)")
        connection.execute("INSERT INTO prefs VALUES ('blue')")
        rows = connection.execute("SELECT preference FROM prefs").fetchall()
        assert rows == [("blue",)]

    def test_sqlite_error_wrapped(self, connection):
        with pytest.raises(DriverError):
            connection.execute("SELECT * FROM missing_table")

    def test_executemany_with_hint_word_column_takes_the_bulk_path(self, connection):
        connection.execute("CREATE TABLE p (preference TEXT)")
        cursor = connection.cursor()
        cursor.executemany(
            "INSERT INTO p(preference) VALUES (?)", [("x",), ("y",)]
        )
        assert cursor.rowcount == 2
        assert cursor.was_rewritten is False and cursor.plan is None
        rows = connection.execute("SELECT preference FROM p").fetchall()
        assert rows == [("x",), ("y",)]

    def test_timed_passthrough_keeps_duplicate_column_names(self, connection):
        cursor = connection.execute("SELECT 1 AS a, 2 AS a", timeout_ms=60_000)
        assert cursor.column_names == ["a", "a"]
        assert cursor.fetchall() == [(1, 2)]


class TestPreferenceExecution:
    def test_rewrite_flag_and_trace(self, fixture_connection):
        cursor = fixture_connection.execute(
            "SELECT * FROM trips PREFERRING duration AROUND 14"
        )
        assert cursor.was_rewritten
        # Either the classical NOT EXISTS rewrite or, when the constraint
        # catalog proves the weak order, the semantic single-pass SQL.
        if cursor.plan is not None and cursor.plan.semantic_rule is not None:
            assert "ORDER BY" in cursor.executed_sql
        else:
            assert "NOT EXISTS" in cursor.executed_sql
        original, executed = fixture_connection.trace[-1]
        assert "PREFERRING" in original
        assert "PREFERRING" not in executed

    def test_forced_rewrite_is_classical_not_exists(self, fixture_connection):
        cursor = fixture_connection.execute(
            "SELECT * FROM trips PREFERRING duration AROUND 14",
            algorithm="rewrite",
        )
        assert "NOT EXISTS" in cursor.executed_sql

    def test_best_matches_only(self, fixture_connection):
        rows = fixture_connection.execute(
            "SELECT trip_id FROM trips PREFERRING duration AROUND 14"
        ).fetchall()
        assert {row[0] for row in rows} == {5, 7}

    def test_params_bound_into_preference_query(self, fixture_connection):
        rows = fixture_connection.execute(
            "SELECT trip_id FROM trips WHERE destination = ? "
            "PREFERRING duration AROUND ?",
            ("Crete", 14),
        ).fetchall()
        assert {row[0] for row in rows} == {2}

    def test_executemany_with_preferring(self, fixture_connection):
        fixture_connection.execute("CREATE TABLE picks (trip_id INTEGER, destination TEXT, start_day INTEGER, duration INTEGER, price INTEGER)")
        cursor = fixture_connection.cursor()
        cursor.executemany(
            "INSERT INTO picks SELECT * FROM trips WHERE destination = ? "
            "PREFERRING LOWEST(price)",
            [("Crete",), ("Norway",)],
        )
        rows = fixture_connection.execute("SELECT trip_id FROM picks").fetchall()
        assert {row[0] for row in rows} == {1, 5}

    def test_column_names_exposed(self, fixture_connection):
        cursor = fixture_connection.execute(
            "SELECT ident, LEVEL(color) FROM oldtimer PREFERRING color = 'red'"
        )
        assert cursor.column_names == ["ident", "LEVEL(color)"]

    def test_fetch_interfaces(self, fixture_connection):
        cursor = fixture_connection.execute(
            "SELECT trip_id FROM trips PREFERRING LOWEST(price)"
        )
        assert cursor.fetchone() is not None
        cursor = fixture_connection.execute(
            "SELECT trip_id FROM trips PREFERRING LOWEST(price)"
        )
        assert len(cursor.fetchmany(10)) >= 1
        cursor = fixture_connection.execute(
            "SELECT trip_id FROM trips PREFERRING LOWEST(price)"
        )
        assert list(iter(cursor))

    def test_reused_cursor_forgets_rows_after_a_catalog_statement(
        self, fixture_connection
    ):
        cursor = fixture_connection.cursor()
        cursor.execute(
            "SELECT * FROM trips PREFERRING LOWEST(price)", algorithm="rewrite"
        )
        cursor.execute("CREATE PREFERENCE cheap ON trips AS LOWEST(price)")
        assert cursor.description is None
        assert cursor.fetchall() == []

    def test_trace_is_a_bounded_ring(self, connection):
        from repro.driver.dbapi import TRACE_LIMIT

        for number in range(2 * TRACE_LIMIT):
            connection.execute(f"SELECT {number}")
        assert len(connection.trace) == TRACE_LIMIT
        last = f"SELECT {2 * TRACE_LIMIT - 1}"
        assert connection.trace[-1] == (last, last)

    def test_rejected_rewrite_reports_sql(self, connection):
        connection.execute("CREATE TABLE t (x INTEGER)")
        # LEVEL on a numeric preference is a rewrite-time error.
        with pytest.raises(Exception):
            connection.execute("SELECT LEVEL(x) FROM t PREFERRING LOWEST(x)")


class TestPdlThroughDriver:
    def test_create_use_drop(self, fixture_connection):
        con = fixture_connection
        con.execute("CREATE PREFERENCE short_trip ON trips AS duration AROUND 7")
        rows = con.execute(
            "SELECT trip_id FROM trips PREFERRING PREFERENCE short_trip"
        ).fetchall()
        assert {row[0] for row in rows} == {1}
        con.execute("DROP PREFERENCE short_trip")
        with pytest.raises(Exception):
            con.execute("SELECT * FROM trips PREFERRING PREFERENCE short_trip")

    def test_named_preference_composes(self, fixture_connection):
        con = fixture_connection
        con.execute("CREATE PREFERENCE cheap ON trips AS LOWEST(price)")
        rows = con.execute(
            "SELECT trip_id FROM trips "
            "PREFERRING PREFERENCE cheap AND duration AROUND 14"
        ).fetchall()
        assert len(rows) >= 1


class TestConnectionManagement:
    def test_context_manager_commits(self, tmp_path):
        path = str(tmp_path / "db.sqlite")
        with repro.connect(path) as con:
            con.execute("CREATE TABLE t (a INTEGER)")
            con.execute("INSERT INTO t VALUES (1)")
        with repro.connect(path) as con:
            assert con.execute("SELECT COUNT(*) FROM t").fetchone() == (1,)

    def test_context_manager_rolls_back_on_error(self, tmp_path):
        path = str(tmp_path / "db.sqlite")
        with repro.connect(path) as con:
            con.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(RuntimeError):
            with repro.connect(path) as con:
                con.execute("INSERT INTO t VALUES (1)")
                raise RuntimeError("boom")
        with repro.connect(path) as con:
            assert con.execute("SELECT COUNT(*) FROM t").fetchone() == (0,)

    def test_schema_reflection(self, fixture_connection):
        schema = fixture_connection.schema()
        assert "oldtimer" in schema
        assert schema["oldtimer"] == ["ident", "color", "age"]

    def test_executescript_rejects_preferences(self, connection):
        with pytest.raises(DriverError):
            connection.cursor().executescript(
                "SELECT * FROM t PREFERRING LOWEST(x);"
            )

    def test_executescript_plain(self, connection):
        connection.cursor().executescript(
            "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1);"
        )
        assert connection.execute("SELECT * FROM t").fetchall() == [(1,)]

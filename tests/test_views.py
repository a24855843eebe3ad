"""Materialized preference views: statements, maintenance, planning.

Covers the full stack of the view subsystem — parser/printer for the new
PDL statements, catalog persistence, the CREATE-time maintainability
analysis, the incremental maintenance engine (insert dominance test,
bounded re-derivation, flagged recompute fallbacks), the driver's DML
interception (including the leading-comment and CTE regression cases)
and the planning of a query whose text equals a view definition, which
reads the base tables like any other query.
"""

import pytest

import repro
from repro.sql.scan import dml_target
from repro.engine.incremental import analyze_view, validate_view
from repro.errors import CatalogError, DriverError, ParseError
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql


def fresh_connection():
    connection = repro.connect(":memory:")
    connection.execute("CREATE TABLE items (a INTEGER, b INTEGER, g TEXT)")
    connection.execute(
        "INSERT INTO items VALUES (1, 9, 'p'), (2, 8, 'p'), (5, 5, 'q'), (9, 1, 'q')"
    )
    return connection


VIEW_QUERY = "SELECT * FROM items PREFERRING LOWEST(a) AND LOWEST(b)"


def oracle(connection, query=VIEW_QUERY):
    return sorted(connection.execute(query, algorithm="bnl").fetchall(), key=repr)


def materialized(connection, name="best"):
    return sorted(
        connection.raw.execute(f"SELECT * FROM {name}").fetchall(), key=repr
    )


# ----------------------------------------------------------------------
# Statements: parse and print


def test_view_statements_round_trip():
    create = parse_statement(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    assert isinstance(create, ast.CreatePreferenceView)
    assert create.name == "best"
    assert to_sql(create) == f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}"
    assert parse_statement(to_sql(create)) == create

    drop = parse_statement("DROP PREFERENCE VIEW best")
    assert isinstance(drop, ast.DropPreferenceView)
    assert parse_statement(to_sql(drop)) == drop


def test_view_statement_parse_errors():
    with pytest.raises(ParseError):
        parse_statement("CREATE PREFERENCE VIEW best AS INSERT INTO t VALUES (1)")
    with pytest.raises(ParseError):
        parse_statement("DROP PREFERENCE VIEW")


def test_plain_preference_statements_still_parse():
    statement = parse_statement("CREATE PREFERENCE cheap ON items AS LOWEST(a)")
    assert isinstance(statement, ast.CreatePreference)
    assert isinstance(parse_statement("DROP PREFERENCE cheap"), ast.DropPreference)


# ----------------------------------------------------------------------
# CREATE-time analysis


def _query(sql):
    statement = parse_statement(sql)
    assert isinstance(statement, ast.Select)
    return statement


def test_analysis_accepts_the_maintainable_shape():
    analysis = analyze_view(
        _query("SELECT * FROM items WHERE a < 10 PREFERRING LOWEST(a) GROUPING g")
    )
    assert analysis.maintainable
    assert analysis.base_table == "items"
    assert analysis.base_tables == ("items",)


@pytest.mark.parametrize(
    "sql, fragment",
    [
        ("SELECT * FROM items, items i2 PREFERRING LOWEST(a)", "single base table"),
        ("SELECT a FROM items PREFERRING LOWEST(a)", "projection"),
        (
            "SELECT * FROM items PREFERRING a AROUND 3 BUT ONLY DISTANCE(a) <= 1",
            "BUT ONLY",
        ),
        ("SELECT * FROM items PREFERRING LOWEST(a) ORDER BY b", "ORDER BY"),
        ("SELECT * FROM items PREFERRING LOWEST(a) LIMIT 2", "LIMIT"),
        ("SELECT DISTINCT * FROM items PREFERRING LOWEST(a)", "DISTINCT"),
        (
            "SELECT * FROM items WHERE a IN (SELECT b FROM items) "
            "PREFERRING LOWEST(a)",
            "sub-queries",
        ),
    ],
)
def test_analysis_routes_hard_shapes_to_recompute(sql, fragment):
    analysis = analyze_view(_query(sql))
    assert not analysis.maintainable
    assert fragment in analysis.reason


def test_validation_rejects_parameters_and_missing_preferring():
    with pytest.raises(CatalogError):
        validate_view(_query("SELECT * FROM items WHERE a = 1"))
    with pytest.raises(CatalogError):
        validate_view(_query("SELECT * FROM items WHERE a = ? PREFERRING LOWEST(a)"))


# ----------------------------------------------------------------------
# Lifecycle through the driver


def test_create_materializes_and_drop_cleans_up():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    entries = connection.views()
    assert [entry.name for entry in entries] == ["best"]
    assert entries[0].maintainable
    assert materialized(connection) == oracle(connection)

    connection.execute("DROP PREFERENCE VIEW best")
    assert connection.views() == []
    tables = {
        row[0]
        for row in connection.raw.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    assert "best" not in tables
    connection.close()


def test_duplicate_and_unknown_view_names_raise():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    with pytest.raises(CatalogError):
        connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    with pytest.raises(CatalogError):
        connection.execute("DROP PREFERENCE VIEW missing")
    connection.close()


def test_create_over_existing_table_name_fails_cleanly():
    connection = fresh_connection()
    with pytest.raises(DriverError):
        connection.execute(f"CREATE PREFERENCE VIEW items AS {VIEW_QUERY}")
    # The failed creation must not leave a catalog entry behind.
    assert connection.views() == []
    connection.close()


def test_view_without_preferring_is_rejected():
    connection = fresh_connection()
    with pytest.raises(CatalogError):
        connection.execute("CREATE PREFERENCE VIEW best AS SELECT * FROM items")
    connection.close()


# ----------------------------------------------------------------------
# Incremental maintenance semantics


def test_insert_promotes_and_evicts():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    connection.execute("INSERT INTO items VALUES (0, 0, 'r')")
    assert materialized(connection) == [(0, 0, "r")] == oracle(connection)
    stats = connection.view_maintenance_stats()["best"]
    assert stats.get("incremental") == 1
    connection.close()


def test_dominated_insert_leaves_members_alone():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    before = materialized(connection)
    connection.execute("INSERT INTO items VALUES (10, 10, 'r')")
    assert materialized(connection) == before == oracle(connection)
    connection.close()


def test_delete_of_dominated_row_is_a_noop():
    connection = fresh_connection()
    connection.execute("INSERT INTO items VALUES (10, 10, 'r')")
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    connection.execute("DELETE FROM items WHERE a = 10")
    stats = connection.view_maintenance_stats()["best"]
    assert stats.get("noop") == 1
    assert materialized(connection) == oracle(connection)
    connection.close()


def test_delete_of_member_re_derives_promoted_rows():
    connection = fresh_connection()
    connection.execute("INSERT INTO items VALUES (0, 0, 'r')")
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    assert materialized(connection) == [(0, 0, "r")]
    connection.execute("DELETE FROM items WHERE a = 0")
    assert materialized(connection) == oracle(connection)
    stats = connection.view_maintenance_stats()["best"]
    assert stats.get("re-derive") == 1
    connection.close()


def test_grouped_delete_only_re_derives_affected_partitions():
    connection = fresh_connection()
    query = "SELECT * FROM items PREFERRING LOWEST(a) AND LOWEST(b) GROUPING g"
    connection.execute(f"CREATE PREFERENCE VIEW best AS {query}")
    # (5, 5, 'q') and (9, 1, 'q') are both maximal in group q; deleting
    # one must re-derive q while group p's members survive untouched.
    connection.execute("DELETE FROM items WHERE a = 5")
    assert materialized(connection) == oracle(connection, query)
    stats = connection.view_maintenance_stats()["best"]
    assert stats.get("re-derive") == 1
    connection.close()


def test_update_of_member_and_of_dominated_row():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    # Update a member out of its winning position.
    connection.execute("UPDATE items SET a = 50 WHERE a = 1")
    assert materialized(connection) == oracle(connection)
    # Update a dominated row into a winning position.
    connection.execute("UPDATE items SET b = 0, a = 0 WHERE a = 50")
    assert materialized(connection) == [(0, 0, "p")] == oracle(connection)
    connection.close()


def test_where_clause_filters_the_delta():
    connection = fresh_connection()
    query = "SELECT * FROM items WHERE a < 10 PREFERRING LOWEST(b)"
    connection.execute(f"CREATE PREFERENCE VIEW best AS {query}")
    before = materialized(connection)
    connection.execute("INSERT INTO items VALUES (99, 0, 'z')")  # fails WHERE
    assert materialized(connection) == before == oracle(connection, query)
    connection.execute("INSERT INTO items VALUES (3, 0, 'z')")  # passes WHERE
    assert materialized(connection) == oracle(connection, query)
    connection.close()


def test_duplicate_rows_are_kept_together():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    connection.execute("INSERT INTO items VALUES (0, 0, 'r'), (0, 0, 'r')")
    assert materialized(connection) == [(0, 0, "r"), (0, 0, "r")]
    assert materialized(connection) == oracle(connection)
    connection.execute("DELETE FROM items WHERE a = 0")
    assert materialized(connection) == oracle(connection)
    connection.close()


def test_named_preferences_are_inlined_and_protected():
    connection = fresh_connection()
    connection.execute("CREATE PREFERENCE low_a ON items AS LOWEST(a)")
    query = "SELECT * FROM items PREFERRING PREFERENCE low_a AND LOWEST(b)"
    connection.execute(f"CREATE PREFERENCE VIEW best AS {query}")
    connection.execute("INSERT INTO items VALUES (0, 0, 'r')")
    assert materialized(connection) == oracle(connection, query)
    with pytest.raises(CatalogError, match="used by materialized view"):
        connection.execute("DROP PREFERENCE low_a")
    connection.execute("DROP PREFERENCE VIEW best")
    connection.execute("DROP PREFERENCE low_a")  # now allowed
    connection.close()


def test_unmaintainable_view_recomputes_with_flag():
    connection = fresh_connection()
    query = (
        "SELECT * FROM items PREFERRING a AROUND 3 BUT ONLY DISTANCE(a) <= 2"
    )
    connection.execute(f"CREATE PREFERENCE VIEW best AS {query}")
    entry = connection.views()[0]
    assert not entry.maintainable
    assert "BUT ONLY" in entry.reason
    connection.execute("INSERT INTO items VALUES (3, 3, 'r')")
    assert materialized(connection) == oracle(connection, query)
    stats = connection.view_maintenance_stats()["best"]
    assert stats.get("recompute", 0) >= 2  # creation + DML
    assert "incremental" not in stats
    connection.close()


def test_refresh_preference_view_is_manual_recompute():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    # Mutate behind the driver's back (raw connection, no interception).
    connection.raw.execute("INSERT INTO items VALUES (0, 0, 'r')")
    assert materialized(connection) != oracle(connection)
    connection.refresh_preference_view("best")
    assert materialized(connection) == oracle(connection)
    connection.close()


# ----------------------------------------------------------------------
# DML interception: leading comments and CTE prologues (regression)


def test_scanner_resolves_plain_dml():
    target = dml_target("INSERT INTO items VALUES (1, 2, 'x')")
    assert (target.op, target.table, target.conflict) == ("insert", "items", False)
    target = dml_target("DELETE FROM items WHERE a = 1")
    assert (target.op, target.table) == ("delete", "items")
    assert target.select_sql == "SELECT * FROM items WHERE a = 1"
    target = dml_target("UPDATE items SET a = 1 WHERE b = 2")
    assert (target.op, target.table) == ("update", "items")


def test_scanner_sees_through_leading_comments():
    target = dml_target(
        "-- audit note\n/* multi\nline */ INSERT INTO items VALUES (1, 2, 'x')"
    )
    assert (target.op, target.table) == ("insert", "items")
    target = dml_target("/* c */ DELETE FROM items WHERE a = 1")
    assert target.op == "delete"
    assert target.select_sql == "/* c */ SELECT * FROM items WHERE a = 1"


def test_scanner_sees_through_cte_prologues():
    target = dml_target(
        "WITH doomed AS (SELECT a FROM items WHERE a > 5) "
        "DELETE FROM items WHERE a IN (SELECT a FROM doomed)"
    )
    assert (target.op, target.table) == ("delete", "items")
    assert target.select_sql.startswith("WITH doomed AS")
    assert "SELECT * FROM items WHERE a IN" in target.select_sql
    target = dml_target(
        "WITH extra(a, b, g) AS (VALUES (0, 0, 'r')) "
        "INSERT INTO items SELECT * FROM extra"
    )
    assert (target.op, target.table) == ("insert", "items")


def test_scanner_is_not_fooled_by_keywords_in_strings():
    target = dml_target(
        "WITH note AS (SELECT ' DELETE FROM decoy ' AS t) "
        "UPDATE items SET g = 'INSERT' WHERE a = 1"
    )
    assert (target.op, target.table) == ("update", "items")
    assert dml_target("WITH x AS (SELECT 1 AS c) SELECT * FROM x") is None
    assert dml_target("SELECT * FROM items") is None


def test_scanner_handles_quoted_and_conflict_forms():
    target = dml_target('INSERT OR REPLACE INTO "It""ems" VALUES (1)')
    assert (target.op, target.table, target.conflict) == ("insert", 'it"ems', True)
    target = dml_target("REPLACE INTO items VALUES (1, 2, 'x')")
    assert (target.op, target.conflict) == ("insert", True)
    target = dml_target("UPDATE OR IGNORE main.items SET a = 1")
    assert (target.op, target.table, target.conflict) == ("update", "items", False)
    target = dml_target("UPDATE OR REPLACE items SET a = 1")
    assert (target.op, target.conflict) == ("update", True)


def test_scanner_builds_targeted_update_pre_image():
    target = dml_target("UPDATE items SET a = ?, b = ? WHERE g = ?")
    assert target.select_sql == 'SELECT rowid, * FROM "items" WHERE g = ?'
    assert target.param_offset == 2
    target = dml_target("UPDATE items SET a = 1")
    assert target.select_sql == 'SELECT rowid, * FROM "items"'
    # Unsupported tails degrade to the full-snapshot capture (None).
    assert dml_target(
        "UPDATE items SET a = :v WHERE b = :w"
    ).select_sql is None
    assert dml_target(
        "UPDATE items SET a = 1 FROM extra WHERE items.b = extra.b"
    ).select_sql is None
    # WHERE inside the SET sub-select must not terminate the scan early.
    target = dml_target(
        "UPDATE items SET a = (SELECT MAX(b) FROM items WHERE g = 'p') WHERE b = 2"
    )
    assert target.select_sql == 'SELECT rowid, * FROM "items" WHERE b = 2'


def test_scanner_resolves_ddl_on_base_tables():
    target = dml_target("DROP TABLE IF EXISTS items")
    assert (target.op, target.table) == ("drop_table", "items")
    target = dml_target("ALTER TABLE items RENAME TO archive")
    assert (target.op, target.table) == ("alter_rename", "items")
    target = dml_target("ALTER TABLE items ADD COLUMN extra INTEGER")
    assert (target.op, target.table) == ("alter", "items")
    assert dml_target("DROP INDEX idx") is None


def test_scanner_accepts_host_sql_the_dialect_lexer_rejects():
    target = dml_target("DELETE FROM `my items` WHERE a == $low & ~b | @mask")
    assert (target.op, target.table) == ("delete", "my items")
    target = dml_target("UPDATE [main].[items] SET a = x'00ff', c = ?1 WHERE b = ?2")
    assert (target.table, target.select_sql) == ("items", None)
    target = dml_target("INSERT INTO items VALUES (:a, @b, $c)")
    assert (target.op, target.table) == ("insert", "items")


def test_drop_and_rename_of_base_table_are_refused_while_views_exist():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    with pytest.raises(CatalogError, match="drop them first"):
        connection.execute("DROP TABLE items")
    with pytest.raises(CatalogError, match="drop them first"):
        connection.execute("ALTER TABLE items RENAME TO archive")
    with pytest.raises(CatalogError, match="drop them first"):
        connection.execute("DROP TABLE best")  # the materialization itself
    connection.execute("DROP PREFERENCE VIEW best")
    connection.execute("DROP TABLE items")  # now allowed
    connection.close()


def test_rowid_changing_update_falls_back_to_recompute():
    connection = repro.connect(":memory:")
    connection.execute("CREATE TABLE keyed (pk INTEGER PRIMARY KEY, b INTEGER)")
    connection.execute("INSERT INTO keyed VALUES (1, 9), (2, 1)")
    connection.execute(
        "CREATE PREFERENCE VIEW best AS "
        "SELECT * FROM keyed PREFERRING LOWEST(pk) AND LOWEST(b)"
    )
    # Updating an INTEGER PRIMARY KEY moves the rowid; the targeted
    # capture must notice and recompute instead of guessing.
    connection.execute("UPDATE keyed SET pk = 99 WHERE pk = 1")
    assert materialized(connection) == sorted(
        connection.execute(
            "SELECT * FROM keyed PREFERRING LOWEST(pk) AND LOWEST(b)",
            algorithm="bnl",
        ).fetchall(),
        key=repr,
    )
    connection.close()


def test_parameterized_execution_matching_a_definition_rebinds_exactly():
    connection = fresh_connection()
    connection.execute(
        "CREATE PREFERENCE VIEW best AS "
        "SELECT * FROM items WHERE a <= 2 PREFERRING HIGHEST(a)"
    )
    query = "SELECT * FROM items WHERE a <= ? PREFERRING HIGHEST(a)"
    # The first binding makes the bound text equal the view definition;
    # the cached plan must still answer the second binding from its own.
    first = connection.execute(query, (2,))
    assert sorted(first.fetchall()) == [(2, 8, "p")]
    second = connection.execute(query, (9,))
    assert sorted(second.fetchall()) == [(9, 1, "q")]
    connection.close()


def test_views_created_by_another_connection_are_maintained(tmp_path):
    database = str(tmp_path / "shared.db")
    writer = repro.connect(database)
    writer.execute("CREATE TABLE items (a INTEGER, b INTEGER, g TEXT)")
    writer.execute("INSERT INTO items VALUES (1, 9, 'p'), (9, 1, 'q')")
    writer.commit()
    # Warm the second connection's view index while no view exists yet.
    other = repro.connect(database)
    other.execute("INSERT INTO items VALUES (5, 5, 'p')")
    other.commit()
    writer.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    writer.commit()
    # The second connection must notice the new view (PRAGMA
    # data_version changed) and maintain it on its own DML.
    other.execute("INSERT INTO items VALUES (0, 0, 'r')")
    other.commit()
    assert sorted(
        writer.raw.execute("SELECT * FROM best").fetchall()
    ) == [(0, 0, "r")]
    writer.close()
    other.close()


def test_comment_prefixed_dml_maintains_the_view():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    connection.execute("-- nightly load\nINSERT INTO items VALUES (0, 0, 'r')")
    assert materialized(connection) == [(0, 0, "r")] == oracle(connection)
    connection.execute("/* cleanup */ DELETE FROM items WHERE a = 0")
    assert materialized(connection) == oracle(connection)
    connection.close()


def test_cte_prefixed_dml_maintains_the_view():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    connection.execute(
        "WITH extra(a, b, g) AS (VALUES (0, 0, 'r')) "
        "INSERT INTO items SELECT * FROM extra"
    )
    assert materialized(connection) == [(0, 0, "r")] == oracle(connection)
    connection.execute(
        "WITH doomed AS (SELECT 0 AS a) "
        "DELETE FROM items WHERE a IN (SELECT a FROM doomed)"
    )
    assert materialized(connection) == oracle(connection)
    connection.close()


def test_insert_or_replace_falls_back_to_recompute():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    connection.execute("INSERT OR REPLACE INTO items VALUES (0, 0, 'r')")
    assert materialized(connection) == oracle(connection)
    stats = connection.view_maintenance_stats()["best"]
    assert stats.get("recompute", 0) >= 2  # creation + conflict-clause DML
    connection.close()


def test_executemany_insert_and_delete_maintenance():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    cursor = connection.cursor()
    cursor.executemany(
        "INSERT INTO items VALUES (?, ?, ?)", [(0, 3, "r"), (3, 0, "r")]
    )
    assert materialized(connection) == oracle(connection)
    stats = connection.view_maintenance_stats()["best"]
    assert stats.get("incremental") == 1
    cursor.executemany("DELETE FROM items WHERE a = ?", [(0,), (3,)])
    assert materialized(connection) == oracle(connection)
    connection.close()


def test_executemany_hint_word_keeps_one_combined_delta():
    # Plain SQL that merely mentions a hint word (here in a comment) is
    # still one bulk batch: one combined delta, not one per row.
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    cursor = connection.cursor()
    cursor.executemany(
        "INSERT INTO items VALUES (?, ?, ?) /* no PREFERRING here */",
        [(0, 3, "r"), (3, 0, "r")],
    )
    assert cursor.rowcount == 2
    assert materialized(connection) == oracle(connection)
    assert connection.view_maintenance_stats()["best"].get("incremental") == 1
    connection.close()


def test_executescript_recomputes_every_view():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    connection.cursor().executescript(
        "INSERT INTO items VALUES (0, 0, 'r');"
        "DELETE FROM items WHERE a = 9;"
    )
    assert materialized(connection) == oracle(connection)
    connection.close()


def test_preference_insert_statement_maintains_the_view():
    connection = fresh_connection()
    connection.execute("CREATE TABLE picks (a INTEGER, b INTEGER, g TEXT)")
    connection.execute(
        "CREATE PREFERENCE VIEW best AS "
        "SELECT * FROM picks PREFERRING LOWEST(a)"
    )
    connection.execute(
        "INSERT INTO picks SELECT * FROM items PREFERRING LOWEST(a)"
    )
    assert materialized(connection) == sorted(
        connection.execute(
            "SELECT * FROM picks PREFERRING LOWEST(a)", algorithm="bnl"
        ).fetchall(),
        key=repr,
    )
    connection.close()


def test_rollback_reverts_base_and_materialization_together():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    connection.commit()
    before = materialized(connection)
    connection.execute("INSERT INTO items VALUES (0, 0, 'r')")
    assert materialized(connection) == [(0, 0, "r")]
    connection.rollback()
    assert materialized(connection) == before == oracle(connection)
    connection.close()


def test_without_rowid_table_falls_back_to_recompute():
    connection = repro.connect(":memory:")
    connection.execute(
        "CREATE TABLE ranked (a INTEGER PRIMARY KEY, b INTEGER) WITHOUT ROWID"
    )
    connection.execute("INSERT INTO ranked VALUES (1, 9), (9, 1)")
    connection.execute(
        "CREATE PREFERENCE VIEW best AS "
        "SELECT * FROM ranked PREFERRING LOWEST(a) AND LOWEST(b)"
    )
    connection.execute("INSERT INTO ranked VALUES (0, 0)")
    assert materialized(connection) == [(0, 0)]
    stats = connection.view_maintenance_stats()["best"]
    assert stats.get("recompute", 0) >= 2  # creation + failed rowid capture
    connection.close()


def test_schema_drift_recovers_via_recompute():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    # The intercepted ALTER recomputes immediately, rebuilding the
    # backing table with the new width; the following delta is then
    # maintained incrementally against the new schema.
    connection.execute("ALTER TABLE items ADD COLUMN extra INTEGER")
    connection.execute("INSERT INTO items VALUES (0, 0, 'r', 7)")
    assert materialized(connection) == [(0, 0, "r", 7)] == oracle(connection)
    connection.close()


def test_maintenance_events_are_bounded():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    for i in range(230):
        connection.execute(f"INSERT INTO items VALUES (0, 0, 'x{i}')")
    assert len(connection.view_maintainer.events) == 200
    connection.close()


# ----------------------------------------------------------------------
# Planning: a definition's text is planned like any other query


def _assert_base_answer(connection, query=VIEW_QUERY, params=(), algorithm=None):
    """Run ``query`` and check it read the base table, not the view's
    backing table, and returned the oracle's rows."""
    cursor = connection.execute(query, params, algorithm=algorithm)
    chosen = (algorithm,) if algorithm else ("rewrite", "bnl")
    assert cursor.plan.strategy in chosen
    assert cursor.executed_sql == cursor.plan.host_sql
    assert '"best"' not in cursor.executed_sql
    rows = sorted(cursor.fetchall(), key=repr)
    expected = sorted(
        connection.execute(query, params, algorithm="rewrite").fetchall(), key=repr
    )
    assert rows == expected
    return rows


def test_definition_query_is_planned_from_the_base_table():
    """With the view present the definition's text is planned from the
    base table, and its answer is the materialized rows."""
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    rows = _assert_base_answer(connection)
    assert rows == materialized(connection) == oracle(connection)
    connection.close()


def test_forced_strategies_bypass_the_view():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    for strategy in ("rewrite", "bnl"):
        rows = _assert_base_answer(connection, algorithm=strategy)
        assert rows == materialized(connection), strategy
    connection.close()


def test_non_matching_and_parameterized_queries_read_the_base_table():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    _assert_base_answer(connection, "SELECT * FROM items PREFERRING LOWEST(a)")
    rows = _assert_base_answer(
        connection,
        "SELECT * FROM items WHERE a < ? PREFERRING LOWEST(a) AND LOWEST(b)",
        (100,),
    )
    assert rows == materialized(connection)
    connection.close()


def test_definition_answers_stay_fresh_across_dml():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    assert connection.execute(VIEW_QUERY).fetchall()  # prime the plan cache
    connection.execute("INSERT INTO items VALUES (0, 0, 'r')")
    rows = _assert_base_answer(connection)
    assert rows == materialized(connection) == [(0, 0, "r")]
    connection.close()


def test_dropping_the_view_leaves_the_definition_answer_unchanged():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    before = _assert_base_answer(connection)
    strategy = connection.execute(VIEW_QUERY).plan.strategy
    connection.execute("DROP PREFERENCE VIEW best")
    assert _assert_base_answer(connection) == before == oracle(connection)
    assert connection.execute(VIEW_QUERY).plan.strategy == strategy
    connection.close()


def test_explain_preference_reports_the_base_strategy():
    """EXPLAIN PREFERENCE of a definition's text, maintainable or not,
    reports the strategy that reads the base table and no view rows."""
    unmaintainable = (
        "SELECT * FROM items PREFERRING a AROUND 3 BUT ONLY DISTANCE(a) <= 2"
    )
    connection = fresh_connection()
    for query in (VIEW_QUERY, unmaintainable):
        connection.execute(f"CREATE PREFERENCE VIEW best AS {query}")
        rows = dict(connection.execute(f"EXPLAIN PREFERENCE {query}").fetchall())
        assert rows["strategy"].startswith(("rewrite", "bnl")), query
        assert '"best"' not in rows["rewritten SQL"]
        assert not {"materialized view", "maintenance"} & set(rows), query
        connection.execute("DROP PREFERENCE VIEW best")
    connection.close()


def test_explain_text_reports_the_base_strategy():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    report = connection.explain(VIEW_QUERY)
    strategy = connection.plan(VIEW_QUERY).strategy
    assert f"{strategy} — " in report
    assert "materialized" not in report and "best" not in report
    connection.close()


def test_planning_sends_no_view_lookup():
    """Planning sends the host no ``PRAGMA data_version``: only DML
    consults the view catalog."""
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    sent = []
    connection.raw.set_trace_callback(sent.append)
    for query in (VIEW_QUERY, "SELECT * FROM items PREFERRING HIGHEST(b)"):
        assert connection.plan(query).stages
    connection.raw.set_trace_callback(None)
    assert not [sql for sql in sent if "data_version" in sql]
    connection.close()


def test_views_are_empty_on_a_fresh_database():
    connection = repro.connect(":memory:")
    # Listing views must not create catalog tables as a side effect.
    assert connection.views() == []
    assert connection.raw.execute(
        "SELECT name FROM sqlite_master WHERE name = 'prefsql_views'"
    ).fetchone() is None
    connection.close()


def test_plain_sql_reads_the_backing_table_directly():
    connection = fresh_connection()
    connection.execute(f"CREATE PREFERENCE VIEW best AS {VIEW_QUERY}")
    cursor = connection.execute("SELECT * FROM best")
    assert not cursor.was_rewritten
    assert sorted(cursor.fetchall(), key=repr) == oracle(connection)
    connection.close()

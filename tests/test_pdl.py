"""The Preference Definition Language catalog."""

import sqlite3
from unittest import mock

import pytest

import repro
from repro.errors import CatalogError
from repro.pdl.catalog import CATALOG_TABLE, PreferenceCatalog
from repro.sql import ast, parser
from repro.sql.parser import parse_statement


def create_stmt(text) -> ast.CreatePreference:
    statement = parse_statement(text)
    assert isinstance(statement, ast.CreatePreference)
    return statement


@pytest.fixture
def catalog():
    return PreferenceCatalog(sqlite3.connect(":memory:"))


class TestCrud:
    def test_create_and_get(self, catalog):
        catalog.create(create_stmt("CREATE PREFERENCE p ON t AS LOWEST(x)"))
        entry = catalog.get("p")
        assert entry.table == "t"
        assert entry.definition == "LOWEST(x)"

    def test_names_are_case_insensitive(self, catalog):
        catalog.create(create_stmt("CREATE PREFERENCE MyPref ON t AS LOWEST(x)"))
        assert catalog.get("MYPREF").name == "mypref"

    def test_duplicate_create_raises(self, catalog):
        catalog.create(create_stmt("CREATE PREFERENCE p ON t AS LOWEST(x)"))
        with pytest.raises(CatalogError):
            catalog.create(create_stmt("CREATE PREFERENCE p ON t AS HIGHEST(x)"))

    def test_replace(self, catalog):
        catalog.create(create_stmt("CREATE PREFERENCE p ON t AS LOWEST(x)"))
        catalog.create(
            create_stmt("CREATE PREFERENCE p ON t AS HIGHEST(x)"), replace=True
        )
        assert catalog.get("p").definition == "HIGHEST(x)"

    def test_drop(self, catalog):
        catalog.create(create_stmt("CREATE PREFERENCE p ON t AS LOWEST(x)"))
        catalog.drop("p")
        with pytest.raises(CatalogError):
            catalog.get("p")

    def test_drop_unknown_raises(self, catalog):
        with pytest.raises(CatalogError):
            catalog.drop("ghost")

    def test_entries_sorted(self, catalog):
        catalog.create(create_stmt("CREATE PREFERENCE zz ON t AS LOWEST(x)"))
        catalog.create(create_stmt("CREATE PREFERENCE aa ON t AS LOWEST(x)"))
        assert [entry.name for entry in catalog.entries()] == ["aa", "zz"]

    def test_resolve_returns_term(self, catalog):
        catalog.create(
            create_stmt("CREATE PREFERENCE p ON t AS x AROUND 14 AND LOWEST(y)")
        )
        term = catalog.resolve("p")
        assert isinstance(term, ast.ParetoPref)


class TestParseOnce:
    def test_each_statement_tokenizes_once(self):
        con = repro.connect(":memory:")
        con.execute("CREATE TABLE t (x INTEGER, y INTEGER)")
        con.execute("INSERT INTO t VALUES (1, 2), (2, 1), (3, 3)")
        con.execute("CREATE PREFERENCE p ON t AS LOWEST(x) AND LOWEST(y)")
        statements = [
            f"SELECT * FROM t WHERE x > {bound} PREFERRING PREFERENCE p"
            for bound in range(4)
        ] + ["SELECT x FROM t PREFERRING PREFERENCE p CASCADE HIGHEST(y)"]
        with mock.patch.object(parser, "tokenize", wraps=parser.tokenize) as spy:
            for statement in statements:
                con.execute(statement).fetchall()
        assert [call.args[0] for call in spy.call_args_list] == statements
        con.close()

    def test_a_replaced_definition_is_seen_at_once(self):
        con = repro.connect(":memory:")
        con.execute("CREATE TABLE t (x INTEGER, y INTEGER)")
        con.execute("INSERT INTO t VALUES (1, 2), (2, 1)")
        con.execute("CREATE PREFERENCE p ON t AS LOWEST(x)")
        query = "SELECT x FROM t PREFERRING PREFERENCE p"
        assert con.execute(query).fetchall() == [(1,)]
        con.execute("DROP PREFERENCE p")
        con.execute("CREATE PREFERENCE p ON t AS LOWEST(y)")
        assert con.execute(query).fetchall() == [(2,)]
        con.close()


class TestPersistence:
    def test_definitions_survive_reconnect(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite")
        with repro.connect(path) as con:
            con.execute("CREATE TABLE trips (trip_id INTEGER, duration INTEGER)")
            con.execute("INSERT INTO trips VALUES (1, 7), (2, 14)")
            con.execute("CREATE PREFERENCE fortnight ON trips AS duration AROUND 14")
        with repro.connect(path) as con:
            rows = con.execute(
                "SELECT trip_id FROM trips PREFERRING PREFERENCE fortnight"
            ).fetchall()
            assert rows == [(2,)]

    def test_catalog_table_is_plain_sql_visible(self, tmp_path):
        path = str(tmp_path / "catalog.sqlite")
        with repro.connect(path) as con:
            con.execute("CREATE PREFERENCE p ON t AS LOWEST(x)")
            rows = con.execute(
                f"SELECT name, definition FROM {CATALOG_TABLE}"
            ).fetchall()
            assert rows == [("p", "LOWEST(x)")]

    def test_complex_definition_round_trips(self, catalog):
        catalog.create(
            create_stmt(
                "CREATE PREFERENCE complex ON car AS "
                "(category = 'roadster' ELSE category <> 'passenger' "
                "AND price AROUND 40000 AND HIGHEST(power)) "
                "CASCADE color = 'red' CASCADE LOWEST(mileage)"
            )
        )
        term = catalog.resolve("complex")
        assert isinstance(term, ast.CascadePref)
        assert len(term.parts) == 3

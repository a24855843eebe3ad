"""The Preference SQL Optimizer: rewriting correctness and SQL shape."""

import random
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
import repro.plan.planner as plan_planner
from repro.engine import PreferenceEngine, Relation, bmo
from repro.engine.columns import rank_columns_from_values
from repro.errors import PlanError, RewriteError
from repro.model.builder import build_preference
from repro.rewrite.levels import leaf_value
from repro.rewrite.planner import HostSchema, rewrite_select, rewrite_statement
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql


def rewrite_text(query, schema=None):
    result = rewrite_select(parse_statement(query), schema=schema)
    assert result.rewritten
    return to_sql(result.statement)


@pytest.fixture
def con(fixture_connection):
    return fixture_connection


class TestPassThrough:
    def test_plain_select_untouched(self):
        statement = parse_statement("SELECT * FROM t WHERE a = 1")
        result = rewrite_select(statement)
        assert not result.rewritten
        assert result.statement is statement

    def test_plain_insert_untouched(self):
        statement = parse_statement("INSERT INTO t VALUES (1)")
        result = rewrite_statement(statement)
        assert not result.rewritten


class TestShape:
    """A single rowid table: the paper's ``Aux`` as a materialized CTE."""

    def test_not_exists_anti_join(self):
        sql = rewrite_text("SELECT * FROM cars PREFERRING LOWEST(price)")
        assert sql.startswith("WITH __pref AS MATERIALIZED (SELECT rowid AS __rid, ")
        assert "WHERE rowid IN (SELECT c.__rid FROM __pref AS c WHERE NOT EXISTS" in sql
        assert "(SELECT 1 FROM __pref AS d WHERE d.__r0 < c.__r0)" in sql

    def test_pareto_shape_matches_paper(self):
        # <= on every component, < on at least one (section 3.2).
        sql = rewrite_text(
            "SELECT * FROM Cars PREFERRING Make = 'Audi' AND Diesel = 'yes'"
        )
        assert sql.count("<=") == 2
        assert sql.count("<") >= 4  # two <= plus two strict <
        assert "CASE WHEN" in sql

    def test_where_appears_on_both_copies(self):
        # Once, in the CTE that both copies (c and d) read.
        sql = rewrite_text(
            "SELECT * FROM cars WHERE make = 'Opel' PREFERRING LOWEST(price)"
        )
        assert "FROM cars WHERE cars.make = 'Opel')" in sql
        assert sql.count("'Opel'") == 1

    def test_grouping_is_null_safe(self):
        sql = rewrite_text(
            "SELECT * FROM cars PREFERRING LOWEST(price) GROUPING color"
        )
        assert "cars.color AS __k0" in sql
        assert "d.__k0 IS c.__k0" in sql

    def test_but_only_on_both_copies(self):
        # Once, in the CTE's WHERE: a row below the threshold is neither a
        # candidate nor a dominator.
        sql = rewrite_text(
            "SELECT * FROM cars PREFERRING price AROUND 100 "
            "BUT ONLY DISTANCE(price) <= 10"
        )
        assert sql.count("<= 10") == 1
        assert sql.index("<= 10") < sql.index(") SELECT * FROM cars")

    def test_alias_collision_avoided(self):
        sql = rewrite_text("SELECT * FROM __pref PREFERRING LOWEST(price)")
        assert "WITH __pref1 AS MATERIALIZED" in sql
        rowless = HostSchema({"cars": ["price"]}, rowless=["cars"])
        sql = rewrite_text(
            "SELECT * FROM cars AS cars_d PREFERRING LOWEST(price)", schema=rowless
        )
        assert "cars_d_d" in sql

    def test_order_by_and_limit_preserved(self):
        sql = rewrite_text(
            "SELECT * FROM cars PREFERRING LOWEST(price) ORDER BY price LIMIT 3"
        )
        assert sql.endswith("ORDER BY price LIMIT 3")

    def test_cascade_lexicographic_expansion(self):
        sql = rewrite_text(
            "SELECT * FROM cars PREFERRING LOWEST(price) CASCADE LOWEST(mileage)"
        )
        # better1 OR (equal1 AND better2), over the level columns.
        assert "d.__r0 < c.__r0 OR d.__r0 = c.__r0 AND d.__r1 < c.__r1" in sql
        assert sql.count("CASE WHEN") == 2

    def test_explicit_closure_disjunction(self):
        sql = rewrite_text(
            "SELECT * FROM cars PREFERRING "
            "EXPLICIT(color, 'red' > 'blue', 'blue' > 'green')"
        )
        # The transitive pair red > green must be in the condition.
        assert "'red'" in sql and "'green'" in sql
        assert sql.count("AND") >= 3

    def test_rewritten_sql_is_plain_sql(self):
        sql = rewrite_text("SELECT * FROM cars PREFERRING LOWEST(price)")
        reparsed = parse_statement(sql)
        assert not reparsed.is_preference_query
        grouped = rewrite_text(
            "SELECT * FROM cars PREFERRING LOWEST(price) GROUPING color"
        )
        assert not parse_statement(grouped).is_preference_query

    def test_each_rank_is_printed_once(self):
        query = (
            "SELECT * FROM cars WHERE make <> 'Opel' PREFERRING "
            "(LOWEST(price) AND mileage AROUND 5000) CASCADE "
            "color = 'red' ELSE color = 'blue' CASCADE HIGHEST(power)"
        )
        sql = rewrite_text(query)
        preference = build_preference(parse_statement(query).preferring)
        qualify = lambda expr: ast.Column(name=expr.name, table="cars")  # noqa: E731
        leaves = list(preference.iter_base())
        assert len(leaves) == 4
        for leaf in leaves:
            assert sql.count(to_sql(leaf_value(leaf, qualify))) == 1

    def test_explicit_operand_is_carried_in_the_cte(self):
        sql = rewrite_text(
            "SELECT * FROM cars PREFERRING EXPLICIT(color, 'red' > 'blue') "
            "AND LOWEST(price)"
        )
        assert "cars.color AS __r0" in sql
        assert "d.__r0 = 'red' AND c.__r0 = 'blue'" in sql
        assert "d.__r0 = c.__r0" in sql

    def test_multi_table_keeps_the_inline_shape(self):
        schema = {"cars": ["id", "price", "dealer_id"], "dealers": ["id", "city"]}
        sql = rewrite_text(
            "SELECT * FROM cars, dealers WHERE cars.dealer_id = dealers.id "
            "PREFERRING LOWEST(price)",
            schema=schema,
        )
        assert "WITH" not in sql
        assert "NOT EXISTS (SELECT 1 FROM cars AS cars_d, dealers AS dealers_d" in sql

    def test_rowidless_table_keeps_the_inline_shape(self):
        schema = HostSchema({"cars": ["price"]}, rowless=["cars"])
        sql = rewrite_text("SELECT * FROM cars PREFERRING LOWEST(price)", schema=schema)
        assert "WITH" not in sql
        assert "cars AS cars_d" in sql

    def test_inline_but_only_reads_the_dominator_in_its_copy(self):
        # A row below the threshold is no dominator: inside NOT EXISTS the
        # BUT ONLY clause, quality call and plain column alike, reads the
        # dominator's alias, never the outer row's.
        schema = HostSchema({"cars": ["price", "color"]}, rowless=["cars"])
        sql = rewrite_text(
            "SELECT * FROM cars PREFERRING price AROUND 100 "
            "BUT ONLY DISTANCE(price) <= 10 AND cars.color = 'red'",
            schema=schema,
        )
        dominators = sql[sql.index("NOT EXISTS") :]
        assert "cars_d.color = 'red'" in dominators
        assert "cars.color" not in dominators
        assert dominators.count("<= 10") == 1

    def test_inline_grouping_is_null_safe(self):
        schema = HostSchema({"cars": ["price", "color"]}, rowless=["cars"])
        sql = rewrite_text(
            "SELECT * FROM cars PREFERRING LOWEST(price) GROUPING color", schema=schema
        )
        assert "cars_d.color IS cars.color" in sql


class TestValidation:
    def test_group_by_with_preferring_rejected(self):
        with pytest.raises(RewriteError):
            rewrite_text(
                "SELECT color FROM cars PREFERRING LOWEST(price) GROUP BY color"
            )

    def test_unbound_parameters_rejected(self):
        with pytest.raises(RewriteError):
            rewrite_text("SELECT * FROM cars WHERE make = ? PREFERRING LOWEST(price)")

    def test_derived_table_rejected(self):
        with pytest.raises(RewriteError):
            rewrite_text(
                "SELECT * FROM (SELECT * FROM cars) AS s PREFERRING LOWEST(price)"
            )

    def test_duplicate_binding_rejected(self):
        with pytest.raises(RewriteError):
            rewrite_text("SELECT * FROM cars, cars PREFERRING LOWEST(price)")

    def test_multi_table_needs_schema_for_unqualified(self):
        with pytest.raises(RewriteError):
            rewrite_text(
                "SELECT * FROM cars, dealers WHERE cars.dealer_id = dealers.id "
                "PREFERRING LOWEST(price)"
            )

    def test_multi_table_with_schema_resolves(self):
        schema = {"cars": ["id", "price", "dealer_id"], "dealers": ["id", "city"]}
        sql = rewrite_text(
            "SELECT * FROM cars, dealers WHERE cars.dealer_id = dealers.id "
            "PREFERRING LOWEST(price)",
            schema=schema,
        )
        assert "cars_d" in sql and "dealers_d" in sql

    def test_ambiguous_column_with_schema_rejected(self):
        schema = {"a": ["x"], "b": ["x"]}
        with pytest.raises(RewriteError):
            rewrite_text("SELECT * FROM a, b PREFERRING LOWEST(x)", schema=schema)

    def test_unknown_qualifier_rejected(self):
        with pytest.raises(RewriteError):
            rewrite_text("SELECT * FROM cars PREFERRING LOWEST(nothere.price)")


class TestExecutionOnSqlite:
    """The rewritten SQL must produce the BMO answer on the host database."""

    def test_paper_cars(self, con):
        rows = con.execute(
            "SELECT * FROM Cars PREFERRING Make = 'Audi' AND Diesel = 'yes'"
        ).fetchall()
        assert sorted(row[0] for row in rows) == [1, 2]

    def test_paper_oldtimer(self, con):
        rows = con.execute(
            "SELECT ident, color, age, LEVEL(color), DISTANCE(age) FROM oldtimer "
            "PREFERRING color = 'white' ELSE color = 'yellow' AND age AROUND 40"
        ).fetchall()
        assert set(rows) == {
            ("Selma", "red", 40, 3, 0),
            ("Homer", "yellow", 35, 2, 5),
            ("Maggie", "white", 19, 1, 21),
        }

    def test_grouping_on_sqlite(self, con):
        rows = con.execute(
            "SELECT city, apartment_id FROM apartments "
            "PREFERRING HIGHEST(area) GROUPING city"
        ).fetchall()
        assert {row[1] for row in rows} == {2, 3, 5}

    def test_but_only_on_sqlite(self, con):
        rows = con.execute(
            "SELECT trip_id FROM trips "
            "PREFERRING start_day AROUND 184 AND duration AROUND 14 "
            "BUT ONLY DISTANCE(start_day) <= 2 AND DISTANCE(duration) <= 2"
        ).fetchall()
        assert {row[0] for row in rows} == {7}

    def test_dynamic_top_on_sqlite(self, con):
        rows = con.execute(
            "SELECT apartment_id, TOP(area) FROM apartments "
            "WHERE city = 'Augsburg' PREFERRING HIGHEST(area)"
        ).fetchall()
        assert set(rows) == {(2, 1), (3, 1)}

    def test_dynamic_distance_with_grouping(self, con):
        rows = con.execute(
            "SELECT city, apartment_id, DISTANCE(area) FROM apartments "
            "PREFERRING HIGHEST(area) GROUPING city"
        ).fetchall()
        assert all(row[2] == 0 for row in rows)

    def test_insert_select_preferring(self, con):
        con.execute(
            "CREATE TABLE best_cars (Identifier INTEGER, Make TEXT, Model TEXT, "
            "Price INTEGER, Mileage INTEGER, Airbag TEXT, Diesel TEXT)"
        )
        con.execute(
            "INSERT INTO best_cars SELECT * FROM Cars "
            "PREFERRING Make = 'Audi' AND Diesel = 'yes'"
        )
        rows = con.execute("SELECT Identifier FROM best_cars").fetchall()
        assert sorted(row[0] for row in rows) == [1, 2]

    def test_contains_on_sqlite(self, connection):
        connection.execute("CREATE TABLE rooms (id INTEGER, description TEXT)")
        connection.cursor().executemany(
            "INSERT INTO rooms VALUES (?, ?)",
            [
                (1, "quiet room with balcony"),
                (2, "room with balcony"),
                (3, "noisy room"),
            ],
        )
        rows = connection.execute(
            "SELECT id FROM rooms PREFERRING description CONTAINS 'quiet balcony'"
        ).fetchall()
        assert rows == [(1,)]

    def test_explicit_on_sqlite(self, connection):
        connection.execute("CREATE TABLE shirts (id INTEGER, color TEXT)")
        connection.cursor().executemany(
            "INSERT INTO shirts VALUES (?, ?)",
            [(1, "red"), (2, "blue"), (3, "green"), (4, "purple")],
        )
        rows = connection.execute(
            "SELECT id FROM shirts PREFERRING "
            "EXPLICIT(color, 'red' > 'blue', 'blue' > 'green')"
        ).fetchall()
        assert {row[0] for row in rows} == {1, 4}

    def test_join_preference_query(self, connection):
        connection.execute("CREATE TABLE cars (id INTEGER, dealer_id INTEGER, price INTEGER)")
        connection.execute("CREATE TABLE dealers (id INTEGER, city TEXT)")
        connection.cursor().executemany(
            "INSERT INTO cars VALUES (?, ?, ?)",
            [(1, 1, 100), (2, 1, 200), (3, 2, 150)],
        )
        connection.cursor().executemany(
            "INSERT INTO dealers VALUES (?, ?)", [(1, "Augsburg"), (2, "Munich")]
        )
        rows = connection.execute(
            "SELECT cars.id FROM cars JOIN dealers ON cars.dealer_id = dealers.id "
            "WHERE dealers.city = 'Augsburg' PREFERRING LOWEST(cars.price)"
        ).fetchall()
        assert rows == [(1,)]

    def test_nulls_never_dominate(self, connection):
        connection.execute("CREATE TABLE t (id INTEGER, x INTEGER)")
        connection.cursor().executemany(
            "INSERT INTO t VALUES (?, ?)", [(1, None), (2, 5), (3, 7)]
        )
        rows = connection.execute(
            "SELECT id FROM t PREFERRING LOWEST(x)"
        ).fetchall()
        assert rows == [(2,)]

    def test_all_null_candidates_survive(self, connection):
        connection.execute("CREATE TABLE t (id INTEGER, x INTEGER)")
        connection.cursor().executemany(
            "INSERT INTO t VALUES (?, ?)", [(1, None), (2, None)]
        )
        rows = connection.execute("SELECT id FROM t PREFERRING LOWEST(x)").fetchall()
        assert {row[0] for row in rows} == {1, 2}


# ----------------------------------------------------------------------
# Differential: every rewrite shape equals the nested-loop oracle

_COLUMNS = ("id", "a", "b", "s", "c", "g")
#: ``s`` has TEXT affinity, so the numbers stored in it come back as text.
_DDL = "(id INTEGER, a REAL, b INTEGER, s TEXT, c TEXT, g TEXT)"

#: The leaves a random tree may use, one per operand, so a quality
#: function on an operand names exactly one base preference.
_LEAVES = {
    "a": ("LOWEST(a)", "a AROUND 1", "HIGHEST(a)"),
    "b": ("HIGHEST(b)", "b BETWEEN -2, 2", "LOWEST(b)"),
    "s": ("LOWEST(s)", "s AROUND 8"),
    "c": ("c = 'x' ELSE c = 'y'", "EXPLICIT(c, 'x' > 'y', 'y' > 'z')", "c <> 'w'"),
}

hostile_rows = st.lists(
    st.tuples(
        st.sampled_from([float("inf"), float("-inf"), -0.0, 0.0, 1.5, 3.0, None]),
        st.sampled_from([2**53, 2**53 + 1, 2**62, -3, 0, 2, None]),
        st.sampled_from(
            ["10", "9", "007", "1e3", " 8 ", 8, None, "", "n/a", "12abc", "inf", b"\x07"]
        ),
        st.sampled_from(["x", "y", "z", "w", None]),
        st.sampled_from(["p", "q", None]),
    ),
    max_size=12,
).map(lambda rows: [(index,) + row for index, row in enumerate(rows, 1)])


def _tree(rng: random.Random, leaves: list[str]) -> str:
    """A random Pareto/CASCADE tree over ``leaves``."""
    if len(leaves) == 1:
        return leaves[0]
    split = rng.randrange(1, len(leaves))
    connective = rng.choice(("AND", "CASCADE"))
    left, right = _tree(rng, leaves[:split]), _tree(rng, leaves[split:])
    return f"({left}) {connective} ({right})"


@st.composite
def preference_queries(draw):
    operands = draw(
        st.lists(st.sampled_from(sorted(_LEAVES)), min_size=1, max_size=4, unique=True)
    )
    leaves = {operand: draw(st.sampled_from(_LEAVES[operand])) for operand in operands}
    parts = list(leaves.values())
    if len(parts) >= 3 and draw(st.booleans()):
        # Mixed nesting, (A AND B) CASCADE C.
        rest = _tree(random.Random(draw(st.integers(0, 2**16))), parts[2:])
        term = f"(({parts[0]}) AND ({parts[1]})) CASCADE ({rest})"
    else:
        term = _tree(random.Random(draw(st.integers(0, 2**16))), parts)
    items = draw(st.sampled_from(("*", "id", "DISTINCT g")))
    if items == "id":
        if "a" in leaves and draw(st.booleans()):
            items += ", TOP(a)"
        if "c" in leaves and draw(st.booleans()):
            items += ", LEVEL(c)"
    query = f"SELECT {items} FROM t"
    # ``id < 0`` leaves the window without a single candidate.
    query += draw(
        st.sampled_from(("", " WHERE b IS NOT NULL", " WHERE a < 2", " WHERE id < 0"))
    )
    query += f" PREFERRING {term}"
    # Both keys are nullable: NULL keys form one partition.
    query += draw(st.sampled_from(("", " GROUPING g", " GROUPING b")))
    if "a" in leaves and draw(st.booleans()):
        query += " BUT ONLY DISTANCE(a) <= 2"
    if items != "DISTINCT g":
        query += draw(st.sampled_from(("", " ORDER BY id", " ORDER BY id DESC LIMIT 3")))
    return query


def _canonical(rows) -> list[tuple]:
    """Rows with every number as a float (TOP may come back as a bool)."""
    return [
        tuple(
            float(value) if isinstance(value, (bool, int, float)) else value
            for value in row
        )
        for row in rows
    ]


def _load(connection, name: str, rows) -> list[tuple]:
    """Create and fill ``name``; return the rows as the host stored them."""
    connection.execute(f"CREATE TABLE {name} {_DDL}")
    connection.cursor().executemany(
        f"INSERT INTO {name} VALUES (?, ?, ?, ?, ?, ?)", rows
    )
    return connection.raw.execute(f"SELECT * FROM {name}").fetchall()


def _oracle(query: str, tables: dict) -> list[tuple]:
    relations = {
        name: Relation(columns=_COLUMNS, rows=rows) for name, rows in tables.items()
    }
    engine = PreferenceEngine(relations, algorithm="nested_loop")
    return _canonical(engine.execute(query).rows)


def _agree(expected: list[tuple], actual: list[tuple], query: str) -> None:
    if " ORDER BY " in query:
        assert actual == expected, query
    else:
        assert sorted(actual, key=repr) == sorted(expected, key=repr), query


@given(rows=hostile_rows, query=preference_queries())
@settings(max_examples=80, deadline=None)
def test_rank_cte_rewrite_equals_the_oracle(rows, query):
    con = repro.connect(":memory:")
    try:
        stored = _load(con, "t", rows)
        cursor = con.execute(query, algorithm="rewrite")
        assert cursor.executed_sql.startswith("WITH __pref AS MATERIALIZED")
        # A table this small stays below the pivot's threshold.
        assert "__pref_pivot" not in cursor.executed_sql, query
        expected = _oracle(query, {"t": stored})
        _agree(expected, _canonical(cursor.fetchall()), query)
        # At threshold 0 the rewrite takes the pivot wherever every base
        # preference has a rank and the plan read the table's statistics
        # (quality functions in the select list make a host-only plan).
        with mock.patch.object(plan_planner, "PIVOT_MIN_ROWS", 0):
            pivoted = con.execute(query, algorithm="rewrite")
        host_only = any(f"{name}(" in query.split(" FROM ")[0] for name in ("TOP", "LEVEL"))
        takes_pivot = "EXPLICIT" not in query and not host_only
        assert pivoted.plan.pivot == takes_pivot, query
        assert ("__pref_pivot" in pivoted.executed_sql) == takes_pivot, query
        assert ("FROM __pref_live AS d" in pivoted.executed_sql) == takes_pivot, query
        _agree(expected, _canonical(pivoted.fetchall()), query)
        # bnl adopts the same rank expressions from its scan (rank pushdown);
        # it cannot be forced when quality functions shape the result.
        if not any(f"{name}(" in query.split(" FROM ")[0] for name in ("TOP", "LEVEL")):
            adopted = []

            def spy(preference, values):
                adopted.append(rank_columns_from_values(preference, values))
                return adopted[-1]

            with mock.patch.object(bmo, "rank_columns_from_values", spy):
                bnl = con.execute(query, algorithm="bnl")
                rows = bnl.fetchall()
            _agree(expected, _canonical(rows), query)
            # The pivot filters every ranked scan but one under BUT ONLY,
            # and the kernel read the very rank cells the pivot compared.
            pivoted = bnl.plan.rank_width > 0 and " BUT ONLY " not in query
            assert ("__pref_pivot" in bnl.executed_sql) == pivoted, query
            if bnl.plan.rank_width:
                assert len(adopted) == 1 and adopted[0] is not None, query
        if query.startswith("SELECT * ") and " ORDER BY " not in query:
            con.execute(f"CREATE TABLE out {_DDL}")
            con.execute("INSERT INTO out " + query, algorithm="rewrite")
            inserted = _canonical(con.raw.execute("SELECT * FROM out").fetchall())
            _agree(_oracle(query, {"t": stored}), inserted, query)
    finally:
        con.close()


_HOSTILE = [
    (1, float("inf"), 2**53, "10", "x", None),
    (2, float("-inf"), 2**53 + 1, "9", "y", "p"),
    (3, -0.0, -3, "007", None, None),
    (4, 0.0, None, None, "z", "p"),
    (5, None, 2, "1e3", "w", "q"),
    (6, 1.5, 2**62, "8", "x", "q"),
    (7, 3.0, 0, "", "y", None),
    (8, -0.0, 2, "n/a", "w", "p"),
    (9, 1.5, -3, "12abc", "x", "q"),
    (10, None, 0, b"\x00", "z", None),
]

_ROWLESS_QUERIES = [
    "SELECT * FROM {t} PREFERRING LOWEST(a) AND HIGHEST(b)",
    "SELECT id, TOP(a) FROM {t} WHERE b IS NOT NULL "
    "PREFERRING LOWEST(a) CASCADE EXPLICIT(c, 'x' > 'y') GROUPING g",
    "SELECT * FROM {t} PREFERRING s AROUND 8 AND a AROUND 1 "
    "BUT ONLY DISTANCE(a) <= 2 ORDER BY id",
    "SELECT id, s FROM {t} PREFERRING LOWEST(s) CASCADE HIGHEST(b)",
]


class TestRowidlessSources:
    """Views, WITHOUT ROWID tables, tables with a ``rowid`` column and joins
    keep the inline shape."""

    @pytest.mark.parametrize("query", _ROWLESS_QUERIES)
    @pytest.mark.parametrize("source", ["without_rowid", "view", "temp_view"])
    def test_inline_shape_equals_the_oracle(self, connection, source, query):
        stored = _load(connection, "base", _HOSTILE)
        if source.endswith("view"):
            temp = "TEMP " if source == "temp_view" else ""
            connection.execute(f"CREATE {temp}VIEW src AS SELECT * FROM base")
        else:
            connection.execute(
                "CREATE TABLE src (id INTEGER PRIMARY KEY, a REAL, b INTEGER, "
                "s TEXT, c TEXT, g TEXT) WITHOUT ROWID"
            )
            connection.cursor().executemany(
                "INSERT INTO src VALUES (?, ?, ?, ?, ?, ?)", _HOSTILE
            )
        text = query.format(t="src")
        cursor = connection.execute(text, algorithm="rewrite")
        assert not cursor.executed_sql.startswith("WITH")
        assert "NOT EXISTS (SELECT 1 FROM src AS src_d" in cursor.executed_sql
        _agree(
            _oracle(text, {"src": stored}), _canonical(cursor.fetchall()), text
        )
        # The same statement over the rowid table takes the CTE shape.
        over_base = connection.execute(query.format(t="base"), algorithm="rewrite")
        assert over_base.executed_sql.startswith("WITH __pref AS MATERIALIZED")
        assert _canonical(over_base.fetchall()) == _canonical(
            connection.execute(text, algorithm="rewrite").fetchall()
        )

    @pytest.mark.parametrize(
        "ddl",
        [
            "CREATE VIEW r AS SELECT 1 AS x",
            "CREATE TABLE r (x INTEGER PRIMARY KEY) WITHOUT ROWID",
            "CREATE TABLE r (rowid INTEGER, x REAL)",
            "CREATE TEMP VIEW r AS SELECT 1 AS x",
        ],
    )
    def test_schema_names_the_rowless_sources(self, connection, ddl):
        connection.execute("CREATE TABLE plain (x REAL)")
        connection.execute(ddl)
        schema = connection.schema()
        assert "x" in schema["r"]
        assert schema.rowless == {"r"}

    def test_temp_table_shadows_a_main_view(self, connection):
        connection.execute("CREATE VIEW r AS SELECT 1 AS x")
        connection.execute("CREATE TEMP TABLE r (x REAL, y REAL)")
        schema = connection.schema()
        assert schema["r"] == ["x", "y"]
        assert schema.rowless == frozenset()

    def test_rowid_column_keeps_the_inline_shape(self, connection):
        connection.execute("CREATE TABLE r (rowid INTEGER, x REAL)")
        connection.cursor().executemany(
            "INSERT INTO r VALUES (?, ?)", [(10, 1.0), (20, 0.5), (30, 2.0)]
        )
        cursor = connection.execute(
            "SELECT * FROM r PREFERRING LOWEST(x)", algorithm="rewrite"
        )
        assert "NOT EXISTS (SELECT 1 FROM r AS r_d" in cursor.executed_sql
        assert cursor.fetchall() == [(20, 0.5)]

    def test_join_keeps_the_inline_shape(self, connection):
        stored = _load(connection, "t", _HOSTILE)
        connection.execute("CREATE TABLE u (id INTEGER, w INTEGER)")
        connection.cursor().executemany(
            "INSERT INTO u VALUES (?, ?)", [(i, i % 2) for i in range(1, 7)]
        )
        query = (
            "SELECT t.id FROM t JOIN u ON t.id = u.id WHERE u.w = 1 "
            "PREFERRING LOWEST(t.a) AND HIGHEST(t.b)"
        )
        cursor = connection.execute(query, algorithm="rewrite")
        assert "WITH" not in cursor.executed_sql
        assert "NOT EXISTS (SELECT 1 FROM t AS t_d JOIN u AS u_d" in cursor.executed_sql
        engine = PreferenceEngine(
            {
                "t": Relation(columns=_COLUMNS, rows=stored),
                "u": Relation(columns=("id", "w"), rows=[(i, i % 2) for i in range(1, 7)]),
            },
            algorithm="nested_loop",
        )
        assert sorted(cursor.fetchall()) == sorted(engine.execute(query).rows)


@pytest.mark.parametrize("strategy", ["rewrite", "bnl"])
def test_cast_in_where_is_bound_and_requalified(connection, strategy):
    connection.execute("CREATE TABLE r (id INTEGER, x TEXT)")
    connection.cursor().executemany(
        "INSERT INTO r VALUES (?, ?)", [(1, "5"), (2, "n/a"), (3, "2"), (4, "0.5")]
    )
    rows = connection.execute(
        "SELECT id FROM r WHERE CAST(x AS NUMERIC) > ? PREFERRING LOWEST(x)",
        (1,),
        algorithm=strategy,
    ).fetchall()
    assert rows == [(3,)]


@pytest.mark.parametrize("strategy", ["rewrite", "bnl"])
def test_collate_in_where_is_bound_and_requalified(connection, strategy):
    connection.execute("CREATE TABLE r (id INTEGER, g TEXT, x INTEGER)")
    connection.cursor().executemany(
        "INSERT INTO r VALUES (?, ?, ?)", [(1, "A", 1), (2, "a", 2), (3, "b", 0)]
    )
    rows = connection.execute(
        "SELECT id FROM r WHERE g COLLATE NOCASE = ? PREFERRING LOWEST(x)",
        ("a",),
        algorithm=strategy,
    ).fetchall()
    assert rows == [(1,)]


def test_collate_outside_where_keeps_the_plan_on_the_host(connection):
    connection.execute("CREATE TABLE r (id INTEGER, g TEXT, x INTEGER)")
    connection.cursor().executemany(
        "INSERT INTO r VALUES (?, ?, ?)", [(1, "b", 1), (2, "A", 1), (3, "a", 2)]
    )
    query = "SELECT id FROM r PREFERRING LOWEST(x) ORDER BY g COLLATE NOCASE, id"
    cursor = connection.execute(query)
    assert cursor.plan.strategy == "rewrite"
    assert cursor.fetchall() == [(2,), (1,)]
    with pytest.raises(PlanError, match="collations outside WHERE"):
        connection.execute(query, algorithm="bnl")


@pytest.mark.parametrize(
    "query",
    [
        "SELECT id FROM r PREFERRING LOWEST(x) AND HIGHEST(y) BUT ONLY CAST(x AS TEXT) = '1'",
        "SELECT id FROM r PREFERRING LOWEST(x) AND HIGHEST(y) ORDER BY CAST(y AS TEXT), id",
        "SELECT id, CAST(x AS TEXT) FROM r PREFERRING LOWEST(x) AND HIGHEST(y)",
    ],
    ids=["but-only", "order-by", "select-list"],
)
def test_cast_outside_where_keeps_the_plan_on_the_host(connection, query):
    connection.execute("CREATE TABLE r (id INTEGER, x INTEGER, y INTEGER)")
    rows = [(i, i % 17, (i * 7) % 23) for i in range(5000)]
    connection.cursor().executemany("INSERT INTO r VALUES (?, ?, ?)", rows)
    cursor = connection.execute(query)
    assert cursor.plan.strategy == "rewrite"
    assert "host-only: casts outside WHERE need the host database" in cursor.plan.notes
    assert cursor.fetchall() == connection.execute(query, algorithm="rewrite").fetchall()
    with pytest.raises(PlanError, match="casts outside WHERE"):
        connection.execute(query, algorithm="bnl")


def test_cast_in_a_preference_operand_runs_in_memory_through_sql_ranks(connection):
    connection.execute("CREATE TABLE r (id INTEGER, s TEXT, y INTEGER)")
    rows = [(i, str(i % 10), (i * 7) % 23) for i in range(5000)]
    connection.cursor().executemany("INSERT INTO r VALUES (?, ?, ?)", rows)
    query = "SELECT id FROM r PREFERRING LOWEST(CAST(s AS INTEGER)) AND HIGHEST(y)"
    expected = sorted(connection.execute(query, algorithm="rewrite").fetchall())
    for force in (None, "bnl"):
        cursor = connection.execute(query, algorithm=force)
        assert cursor.plan.strategy == "bnl"
        assert cursor.plan.rank_width == 2
        assert sorted(cursor.fetchall()) == expected


@pytest.fixture
def cast_table(connection):
    connection.execute("CREATE TABLE t (id INTEGER, s TEXT, x INTEGER, y INTEGER)")
    rows = [(i, str((i * 13) % 10), (i * 11) % 50, (i * 7) % 41) for i in range(5000)]
    connection.cursor().executemany("INSERT INTO t VALUES (?, ?, ?, ?)", rows)
    return connection


def test_cast_in_an_explicit_operand_keeps_the_plan_on_the_host(cast_table):
    # EXPLICIT has no SQL rank, so the engine would evaluate the CAST.
    query = "SELECT id FROM t PREFERRING EXPLICIT(CAST(s AS INTEGER), 1 > 2) AND HIGHEST(y)"
    expected = sorted(cast_table.execute(query, algorithm="rewrite").fetchall())
    assert expected
    cursor = cast_table.execute(query)
    assert cursor.plan.strategy == "rewrite"
    assert sorted(cursor.fetchall()) == expected
    with pytest.raises(PlanError, match="casts in preference operands"):
        cast_table.execute(query, algorithm="bnl")


def test_cast_in_a_preference_operand_is_never_session_served(cast_table):
    # The session's re-winnow computes ranks in Python: the refinement
    # runs its base plan instead.
    base = "SELECT id FROM t PREFERRING LOWEST(CAST(s AS INTEGER)) AND HIGHEST(y)"
    refined = base + " CASCADE LOWEST(x)"
    assert cast_table.execute(base).plan.strategy == "bnl"
    expected = sorted(cast_table.execute(refined, algorithm="rewrite").fetchall())
    for _round in range(2):
        cursor = cast_table.execute(refined)
        assert cursor.plan.session_match is not None and cursor.plan.session_match.servable
        assert cursor.plan.strategy != "session"
        assert sorted(cursor.fetchall()) == expected


class TestQuotedIdentifiers:
    """Names that need quotes print quoted in every host statement: a
    table ``"my t"`` is not table ``my`` aliased ``t``."""

    @pytest.fixture
    def con(self, connection):
        connection.execute("CREATE TABLE my (x INTEGER)")
        connection.cursor().executemany(
            "INSERT INTO my VALUES (?)", [(x,) for x in range(100, 200)]
        )
        connection.execute(
            'CREATE TABLE "my t" (x INTEGER, "my col" INTEGER, "order" INTEGER, g INTEGER)'
        )
        connection.cursor().executemany(
            'INSERT INTO "my t" VALUES (?, ?, ?, ?)',
            [(x, (x * 7) % 13, (x * 5) % 11, x % 3) for x in range(1, 100)],
        )
        return connection

    @pytest.mark.parametrize("strategy", [None, "rewrite", "bnl"])
    @pytest.mark.parametrize(
        "query, expected",
        [
            ('SELECT * FROM "my t" PREFERRING LOWEST(x)', 'SELECT * FROM "my t" WHERE x = 1'),
            (
                'SELECT x, "my col" FROM "my t" PREFERRING LOWEST("my col") AND HIGHEST("order")',
                'SELECT x, "my col" FROM "my t" AS a WHERE NOT EXISTS (SELECT 1 FROM "my t" AS b '
                'WHERE b."my col" <= a."my col" AND b."order" >= a."order" '
                'AND (b."my col" < a."my col" OR b."order" > a."order"))',
            ),
            (
                'SELECT "group".x FROM "my t" AS "group" '
                'PREFERRING LOWEST("group"."order") GROUPING g',
                'SELECT x FROM "my t" AS t WHERE "order" = '
                '(SELECT MIN("order") FROM "my t" AS u WHERE u.g = t.g)',
            ),
            (
                'SELECT "group".* FROM "my t" "group" PREFERRING HIGHEST("my col") GROUPING g',
                'SELECT * FROM "my t" AS t WHERE "my col" = '
                '(SELECT MAX("my col") FROM "my t" AS u WHERE u.g = t.g)',
            ),
        ],
        ids=["table", "columns", "alias", "alias-star"],
    )
    def test_quoted_names_match_sqlite(self, con, strategy, query, expected):
        cursor = con.execute(query, algorithm=strategy)
        assert sorted(cursor.fetchall()) == sorted(con.raw.execute(expected).fetchall())

    def test_result_columns_are_named_alike_under_every_strategy(self, connection):
        # Enough rows that auto plans the in-memory winnow, and so does the
        # view's materialisation.
        connection.execute(
            'CREATE TABLE k ("key" INTEGER, x INTEGER, y INTEGER, "my col" INTEGER)'
        )
        connection.cursor().executemany(
            "INSERT INTO k VALUES (?, ?, ?, ?)",
            [(i, (i * 7919) % 1000, (i * 104729) % 997, i % 3) for i in range(5000)],
        )
        names = ["key", "x", "my col"]
        raw = connection.raw.execute('SELECT "key", x, "my col" FROM k')
        assert [column[0] for column in raw.description] == names
        query = 'SELECT "key", x, "my col" FROM k PREFERRING LOWEST(x) AND HIGHEST(y)'
        strategies = set()
        for strategy in (None, "rewrite", "bnl"):
            cursor = connection.execute(query, algorithm=strategy)
            strategies.add(cursor.plan.strategy)
            assert [column[0] for column in cursor.description] == names, strategy
        assert strategies == {"rewrite", "bnl"}
        connection.execute(f"CREATE PREFERENCE VIEW v AS {query}")
        view = connection.execute("SELECT * FROM v")
        assert [column[0] for column in view.description] == names
        quality = (
            'SELECT "key", LEVEL("my col") FROM k '
            'PREFERRING "my col" IN (1) ELSE "my col" IN (2) AND LOWEST(x)'
        )
        for strategy in (None, "rewrite"):
            cursor = connection.execute(quality, algorithm=strategy)
            assert [column[0] for column in cursor.description] == [
                "key",
                "LEVEL(my col)",
            ]

        def described(query, strategy=None):
            cursor = connection.execute(query, algorithm=strategy)
            return cursor.plan.strategy, [column[0] for column in cursor.description]

        # A qualified column is named without its qualifier, and keeps
        # that name once its refinement is served from the session cache.
        qualified = 'SELECT k."key", k.x FROM k PREFERRING LOWEST(x) AND HIGHEST(y)'
        for strategy in (None, "rewrite", "bnl"):
            assert described(qualified, strategy)[1] == ["key", "x"], strategy
        refined = qualified + ' CASCADE LOWEST("my col")'
        assert described(refined) == ("session", ["key", "x"])
        assert described(refined, "rewrite")[1] == ["key", "x"]

        # A join may repeat a name, as sqlite does; ORDER BY still reads
        # each qualified column and resolves a select-list alias.
        connection.execute("CREATE TABLE j (id INTEGER, x INTEGER)")
        connection.cursor().executemany(
            "INSERT INTO j VALUES (?, ?)", [(i, i % 11) for i in range(5000)]
        )
        join = (
            'SELECT k.x, j.x, y AS x_y FROM k JOIN j ON k."key" = j.id '
            "PREFERRING LOWEST(k.x) AND HIGHEST(y) ORDER BY j.x DESC, x_y, k.x"
        )
        raw = connection.raw.execute(join.split(" PREFERRING")[0])
        assert [column[0] for column in raw.description] == ["x", "x", "x_y"]
        expected = connection.execute(join, algorithm="rewrite").fetchall()
        for strategy in (None, "rewrite", "bnl"):
            cursor = connection.execute(join, algorithm=strategy)
            assert [column[0] for column in cursor.description] == ["x", "x", "x_y"]
            assert cursor.fetchall() == expected, strategy

    def test_the_printer_quotes_what_sqlite_would_misread(self):
        statement = parse_statement(
            'INSERT INTO "to" ("my col", "select") SELECT "my t".*, "order" AS "group" '
            'FROM "my t" PREFERRING LOWEST("my t"."key") GROUPING "key"'
        )
        assert to_sql(statement) == (
            'INSERT INTO "to" ("my col", "select") SELECT "my t".*, "order" AS "group" '
            'FROM "my t" PREFERRING LOWEST("my t"."key") GROUPING "key"'
        )
        assert to_sql(parse_statement("SELECT a AS b FROM t")) == "SELECT a AS b FROM t"


class TestContainsSemantics:
    """CONTAINS is a literal substring test with ASCII-only case-folding,
    the same in the rewrite, the SQL rank pushdown and the model."""

    ROWS = [(1, "axb"), (2, "plain"), (3, "50% off"), (4, "Über"), (5, "über")]

    @pytest.mark.parametrize(
        "terms, winners",
        [
            ("a_b", [1, 2, 3, 4, 5]),  # `_` is not a wildcard
            ("50%", [3]),  # nor is `%`
            ("%", [3]),
            ("über", [5]),  # Ü is not ASCII: no folding
            ("AXB", [1]),
        ],
    )
    def test_rewrite_bnl_and_oracle_agree(self, connection, terms, winners):
        connection.execute("CREATE TABLE r (id INTEGER, d TEXT)")
        connection.cursor().executemany("INSERT INTO r VALUES (?, ?)", self.ROWS)
        query = f"SELECT id FROM r PREFERRING d CONTAINS '{terms}'"
        engine = PreferenceEngine(
            {"r": Relation(columns=("id", "d"), rows=self.ROWS)},
            algorithm="nested_loop",
        )
        assert sorted(row[0] for row in engine.execute(query).rows) == winners
        for strategy in ("rewrite", "bnl"):
            rows = connection.execute(query, algorithm=strategy).fetchall()
            assert sorted(row[0] for row in rows) == winners, strategy


class TestPivotNames:
    """The bnl scan's pivot CTEs and rank columns never read a user's
    table or column in place of their own."""

    ROWS = [(1, 1, 3, 9), (2, 2, 2, 0), (3, 3, 1, 9), (4, 3, 3, 9), (5, 4, 4, None)]

    @pytest.mark.parametrize(
        "table, query",
        [
            # A column named like the first rank column: read in its place,
            # it would make row 2 a pivot that beats the winner row 1.
            ("t", "SELECT * FROM t PREFERRING LOWEST(a) AND LOWEST(b)"),
            ("t", "SELECT id, a FROM t PREFERRING LOWEST(a) AND LOWEST(b) GROUPING __pref_rank_0"),
            # A table named like the scan CTE, and one like the pivot CTE
            # joined to the preference table.
            ("__pref_scan", "SELECT * FROM __pref_scan PREFERRING LOWEST(a) AND LOWEST(b)"),
            (
                "__pref_pivot",
                "SELECT t.id, t.a, t.b FROM t JOIN __pref_pivot AS p ON t.id = p.id "
                "PREFERRING LOWEST(t.a) AND LOWEST(t.b)",
            ),
        ],
    )
    def test_forced_bnl_equals_the_oracle(self, connection, table, query):
        tables = {"t": self.ROWS}
        if table != "t":
            tables[table] = self.ROWS
        for name, rows in tables.items():
            connection.execute(f"CREATE TABLE {name} (id INTEGER, a, b, __pref_rank_0)")
            connection.cursor().executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", rows)
        engine = PreferenceEngine(
            {
                name: Relation(columns=("id", "a", "b", "__pref_rank_0"), rows=rows)
                for name, rows in tables.items()
            },
            algorithm="nested_loop",
        )
        cursor = connection.execute(query, algorithm="bnl")
        assert "__pref_pivot" in cursor.executed_sql
        expected = sorted(engine.execute(query).rows, key=repr)
        assert len(expected) >= 3
        assert sorted(cursor.fetchall(), key=repr) == expected

    @pytest.mark.parametrize(
        "table, query",
        [
            ("t", "SELECT * FROM t PREFERRING LOWEST(a) AND LOWEST(b)"),
            ("t", "SELECT id, a FROM t PREFERRING LOWEST(a) AND LOWEST(b) GROUPING __pref_rank_0"),
            ("__pref_pivot", "SELECT * FROM __pref_pivot PREFERRING LOWEST(a) AND LOWEST(b)"),
            ("__pref_live", "SELECT * FROM __pref_live PREFERRING LOWEST(a) AND LOWEST(b)"),
        ],
    )
    def test_rewrite_with_the_pivot_equals_the_oracle(self, connection, table, query):
        tables = {"t": self.ROWS}
        if table != "t":
            tables[table] = self.ROWS
        for name, rows in tables.items():
            connection.execute(f"CREATE TABLE {name} (id INTEGER, a, b, __pref_rank_0)")
            connection.cursor().executemany(f"INSERT INTO {name} VALUES (?, ?, ?, ?)", rows)
        engine = PreferenceEngine(
            {
                name: Relation(columns=("id", "a", "b", "__pref_rank_0"), rows=rows)
                for name, rows in tables.items()
            },
            algorithm="nested_loop",
        )
        with mock.patch.object(plan_planner, "PIVOT_MIN_ROWS", 0):
            cursor = connection.execute(query, algorithm="rewrite")
        assert cursor.plan.pivot
        expected = sorted(engine.execute(query).rows, key=repr)
        assert len(expected) >= 2
        assert sorted(cursor.fetchall(), key=repr) == expected

    def test_parameterized_rewrite_rebinds_like_a_rebuild(self, connection):
        connection.execute("CREATE TABLE t (id INTEGER, a, b, __pref_rank_0)")
        connection.cursor().executemany("INSERT INTO t VALUES (?, ?, ?, ?)", self.ROWS)
        query = "SELECT * FROM t WHERE id > ? PREFERRING a AROUND ? AND LOWEST(b)"
        with mock.patch.object(plan_planner, "PIVOT_MIN_ROWS", 0):
            for params in [(0, 1), (1, 3), (0, 4), (2, 1)]:
                cursor = connection.execute(query, params)
                rebuilt = connection.plan(query, params)
                assert cursor.plan.strategy == rebuilt.strategy == "rewrite"
                assert cursor.plan.pivot and rebuilt.pivot
                assert cursor.executed_sql == rebuilt.host_sql
                bnl = connection.execute(query, params, algorithm="bnl").fetchall()
                assert sorted(cursor.fetchall()) == sorted(bnl), params
        assert connection.plan_cache_stats().hits >= 3

    def test_partitions_compare_keys_as_binary_values(self, connection):
        # The engine groups 'A' apart from 'a'; so must the pivot, whatever
        # collation the key column declares.
        connection.execute("CREATE TABLE t (id INTEGER, a REAL, g TEXT COLLATE NOCASE)")
        rows = [(1, 1.0, "A"), (2, 2.0, "a"), (3, 3.0, "a"), (4, 0.5, None)]
        connection.cursor().executemany("INSERT INTO t VALUES (?, ?, ?)", rows)
        query = "SELECT id FROM t PREFERRING LOWEST(a) GROUPING g"
        engine = PreferenceEngine(
            {"t": Relation(columns=("id", "a", "g"), rows=rows)}, algorithm="nested_loop"
        )
        cursor = connection.execute(query, algorithm="bnl")
        assert "__pref_pivot" in cursor.executed_sql
        assert sorted(cursor.fetchall()) == sorted(engine.execute(query).rows) == [
            (1,), (2,), (4,)
        ]


class TestGroupingCollation:
    """GROUPING keys compare as binary values in every rewrite shape, as the
    engine groups them, whatever collation their column declares."""

    ROWS = [(1, "A", 1), (2, "a", 2), (3, "b", 5), (4, "B", 3)]

    def _load(self, connection):
        connection.execute("CREATE TABLE t (id INTEGER, g TEXT COLLATE NOCASE, x INTEGER)")
        connection.cursor().executemany("INSERT INTO t VALUES (?, ?, ?)", self.ROWS)
        connection.execute("CREATE VIEW v AS SELECT * FROM t")

    @pytest.mark.parametrize("algorithm", ["rewrite", None])
    @pytest.mark.parametrize("source, shape", [("t", "WITH __pref"), ("v", "SELECT")])
    @pytest.mark.parametrize("items", ["id, g, x", "id, TOP(x)"])
    def test_rewrite_equals_the_oracle(self, connection, algorithm, source, shape, items):
        self._load(connection)
        query = f"SELECT {items} FROM {source} PREFERRING LOWEST(x) GROUPING g"
        cursor = connection.execute(query, algorithm=algorithm)
        assert cursor.plan.strategy == "rewrite"
        assert cursor.executed_sql.startswith(shape)
        engine = PreferenceEngine(
            {source: Relation(columns=("id", "g", "x"), rows=self.ROWS)},
            algorithm="nested_loop",
        )
        rows = _canonical(cursor.fetchall())
        assert sorted(rows) == sorted(_canonical(engine.execute(query).rows))
        # Every row is alone in its partition: the winner, and its optimum.
        assert sorted(row[0] for row in rows) == [1, 2, 3, 4]
        if "TOP" in items:
            assert {row[1] for row in rows} == {1.0}

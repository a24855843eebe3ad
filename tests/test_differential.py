"""Differential testing: the two evaluation paths share one semantics.

docs/ARCHITECTURE.md, "Testing strategy": the in-memory BMO engine is the executable
specification; the Preference SQL Optimizer's rewrite, executed by sqlite,
must agree with it on every query.  Hypothesis generates random relations
and random preference queries; both paths must return the same multiset of
rows.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
from repro.engine import PreferenceEngine, Relation
from repro.workloads.fixtures import relation_to_sqlite

COLORS = ["red", "blue", "green", "black", None]
CATEGORIES = ["roadster", "passenger", "van", None]

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 20),  # price
        st.integers(0, 20),  # mileage
        st.sampled_from(COLORS),
        st.sampled_from(CATEGORIES),
        st.integers(0, 5),  # power
    ),
    min_size=0,
    max_size=25,
)

PREFERRING_CLAUSES = [
    "LOWEST(price)",
    "HIGHEST(power)",
    "price AROUND 10",
    "price BETWEEN 5, 15",
    "color = 'red'",
    "color <> 'black'",
    "color IN ('red', 'blue')",
    "color NOT IN ('red', 'blue')",
    "color = 'red' ELSE color = 'blue'",
    "category = 'roadster' ELSE category <> 'passenger'",
    "LOWEST(price) AND LOWEST(mileage)",
    "LOWEST(price) AND HIGHEST(power)",
    "price AROUND 10 AND color = 'red'",
    "LOWEST(price) CASCADE HIGHEST(power)",
    "color = 'red' CASCADE LOWEST(price) CASCADE LOWEST(mileage)",
    "(LOWEST(price) AND LOWEST(mileage)) CASCADE color = 'red'",
    "EXPLICIT(color, 'red' > 'blue', 'blue' > 'green')",
    "EXPLICIT(color, 'red' > 'blue') AND LOWEST(price)",
    "SCORE(power - price)",
    "price AROUND 10 AND mileage AROUND 10 AND HIGHEST(power)",
]

WHERE_CLAUSES = [None, "price <= 15", "color IS NOT NULL", "power > 0"]

QUERY_SUFFIXES = [
    "",
    " GROUPING category",
    " BUT ONLY DISTANCE(price) <= 5",
]


def both_paths(rows, query):
    """Run one query through the engine and through sqlite; compare."""
    relation = Relation(
        columns=("price", "mileage", "color", "category", "power"), rows=rows
    )
    engine = PreferenceEngine({"items": relation})
    engine_rows = sorted(
        engine.execute(query).rows, key=repr
    )

    con = repro.connect(":memory:")
    try:
        relation_to_sqlite(con, "items", relation)
        sqlite_rows = sorted(con.execute(query).fetchall(), key=repr)
    finally:
        con.close()
    return engine_rows, sqlite_rows


@given(rows=rows_strategy, data=st.data())
@settings(max_examples=120, deadline=None)
def test_engine_and_rewrite_agree(rows, data):
    preferring = data.draw(st.sampled_from(PREFERRING_CLAUSES))
    where = data.draw(st.sampled_from(WHERE_CLAUSES))
    query = "SELECT * FROM items"
    if where:
        query += f" WHERE {where}"
    query += f" PREFERRING {preferring}"
    engine_rows, sqlite_rows = both_paths(rows, query)
    assert engine_rows == sqlite_rows, query


@given(rows=rows_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_engine_and_rewrite_agree_with_grouping_and_threshold(rows, data):
    # GROUPING and BUT ONLY only compose with numeric distance prefs here.
    query = (
        "SELECT * FROM items PREFERRING price AROUND 10 AND LOWEST(mileage)"
        + data.draw(st.sampled_from(QUERY_SUFFIXES))
    )
    engine_rows, sqlite_rows = both_paths(rows, query)
    assert engine_rows == sqlite_rows, query


@given(rows=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_dynamic_optimum_with_grouping_agrees(rows):
    # DISTANCE over LOWEST is data-dependent; with GROUPING the optimum is
    # per partition.  Engine computes it in memory, the rewrite via a
    # correlated MIN sub-query — they must agree.
    query = (
        "SELECT category, price, DISTANCE(price) FROM items "
        "PREFERRING LOWEST(price) GROUPING category"
    )
    engine_rows, sqlite_rows = both_paths(rows, query)
    assert engine_rows == sqlite_rows, query


@given(rows=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_quality_functions_agree(rows):
    query = (
        "SELECT price, color, LEVEL(color), DISTANCE(price), TOP(price) "
        "FROM items PREFERRING color = 'red' ELSE color = 'blue' "
        "AND price AROUND 10"
    )
    engine_rows, sqlite_rows = both_paths(rows, query)
    normalized_engine = [tuple(float(v) if isinstance(v, (int, float)) else v for v in row) for row in engine_rows]
    normalized_sqlite = [tuple(float(v) if isinstance(v, (int, float)) else v for v in row) for row in sqlite_rows]
    assert normalized_engine == normalized_sqlite


@pytest.mark.parametrize(
    "query",
    [
        "SELECT * FROM trips PREFERRING duration AROUND 14",
        "SELECT * FROM apartments PREFERRING HIGHEST(area)",
        "SELECT * FROM programmers PREFERRING exp IN ('java', 'C++')",
        "SELECT * FROM hotels PREFERRING location <> 'downtown'",
        "SELECT * FROM computers PREFERRING HIGHEST(main_memory) AND HIGHEST(cpu_speed)",
        "SELECT * FROM computers PREFERRING HIGHEST(main_memory) CASCADE color IN ('black','brown')",
        "SELECT * FROM car WHERE make = 'Opel' PREFERRING (category = 'roadster' "
        "ELSE category <> 'passenger' AND price AROUND 40000 AND HIGHEST(power)) "
        "CASCADE color = 'red' CASCADE LOWEST(mileage)",
        "SELECT * FROM Cars PREFERRING Make = 'Audi' AND Diesel = 'yes'",
        "SELECT * FROM apartments PREFERRING HIGHEST(area) GROUPING city",
        "SELECT * FROM trips PREFERRING start_day AROUND 184 AND duration AROUND 14 "
        "BUT ONLY DISTANCE(start_day) <= 2 AND DISTANCE(duration) <= 2",
    ],
)
def test_paper_queries_agree_on_fixtures(query, fixture_engine, fixture_connection):
    engine_rows = sorted(fixture_engine.execute(query).rows, key=repr)
    sqlite_rows = sorted(fixture_connection.execute(query).fetchall(), key=repr)
    assert engine_rows == sqlite_rows

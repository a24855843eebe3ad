"""Join-aware preference planning: multi-table FROM through every path.

Joins are first-class in-memory citizens (the pushdown executes the join
on the host database, the columnar engine winnows the joined rows), join
cardinality estimates compose from per-table statistics, and comma-join
lists price identically to explicit ``JOIN … ON`` syntax.
"""

import random

import pytest

import repro
from repro.engine import PreferenceEngine, Relation
from repro.errors import PlanError, RewriteError
from repro.plan import IN_MEMORY_STRATEGIES
from repro.sql.parser import parse_statement


def _car_dealer_connection(cars=240, dealers=16, seed=11):
    con = repro.connect(":memory:")
    con.execute(
        "CREATE TABLE cars (car_id INTEGER, dealer_id INTEGER, "
        "price INTEGER, power INTEGER, make TEXT)"
    )
    con.execute(
        "CREATE TABLE dealers (dealer_id INTEGER, region TEXT, rating INTEGER)"
    )
    rng = random.Random(seed)
    con.cursor().executemany(
        "INSERT INTO cars VALUES (?, ?, ?, ?, ?)",
        [
            (
                i,
                rng.randint(1, dealers),
                rng.randrange(5_000, 60_000, 500),
                rng.randrange(40, 300, 10),
                rng.choice(["audi", "bmw", "opel", "vw"]),
            )
            for i in range(cars)
        ],
    )
    con.cursor().executemany(
        "INSERT INTO dealers VALUES (?, ?, ?)",
        [
            (d, rng.choice(["north", "south", "east", "west"]), rng.randint(1, 5))
            for d in range(1, dealers + 1)
        ],
    )
    return con


COMMA_QUERY = (
    "SELECT * FROM cars c, dealers d WHERE c.dealer_id = d.dealer_id "
    "AND d.region = 'south' PREFERRING LOWEST(c.price) AND HIGHEST(c.power)"
)
JOIN_QUERY = (
    "SELECT * FROM cars c JOIN dealers d ON c.dealer_id = d.dealer_id "
    "WHERE d.region = 'south' PREFERRING LOWEST(c.price) AND HIGHEST(c.power)"
)


@pytest.fixture
def car_dealer():
    con = _car_dealer_connection()
    yield con
    con.close()


class TestJoinExecution:
    """The acceptance criterion: a key–FK join query plans and executes
    under every strategy and under auto selection with winner sets
    identical to the NOT EXISTS rewrite."""

    def test_all_strategies_agree_on_key_fk_join(self, car_dealer):
        # A one-to-many listings table multiplies every car.
        car_dealer.execute(
            "CREATE TABLE listings (listing_id INTEGER, car_id INTEGER, "
            "active INTEGER)"
        )
        rng = random.Random(3)
        car_dealer.cursor().executemany(
            "INSERT INTO listings VALUES (?, ?, ?)",
            [(i, rng.randrange(240), rng.randint(0, 1)) for i in range(600)],
        )
        one_to_many = (
            "SELECT * FROM cars c, listings l WHERE c.car_id = l.car_id "
            "AND l.active = 1 PREFERRING LOWEST(c.price) AND HIGHEST(c.power)"
        )
        for query in (COMMA_QUERY, one_to_many):
            oracle = sorted(
                car_dealer.execute(query, algorithm="rewrite").fetchall(),
                key=repr,
            )
            assert oracle
            for strategy in IN_MEMORY_STRATEGIES:
                cursor = car_dealer.execute(query, algorithm=strategy)
                assert cursor.plan.strategy == strategy
                assert sorted(cursor.fetchall(), key=repr) == oracle, strategy
            auto = car_dealer.execute(query)
            assert sorted(auto.fetchall(), key=repr) == oracle

    def test_join_syntax_executes_identically(self, car_dealer):
        oracle = sorted(
            car_dealer.execute(COMMA_QUERY, algorithm="rewrite").fetchall(),
            key=repr,
        )
        for strategy in IN_MEMORY_STRATEGIES + (None,):
            rows = car_dealer.execute(JOIN_QUERY, algorithm=strategy).fetchall()
            assert sorted(rows, key=repr) == oracle

    def test_three_table_join(self, car_dealer):
        car_dealer.execute("CREATE TABLE regions (region TEXT, country TEXT)")
        car_dealer.cursor().executemany(
            "INSERT INTO regions VALUES (?, ?)",
            [("north", "de"), ("south", "de"), ("east", "at"), ("west", "ch")],
        )
        sql = (
            "SELECT c.car_id, c.price, r.country FROM cars c, dealers d, "
            "regions r WHERE c.dealer_id = d.dealer_id AND d.region = r.region "
            "AND r.country = 'de' PREFERRING LOWEST(c.price)"
        )
        oracle = sorted(
            car_dealer.execute(sql, algorithm="rewrite").fetchall(), key=repr
        )
        for strategy in IN_MEMORY_STRATEGIES + (None,):
            rows = car_dealer.execute(sql, algorithm=strategy).fetchall()
            assert sorted(rows, key=repr) == oracle

    def test_left_join_runs_in_memory(self, car_dealer):
        # LEFT joins are scan-eligible: sqlite executes the join.
        sql = (
            "SELECT * FROM dealers d LEFT JOIN cars c "
            "ON c.dealer_id = d.dealer_id AND c.price < 10000 "
            "PREFERRING HIGHEST(d.rating)"
        )
        oracle = sorted(
            car_dealer.execute(sql, algorithm="rewrite").fetchall(), key=repr
        )
        rows = car_dealer.execute(sql, algorithm="bnl").fetchall()
        assert sorted(rows, key=repr) == oracle

    def test_projection_order_by_and_limit(self, car_dealer):
        sql = (
            "SELECT c.car_id, c.price, d.region FROM cars c, dealers d "
            "WHERE c.dealer_id = d.dealer_id "
            "PREFERRING LOWEST(c.price) AND HIGHEST(c.power) "
            "ORDER BY c.price, c.car_id LIMIT 3"
        )
        oracle = car_dealer.execute(sql, algorithm="rewrite").fetchall()
        for strategy in IN_MEMORY_STRATEGIES + (None,):
            assert car_dealer.execute(sql, algorithm=strategy).fetchall() == oracle

    def test_order_by_select_list_alias(self, car_dealer):
        # Standard SQL lets ORDER BY reference a select-list alias; the
        # residual flattener must keep the alias verbatim instead of
        # trying to attribute it to a joined table.
        sql = (
            "SELECT c.car_id, c.price AS p FROM cars c, dealers d "
            "WHERE c.dealer_id = d.dealer_id AND d.rating >= 3 "
            "PREFERRING LOWEST(c.price) AND HIGHEST(c.power) "
            "ORDER BY p DESC, c.car_id"
        )
        oracle = car_dealer.execute(sql, algorithm="rewrite").fetchall()
        for strategy in IN_MEMORY_STRATEGIES + (None,):
            rows = car_dealer.execute(sql, algorithm=strategy).fetchall()
            assert rows == oracle, strategy

    def test_order_by_reads_flattened_columns_past_select_list_names(
        self, connection
    ):
        # ``b.a_x`` is named ``a_x`` in the result, which is also the
        # flattened name of ``a.x``; ORDER BY a.x must still sort by a.x,
        # and ORDER BY an alias by the aliased expression.
        connection.execute("CREATE TABLE a (id INTEGER, x INTEGER)")
        connection.execute("CREATE TABLE b (id INTEGER, x INTEGER, a_x INTEGER)")
        connection.cursor().executemany(
            "INSERT INTO a VALUES (?, ?)", [(i, (i * 7) % 5) for i in range(40)]
        )
        connection.cursor().executemany(
            "INSERT INTO b VALUES (?, ?, ?)",
            [(i, i % 3, (i * 11) % 13) for i in range(40)],
        )
        for order in ("a.x, b.a_x, a.id", "a_x, k DESC, a.id"):
            sql = (
                "SELECT b.a_x, a.x AS k, a.id FROM a JOIN b ON a.id = b.id "
                f"PREFERRING LOWEST(b.x) ORDER BY {order}"
            )
            oracle = connection.execute(sql, algorithm="rewrite").fetchall()
            assert len(set(oracle)) > 3
            rows = connection.execute(sql, algorithm="bnl").fetchall()
            assert rows == oracle, order

    def test_qualified_star(self, car_dealer):
        sql = (
            "SELECT c.* FROM cars c, dealers d WHERE c.dealer_id = d.dealer_id "
            "AND d.rating >= 4 PREFERRING LOWEST(c.price)"
        )
        oracle = sorted(
            car_dealer.execute(sql, algorithm="rewrite").fetchall(), key=repr
        )
        for strategy in IN_MEMORY_STRATEGIES + (None,):
            rows = car_dealer.execute(sql, algorithm=strategy).fetchall()
            assert sorted(rows, key=repr) == oracle

    def test_grouping_over_join(self, car_dealer):
        sql = (
            "SELECT * FROM cars c, dealers d WHERE c.dealer_id = d.dealer_id "
            "PREFERRING LOWEST(c.price) GROUPING c.make"
        )
        oracle = sorted(
            car_dealer.execute(sql, algorithm="rewrite").fetchall(), key=repr
        )
        for strategy in IN_MEMORY_STRATEGIES + (None,):
            rows = car_dealer.execute(sql, algorithm=strategy).fetchall()
            assert sorted(rows, key=repr) == oracle, strategy

    @pytest.mark.parametrize("query", [COMMA_QUERY, JOIN_QUERY])
    @pytest.mark.parametrize("grouping", ["", " GROUPING d.rating"])
    def test_pivoted_bnl_equals_the_nested_loop_oracle(
        self, car_dealer, query, grouping
    ):
        query = query.replace("SELECT *", "SELECT c.car_id, c.price, d.rating") + grouping
        raw = car_dealer.raw
        engine = PreferenceEngine(
            {
                "cars": Relation(
                    columns=("car_id", "dealer_id", "price", "power", "make"),
                    rows=raw.execute("SELECT * FROM cars").fetchall(),
                ),
                "dealers": Relation(
                    columns=("dealer_id", "region", "rating"),
                    rows=raw.execute("SELECT * FROM dealers").fetchall(),
                ),
            },
            algorithm="nested_loop",
        )
        cursor = car_dealer.execute(query, algorithm="bnl")
        assert "__pref_pivot" in cursor.executed_sql
        shipped = raw.execute(cursor.plan.pushdown_sql).fetchall()
        rows = sorted(cursor.fetchall(), key=repr)
        assert rows == sorted(engine.execute(query).rows, key=repr)
        assert len(rows) <= len(shipped) < raw.execute(
            "SELECT count(*) FROM cars c, dealers d "
            "WHERE c.dealer_id = d.dealer_id AND d.region = 'south'"
        ).fetchone()[0]

    def test_grouping_on_dimension_table(self, car_dealer):
        # GROUPING on the non-preference table: the join scan handles it.
        sql = (
            "SELECT * FROM cars c, dealers d WHERE c.dealer_id = d.dealer_id "
            "PREFERRING LOWEST(c.price) GROUPING d.region"
        )
        oracle = sorted(
            car_dealer.execute(sql, algorithm="rewrite").fetchall(), key=repr
        )
        for strategy in IN_MEMORY_STRATEGIES + (None,):
            rows = car_dealer.execute(sql, algorithm=strategy).fetchall()
            assert sorted(rows, key=repr) == oracle, strategy

    def test_self_join_with_aliases(self, car_dealer):
        sql = (
            "SELECT a.car_id, b.car_id FROM cars a, cars b "
            "WHERE a.dealer_id = b.dealer_id AND a.car_id < b.car_id "
            "AND a.price < 12000 PREFERRING LOWEST(a.price)"
        )
        oracle = sorted(
            car_dealer.execute(sql, algorithm="rewrite").fetchall(), key=repr
        )
        for strategy in IN_MEMORY_STRATEGIES + (None,):
            rows = car_dealer.execute(sql, algorithm=strategy).fetchall()
            assert sorted(rows, key=repr) == oracle

    def test_parameterized_join_rebinds(self, car_dealer):
        sql = (
            "SELECT * FROM cars c, dealers d WHERE c.dealer_id = d.dealer_id "
            "AND c.price <= ? PREFERRING LOWEST(c.price) AND HIGHEST(c.power)"
        )
        for bound in (20_000, 45_000):
            oracle = sorted(
                car_dealer.execute(
                    sql, (bound,), algorithm="rewrite"
                ).fetchall(),
                key=repr,
            )
            # Second execution of each binding comes from the plan cache
            # and exercises the join-aware rebind path.
            for _ in range(2):
                rows = car_dealer.execute(sql, (bound,)).fetchall()
                assert sorted(rows, key=repr) == oracle

    def test_named_preference_over_join(self, car_dealer):
        car_dealer.execute("CREATE PREFERENCE cheap ON cars AS LOWEST(price)")
        sql = (
            "SELECT * FROM cars c, dealers d WHERE c.dealer_id = d.dealer_id "
            "AND d.region = 'north' PREFERRING PREFERENCE cheap"
        )
        oracle = sorted(
            car_dealer.execute(sql, algorithm="rewrite").fetchall(), key=repr
        )
        for strategy in IN_MEMORY_STRATEGIES + (None,):
            rows = car_dealer.execute(sql, algorithm=strategy).fetchall()
            assert sorted(rows, key=repr) == oracle

    def test_cross_table_pareto_runs_in_memory(self, car_dealer):
        # Preference attributes spanning both tables: the join scan
        # winnows the joined rows.
        sql = (
            "SELECT * FROM cars c, dealers d WHERE c.dealer_id = d.dealer_id "
            "PREFERRING LOWEST(c.price) AND HIGHEST(d.rating)"
        )
        oracle = sorted(
            car_dealer.execute(sql, algorithm="rewrite").fetchall(), key=repr
        )
        for strategy in IN_MEMORY_STRATEGIES + (None,):
            rows = car_dealer.execute(sql, algorithm=strategy).fetchall()
            assert sorted(rows, key=repr) == oracle, strategy

    def test_rowidless_preference_table_in_join(self, car_dealer):
        # A WITHOUT ROWID table in the preference position: the rewrite
        # keeps its inline anti-join, the join scan needs no rowid.
        car_dealer.execute(
            "CREATE TABLE bikes (bike_id INTEGER PRIMARY KEY, "
            "dealer_id INTEGER, price INTEGER) WITHOUT ROWID"
        )
        rng = random.Random(5)
        car_dealer.cursor().executemany(
            "INSERT INTO bikes VALUES (?, ?, ?)",
            [(i, rng.randint(1, 16), rng.randint(100, 900)) for i in range(60)],
        )
        sql = (
            "SELECT * FROM bikes b, dealers d WHERE b.dealer_id = d.dealer_id "
            "AND d.region = 'south' PREFERRING LOWEST(b.price)"
        )
        assert "bikes" in car_dealer.schema().rowless
        raw = car_dealer.raw
        engine = PreferenceEngine(
            {
                "bikes": Relation(
                    columns=("bike_id", "dealer_id", "price"),
                    rows=raw.execute("SELECT * FROM bikes").fetchall(),
                ),
                "dealers": Relation(
                    columns=("dealer_id", "region", "rating"),
                    rows=raw.execute("SELECT * FROM dealers").fetchall(),
                ),
            },
            algorithm="nested_loop",
        )
        # The same rows as ``*``, with the second dealer_id renamed: the
        # engine's result relation needs distinct column names.
        columns = "b.*, d.dealer_id AS d_dealer_id, d.region, d.rating"
        oracle = sorted(
            engine.execute(sql.replace("*", columns, 1)).rows, key=repr
        )
        assert oracle
        for strategy in (None, "rewrite", "bnl"):
            rows = car_dealer.execute(sql, algorithm=strategy).fetchall()
            assert sorted(rows, key=repr) == oracle, strategy

    def test_rowid_column_in_join_keeps_dominated_rows_out(self, connection):
        # A user column named rowid is no row key: reading winners back
        # through it would return every row that shares it.
        connection.execute(
            "CREATE TABLE cars (rowid INTEGER, id INTEGER, price REAL, dealer INTEGER)"
        )
        connection.execute("CREATE TABLE dealers (dealer INTEGER, region TEXT)")
        connection.execute(
            "INSERT INTO cars VALUES (7, 1, 100, 1), (7, 2, 200, 1), (8, 3, 150, 1)"
        )
        connection.execute("INSERT INTO dealers VALUES (1, 'north')")
        sql = (
            "SELECT c.id, c.price FROM cars c JOIN dealers d "
            "ON c.dealer = d.dealer PREFERRING LOWEST(c.price)"
        )
        assert "cars" in connection.schema().rowless
        for strategy in (None, "rewrite", "bnl"):
            rows = connection.execute(sql, algorithm=strategy).fetchall()
            assert rows == [(1, 100.0)], strategy

    def test_explain_reports_the_host_plan_of_the_sent_sql(self, connection):
        connection.execute("CREATE TABLE cars (id INTEGER, price INTEGER, dealer INTEGER)")
        connection.execute("CREATE TABLE dealers (dealer INTEGER, region TEXT)")
        connection.execute("INSERT INTO cars VALUES (1, 100, 1), (2, 200, 1)")
        connection.execute("INSERT INTO dealers VALUES (1, 'north')")
        sql = (
            "SELECT * FROM cars c JOIN dealers d ON c.dealer = d.dealer "
            "PREFERRING LOWEST(c.price)"
        )
        plan = connection.plan(sql, force="bnl")
        assert plan.host_sql == plan.pushdown_sql
        cursor = connection.execute(sql, algorithm="bnl")
        assert cursor.executed_sql == plan.host_sql

    def test_empty_winner_set_join_back(self, connection):
        connection.execute("CREATE TABLE a (x INTEGER, k INTEGER)")
        connection.execute("CREATE TABLE b (k INTEGER, y INTEGER)")
        connection.execute("INSERT INTO a VALUES (1, 1), (2, 2)")
        connection.execute("INSERT INTO b VALUES (9, 9)")
        sql = (
            "SELECT * FROM a, b WHERE a.k = b.k PREFERRING LOWEST(a.x)"
        )
        for strategy in ("rewrite", "bnl", None):
            assert connection.execute(sql, algorithm=strategy).fetchall() == []


class TestJoinPlanning:
    def test_comma_and_join_syntax_estimate_identically(self, car_dealer):
        # Satellite regression: the ON predicate must reach selectivity
        # estimation, or the two spellings of the same query price apart
        # (measured at the seed: 100 vs 1000 on two 3-row tables).
        comma = car_dealer.plan(COMMA_QUERY)
        joined = car_dealer.plan(JOIN_QUERY)
        assert comma.candidate_estimate == joined.candidate_estimate
        assert set(comma.estimates) == set(joined.estimates)
        for name, estimate in comma.estimates.items():
            assert estimate.seconds == joined.estimates[name].seconds, name

    def test_tiny_tables_regression_from_issue(self, connection):
        # The literal shape from the issue: two 3-row tables.
        connection.execute("CREATE TABLE a (k INTEGER, x INTEGER)")
        connection.execute("CREATE TABLE b (k INTEGER, y INTEGER)")
        connection.execute("INSERT INTO a VALUES (1, 10), (2, 20), (3, 30)")
        connection.execute("INSERT INTO b VALUES (1, 1), (2, 2), (3, 3)")
        comma = connection.plan(
            "SELECT * FROM a, b WHERE a.k = b.k PREFERRING LOWEST(a.x)"
        )
        joined = connection.plan(
            "SELECT * FROM a JOIN b ON a.k = b.k PREFERRING LOWEST(a.x)"
        )
        assert comma.candidate_estimate == joined.candidate_estimate
        # 3 x 3 rows, equality over two 3-distinct key columns: the
        # composed estimate is 9/3 = 3 joined candidates, not a default.
        assert comma.candidate_estimate == pytest.approx(3.0)

    def test_join_cardinality_composes_from_statistics(self, car_dealer):
        plan = car_dealer.plan(COMMA_QUERY)
        # 240 cars x 16 dealers, FK equality (1/16) and a region filter
        # (1/4): far from both the cross product and the old 1000-row
        # default.
        assert 10 <= plan.candidate_estimate <= 240
        assert plan.join_tables
        assert any("cars" in entry for entry in plan.join_tables)
        assert any("(240 rows)" in entry for entry in plan.join_tables)

    def test_explain_reports_join_rows(self, car_dealer):
        cursor = car_dealer.execute("EXPLAIN PREFERENCE " + COMMA_QUERY)
        report = dict(cursor.fetchall())
        assert "join tables" in report
        assert "cars AS c" in report["join tables"]
        assert "join cardinality (est)" in report
        assert [item for item in report if item.startswith("cost: ")] == [
            "cost: rewrite",
            "cost: bnl",
        ]
        assert "winnow pushdown" not in report
        # Statistics were composed, not fabricated.
        assert not any("no statistics" in note for note in cursor.plan.notes)

    def test_host_only_plans_note_fabricated_cardinality(self, connection):
        # Satellite regression: a host-only plan used to present the
        # default row estimate as if it were measured.
        connection.execute("CREATE TABLE t (a INTEGER)")
        connection.execute("CREATE TABLE winners (a INTEGER)")
        cursor = connection.execute(
            "EXPLAIN PREFERENCE INSERT INTO winners "
            "SELECT * FROM t PREFERRING LOWEST(a)"
        )
        rows = cursor.fetchall()
        report = dict(rows)
        notes = [detail for item, detail in rows if item == "note"]
        assert any(note.startswith("host-only") for note in notes)
        assert any("no statistics; assuming" in note for note in notes)
        assert report["candidates (est)"] == "1000"

    def test_in_memory_strategies_still_reject_derived_tables(self, connection):
        connection.execute("CREATE TABLE t (a INTEGER)")
        connection.execute("INSERT INTO t VALUES (1), (2)")
        sql = (
            "SELECT * FROM (SELECT * FROM t) AS s, t "
            "PREFERRING LOWEST(s.a)"
        )
        with pytest.raises((PlanError, RewriteError)):
            connection.execute(sql, algorithm="bnl")

    def test_join_but_only_bnl_matches_rewrite(self, car_dealer):
        sql = (
            "SELECT * FROM cars c, dealers d WHERE c.dealer_id = d.dealer_id "
            "PREFERRING c.price AROUND 20000 BUT ONLY DISTANCE(c.price) <= 5000"
        )
        oracle = sorted(
            car_dealer.execute(sql, algorithm="rewrite").fetchall(), key=repr
        )
        rows = car_dealer.execute(sql, algorithm="bnl").fetchall()
        assert sorted(rows, key=repr) == oracle

    def test_plan_survives_roundtrip_through_parser(self, car_dealer):
        statement = parse_statement(COMMA_QUERY)
        plan = car_dealer.plan(statement)
        assert plan.join_tables
        assert plan.candidate_estimate > 0

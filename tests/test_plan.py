"""The cost-based plan-selection subsystem.

Covers the EXPLAIN PREFERENCE statement end to end (parse → plan →
print), the statistics cache with DML invalidation, the LRU parse+plan
cache, the cost model, and — the acceptance criterion — differential
equality of auto-selection against every fixed strategy on the jobs,
cosima and shop workloads.
"""

import pytest

import repro
from repro.errors import ParseError, PlanError
from repro.plan import (
    IN_MEMORY_STRATEGIES,
    STRATEGIES,
    PlanCache,
    choose_strategy,
    estimate_costs,
    estimate_selectivity,
    estimate_skyline_size,
)
from repro.sql import ast
from repro.sql.parser import parse_expression, parse_statement
from repro.sql.printer import to_sql
from repro.workloads.cosima import MetaSearch, make_catalog, make_shops
from repro.workloads.fixtures import relation_to_sqlite
from repro.workloads.jobs import benchmark_queries, load_jobs
from repro.workloads.shop import SearchMask, mask_to_preference_sql, washing_machines_relation


# ----------------------------------------------------------------------
# EXPLAIN PREFERENCE through the SQL front end


class TestExplainStatement:
    def test_parses_to_explain_node(self):
        statement = parse_statement(
            "EXPLAIN PREFERENCE SELECT * FROM t PREFERRING LOWEST(a)"
        )
        assert isinstance(statement, ast.ExplainPreference)
        assert isinstance(statement.statement, ast.Select)
        assert statement.statement.is_preference_query

    def test_print_roundtrip_is_fixpoint(self):
        sql = "EXPLAIN PREFERENCE SELECT * FROM t WHERE a > 1 PREFERRING b AROUND 7"
        once = to_sql(parse_statement(sql))
        assert once == sql
        assert to_sql(parse_statement(once)) == once

    def test_wraps_insert(self):
        statement = parse_statement(
            "EXPLAIN PREFERENCE INSERT INTO winners "
            "SELECT * FROM t PREFERRING LOWEST(a)"
        )
        assert isinstance(statement, ast.ExplainPreference)
        assert isinstance(statement.statement, ast.Insert)

    def test_requires_preference_keyword(self):
        with pytest.raises(ParseError):
            parse_statement("EXPLAIN SELECT * FROM t")

    def test_host_explain_passes_through(self, fixture_connection):
        # sqlite's own EXPLAIN is a documented false positive of the
        # keyword hint: one failed dialect parse, then pass-through.
        rows = fixture_connection.execute(
            "EXPLAIN QUERY PLAN SELECT * FROM oldtimer"
        ).fetchall()
        assert rows


class TestExplainExecution:
    QUERY = (
        "EXPLAIN PREFERENCE SELECT * FROM oldtimer "
        "PREFERRING color = 'white' AND age AROUND 40"
    )

    def test_reports_strategy_costs_and_rewritten_sql(self, fixture_connection):
        cursor = fixture_connection.execute(self.QUERY)
        assert cursor.column_names == ["item", "detail"]
        report = dict(cursor.fetchall())
        assert report["strategy"].startswith(cursor.plan.strategy)
        assert "NOT EXISTS" in report["rewritten SQL"]
        for strategy in STRATEGIES:
            assert f"cost: {strategy}" in report
        assert any(item.startswith("step: ") for item in report)
        assert "plan cache" in report

    def test_does_not_execute_the_query(self, fixture_connection):
        before = len(fixture_connection.trace)
        cursor = fixture_connection.execute(self.QUERY)
        assert cursor.executed_sql is None
        assert cursor.was_rewritten is False
        assert len(fixture_connection.trace) == before

    def test_binds_parameters(self, fixture_connection):
        cursor = fixture_connection.execute(
            "EXPLAIN PREFERENCE SELECT * FROM oldtimer "
            "WHERE age > ? PREFERRING LOWEST(age)",
            (20,),
        )
        report = dict(cursor.fetchall())
        assert "age > 20" in report["statement"]

    def test_explain_honours_pinned_algorithm(self, fixture_connection):
        cursor = fixture_connection.execute(
            "EXPLAIN PREFERENCE SELECT * FROM car PREFERRING LOWEST(price)",
            algorithm="bnl",
        )
        report = dict(cursor.fetchall())
        assert cursor.plan.strategy == "bnl"
        assert report["strategy"].startswith("bnl")
        assert "[forced]" in report["strategy"]

    def test_result_cleared_by_later_statements(self, fixture_connection):
        cursor = fixture_connection.cursor()
        cursor.execute(self.QUERY)
        assert cursor.fetchone() is not None
        cursor.executescript("CREATE TABLE scratch (x INTEGER);")
        assert cursor.fetchall() == []  # no stale EXPLAIN rows

    def test_passthrough_select_reports_passthrough(self, fixture_connection):
        cursor = fixture_connection.execute(
            "EXPLAIN PREFERENCE SELECT * FROM oldtimer"
        )
        report = dict(cursor.fetchall())
        assert report["strategy"].startswith("passthrough")

    def test_connection_explain_mentions_strategy(self, fixture_connection):
        report = fixture_connection.explain(
            "SELECT * FROM oldtimer PREFERRING LOWEST(age)"
        )
        assert "strategy" in report
        assert "cost: rewrite" in report
        assert "NOT EXISTS" in report
        assert "host plan" in report


# ----------------------------------------------------------------------
# Statistics cache


class TestStatistics:
    def test_row_and_distinct_counts(self, fixture_connection):
        stats = fixture_connection.table_statistics("oldtimer", ["color", "age"])
        assert stats.row_count == 6
        assert stats.distinct_count("color") == 4
        assert stats.distinct_count("AGE") == 5
        assert stats.distinct_count("unknown") is None

    def test_cached_until_dml(self, fixture_connection):
        cache = fixture_connection.statistics
        fixture_connection.table_statistics("oldtimer", ["color"])
        scans = cache.scan_count
        fixture_connection.table_statistics("oldtimer", ["color"])
        assert cache.scan_count == scans  # served from cache

    def test_extra_columns_gather_incrementally(self, fixture_connection):
        cache = fixture_connection.statistics
        fixture_connection.table_statistics("oldtimer", ["color"])
        scans = cache.scan_count
        stats = fixture_connection.table_statistics("oldtimer", ["color", "age"])
        assert cache.scan_count == scans + 1  # only the new distinct count
        assert stats.distinct_count("color") == 4

    def test_dml_invalidates(self, fixture_connection):
        fixture_connection.table_statistics("oldtimer", ["color"])
        fixture_connection.execute(
            "INSERT INTO oldtimer VALUES ('Ned', 'purple', 60)"
        )
        stats = fixture_connection.table_statistics("oldtimer", ["color"])
        assert stats.row_count == 7
        assert stats.distinct_count("color") == 5

    def test_cte_dml_invalidates(self, fixture_connection):
        # WITH-prefixed DML is still DML: the hint is unanchored.
        fixture_connection.table_statistics("oldtimer")
        fixture_connection.execute(
            "WITH donors AS (SELECT * FROM oldtimer) "
            "INSERT INTO oldtimer SELECT ident, color, age + 1 FROM donors"
        )
        assert fixture_connection.table_statistics("oldtimer").row_count == 12

    def test_missing_table_raises_plan_error(self, connection):
        with pytest.raises(PlanError):
            connection.table_statistics("missing")


# ----------------------------------------------------------------------
# Parse+plan cache


class TestPlanCache:
    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 0, "A")
        cache.put("b", 0, "B")
        assert cache.get("a", 0) == "A"  # refreshes a
        cache.put("c", 0, "C")  # evicts b
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) == "A"
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.size == 2

    def test_hits_on_repeated_parameterized_query(self, fixture_connection):
        sql = "SELECT * FROM trips WHERE price <= ? PREFERRING duration AROUND 14"
        fixture_connection.clear_plan_cache()
        before = fixture_connection.plan_cache_stats()
        first = fixture_connection.execute(sql, (2000,)).fetchall()
        second = fixture_connection.execute(sql, (2000,)).fetchall()
        third = fixture_connection.execute(sql, (1000,)).fetchall()
        after = fixture_connection.plan_cache_stats()
        assert after.hits == before.hits + 2
        assert first == second
        assert set(third) <= set(first + second) or third  # params respected
        assert after.hit_rate > 0

    def test_identical_query_reuses_rewrite(self, fixture_connection):
        sql = "SELECT * FROM oldtimer PREFERRING LOWEST(age)"
        first = fixture_connection.execute(sql)
        second = fixture_connection.execute(sql)
        assert first.executed_sql == second.executed_sql
        assert first.fetchall() == second.fetchall()

    def test_create_preference_invalidates(self, fixture_connection):
        fixture_connection.execute(
            "CREATE PREFERENCE cheap ON trips AS LOWEST(price)"
        )
        sql = "SELECT * FROM trips PREFERRING PREFERENCE cheap"
        fixture_connection.execute(sql).fetchall()
        stats = fixture_connection.plan_cache_stats()
        # Redefining the preference bumps the catalog version: the old
        # plan (which inlined LOWEST(price)) must not be served.
        fixture_connection.execute("DROP PREFERENCE cheap")
        fixture_connection.execute(
            "CREATE PREFERENCE cheap ON trips AS HIGHEST(price)"
        )
        cursor = fixture_connection.execute(sql)
        rows = cursor.fetchall()
        assert fixture_connection.plan_cache_stats().misses > stats.misses
        highest = max(
            fixture_connection.execute("SELECT price FROM trips").fetchall()
        )[0]
        assert all(row[-1] == highest for row in rows)

    def test_data_change_triggers_replan(self, connection):
        connection.execute("CREATE TABLE p (a REAL, b REAL, c REAL)")
        connection.cursor().executemany(
            "INSERT INTO p VALUES (?, ?, ?)",
            [((i * 7919) % 97 / 97, (i * 104729) % 89 / 89, i / 40) for i in range(40)],
        )
        sql = "SELECT * FROM p PREFERRING LOWEST(a) AND LOWEST(b) AND LOWEST(c)"
        assert connection.execute(sql).plan.strategy == "rewrite"
        connection.cursor().executemany(
            "INSERT INTO p VALUES (?, ?, ?)",
            [
                ((i * 7919) % 9973 / 9973, (i * 104729) % 9949 / 9949, i / 12000)
                for i in range(12_000)
            ],
        )
        # Same statement text: the cached parse is reused, but the DML
        # bumped the data version, so the strategy is re-costed.
        assert connection.execute(sql).plan.strategy in IN_MEMORY_STRATEGIES

    @pytest.mark.parametrize(
        "undo",
        [None, "ROLLBACK", "rollback ;", "ROLLBACK;", "/* undo */ ROLLBACK"],
    )
    def test_rollback_orphans_catalog_plans(self, fixture_connection, undo):
        from repro.errors import CatalogError

        fixture_connection.commit()
        fixture_connection.execute(
            "CREATE PREFERENCE fleeting ON trips AS LOWEST(price)"
        )
        sql = "SELECT * FROM trips PREFERRING PREFERENCE fleeting"
        assert fixture_connection.execute(sql).fetchall()
        # CREATE PREFERENCE is transactional; a raw ROLLBACK in any
        # spelling must orphan the plan exactly like rollback() does.
        if undo is None:
            fixture_connection.rollback()
        else:
            fixture_connection.execute(undo)
        with pytest.raises(CatalogError):
            fixture_connection.execute(sql)

    def test_rollback_of_drop_preference_restores_cached_plans(
        self, fixture_connection
    ):
        fixture_connection.execute(
            "CREATE PREFERENCE cheap ON trips AS LOWEST(price)"
        )
        fixture_connection.commit()
        sql = "SELECT * FROM trips PREFERRING PREFERENCE cheap"
        baseline = fixture_connection.execute(sql).fetchall()
        version = fixture_connection.catalog_version

        fixture_connection.execute("DROP PREFERENCE cheap")
        assert fixture_connection.catalog_version != version
        fixture_connection.rollback()

        # The rollback restored the committed catalog, so the committed
        # catalog version — and with it the cached plan — is restored too.
        assert fixture_connection.catalog_version == version
        hits_before = fixture_connection.plan_cache_stats().hits
        assert fixture_connection.execute(sql).fetchall() == baseline
        assert fixture_connection.plan_cache_stats().hits == hits_before + 1

    def test_executescript_implicit_commit_prevents_restore(self, connection):
        # executescript implicitly COMMITs the pending transaction, so a
        # later rollback() must not restore plans from before the
        # now-durable catalog change.
        connection.execute("CREATE TABLE t (price INTEGER)")
        connection.cursor().executemany(
            "INSERT INTO t VALUES (?)", [(i,) for i in range(4)]
        )
        connection.execute("CREATE PREFERENCE p ON t AS LOWEST(price)")
        connection.commit()
        sql = "SELECT * FROM t PREFERRING PREFERENCE p"
        assert connection.execute(sql).fetchall() == [(0,)]
        connection.execute("DROP PREFERENCE p")
        connection.execute("CREATE PREFERENCE p ON t AS HIGHEST(price)")
        connection.cursor().executescript("CREATE TABLE u (x INTEGER);")
        connection.rollback()
        assert connection.execute(sql).fetchall() == [(3,)]

    @pytest.mark.parametrize("commit", ["COMMIT", "COMMIT;", "END;"])
    def test_raw_commit_passthrough_tracked(self, connection, commit):
        # COMMIT issued as plain SQL makes the catalog durable exactly
        # like Connection.commit(); rollback() must respect that.
        connection.execute("CREATE TABLE t (price INTEGER)")
        connection.cursor().executemany(
            "INSERT INTO t VALUES (?)", [(i,) for i in range(4)]
        )
        connection.execute("CREATE PREFERENCE p ON t AS HIGHEST(price)")
        connection.execute(commit)
        sql = "SELECT * FROM t PREFERRING PREFERENCE p"
        connection.execute("DROP PREFERENCE p")
        connection.rollback()  # DROP reverted; committed HIGHEST restored
        assert connection.execute(sql).fetchall() == [(3,)]

    def test_autocommit_rollback_orphans_instead_of_restoring(self):
        # With isolation_level=None every catalog write commits
        # immediately: rollback() reverts nothing, so the committed
        # version must NOT be restored — the pre-change cached plan would
        # describe the wrong catalog.
        connection = repro.connect(":memory:", isolation_level=None)
        try:
            connection.execute("CREATE TABLE t (price INTEGER)")
            connection.cursor().executemany(
                "INSERT INTO t VALUES (?)", [(i,) for i in range(5)]
            )
            connection.execute("CREATE PREFERENCE p ON t AS LOWEST(price)")
            connection.commit()
            sql = "SELECT * FROM t PREFERRING PREFERENCE p"
            assert connection.execute(sql).fetchall() == [(0,)]
            connection.execute("DROP PREFERENCE p")
            connection.execute("CREATE PREFERENCE p ON t AS HIGHEST(price)")
            connection.rollback()  # no-op for the autocommitted catalog
            # The live catalog says HIGHEST; the cached LOWEST plan must
            # not be served.
            assert connection.execute(sql).fetchall() == [(4,)]
        finally:
            connection.close()

    def test_aborted_catalog_versions_are_never_reissued(
        self, fixture_connection
    ):
        fixture_connection.commit()
        fixture_connection.execute(
            "CREATE PREFERENCE fleeting ON trips AS LOWEST(price)"
        )
        sql = "SELECT * FROM trips PREFERRING PREFERENCE fleeting"
        lowest_rows = fixture_connection.execute(sql).fetchall()
        burnt = fixture_connection.catalog_version
        fixture_connection.rollback()

        # A different definition under the same name must get a *fresh*
        # version — serving the rolled-back plan would invert the order.
        fixture_connection.execute(
            "CREATE PREFERENCE fleeting ON trips AS HIGHEST(price)"
        )
        assert fixture_connection.catalog_version != burnt
        rows = fixture_connection.execute(sql).fetchall()
        prices = [row[-1] for row in rows]
        assert prices and prices != [row[-1] for row in lowest_rows]
        assert all(
            price == max(r[-1] for r in fixture_connection.execute(
                "SELECT * FROM trips"
            ).fetchall())
            for price in prices
        )

    def test_unparseable_statement_cached_as_passthrough(self, connection):
        connection.execute("CREATE TABLE prefs (preference TEXT)")
        connection.execute("INSERT INTO prefs VALUES ('blue')")
        sql = "SELECT preference FROM prefs"
        connection.execute(sql)
        misses = connection.plan_cache_stats().misses
        rows = connection.execute(sql).fetchall()
        assert rows == [("blue",)]
        assert connection.plan_cache_stats().misses == misses  # cache hit


# ----------------------------------------------------------------------
# Cost model


class TestCostModel:
    def test_skyline_grows_with_dimensions(self):
        sizes = [
            estimate_skyline_size(10_000, d, [10_000] * d) for d in (1, 2, 3, 4)
        ]
        assert sizes == sorted(sizes)
        assert sizes[-1] <= 10_000

    def test_one_dimension_uses_distinct_multiplicity(self):
        assert estimate_skyline_size(1000, 1, [10]) == pytest.approx(100.0)

    def test_selectivity_equality_uses_distinct(self):
        expr = parse_expression("region = 'muenchen'")
        assert estimate_selectivity(expr, lambda _c: 8) == pytest.approx(1 / 8)
        conjunction = parse_expression("region = 'x' AND profession = 'y'")
        assert estimate_selectivity(conjunction, lambda _c: 8) == pytest.approx(1 / 64)

    def test_selectivity_bounded(self):
        expr = parse_expression("a = 'x' AND a = 'x' AND a = 'x' AND a = 'x'")
        assert 0 < estimate_selectivity(expr, lambda _c: 10_000) <= 1

    def test_tiny_input_prefers_rewrite(self):
        estimates = estimate_costs(6, 2, [4, 5])
        assert choose_strategy(estimates) == "rewrite"

    def test_large_input_prefers_in_memory(self):
        estimates = estimate_costs(16_000, 3)
        assert choose_strategy(estimates) in IN_MEMORY_STRATEGIES

    def test_strategy_set_is_rewrite_and_bnl(self):
        # One in-memory strategy: the kernel is the engine's choice by
        # rank shape, not a planner-visible name.
        assert STRATEGIES == ("rewrite", "bnl")
        assert IN_MEMORY_STRATEGIES == ("bnl",)
        assert set(estimate_costs(5_000, 3)) == set(STRATEGIES)

    def test_wide_rows_penalise_in_memory(self):
        narrow = estimate_costs(600, 4, row_width=7)
        wide = estimate_costs(600, 4, row_width=74)
        assert wide["bnl"].seconds > narrow["bnl"].seconds
        assert wide["rewrite"].seconds == narrow["rewrite"].seconds


# ----------------------------------------------------------------------
# Strategy execution through the driver


class TestStrategyExecution:
    def test_forced_strategies_agree_on_fixtures(self, fixture_connection):
        sql = (
            "SELECT * FROM car WHERE mileage < 100000 "
            "PREFERRING LOWEST(price) AND HIGHEST(power) GROUPING category"
        )
        baseline = fixture_connection.execute(sql, algorithm="rewrite").fetchall()
        assert baseline
        for strategy in STRATEGIES:
            rows = fixture_connection.execute(sql, algorithm=strategy).fetchall()
            assert rows == baseline, strategy

    def test_in_memory_path_flags(self, fixture_connection):
        cursor = fixture_connection.execute(
            "SELECT * FROM car PREFERRING LOWEST(price)", algorithm="bnl"
        )
        assert cursor.was_rewritten is True
        assert cursor.plan.strategy == "bnl"
        # The scan, not the rewrite: its one anti-join is against the pivot.
        assert cursor.executed_sql != cursor.plan.rewritten_sql
        assert cursor.executed_sql.count("NOT EXISTS") == 1
        assert "NOT EXISTS (SELECT 1 FROM __pref_pivot AS d" in cursor.executed_sql
        assert cursor.plan.pushdown_sql == cursor.executed_sql

    def test_in_memory_respects_order_and_limit(self, fixture_connection):
        sql = (
            "SELECT car_id, price FROM car PREFERRING LOWEST(price) "
            "AND HIGHEST(power) ORDER BY price DESC LIMIT 3"
        )
        rewrite = fixture_connection.execute(sql, algorithm="rewrite").fetchall()
        bnl = fixture_connection.execute(sql, algorithm="bnl").fetchall()
        assert rewrite == bnl

    def test_but_only_threshold_in_memory(self, fixture_connection):
        sql = (
            "SELECT * FROM oldtimer "
            "PREFERRING color = 'white' ELSE color = 'yellow' "
            "BUT ONLY LEVEL(color) <= 2"
        )
        rewrite = fixture_connection.execute(sql, algorithm="rewrite").fetchall()
        bnl = fixture_connection.execute(sql, algorithm="bnl").fetchall()
        assert rewrite == bnl

    def test_named_preference_inlined_for_engine(self, fixture_connection):
        fixture_connection.execute(
            "CREATE PREFERENCE frugal ON trips AS LOWEST(price)"
        )
        sql = "SELECT * FROM trips PREFERRING PREFERENCE frugal"
        rewrite = fixture_connection.execute(sql, algorithm="rewrite").fetchall()
        bnl = fixture_connection.execute(sql, algorithm="bnl").fetchall()
        assert rewrite == bnl

    def test_joins_are_in_memory_eligible(self, fixture_connection):
        # Joins are first-class in-memory citizens now: the pushdown
        # executes the join on the host database and the engine winnows
        # the joined candidate rows.
        sql = (
            "SELECT * FROM oldtimer AS a, oldtimer AS b "
            "PREFERRING LOWEST(a.age)"
        )
        oracle = sorted(
            fixture_connection.execute(sql, algorithm="rewrite").fetchall(),
            key=repr,
        )
        cursor = fixture_connection.execute(sql, algorithm="bnl")
        assert cursor.plan.strategy == "bnl"
        assert sorted(cursor.fetchall(), key=repr) == oracle

    def test_forcing_in_memory_on_host_only_shape_raises(self, fixture_connection):
        # A scalar sub-query in the select list keeps the statement on
        # the host database; forcing an in-memory strategy must refuse.
        sql = (
            "SELECT ident, (SELECT MAX(age) FROM oldtimer) AS peak "
            "FROM oldtimer PREFERRING LOWEST(age)"
        )
        with pytest.raises(PlanError):
            fixture_connection.execute(sql, algorithm="bnl")
        assert fixture_connection.execute(sql).plan.strategy == "rewrite"

    @pytest.mark.parametrize(
        "retired", ["quantum", "sfs", "dnc", "auto", "parallel", "prejoin"]
    )
    def test_unknown_strategy_rejected(self, fixture_connection, retired):
        with pytest.raises(PlanError, match="unknown strategy") as error:
            fixture_connection.execute(
                "SELECT * FROM oldtimer PREFERRING LOWEST(age)",
                algorithm=retired,
            )
        assert str(error.value).endswith("choose from rewrite, bnl")

    def test_auto_picks_in_memory_at_scale(self, connection):
        from repro.workloads.distributions import (
            DISTRIBUTIONS,
            lowest_preference_sql,
            vectors_to_relation,
        )

        matrix = DISTRIBUTIONS["independent"](8000, 3, seed=3)
        relation_to_sqlite(connection, "points", vectors_to_relation(matrix))
        cursor = connection.execute(
            "SELECT * FROM points PREFERRING " + lowest_preference_sql(3)
        )
        assert cursor.plan.strategy in IN_MEMORY_STRATEGIES


# ----------------------------------------------------------------------
# Differential acceptance: auto vs fixed strategies on the workloads


class TestDifferentialWorkloads:
    def _assert_all_strategies_identical(self, connection, sql):
        auto = connection.execute(sql).fetchall()
        for strategy in STRATEGIES:
            pinned = connection.execute(sql, algorithm=strategy).fetchall()
            assert pinned == auto, f"{strategy} diverges on {sql[:60]}..."

    def test_jobs_workload(self):
        connection = repro.connect(":memory:")
        load_jobs(connection, n=2000)
        for condition_set in ("A", "B"):
            queries = benchmark_queries("300", condition_set)
            self._assert_all_strategies_identical(connection, queries.preferring)
        connection.close()

    def test_shop_workload(self):
        connection = repro.connect(":memory:")
        relation_to_sqlite(
            connection, "products", washing_machines_relation(rows=400)
        )
        mask = SearchMask(
            manufacturer="Miola",
            width=60,
            spinspeed=1400,
            max_powerconsumption=1.2,
            minimize_waterconsumption=True,
            price_low=800,
            price_high=2200,
        )
        self._assert_all_strategies_identical(
            connection, mask_to_preference_sql(mask)
        )
        connection.close()

    def test_cosima_workload(self):
        connection = repro.connect(":memory:")
        search = MetaSearch(shops=make_shops(3), catalog=make_catalog(200))
        offers, _latencies = search.gather(session=1)
        relation_to_sqlite(connection, "offers", offers)
        from repro.workloads.cosima import SESSION_PREFERENCES

        for preference in SESSION_PREFERENCES:
            self._assert_all_strategies_identical(
                connection, f"SELECT * FROM offers PREFERRING {preference}"
            )
        connection.close()

"""Workload generators: determinism and calibration."""

import numpy as np
import pytest

from repro.workloads import (
    CONDITION_SETS,
    POOLS,
    MetaSearch,
    SearchMask,
    anticorrelated,
    benchmark_queries,
    correlated,
    independent,
    jobs_relation,
    load_jobs,
    make_shops,
    mask_to_preference_sql,
    vectors_to_relation,
    washing_machines_relation,
)
from repro.workloads.cosima import make_catalog
from repro.workloads.fixtures import (
    FIXTURES,
    cars_relation,
    oldtimer_relation,
    relation_to_sqlite,
    used_cars_relation,
)
from repro.workloads.jobs import JOB_COLUMNS


class TestFixtures:
    def test_oldtimer_matches_paper(self):
        relation = oldtimer_relation()
        assert len(relation) == 6
        assert ("Selma", "red", 40) in relation.rows

    def test_cars_matches_paper(self):
        relation = cars_relation()
        assert len(relation) == 3
        assert relation.rows[1][1] == "BMW"

    def test_all_fixtures_load_into_sqlite(self, connection):
        from repro.workloads.fixtures import load_fixtures

        load_fixtures(connection)
        for name in FIXTURES:
            count = connection.execute(f"SELECT COUNT(*) FROM {name}").fetchone()
            assert count[0] > 0

    def test_used_cars_deterministic(self):
        assert used_cars_relation(50, seed=1).rows == used_cars_relation(50, seed=1).rows
        assert used_cars_relation(50, seed=1).rows != used_cars_relation(50, seed=2).rows

    def test_used_cars_has_opel_roadsters(self):
        relation = used_cars_relation()
        rows = [r for r in relation.rows if r[1] == "Opel" and r[2] == "roadster"]
        assert rows

    def test_load_fixtures_rejects_unknown_target(self):
        from repro.workloads.fixtures import load_fixtures

        with pytest.raises(TypeError):
            load_fixtures(object())


class TestJobs:
    def test_74_attributes(self):
        assert len(JOB_COLUMNS) == 74

    def test_pools_are_exact(self, connection):
        load_jobs(connection, n=6000, seed=5)
        for label, (region, profession, size) in POOLS.items():
            count = connection.execute(
                "SELECT COUNT(*) FROM jobs WHERE region = ? AND profession = ?",
                (region, profession),
            ).fetchone()[0]
            assert count == size, label

    def test_determinism(self):
        a = jobs_relation(n=4000, seed=9)
        b = jobs_relation(n=4000, seed=9)
        assert a.rows[:50] == b.rows[:50]

    def test_too_small_n_raises(self):
        with pytest.raises(ValueError):
            jobs_relation(n=100)

    def test_query_family_structure(self):
        queries = benchmark_queries("300", "A")
        assert queries.conjunctive.count(" AND ") == 5  # preselect(1) + 4 conds
        assert queries.disjunctive.count(" OR ") == 3
        assert "PREFERRING" in queries.preferring
        assert queries.preferring.count(" AND ") >= 4

    def test_query_family_shapes_on_data(self, connection):
        load_jobs(connection, n=6000, seed=5)
        pool_size = 600
        for condition_set in CONDITION_SETS:
            queries = benchmark_queries("600", condition_set)
            conjunctive = len(connection.execute(queries.conjunctive).fetchall())
            disjunctive = len(connection.execute(queries.disjunctive).fetchall())
            preferring = len(connection.execute(queries.preferring).fetchall())
            # The paper's motivating pathology: conjunctive starves the
            # user, disjunctive floods, Preference SQL returns a small
            # best-matches-only set.
            assert conjunctive <= pool_size * 0.05
            assert disjunctive >= pool_size * 0.3
            assert 1 <= preferring <= 50

    def test_preferring_returns_nondominated_subset(self, connection):
        load_jobs(connection, n=6000, seed=5)
        queries = benchmark_queries("300", "A")
        preferring = connection.execute(queries.preferring).fetchall()
        assert 1 <= len(preferring) <= 50


class TestDistributions:
    def test_shapes_and_ranges(self):
        for generator in (independent, correlated, anticorrelated):
            matrix = generator(500, 4, seed=1)
            assert matrix.shape == (500, 4)
            assert matrix.min() >= 0.0
            assert matrix.max() < 1.0

    def test_determinism(self):
        assert np.array_equal(independent(100, 3, seed=2), independent(100, 3, seed=2))

    def test_correlation_signs(self):
        corr = np.corrcoef(correlated(4000, 2, seed=3).T)[0, 1]
        anti = np.corrcoef(anticorrelated(4000, 2, seed=3).T)[0, 1]
        indep = np.corrcoef(independent(4000, 2, seed=3).T)[0, 1]
        assert corr > 0.5
        assert anti < -0.5
        assert abs(indep) < 0.1

    def test_vectors_to_relation(self):
        relation = vectors_to_relation(independent(10, 3, seed=0))
        assert relation.columns == ("row_id", "d0", "d1", "d2")
        assert len(relation) == 10

    def test_skyline_size_ordering(self):
        # At fixed n and d: correlated < independent < anticorrelated.
        from repro.engine.bmo import bmo_filter
        from repro.model.builder import build_preference
        from repro.sql.parser import parse_preferring

        preference = build_preference(parse_preferring("LOWEST(a) AND LOWEST(b) AND LOWEST(c)"))
        sizes = {}
        for name, generator in (
            ("correlated", correlated),
            ("independent", independent),
            ("anticorrelated", anticorrelated),
        ):
            matrix = generator(1500, 3, seed=4)
            vectors = [tuple(map(float, row)) for row in matrix]
            sizes[name] = len(bmo_filter(preference, vectors))
        assert sizes["correlated"] < sizes["independent"] < sizes["anticorrelated"]


class TestShop:
    def test_catalog_deterministic(self):
        assert washing_machines_relation(50, seed=1).rows == washing_machines_relation(50, seed=1).rows

    def test_mask_generates_paper_like_query(self):
        mask = SearchMask(
            manufacturer="Aturi",
            width=60,
            spinspeed=1200,
            max_powerconsumption=0.9,
            minimize_waterconsumption=True,
            price_low=1500,
            price_high=2000,
        )
        query = mask_to_preference_sql(mask)
        assert query.startswith("SELECT * FROM products WHERE manufacturer = 'Aturi'")
        assert "width AROUND 60 AND spinspeed AROUND 1200" in query
        assert "powerconsumption BETWEEN 0, 0.9" in query
        assert "LOWEST(waterconsumption)" in query
        assert "price BETWEEN 1500, 2000" in query
        assert "CASCADE" in query

    def test_mask_query_parses_and_runs(self, connection):
        relation_to_sqlite(connection, "products", washing_machines_relation())
        mask = SearchMask(width=60, price_low=1000, price_high=2000)
        rows = connection.execute(mask_to_preference_sql(mask)).fetchall()
        assert rows

    def test_vendor_preferences_appended(self):
        mask = SearchMask(width=60, vendor_preferences=["HIGHEST(price)"])
        query = mask_to_preference_sql(mask)
        assert query.endswith("CASCADE (HIGHEST(price))")

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            mask_to_preference_sql(SearchMask())

    def test_partial_price_range(self):
        low_only = mask_to_preference_sql(SearchMask(price_low=100))
        assert "price BETWEEN 100," in low_only


class TestCosima:
    def test_sessions_deterministic_sizes(self):
        search = MetaSearch(shops=make_shops(2, seed=1), catalog=make_catalog(40, seed=2))
        first = [r.pareto_size for r in search.run_sessions(5)]
        second = [r.pareto_size for r in search.run_sessions(5)]
        assert first == second

    def test_result_invariants(self):
        search = MetaSearch()
        result = search.run_session(7)
        assert 1 <= result.pareto_size <= result.candidate_count
        assert result.shop_seconds > 0
        assert result.preference_seconds >= 0
        assert result.total_seconds >= result.shop_seconds
        assert "PREFERRING" in result.preference_sql

    def test_shops_have_distinct_stock(self):
        catalog = make_catalog(60, seed=1)
        shops = make_shops(2, seed=1)
        rows_a, _lat = shops[0].fetch(catalog, session_seed=1)
        rows_b, _lat = shops[1].fetch(catalog, session_seed=1)
        assert {r[0] for r in rows_a} != {r[0] for r in rows_b}

    def test_latency_is_clipped(self):
        shop = make_shops(1, seed=2)[0]
        _rows, latency = shop.fetch(make_catalog(10, seed=1), session_seed=3)
        assert 0.2 <= latency <= 3.0

"""The in-memory engine: full query-block execution and BMO semantics."""

import pytest

from repro.engine import PreferenceEngine, Relation
from repro.engine.bmo import bmo_filter
from repro.errors import EvaluationError, PreferenceConstructionError
from repro.model.builder import build_preference
from repro.sql.parser import parse_preferring


@pytest.fixture
def engine(fixture_engine):
    return fixture_engine


class TestPlainSql:
    def test_select_star(self, engine):
        result = engine.execute("SELECT * FROM oldtimer")
        assert len(result) == 6
        assert result.columns == ("ident", "color", "age")

    def test_where_filter(self, engine):
        result = engine.execute("SELECT ident FROM oldtimer WHERE age > 40")
        assert {row[0] for row in result} == {"Smithers", "Skinner"}

    def test_projection_and_alias(self, engine):
        result = engine.execute("SELECT age * 2 AS doubled FROM oldtimer WHERE ident = 'Selma'")
        assert result.columns == ("doubled",)
        assert result.rows == [(80,)]

    def test_order_by_and_limit(self, engine):
        result = engine.execute("SELECT ident, age FROM oldtimer ORDER BY age DESC LIMIT 2")
        assert [row[0] for row in result] == ["Skinner", "Smithers"]

    def test_order_by_ascending_nulls_first(self):
        engine = PreferenceEngine(
            {"t": Relation(columns=("x",), rows=[(2,), (None,), (1,)])}
        )
        result = engine.execute("SELECT x FROM t ORDER BY x")
        assert result.rows == [(None,), (1,), (2,)]

    def test_limit_offset(self, engine):
        result = engine.execute("SELECT ident FROM oldtimer ORDER BY age LIMIT 2 OFFSET 1")
        assert len(result) == 2

    def test_distinct(self, engine):
        result = engine.execute("SELECT DISTINCT color FROM oldtimer")
        assert len(result) == 4

    def test_qualified_star(self, engine):
        result = engine.execute("SELECT o.* FROM oldtimer AS o WHERE o.age = 40")
        assert result.rows == [("Selma", "red", 40)]

    def test_cross_product_comma_join(self):
        engine = PreferenceEngine(
            {
                "a": Relation(columns=("x",), rows=[(1,), (2,)]),
                "b": Relation(columns=("y",), rows=[(10,), (20,)]),
            }
        )
        result = engine.execute("SELECT x, y FROM a, b")
        assert len(result) == 4

    def test_inner_join(self):
        engine = PreferenceEngine(
            {
                "a": Relation(columns=("id", "x"), rows=[(1, "p"), (2, "q")]),
                "b": Relation(columns=("id", "y"), rows=[(1, "P"), (3, "R")]),
            }
        )
        result = engine.execute("SELECT a.x, b.y FROM a JOIN b ON a.id = b.id")
        assert result.rows == [("p", "P")]

    def test_left_join_fills_nulls(self):
        engine = PreferenceEngine(
            {
                "a": Relation(columns=("id",), rows=[(1,), (2,)]),
                "b": Relation(columns=("bid", "y"), rows=[(1, "P")]),
            }
        )
        result = engine.execute("SELECT id, y FROM a LEFT JOIN b ON a.id = b.bid")
        assert sorted(result.rows) == [(1, "P"), (2, None)]

    def test_derived_table(self, engine):
        result = engine.execute(
            "SELECT s.ident FROM (SELECT * FROM oldtimer WHERE age > 40) AS s"
        )
        assert len(result) == 2

    def test_exists_subquery(self):
        engine = PreferenceEngine(
            {
                "a": Relation(columns=("id",), rows=[(1,), (2,)]),
                "b": Relation(columns=("id",), rows=[(2,)]),
            }
        )
        result = engine.execute(
            "SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE b.id = a.id)"
        )
        assert result.rows == [(2,)]

    def test_in_subquery(self):
        engine = PreferenceEngine(
            {
                "a": Relation(columns=("id",), rows=[(1,), (2,), (3,)]),
                "b": Relation(columns=("id",), rows=[(2,), (3,)]),
            }
        )
        result = engine.execute("SELECT id FROM a WHERE id IN (SELECT id FROM b)")
        assert len(result) == 2

    def test_aggregation_rejected(self, engine):
        with pytest.raises(EvaluationError):
            engine.execute("SELECT color, COUNT(*) FROM oldtimer GROUP BY color")

    def test_unknown_table_raises(self, engine):
        with pytest.raises(EvaluationError):
            engine.execute("SELECT * FROM missing")

    def test_insert_values(self):
        engine = PreferenceEngine({"t": Relation(columns=("a", "b"))})
        engine.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert len(engine.relation("t")) == 2

    def test_insert_select_preferring(self, engine):
        engine.register("best", Relation(columns=("ident", "color", "age")))
        engine.execute(
            "INSERT INTO best SELECT * FROM oldtimer PREFERRING HIGHEST(age)"
        )
        assert engine.relation("best").rows == [("Skinner", "yellow", 51)]


class TestPreferenceQueries:
    def test_around_best_matches_only(self, engine):
        result = engine.execute("SELECT * FROM trips PREFERRING duration AROUND 14")
        assert {row[0] for row in result} == {5, 7}  # the 14-day trips

    def test_highest(self, engine):
        result = engine.execute("SELECT * FROM apartments PREFERRING HIGHEST(area)")
        assert {row[0] for row in result} == {5}

    def test_pos_with_fallback(self):
        # No java/C++ programmer present: everyone else is a best match.
        engine = PreferenceEngine(
            {
                "programmers": Relation(
                    columns=("name", "exp"),
                    rows=[("A", "perl"), ("B", "cobol")],
                )
            }
        )
        result = engine.execute(
            "SELECT * FROM programmers PREFERRING exp IN ('java', 'C++')"
        )
        assert len(result) == 2

    def test_neg(self, engine):
        result = engine.execute(
            "SELECT name FROM hotels PREFERRING location <> 'downtown'"
        )
        assert {row[0] for row in result} == {"Gartenhof", "Airport Inn", "Parkhotel"}

    def test_pareto_computers(self, engine):
        result = engine.execute(
            "SELECT model FROM computers "
            "PREFERRING HIGHEST(main_memory) AND HIGHEST(cpu_speed)"
        )
        # GamerRig (1024 MB, 1000 MHz) dominates ThinkCentre (512, 1000)
        # and PowerBox (1024, 666); OfficeLine survives on cpu_speed 1200.
        assert {row[0] for row in result} == {"GamerRig", "OfficeLine"}

    def test_cascade_computers(self, engine):
        result = engine.execute(
            "SELECT model, color FROM computers "
            "PREFERRING HIGHEST(main_memory) CASCADE color IN ('black','brown')"
        )
        assert {row[0] for row in result} == {"PowerBox", "GamerRig"} - {"GamerRig"} or True
        rows = {row[0] for row in result}
        # 1024 MB machines: PowerBox (brown) and GamerRig (green): the
        # cascade keeps the brown one only.
        assert rows == {"PowerBox"}

    def test_where_applies_before_preferring(self, engine):
        result = engine.execute(
            "SELECT * FROM apartments WHERE city = 'Augsburg' "
            "PREFERRING HIGHEST(area)"
        )
        assert {row[0] for row in result} == {2, 3}

    def test_empty_candidates_give_empty_result(self, engine):
        result = engine.execute(
            "SELECT * FROM apartments WHERE city = 'Nowhere' "
            "PREFERRING HIGHEST(area)"
        )
        assert len(result) == 0

    def test_explicit_preference_query(self):
        engine = PreferenceEngine(
            {
                "shirts": Relation(
                    columns=("id", "color"),
                    rows=[(1, "red"), (2, "blue"), (3, "green"), (4, "purple")],
                )
            }
        )
        result = engine.execute(
            "SELECT id FROM shirts PREFERRING "
            "EXPLICIT(color, 'red' > 'blue', 'blue' > 'green')"
        )
        # red beats blue beats green; purple is incomparable -> stays.
        assert {row[0] for row in result} == {1, 4}

    def test_contains_preference(self):
        engine = PreferenceEngine(
            {
                "rooms": Relation(
                    columns=("id", "description"),
                    rows=[
                        (1, "quiet room with balcony"),
                        (2, "room with balcony"),
                        (3, "noisy room"),
                    ],
                )
            }
        )
        result = engine.execute(
            "SELECT id FROM rooms PREFERRING description CONTAINS 'quiet balcony'"
        )
        assert result.rows == [(1,)]

    def test_score_preference(self):
        engine = PreferenceEngine(
            {
                "cars": Relation(
                    columns=("id", "power", "price"),
                    rows=[(1, 100.0, 10000), (2, 200.0, 10000), (3, 100.0, 20000)],
                )
            }
        )
        result = engine.execute(
            "SELECT id FROM cars PREFERRING SCORE(power / price)"
        )
        assert result.rows == [(2,)]

    def test_order_by_on_preference_result(self, engine):
        result = engine.execute(
            "SELECT model, price FROM computers "
            "PREFERRING HIGHEST(main_memory) AND HIGHEST(cpu_speed) "
            "ORDER BY price"
        )
        assert [row[0] for row in result] == ["OfficeLine", "GamerRig"]


class TestGrouping:
    def test_grouping_partitions_bmo(self, engine):
        # Best (largest) apartment per city.
        result = engine.execute(
            "SELECT city, apartment_id, area FROM apartments "
            "PREFERRING HIGHEST(area) GROUPING city"
        )
        assert {(row[0], row[1]) for row in result} == {("Augsburg", 2), ("Augsburg", 3), ("Munich", 5)}

    def test_grouping_with_null_keys(self):
        engine = PreferenceEngine(
            {
                "t": Relation(
                    columns=("g", "x"),
                    rows=[("a", 1), ("a", 2), (None, 5), (None, 3)],
                )
            }
        )
        result = engine.execute(
            "SELECT g, x FROM t PREFERRING LOWEST(x) GROUPING g"
        )
        assert set(result.rows) == {("a", 1), (None, 3)}

    def test_multi_column_grouping(self):
        engine = PreferenceEngine(
            {
                "t": Relation(
                    columns=("g", "h", "x"),
                    rows=[("a", 1, 1), ("a", 1, 2), ("a", 2, 9), ("b", 1, 5)],
                )
            }
        )
        result = engine.execute(
            "SELECT g, h, x FROM t PREFERRING LOWEST(x) GROUPING g, h"
        )
        assert set(result.rows) == {("a", 1, 1), ("a", 2, 9), ("b", 1, 5)}


class TestButOnly:
    def test_threshold_filters_candidates(self, engine):
        result = engine.execute(
            "SELECT trip_id FROM trips "
            "PREFERRING start_day AROUND 184 AND duration AROUND 14 "
            "BUT ONLY DISTANCE(start_day) <= 2 AND DISTANCE(duration) <= 2"
        )
        # Trips 2 and 7 pass the threshold; trip 7 (distances 0, 0) is a
        # perfect match and dominates trip 2 (1, 1): BMO keeps only 7.
        assert {row[0] for row in result} == {7}

    def test_threshold_keeps_incomparable_survivors(self, engine):
        result = engine.execute(
            "SELECT trip_id FROM trips WHERE trip_id <> 7 "
            "PREFERRING start_day AROUND 184 AND duration AROUND 14 "
            "BUT ONLY DISTANCE(start_day) <= 3 AND DISTANCE(duration) <= 4"
        )
        # Without the perfect trip 7: trips 2 (1,1), 3 (0,4), 4 (2,1)
        # pass; 2 dominates 4, 3 is incomparable with 2.
        assert {row[0] for row in result} == {2, 3}

    def test_empty_result_is_possible(self, engine):
        # "Clearly, an empty result may be possible now, but this
        # correlates with the user's explicit intension!" (section 2.2.4)
        result = engine.execute(
            "SELECT trip_id FROM trips "
            "PREFERRING duration AROUND 100 BUT ONLY DISTANCE(duration) <= 1"
        )
        assert len(result) == 0

    def test_threshold_applies_to_dominators_too(self):
        # A tuple outside the threshold must not shadow in-threshold ones.
        engine = PreferenceEngine(
            {
                "t": Relation(
                    columns=("id", "x", "flag"),
                    rows=[(1, 10, "keep"), (2, 11, "keep"), (3, 10, "drop")],
                )
            }
        )
        result = engine.execute(
            "SELECT id FROM t PREFERRING LOWEST(x) AND flag = 'keep' "
            "BUT ONLY flag = 'keep'"
        )
        assert {row[0] for row in result} == {1}

    def test_level_in_but_only(self, engine):
        result = engine.execute(
            "SELECT ident FROM oldtimer "
            "PREFERRING color = 'white' ELSE color = 'yellow' "
            "BUT ONLY LEVEL(color) <= 2"
        )
        assert {row[0] for row in result} == {"Maggie"}


class TestQualityInSelectList:
    def test_paper_oldtimer_result(self, engine):
        result = engine.execute(
            "SELECT ident, color, age, LEVEL(color), DISTANCE(age) FROM oldtimer "
            "PREFERRING color = 'white' ELSE color = 'yellow' AND age AROUND 40"
        )
        assert set(result.rows) == {
            ("Selma", "red", 40, 3, 0.0),
            ("Homer", "yellow", 35, 2, 5.0),
            ("Maggie", "white", 19, 1, 21.0),
        }

    def test_top_function(self, engine):
        result = engine.execute(
            "SELECT ident, TOP(age) FROM oldtimer PREFERRING age AROUND 40"
        )
        assert result.rows == [("Selma", 1)]

    def test_dynamic_distance_for_highest(self, engine):
        result = engine.execute(
            "SELECT apartment_id, DISTANCE(area) FROM apartments "
            "WHERE city = 'Augsburg' PREFERRING HIGHEST(area)"
        )
        assert set(result.rows) == {(2, 0.0), (3, 0.0)}

    def test_quality_functions_keep_losers_out(self, engine):
        # Quality functions never bring dominated tuples back.
        result = engine.execute(
            "SELECT ident, LEVEL(color) FROM oldtimer "
            "PREFERRING color = 'green'"
        )
        assert result.rows == [("Bart", 1)]


class TestEngineCatalog:
    def test_create_use_drop(self, engine):
        engine.execute("CREATE PREFERENCE veteran ON oldtimer AS HIGHEST(age)")
        result = engine.execute(
            "SELECT ident FROM oldtimer PREFERRING PREFERENCE veteran"
        )
        assert result.rows == [("Skinner",)]
        engine.execute("DROP PREFERENCE veteran")
        with pytest.raises(PreferenceConstructionError):
            engine.execute("SELECT * FROM oldtimer PREFERRING PREFERENCE veteran")

    def test_drop_unknown_raises(self, engine):
        with pytest.raises(PreferenceConstructionError):
            engine.execute("DROP PREFERENCE nope")


class TestBmoFilter:
    def test_direct_use(self):
        preference = build_preference(parse_preferring("LOWEST(a) AND LOWEST(b)"))
        vectors = [(1, 3), (3, 1), (2, 2), (4, 4)]
        assert bmo_filter(preference, vectors) == [0, 1, 2]

    def test_with_threshold(self):
        preference = build_preference(parse_preferring("LOWEST(a) AND LOWEST(b)"))
        vectors = [(1, 3), (3, 1), (2, 2), (4, 4)]
        # Exclude index 0 by threshold; (2,2) is not dominated by (3,1).
        winners = bmo_filter(
            preference, vectors, threshold=lambda i: i != 0
        )
        assert winners == [1, 2]

    def test_with_groups(self):
        preference = build_preference(parse_preferring("LOWEST(a)"))
        vectors = [(1,), (2,), (5,), (4,)]
        winners = bmo_filter(
            preference, vectors, group_keys=["g1", "g1", "g2", "g2"]
        )
        assert winners == [0, 3]

    def test_diagnostics(self, engine):
        select = __import__("repro").parse_statement(
            "SELECT * FROM apartments PREFERRING HIGHEST(area) GROUPING city"
        )
        winners = engine.winnow(select)
        assert winners.candidate_count == 6
        assert winners.group_count == 2
        assert len(winners.surface(select)) == 3

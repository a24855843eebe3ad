"""Edge cases and error paths across module boundaries."""

import pytest

import repro
from repro.engine import PreferenceEngine, Relation
from repro.errors import RewriteError
from repro.rewrite.planner import rewrite_select
from repro.sql.parser import parse_statement


class TestRewriterEdges:
    def test_exists_in_preference_where_is_rejected(self):
        # Correlated sub-queries in the WHERE of a preference query would
        # need re-aliasing inside the anti-join; release 1.3 rejects them.
        statement = parse_statement(
            "SELECT * FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id) "
            "PREFERRING LOWEST(x)"
        )
        with pytest.raises(RewriteError):
            rewrite_select(statement)

    def test_algebra_simplification_noted(self):
        statement = parse_statement(
            "SELECT * FROM t PREFERRING LOWEST(x) AND LOWEST(x)"
        )
        result = rewrite_select(statement)
        assert any("simplified" in note for note in result.notes)
        # The simplified query has a single rank comparison pair.
        sql = repro.to_sql(result.statement)
        assert sql.count("NOT EXISTS") == 1

    def test_rewrite_result_notes_dynamic_optimum(self):
        statement = parse_statement(
            "SELECT DISTANCE(x) FROM t PREFERRING LOWEST(x)"
        )
        result = rewrite_select(statement)
        assert any("candidate-set optimum" in note for note in result.notes)

    def test_qualified_columns_in_single_table_query(self, fixture_connection):
        rows = fixture_connection.execute(
            "SELECT o.ident FROM oldtimer AS o PREFERRING HIGHEST(o.age)"
        ).fetchall()
        assert rows == [("Skinner",)]

    def test_case_expression_inside_preference_operand(self, fixture_connection):
        rows = fixture_connection.execute(
            "SELECT ident FROM oldtimer PREFERRING "
            "LOWEST(CASE WHEN color = 'red' THEN 0 ELSE 1 END)"
        ).fetchall()
        assert {r[0] for r in rows} == {"Selma", "Smithers"}


class TestEngineAlgorithmKnob:
    @pytest.mark.parametrize("algorithm", ["nested_loop", "bnl"])
    def test_engine_uses_configured_algorithm(self, algorithm):
        relation = Relation(
            columns=("id", "x", "y"),
            rows=[(1, 1, 3), (2, 3, 1), (3, 2, 2), (4, 4, 4)],
        )
        engine = PreferenceEngine({"t": relation}, algorithm=algorithm)
        result = engine.execute(
            "SELECT id FROM t PREFERRING LOWEST(x) AND LOWEST(y)"
        )
        assert {row[0] for row in result} == {1, 2, 3}

    def test_unknown_algorithm_surfaces(self):
        from repro.errors import EvaluationError

        engine = PreferenceEngine(
            {"t": Relation(columns=("x",), rows=[(1,)])}, algorithm="bogus"
        )
        with pytest.raises(EvaluationError):
            engine.execute("SELECT x FROM t PREFERRING LOWEST(x)")


class TestDuplicateRowsSemantics:
    def test_equal_tuples_all_survive_both_paths(self):
        # Strict order: duplicates never dominate each other, so all
        # copies of a winning tuple are returned (paper's multiset model).
        relation = Relation(
            columns=("id", "x"),
            rows=[(1, 5), (2, 5), (3, 9)],
        )
        engine = PreferenceEngine({"t": relation})
        engine_ids = {
            row[0]
            for row in engine.execute("SELECT id FROM t PREFERRING LOWEST(x)")
        }
        con = repro.connect(":memory:")
        from repro.workloads.fixtures import relation_to_sqlite

        relation_to_sqlite(con, "t", relation)
        sqlite_ids = {
            row[0]
            for row in con.execute("SELECT id FROM t PREFERRING LOWEST(x)")
        }
        con.close()
        assert engine_ids == sqlite_ids == {1, 2}


class TestEmptyAndDegenerate:
    def test_preference_on_empty_table(self, connection):
        connection.execute("CREATE TABLE empty_t (x INTEGER)")
        rows = connection.execute(
            "SELECT x FROM empty_t PREFERRING LOWEST(x)"
        ).fetchall()
        assert rows == []

    def test_single_row_always_wins(self, connection):
        connection.execute("CREATE TABLE one_t (x INTEGER)")
        connection.execute("INSERT INTO one_t VALUES (7)")
        rows = connection.execute(
            "SELECT x FROM one_t PREFERRING x AROUND 1000"
        ).fetchall()
        assert rows == [(7,)]

    def test_grouping_with_every_row_its_own_group(self, fixture_engine):
        result = fixture_engine.execute(
            "SELECT ident FROM oldtimer PREFERRING LOWEST(age) GROUPING ident"
        )
        assert len(result) == 6  # each group's only member is maximal

    def test_where_eliminates_everything(self, fixture_engine):
        result = fixture_engine.execute(
            "SELECT * FROM oldtimer WHERE age > 1000 PREFERRING LOWEST(age)"
        )
        assert len(result) == 0


class TestFloatIntegerAgreement:
    def test_mixed_numeric_types_agree(self):
        relation = Relation(
            columns=("id", "x"),
            rows=[(1, 5), (2, 5.0), (3, 4.5)],
        )
        engine = PreferenceEngine({"t": relation})
        engine_rows = engine.execute("SELECT id FROM t PREFERRING LOWEST(x)").rows
        con = repro.connect(":memory:")
        con.execute("CREATE TABLE t (id INTEGER, x REAL)")
        con.cursor().executemany("INSERT INTO t VALUES (?, ?)", relation.rows)
        sqlite_rows = con.execute("SELECT id FROM t PREFERRING LOWEST(x)").fetchall()
        con.close()
        assert engine_rows == sqlite_rows == [(3,)]

"""The columnar rank-vector core against the nested-loop oracle.

Property suite for the columnar invariant: every execution path over
shared rank columns — the winnow (tuple and vectorized kernels) and the
SQL rank pushdown through the driver —
returns *index-identical* winners to the paper's quadratic nested-loop
selection method, on random Pareto/CASCADE/ELSE trees over values that
include SQL NULL and (via custom rank implementations) NaN ranks,
under GROUPING and BUT ONLY.  The fixed shape × scheduler matrix lives in
``tests/test_algorithms.py``; this file explores random trees.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro
from repro.engine import algorithms as algorithms_module
from repro.engine.algorithms import columnar_skyline, nested_loop_maximal
from repro.engine.bmo import bmo_filter
from repro.engine.columns import (
    compute_rank_columns,
    rank_columns_from_values,
    rank_shape,
)
from repro.model.builder import build_preference
from repro.model.composite import ParetoPreference, PrioritizationPreference
from repro.model.preference import WeakOrderBase
from repro.plan import STRATEGIES
from repro.sql import ast
from repro.sql.parser import parse_preferring

# ----------------------------------------------------------------------
# Tree and data generators (NULL-bearing numeric + categorical columns)

COLUMNS = ("a", "b", "c", "g", "t")

rows_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(-5, 12)),  # a (NULL-bearing)
        st.one_of(st.none(), st.integers(0, 9)),  # b (NULL-bearing)
        st.sampled_from(["x", "y", "z", None]),  # c (categorical)
        st.sampled_from(["p", "q", None]),  # g (GROUPING key)
        st.integers(0, 6),  # t (BUT ONLY anchor)
    ),
    min_size=0,
    max_size=24,
)

_CATEGORICAL = st.sampled_from(
    ["c = 'x'", "c <> 'y'", "c IN ('x', 'y')", "c NOT IN ('z')"]
)

_ELSE_CHAINS = st.recursive(
    _CATEGORICAL,
    lambda children: st.builds(
        lambda left, right: f"({left}) ELSE ({right})", children, children
    ),
    max_leaves=3,
)

_BASES = st.one_of(
    st.sampled_from(
        [
            "LOWEST(a)",
            "HIGHEST(b)",
            "a AROUND 3",
            "b BETWEEN 2, 7",
            "SCORE(a)",
            "c CONTAINS 'x'",
        ]
    ),
    _CATEGORICAL,
    _ELSE_CHAINS,
)

trees_strategy = st.recursive(
    _BASES,
    lambda children: st.builds(
        lambda left, right, op: f"({left}) {op} ({right})",
        children,
        children,
        st.sampled_from(["AND", "CASCADE"]),
    ),
    max_leaves=4,
)


def _operand_vectors(preference, rows):
    positions = {name: i for i, name in enumerate(COLUMNS)}
    slots = [positions[op.name.lower()] for op in preference.operands]
    return [tuple(row[i] for i in slots) for row in rows]


def _grouped_oracle(preference, vectors, keys):
    groups = {}
    for i in range(len(vectors)):
        groups.setdefault(keys[i] if keys else None, []).append(i)
    return sorted(
        members[p]
        for members in groups.values()
        for p in nested_loop_maximal(
            preference, [vectors[i] for i in members]
        )
    )


# ----------------------------------------------------------------------
# Kernel-level properties


@given(rows=rows_strategy, tree=trees_strategy)
@settings(max_examples=80, deadline=None)
def test_columnar_kernels_match_nested_loop_oracle(rows, tree):
    preference = build_preference(parse_preferring(tree))
    vectors = _operand_vectors(preference, rows)
    oracle = sorted(nested_loop_maximal(preference, vectors))
    assert bmo_filter(preference, vectors) == oracle, tree


@given(rows=rows_strategy, tree=trees_strategy)
@settings(max_examples=60, deadline=None)
def test_grouped_columnar_matches_oracle(rows, tree):
    preference = build_preference(parse_preferring(tree))
    vectors = _operand_vectors(preference, rows)
    keys = [row[3] for row in rows]
    oracle = _grouped_oracle(preference, vectors, keys)
    assert bmo_filter(preference, vectors, group_keys=keys) == oracle, tree


def _forced_vectorized(ranks):
    """The winners with the numpy floor lowered to zero rows."""
    original = algorithms_module._NUMPY_MIN_ROWS
    try:
        algorithms_module._NUMPY_MIN_ROWS = 0
        return sorted(columnar_skyline(ranks, range(len(ranks))))
    finally:
        algorithms_module._NUMPY_MIN_ROWS = original


@given(rows=rows_strategy, tree=trees_strategy)
@settings(max_examples=40, deadline=None)
def test_vectorized_kernel_matches_python_kernel(rows, tree):
    """Force both kernel implementations across the numpy threshold."""
    preference = build_preference(parse_preferring(tree))
    vectors = _operand_vectors(preference, rows)
    ranks = compute_rank_columns(preference, vectors)
    if ranks is None or ranks.mode is None:
        return  # closure trees are covered by the oracle tests above
    python_winners = sorted(columnar_skyline(ranks, range(len(ranks))))
    assert _forced_vectorized(ranks) == python_winners, tree


@given(rows=rows_strategy, tree=trees_strategy)
@settings(max_examples=40, deadline=None)
def test_adopted_rank_values_match_computed(rows, tree):
    """rank_columns_from_values over Python-computed cells is identical."""
    preference = build_preference(parse_preferring(tree))
    vectors = _operand_vectors(preference, rows)
    computed = compute_rank_columns(preference, vectors)
    if computed is None:
        return
    adopted = rank_columns_from_values(
        preference, [list(column) for column in computed.columns]
    )
    assert adopted is not None
    assert adopted.rows == computed.rows
    assert bmo_filter(preference, None, ranks=adopted) == sorted(
        nested_loop_maximal(preference, vectors)
    ), tree


def test_non_numeric_rank_cells_are_rejected():
    preference = build_preference(parse_preferring("LOWEST(a) AND LOWEST(b)"))
    assert (
        rank_columns_from_values(preference, [[1.0, "text"], [2.0, 3.0]])
        is None
    )
    assert (
        rank_columns_from_values(preference, [[1.0, None], [2.0, 3.0]]) is None
    )
    assert rank_columns_from_values(preference, [[1.0]]) is None  # width


# ----------------------------------------------------------------------
# NaN ranks (only custom rank implementations can produce them)


class NanLowest(WeakOrderBase):
    kind = "NAN-LOWEST"

    def rank(self, value):
        if value is None:
            return float("nan")
        return float(value)


nan_vectors_strategy = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 6)),
        st.one_of(st.none(), st.integers(0, 6)),
    ),
    min_size=0,
    max_size=18,
)


@given(vectors=nan_vectors_strategy, data=st.data())
@settings(max_examples=60, deadline=None)
def test_nan_ranks_match_oracle_on_flat_trees(vectors, data):
    composite = data.draw(
        st.sampled_from([ParetoPreference, PrioritizationPreference])
    )
    preference = composite(
        [NanLowest(ast.Column(name=name)) for name in ("a", "b")]
    )
    oracle = sorted(nested_loop_maximal(preference, vectors))
    assert bmo_filter(preference, vectors) == oracle, composite.kind
    ranks = compute_rank_columns(preference, vectors)
    if vectors:
        assert ranks.has_nan == any(
            value != value for row in ranks.rows for value in row
        )
        # The vectorized path must agree even when forced on.
        assert _forced_vectorized(ranks) == oracle


def test_blob_and_decimal_operands_take_the_scalar_path():
    # np.asarray would happily parse b'2.5' (or a Decimal) as a number,
    # but coerce_number ranks non-(int/float/bool/str) values as
    # NULL_RANK — the vectorized rank path must refuse such columns so
    # winner sets match Preference.is_better exactly.
    from decimal import Decimal

    preference = build_preference(parse_preferring("LOWEST(a)"))
    for vectors in (
        [(3.0,), (b"2.5",)],
        [(3.0,), (Decimal("2.5"),)],
    ):
        oracle = sorted(nested_loop_maximal(preference, vectors))
        assert bmo_filter(preference, vectors) == oracle, vectors
        ranks = compute_rank_columns(preference, vectors)
        assert ranks.rows[1][0] == pytest.approx(1.0e15), vectors


def test_mismatched_adopted_columns_are_refused():
    # Rank columns built for preference P must not answer a SELECT whose
    # PREFERRING clause is Q — the engine refuses and recomputes.
    p = build_preference(parse_preferring("LOWEST(a) AND LOWEST(b)"))
    rows = [(1, 9), (2, 8), (3, 7)]
    ranks = compute_rank_columns(p, rows)
    engine = repro.PreferenceEngine(
        {"items": repro.Relation(columns=("a", "b"), rows=rows)},
        rank_columns=ranks,
    )
    q = "SELECT * FROM items PREFERRING HIGHEST(a) AND LOWEST(b)"
    assert sorted(engine.execute(q).rows) == [(3, 7)]  # Q's winner, not P's


def test_nan_operands_rank_as_null_rank_not_nan():
    # A NaN *operand* is unparseable-as-number and ranks to NULL_RANK on
    # built-in types — the vectorized rank path must not leak raw NaN.
    preference = build_preference(parse_preferring("LOWEST(a) AND LOWEST(b)"))
    vectors = [(float("nan"), 1), (2.0, 0), (3.0, 2)]
    ranks = compute_rank_columns(preference, vectors)
    assert not ranks.has_nan
    assert ranks.rows[0][0] == pytest.approx(1.0e15)
    assert bmo_filter(preference, vectors) == sorted(
        nested_loop_maximal(preference, vectors)
    )


# ----------------------------------------------------------------------
# Associativity flattening

def test_same_constructor_nesting_flattens():
    preference = build_preference(
        parse_preferring("(LOWEST(a) AND LOWEST(b)) AND HIGHEST(c)")
    )
    shape = rank_shape(preference)
    assert shape.mode == "pareto" and len(shape.leaves) == 3


def test_single_base_is_a_one_column_cascade():
    ranks = compute_rank_columns(
        build_preference(parse_preferring("LOWEST(a)")), [(5,), (1,)]
    )
    assert ranks.mode == "cascade"
    assert ranks.rows[1] < ranks.rows[0]


def test_explicit_trees_have_no_rank_shape():
    preference = build_preference(parse_preferring("EXPLICIT(c, 'x' > 'y')"))
    assert rank_shape(preference) is None
    assert compute_rank_columns(preference, [("x",), ("y",)]) is None


def test_mixed_nesting_keeps_structure():
    preference = build_preference(
        parse_preferring("(LOWEST(a) AND LOWEST(b)) CASCADE HIGHEST(c)")
    )
    shape = rank_shape(preference)
    assert shape.mode is None and len(shape.leaves) == 3


@given(rows=rows_strategy)
@settings(max_examples=40, deadline=None)
def test_flattened_nesting_preserves_dominance(rows):
    nested = build_preference(
        parse_preferring("(LOWEST(a) AND HIGHEST(b)) AND a AROUND 3")
    )
    vectors = _operand_vectors(nested, rows)
    assert sorted(nested_loop_maximal(nested, vectors)) == bmo_filter(
        nested, vectors
    )


# ----------------------------------------------------------------------
# SQL rank pushdown through the driver


def _driver(rows):
    connection = repro.connect(":memory:")
    connection.execute(
        "CREATE TABLE items (a INTEGER, b INTEGER, c TEXT, g TEXT, t INTEGER)"
    )
    if rows:
        connection.cursor().executemany(
            "INSERT INTO items VALUES (?, ?, ?, ?, ?)", rows
        )
    return connection


@given(rows=rows_strategy, tree=trees_strategy, data=st.data())
@settings(max_examples=50, deadline=None)
def test_sql_pushdown_matches_oracle(rows, tree, data):
    grouping = data.draw(st.sampled_from(["", " GROUPING g", " GROUPING g, c"]))
    query = f"SELECT * FROM items PREFERRING {tree}{grouping}"
    connection = _driver(rows)
    try:
        engine_rel = repro.PreferenceEngine(
            {
                "items": repro.Relation(
                    columns=COLUMNS,
                    rows=connection.raw.execute(
                        "SELECT * FROM items"
                    ).fetchall(),
                )
            },
            algorithm="nested_loop",
        )
        oracle = sorted(engine_rel.execute(query).rows, key=repr)
        for strategy in STRATEGIES:
            got = sorted(
                connection.execute(query, algorithm=strategy).fetchall(),
                key=repr,
            )
            assert got == oracle, (tree, strategy)
    finally:
        connection.close()


@given(rows=rows_strategy, tree=trees_strategy, data=st.data())
@settings(max_examples=30, deadline=None)
def test_sql_pushdown_with_but_only_matches_oracle(rows, tree, data):
    threshold = data.draw(
        st.sampled_from(["DISTANCE(t) <= 2", "TOP(t) = 1"])
    )
    grouping = data.draw(st.sampled_from(["", " GROUPING g"]))
    query = (
        f"SELECT * FROM items PREFERRING t AROUND 3 AND ({tree})"
        f"{grouping} BUT ONLY {threshold}"
    )
    connection = _driver(rows)
    try:
        engine_rel = repro.PreferenceEngine(
            {
                "items": repro.Relation(
                    columns=COLUMNS,
                    rows=connection.raw.execute(
                        "SELECT * FROM items"
                    ).fetchall(),
                )
            },
            algorithm="nested_loop",
        )
        oracle = sorted(engine_rel.execute(query).rows, key=repr)
        for strategy in STRATEGIES:
            got = sorted(
                connection.execute(query, algorithm=strategy).fetchall(),
                key=repr,
            )
            assert got == oracle, (tree, strategy)
    finally:
        connection.close()


def test_pushdown_plan_is_reported_and_used():
    connection = _driver([(1, 2, "x", "p", 0), (3, 1, "y", "q", 1)] * 30)
    try:
        query = "SELECT * FROM items PREFERRING LOWEST(a) AND HIGHEST(b)"
        plan = connection.plan(query, force="bnl")
        assert plan.rank_source == "sql"
        assert plan.rank_width == 2
        assert plan.columnar == "pareto rank tuples"
        assert "__pref_rank_0" in plan.pushdown_sql
        report = dict(
            connection.execute(
                f"EXPLAIN PREFERENCE {query}", algorithm="bnl"
            ).fetchall()
        )
        assert "rank source" in report and "columnar" in report
        assert report["rank source"].startswith("sql")
        assert report["columnar"] == "pareto rank tuples"
        # GROUPING partitions index the same pushed rank columns.
        grouped = connection.plan(query + " GROUPING g", force="bnl")
        assert grouped.rank_source == "sql"
        assert grouped.rank_width == 2
    finally:
        connection.close()


def test_explicit_tree_reports_closure_fallback():
    connection = _driver([(1, 2, "x", "p", 0)] * 4)
    try:
        query = (
            "SELECT * FROM items "
            "PREFERRING EXPLICIT(c, 'x' > 'y') AND LOWEST(a)"
        )
        plan = connection.plan(query)
        assert plan.rank_source == "closure"
        assert plan.rank_width == 0
        rewrite_rows = connection.execute(query, algorithm="rewrite").fetchall()
        assert connection.execute(query, algorithm="bnl").fetchall() == rewrite_rows
    finally:
        connection.close()


def test_parameterized_pushdown_rebinds_rank_expressions():
    connection = _driver(
        [(i % 7, (i * 3) % 5, "x", "p", i % 4) for i in range(60)]
    )
    try:
        query = "SELECT * FROM items PREFERRING a AROUND ? AND HIGHEST(b)"
        for target in (0, 3, 6):
            pushed = sorted(
                connection.execute(query, (target,), algorithm="bnl").fetchall(),
                key=repr,
            )
            oracle = sorted(
                connection.execute(
                    query, (target,), algorithm="rewrite"
                ).fetchall(),
                key=repr,
            )
            assert pushed == oracle, target
    finally:
        connection.close()


# ----------------------------------------------------------------------
# RankColumns plumbing


def test_matrix_round_trips_columns():
    numpy = pytest.importorskip("numpy")
    preference = build_preference(parse_preferring("LOWEST(a) AND HIGHEST(b)"))
    ranks = compute_rank_columns(preference, [(1, 2), (3, None)])
    matrix = ranks.matrix()
    assert matrix.shape == (2, 2)
    assert matrix[0][0] == 1.0 and matrix[1][1] == pytest.approx(1.0e15)
    assert not math.isnan(matrix[1][1])
    assert numpy.shares_memory(matrix, matrix)  # smoke: it is an ndarray


# ----------------------------------------------------------------------
# The bnl scan's pivot filter


@pytest.mark.parametrize(
    "distribution, share", [("correlated", 0.15), ("independent", 0.40)]
)
def test_the_pivot_keeps_most_candidates_on_the_host(distribution, share):
    """One pivot row is enough to keep most dominated candidates out of
    Python: a pivot that silently stops working fails here."""
    pytest.importorskip("numpy")
    from repro.workloads.distributions import DISTRIBUTIONS

    points = DISTRIBUTIONS[distribution](4000, 4, seed=7)
    connection = repro.connect(":memory:")
    try:
        connection.execute("CREATE TABLE p (d0 REAL, d1 REAL, d2 REAL, d3 REAL)")
        connection.cursor().executemany(
            "INSERT INTO p VALUES (?, ?, ?, ?)", points.tolist()
        )
        cursor = connection.execute(
            "SELECT * FROM p PREFERRING LOWEST(d0) AND LOWEST(d1) "
            "AND LOWEST(d2) AND LOWEST(d3)",
            algorithm="bnl",
        )
        winners = cursor.fetchall()
        shipped = connection.raw.execute(cursor.plan.pushdown_sql).fetchall()
        assert len(winners) <= len(shipped) <= share * len(points)
    finally:
        connection.close()

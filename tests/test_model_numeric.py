"""Numeric base preference semantics."""

import math
import sqlite3

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.errors import PreferenceConstructionError
from repro.model.numeric import (
    AroundPreference,
    BetweenPreference,
    HighestPreference,
    LowestPreference,
    ScorePreference,
)
from repro.model.preference import NULL_RANK, coerce_number
from repro.sql import ast

COL = ast.Column(name="x")


class TestAround:
    def test_rank_is_absolute_distance(self):
        pref = AroundPreference(COL, 14)
        assert pref.rank(14) == 0
        assert pref.rank(10) == 4
        assert pref.rank(18) == 4

    def test_perfect_match_has_best_rank(self):
        pref = AroundPreference(COL, 40)
        assert pref.best_rank() == 0.0
        assert pref.rank(40) == pref.best_rank()

    def test_is_better_and_equal(self):
        pref = AroundPreference(COL, 40)
        assert pref.is_better((35,), (19,))
        assert not pref.is_better((19,), (35,))
        assert pref.is_equal((35,), (45,))  # both distance 5

    def test_null_is_worst(self):
        pref = AroundPreference(COL, 40)
        assert pref.rank(None) == NULL_RANK
        assert pref.is_better((41,), (None,))

    def test_non_numeric_target_rejected(self):
        with pytest.raises(PreferenceConstructionError):
            AroundPreference(COL, "red")

    def test_numeric_string_values_coerce(self):
        pref = AroundPreference(COL, 40)
        assert pref.rank("42") == 2

    def test_non_numeric_value_is_worst(self):
        pref = AroundPreference(COL, 40)
        assert pref.rank("not a number") == NULL_RANK


class TestBetween:
    def test_inside_interval_is_perfect(self):
        pref = BetweenPreference(COL, 1500, 2000)
        assert pref.rank(1500) == 0
        assert pref.rank(1750) == 0
        assert pref.rank(2000) == 0

    def test_outside_distance_to_nearer_limit(self):
        pref = BetweenPreference(COL, 1500, 2000)
        assert pref.rank(1400) == 100
        assert pref.rank(2300) == 300

    def test_limits_out_of_order_rejected(self):
        with pytest.raises(PreferenceConstructionError):
            BetweenPreference(COL, 2000, 1500)

    def test_degenerate_interval_behaves_like_around(self):
        between = BetweenPreference(COL, 40, 40)
        around = AroundPreference(COL, 40)
        for value in (10, 39, 40, 41, 90):
            assert between.rank(value) == around.rank(value)

    def test_null_is_worst(self):
        pref = BetweenPreference(COL, 0, 1)
        assert pref.rank(None) == NULL_RANK

    def test_non_numeric_limit_rejected(self):
        with pytest.raises(PreferenceConstructionError):
            BetweenPreference(COL, "a", 10)


class TestLowestHighestScore:
    def test_lowest_prefers_smaller(self):
        pref = LowestPreference(COL)
        assert pref.is_better((3,), (5,))
        assert not pref.is_better((5,), (3,))

    def test_highest_prefers_larger(self):
        pref = HighestPreference(COL)
        assert pref.is_better((512,), (256,))

    def test_score_is_higher_better(self):
        pref = ScorePreference(COL)
        assert pref.is_better((0.9,), (0.1,))

    def test_dynamic_best_rank(self):
        assert LowestPreference(COL).best_rank() is None
        assert HighestPreference(COL).best_rank() is None
        assert ScorePreference(COL).best_rank() is None

    def test_negative_values(self):
        pref = HighestPreference(COL)
        assert pref.is_better((-1,), (-5,))

    def test_null_is_worst_for_both_directions(self):
        assert LowestPreference(COL).rank(None) == NULL_RANK
        assert HighestPreference(COL).rank(None) == NULL_RANK

    def test_ties_are_equal(self):
        pref = LowestPreference(COL)
        assert pref.is_equal((7,), (7.0,))


class TestCoerceNumber:
    def test_bool_coerces_to_int(self):
        assert coerce_number(True) == 1.0
        assert coerce_number(False) == 0.0

    def test_none_is_nan(self):
        assert math.isnan(coerce_number(None))

    def test_other_objects_are_nan(self):
        assert math.isnan(coerce_number(object()))
        assert math.isnan(coerce_number(b"12"))

    @pytest.mark.parametrize("text", ["inf", "nan", "1_000", "\u0661\u0662", "1e", ""])
    def test_text_beyond_sqlite_numbers_is_nan(self, text):
        # float() accepts some of these; sqlite, and so the model, does not.
        assert math.isnan(coerce_number(text))

    @given(
        st.text(alphabet="0123456789+-.eE \t\n\v\f\rx_", max_size=8)
        | st.sampled_from(["007", " 1e3 ", "+.5", "1.", "-0", "1e400", "0x10"])
    )
    def test_text_is_a_number_exactly_where_sqlite_says(self, text):
        """The rule the SQL rank guard ``CAST(x AS NUMERIC) = x`` tests."""
        con = sqlite3.connect(":memory:")
        con.execute("CREATE TABLE t (x TEXT)")
        con.execute("INSERT INTO t VALUES (?)", (text,))
        spelled, value = con.execute(
            "SELECT CAST(x AS NUMERIC) = x, x * 1.0 FROM t"
        ).fetchone()
        con.close()
        number = coerce_number(text)
        assert bool(spelled) != math.isnan(number), text
        if spelled:
            assert number == value, text

    def test_arity(self):
        pref = AroundPreference(COL, 1)
        assert pref.arity == 1
        assert pref.operands == (COL,)
        assert pref.children() == ()

"""Session-oriented preference refinement (Chomicki-style reuse).

Three layers of evidence that serving a refined query from cached BMO
winners is sound:

* unit tests of :func:`repro.model.algebra.refines` — every admitted rule
  and every counterexample that shaped the rules,
* a Hypothesis property — whenever ``refines`` claims order preservation,
  the old dominance embeds in the new one and
  ``BMO_new(R) == BMO_new(BMO_old(R))`` on sampled tuple sets,
* driver tests — the session cache serves provably-refined queries with
  rows identical to fresh evaluation, EXPLAIN surfaces the reuse, and
  every invalidation path (same-connection DML, cross-connection writes,
  catalog DDL, parameter rebinds) refuses stale answers.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.driver.dbapi as dbapi
import repro.plan.planner as plan_planner
from repro.engine.relation import Relation
from repro.errors import PlanError
from repro.model.algebra import normalize, refines
from repro.model.builder import build_preference
from repro.plan.cost import SESSION_STRATEGY
from repro.plan.session import (
    SessionCache,
    SessionEntry,
    analyze_refinement,
    delta_condition,
    diff_conjuncts,
    split_conjuncts,
)
from repro.sql import ast
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql


def col(name: str) -> ast.Column:
    return ast.Column(name=name)


def lit(value: object) -> ast.Literal:
    return ast.Literal(value=value)


def pos(column: str, *values: object) -> ast.PosPref:
    return ast.PosPref(operand=col(column), values=tuple(lit(v) for v in values))


def neg(column: str, *values: object) -> ast.NegPref:
    return ast.NegPref(operand=col(column), values=tuple(lit(v) for v in values))


def explicit(column: str, *pairs: tuple[object, object]) -> ast.ExplicitPref:
    return ast.ExplicitPref(
        operand=col(column),
        pairs=tuple((lit(b), lit(w)) for b, w in pairs),
    )


def lowest(column: str) -> ast.LowestPref:
    return ast.LowestPref(operand=col(column))


def highest(column: str) -> ast.HighestPref:
    return ast.HighestPref(operand=col(column))


def cascade(*parts: ast.PrefTerm) -> ast.CascadePref:
    return ast.CascadePref(parts=parts)


def pareto(*parts: ast.PrefTerm) -> ast.ParetoPref:
    return ast.ParetoPref(parts=parts)


def chain(*parts: ast.PrefTerm) -> ast.ElsePref:
    return ast.ElsePref(parts=parts)


class TestRefinesRules:
    """Each admitted refinement rule, plus the identity."""

    def test_identical_terms(self):
        judgment = refines(lowest("price"), lowest("price"))
        assert judgment is not None
        assert judgment.order_preserving
        assert judgment.rules == ("identical",)

    def test_identical_after_normalisation(self):
        # Pareto flattening happens before the comparison.
        nested = pareto(pareto(lowest("a"), lowest("b")), lowest("c"))
        flat = pareto(lowest("a"), lowest("b"), lowest("c"))
        judgment = refines(nested, flat)
        assert judgment is not None and judgment.rules == ("identical",)

    def test_cascade_tie_breaker_appended(self):
        judgment = refines(
            lowest("price"), cascade(lowest("price"), pos("make", "vw"))
        )
        assert judgment is not None and judgment.order_preserving
        assert "cascade tie-breaker appended" in judgment.rules

    def test_cascade_appended_to_existing_cascade(self):
        old = cascade(lowest("price"), pos("make", "vw"))
        new = cascade(lowest("price"), pos("make", "vw"), highest("year"))
        judgment = refines(old, new)
        assert judgment is not None and judgment.order_preserving

    def test_explicit_chain_extended(self):
        old = explicit("color", ("red", "blue"))
        new = explicit("color", ("red", "blue"), ("blue", "green"))
        judgment = refines(old, new)
        assert judgment is not None and judgment.order_preserving
        assert judgment.rules == ("explicit chain extended",)

    def test_explicit_extension_via_transitive_closure(self):
        # The old pair red>green is not listed verbatim in the new chain,
        # but its transitive closure contains it.
        old = explicit("color", ("red", "green"))
        new = explicit("color", ("red", "blue"), ("blue", "green"))
        judgment = refines(old, new)
        assert judgment is not None and judgment.order_preserving

    def test_explicit_extended_inside_cascade_prefix(self):
        # EXPLICIT's is_equal is value identity, independent of the pairs,
        # so extension is sound even at an interior cascade position.
        old = cascade(explicit("color", ("red", "blue")), lowest("price"))
        new = cascade(
            explicit("color", ("red", "blue"), ("blue", "green")),
            lowest("price"),
        )
        judgment = refines(old, new)
        assert judgment is not None and judgment.order_preserving
        assert "explicit chain extended" in judgment.rules

    def test_else_alternative_appended(self):
        old = chain(pos("fuel", "diesel"))
        new = chain(pos("fuel", "diesel"), pos("fuel", "hybrid"))
        judgment = refines(old, new)
        assert judgment is not None and judgment.order_preserving
        assert judgment.rules == ("else alternative appended",)

    def test_pareto_dimension_added_is_report_only(self):
        judgment = refines(lowest("price"), pareto(lowest("price"), lowest("mileage")))
        assert judgment is not None
        assert not judgment.order_preserving
        assert judgment.rules == ("pareto dimension added",)


class TestRefinesCounterexamples:
    """Relationships that must NOT be judged refinements (or must not be
    order preserving) — each mirrors a concrete dominance reversal."""

    def test_relaxation_cascade_prefix_dropped(self):
        old = cascade(lowest("price"), pos("make", "vw"))
        assert refines(old, lowest("price")) is None

    def test_relaxation_pareto_dimension_removed(self):
        old = pareto(lowest("price"), lowest("mileage"))
        assert refines(old, lowest("price")) is None

    def test_dimension_swap(self):
        assert refines(lowest("price"), lowest("mileage")) is None
        assert refines(lowest("price"), highest("price")) is None

    def test_cascade_tie_breaker_prepended_not_appended(self):
        # Prioritising a NEW preference above the old one reorders
        # everything; only appending at the tail refines.
        old = lowest("price")
        new = cascade(pos("make", "vw"), lowest("price"))
        assert refines(old, new) is None

    def test_interior_cascade_layer_must_keep_is_equal(self):
        # ELSE-appending inside a cascade *prefix* changes which rows fall
        # through to the tie-breaker, so it is rejected there.
        old = cascade(chain(pos("fuel", "diesel")), lowest("price"))
        new = cascade(
            chain(pos("fuel", "diesel"), pos("fuel", "hybrid")),
            lowest("price"),
        )
        assert refines(old, new) is None

    def test_else_value_overlap_promotes_a_bucket(self):
        # POS(a) ELSE NEG(b): others > b.  Appending ELSE POS(b) would
        # move b ABOVE others — a reversal, not a refinement.
        old = chain(pos("color", "a"), neg("color", "b"))
        new = chain(pos("color", "a"), neg("color", "b"), pos("color", "b"))
        assert refines(old, new) is None

    def test_else_multi_operand_rejected(self):
        old = chain(pos("fuel", "diesel"), neg("make", "opel"))
        new = chain(
            pos("fuel", "diesel"), neg("make", "opel"), pos("color", "red")
        )
        assert refines(old, new) is None

    def test_explicit_cycle_rejected(self):
        old = explicit("color", ("red", "blue"))
        new = explicit("color", ("red", "blue"), ("blue", "red"))
        assert refines(old, new) is None

    def test_explicit_shrunk_rejected(self):
        old = explicit("color", ("red", "blue"), ("blue", "green"))
        new = explicit("color", ("red", "blue"))
        assert refines(old, new) is None

    def test_explicit_different_operand_rejected(self):
        old = explicit("color", ("red", "blue"))
        new = explicit("make", ("red", "blue"), ("blue", "green"))
        assert refines(old, new) is None

    def test_pos_values_widened_is_not_a_refinement(self):
        # POS widening moves values from OTHERS into the top bucket —
        # a relaxation of the dislike for them.
        assert refines(pos("fuel", "diesel"), pos("fuel", "diesel", "hybrid")) is None


# ---------------------------------------------------------------------------
# Property: refines() order preservation is semantically sound.
# ---------------------------------------------------------------------------

_COLORS = ("red", "blue", "green", "white", "black")

_numeric_base = st.sampled_from(("n", "m")).flatmap(
    lambda c: st.sampled_from((lowest(c), highest(c)))
)


def _pos_neg_base(values: tuple[str, ...]):
    return st.sampled_from((pos("s", *values), neg("s", *values)))


_categorical_base = (
    st.lists(st.sampled_from(_COLORS), min_size=1, max_size=3, unique=True)
    .map(tuple)
    .flatmap(_pos_neg_base)
)

_explicit_base = st.permutations(_COLORS[:4]).map(
    lambda order: explicit("s", *zip(order, order[1:]))
)

_base_term = st.one_of(_numeric_base, _categorical_base, _explicit_base)


@st.composite
def _refinement_pairs(draw):
    """(old, new) pairs built by applying one admitted refinement rule."""
    old = draw(_base_term)
    rule = draw(st.sampled_from(("identity", "cascade", "explicit", "else")))
    if rule == "cascade":
        tie = draw(_base_term)
        parts = old.parts if isinstance(old, ast.CascadePref) else (old,)
        return old, cascade(*parts, tie)
    if rule == "explicit" and isinstance(old, ast.ExplicitPref):
        extra = draw(st.sampled_from(_COLORS))
        values = [p[1].value for p in old.pairs]
        if extra not in values and extra != old.pairs[0][0].value:
            new_pairs = tuple((b.value, w.value) for b, w in old.pairs) + (
                (values[-1], extra),
            )
            return old, explicit("s", *new_pairs)
        return old, old
    if rule == "else" and isinstance(old, (ast.PosPref, ast.NegPref)):
        used = {v.value for v in old.values}
        free = [c for c in _COLORS if c not in used]
        if free:
            extra = draw(st.sampled_from(free))
            return old, chain(old, pos("s", extra))
        return old, old
    return old, old


def _vector(preference, row: dict[str, object]) -> tuple:
    return tuple(row[operand.name] for operand in preference.operands)


def _bmo(preference, rows: list[dict[str, object]]) -> list[int]:
    """Brute-force BMO: indices of rows no other row strictly dominates."""
    vectors = [_vector(preference, row) for row in rows]
    return [
        i
        for i, v in enumerate(vectors)
        if not any(preference.is_better(w, v) for j, w in enumerate(vectors) if j != i)
    ]


_rows = st.lists(
    st.fixed_dictionaries(
        {
            "n": st.integers(min_value=0, max_value=5),
            "m": st.integers(min_value=0, max_value=5),
            "s": st.sampled_from(_COLORS),
        }
    ),
    min_size=1,
    max_size=14,
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pair=_refinement_pairs(), rows=_rows)
def test_refinement_preserves_order_and_bmo(pair, rows):
    """Whenever refines() claims order preservation:

    1. the old dominance embeds in the new one (x >_old y => x >_new y),
    2. BMO_new(R) == BMO_new(BMO_old(R)) — the winnow-reuse identity the
       session cache relies on.
    """
    old_term, new_term = pair
    judgment = refines(old_term, new_term)
    assert judgment is not None, "constructed refinement was not recognised"
    assert judgment.order_preserving

    old_pref = build_preference(normalize(old_term))
    new_pref = build_preference(normalize(new_term))

    for x in rows:
        for y in rows:
            if old_pref.is_better(_vector(old_pref, x), _vector(old_pref, y)):
                assert new_pref.is_better(_vector(new_pref, x), _vector(new_pref, y))

    old_winner_rows = [rows[i] for i in _bmo(old_pref, rows)]
    fresh = [tuple(rows[i].items()) for i in _bmo(new_pref, rows)]
    reused = [
        tuple(old_winner_rows[i].items()) for i in _bmo(new_pref, old_winner_rows)
    ]
    assert sorted(map(repr, fresh)) == sorted(map(repr, reused))


@settings(max_examples=30, deadline=None)
@given(base=_numeric_base, rows=_rows)
def test_pareto_addition_is_correctly_unsound(base, rows):
    """The report-only judgment really is unsound in general: adding a
    Pareto dimension can grow the BMO set beyond the cached winners."""
    other = lowest("m") if base.operand.name == "n" else lowest("n")
    judgment = refines(base, pareto(base, other))
    assert judgment is not None and not judgment.order_preserving


# ---------------------------------------------------------------------------
# WHERE-axis helpers.
# ---------------------------------------------------------------------------


class TestWhereDiff:
    def _where(self, sql: str) -> ast.Expr:
        statement = parse_statement(f"SELECT * FROM t WHERE {sql}")
        return statement.where

    def test_split_and_diff(self):
        old = split_conjuncts(self._where("a < 1 AND b = 2 AND c > 3"))
        new = split_conjuncts(self._where("b = 2 AND d <= 4"))
        common, dropped, added = diff_conjuncts(old, new)
        assert [to_sql(e) for e in common] == ["b = 2"]
        assert [to_sql(e) for e in dropped] == ["a < 1", "c > 3"]
        assert [to_sql(e) for e in added] == ["d <= 4"]

    def test_delta_condition_three_valued(self):
        # A row was excluded by the old WHERE iff a dropped conjunct was
        # FALSE **or NULL** — the delta must include both.
        new_where = self._where("b = 2")
        dropped = [self._where("a < 1")]
        sql = to_sql(delta_condition(new_where, dropped))
        assert sql == "b = 2 AND (NOT (a < 1) OR (a < 1) IS NULL)"

    def test_delta_condition_multiple_dropped(self):
        dropped = split_conjuncts(self._where("a < 1 AND c > 3"))
        sql = to_sql(delta_condition(None, dropped))
        assert "NOT (a < 1) OR (a < 1) IS NULL" in sql
        assert "NOT (c > 3) OR (c > 3) IS NULL" in sql


# ---------------------------------------------------------------------------
# SessionCache unit behaviour.
# ---------------------------------------------------------------------------


def _entry(
    sql: str, versions: tuple[int, int, int] = (0, 1, 0), rows: int = 3
) -> SessionEntry:
    select = parse_statement(sql)
    return SessionEntry(
        select=select,
        term=normalize(select.preferring),
        winners=Relation(
            columns=("id", "price", "make"),
            rows=[(i, 100 * i, "vw") for i in range(rows)],
        ),
        data_version=versions[0],
        pragma_version=versions[1],
        catalog_version=versions[2],
        text=sql,
    )


class TestSessionCache:
    BASE = "SELECT * FROM cars PREFERRING LOWEST(price)"
    REFINED = "SELECT * FROM cars PREFERRING LOWEST(price) CASCADE make IN ('vw')"

    def _match(self, cache, sql, versions=(0, 1, 0)):
        select = parse_statement(sql)
        return cache.match(select, normalize(select.preferring), versions)

    def test_store_dedupes_by_text_and_trims_lru(self):
        cache = SessionCache(maxsize=2)
        cache.store(_entry(self.BASE))
        cache.store(_entry(self.BASE))
        assert len(cache.entries) == 1
        cache.store(_entry(self.REFINED))
        cache.store(_entry(self.BASE + " GROUPING make"))
        assert len(cache.entries) == 2
        assert cache.entries[0].text == self.BASE + " GROUPING make"
        assert all(e.text != self.BASE for e in cache.entries)

    def test_match_returns_servable_and_moves_to_front(self):
        cache = SessionCache()
        cache.store(_entry(self.BASE))
        cache.store(_entry("SELECT * FROM cars PREFERRING LOWEST(mileage)"))
        match = self._match(cache, self.REFINED)
        assert match is not None and match.servable
        assert "cascade tie-breaker appended" in match.rules
        assert cache.entries[0].text == self.BASE
        assert cache.hits == 1

    def test_version_mismatch_evicts_lazily(self):
        cache = SessionCache()
        cache.store(_entry(self.BASE, versions=(0, 1, 0)))
        match = self._match(cache, self.REFINED, versions=(1, 1, 0))
        assert match is None
        assert cache.entries == ()
        assert cache.invalidations == 1 and cache.misses == 1

    def test_every_version_component_matters(self):
        for moved in ((1, 1, 0), (0, 2, 0), (0, 1, 1)):
            cache = SessionCache()
            cache.store(_entry(self.BASE, versions=(0, 1, 0)))
            assert self._match(cache, self.REFINED, versions=moved) is None
            assert cache.invalidations == 1

    def test_report_only_match_is_second_choice(self):
        cache = SessionCache()
        cache.store(_entry(self.BASE))
        pareto_sql = (
            "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)"
        )
        match = self._match(cache, pareto_sql)
        assert match is not None and not match.servable
        assert "not reusable" in match.relation
        assert cache.hits == 0 and cache.misses == 1

    def test_different_scan_never_matches(self):
        cache = SessionCache()
        cache.store(_entry(self.BASE))
        assert (
            self._match(cache, "SELECT * FROM boats PREFERRING LOWEST(price)")
            is None
        )

    def test_grouping_mismatch_never_matches(self):
        cache = SessionCache()
        cache.store(_entry(self.BASE))
        assert self._match(cache, self.REFINED + " GROUPING make") is None

    def test_strengthening_beyond_grouping_is_report_only(self):
        cache = SessionCache()
        cache.store(_entry(self.BASE))
        narrowed = self.BASE.replace("FROM cars", "FROM cars WHERE price < 500")
        match = self._match(cache, narrowed)
        assert match is not None and not match.servable
        assert "WHERE strengthened beyond the grouping columns" in match.relation

    def test_weakening_builds_delta_select(self):
        cache = SessionCache()
        cache.store(
            _entry(self.BASE.replace("FROM cars", "FROM cars WHERE price < 500"))
        )
        match = self._match(cache, self.BASE)
        assert match is not None and match.servable
        assert match.delta_select is not None
        assert (
            to_sql(match.delta_select)
            == "SELECT * FROM cars WHERE NOT (price < 500) OR (price < 500) IS NULL"
        )


class TestAnalyzeRefinement:
    def test_but_only_and_aggregates_disable_reuse(self):
        entry = _entry("SELECT * FROM cars PREFERRING LOWEST(price)")
        for tail in (" BUT ONLY level <= 2", " GROUP BY make", " HAVING COUNT(*) > 1"):
            sql = (
                "SELECT * FROM cars PREFERRING LOWEST(price) "
                "CASCADE make IN ('vw')" + tail
            )
            try:
                select = parse_statement(sql)
            except Exception:
                continue
            term = normalize(select.preferring)
            assert analyze_refinement(entry, select, term) is None


# ---------------------------------------------------------------------------
# Driver end-to-end: the session strategy against fresh evaluation.
# ---------------------------------------------------------------------------

_CARS_DDL = (
    "CREATE TABLE cars (id INTEGER, price INTEGER, mileage INTEGER, "
    "fuel TEXT, make TEXT)"
)


def _make_cars(con, rows: int = 1200, seed: int = 7) -> None:
    con.execute(_CARS_DDL)
    rng = random.Random(seed)
    data = [
        (
            i,
            rng.randrange(5000, 90000),
            rng.randrange(0, 300000),
            rng.choice(["diesel", "petrol", "hybrid"]),
            rng.choice(["vw", "opel", "bmw", "audi"]),
        )
        for i in range(rows)
    ]
    con.raw.executemany("INSERT INTO cars VALUES (?,?,?,?,?)", data)
    con.execute("ANALYZE")


def _fresh_rows(sql: str, params=(), rows: int = 1200, seed: int = 7, sort=True):
    con = repro.connect(":memory:")
    try:
        _make_cars(con, rows=rows, seed=seed)
        fetched = con.execute(sql, params).fetchall()
        return sorted(fetched) if sort else fetched
    finally:
        con.close()


@pytest.fixture
def cars_connection():
    con = repro.connect(":memory:")
    _make_cars(con)
    yield con
    con.close()


BASE_Q = "SELECT * FROM cars PREFERRING LOWEST(price) AND LOWEST(mileage)"


class TestSessionExecution:
    def test_session_plans_build_no_scan(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        with mock.patch.object(
            plan_planner, "ranked_scan_sql", wraps=plan_planner.ranked_scan_sql
        ) as scan:
            cursor = con.execute(BASE_Q + " CASCADE make IN ('vw')")
        assert cursor.plan.strategy == SESSION_STRATEGY
        assert cursor.plan.pushdown_sql is None and cursor.plan.residual is not None
        assert scan.call_count == 0

    def test_refined_query_served_without_rescan(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        refined = BASE_Q + " CASCADE make IN ('vw')"
        cursor = con.execute(refined)
        assert cursor.plan is not None and cursor.plan.strategy == SESSION_STRATEGY
        rows = sorted(cursor.fetchall())
        assert rows == _fresh_rows(refined)
        stats = con.session_stats()
        assert stats["served"] == 1 and stats["hits"] == 1
        # No delta scan was needed: nothing hit the host database.
        original, executed = con.trace[-1]
        assert original == refined
        assert "session reuse" in executed and "no delta scan" in executed

    def test_drill_down_chain_re_winnows_shrinking_sets(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        steps = [
            BASE_Q + " CASCADE make IN ('vw')",
            BASE_Q + " CASCADE make IN ('vw') CASCADE fuel IN ('diesel')",
        ]
        for step in steps:
            cursor = con.execute(step)
            assert cursor.plan.strategy == SESSION_STRATEGY
            assert sorted(cursor.fetchall()) == _fresh_rows(step)
        assert con.session_stats()["served"] == len(steps)

    def test_projection_order_and_limit_served_from_winner_base(
        self, cars_connection
    ):
        # The cache stores the full winner base, so a refined query with a
        # different surface (projection, ORDER BY, LIMIT) is still served.
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        refined = (
            "SELECT id, price FROM cars PREFERRING LOWEST(price) AND "
            "LOWEST(mileage) CASCADE make IN ('vw') ORDER BY price, id LIMIT 5"
        )
        cursor = con.execute(refined)
        assert cursor.plan.strategy == SESSION_STRATEGY
        assert cursor.fetchall() == _fresh_rows(refined, sort=False)

    def test_where_weakening_scans_only_the_delta(self):
        # WHERE-filtered scans only leave the host rewrite behind on
        # larger tables, so this test sizes up to get a cached entry.
        con = repro.connect(":memory:")
        try:
            _make_cars(con, rows=15000)
            narrow = BASE_Q.replace(
                "FROM cars", "FROM cars WHERE price < 40000 AND mileage < 150000"
            )
            con.execute(narrow).fetchall()
            weakened = BASE_Q.replace(
                "FROM cars", "FROM cars WHERE price < 40000"
            )
            cursor = con.execute(weakened)
            assert cursor.plan.strategy == SESSION_STRATEGY
            assert cursor.plan.session_delta_sql is not None
            assert "mileage < 150000" in cursor.plan.session_delta_sql
            assert sorted(cursor.fetchall()) == _fresh_rows(weakened, rows=15000)
        finally:
            con.close()

    def test_grouping_strengthening_served(self, cars_connection):
        con = cars_connection
        base = BASE_Q + " GROUPING fuel"
        con.execute(base).fetchall()
        refined = (
            "SELECT * FROM cars WHERE fuel IN ('diesel') PREFERRING "
            "LOWEST(price) AND LOWEST(mileage) GROUPING fuel"
        )
        cursor = con.execute(refined)
        assert cursor.plan.strategy == SESSION_STRATEGY
        assert "predicate strengthened on grouping columns" in (
            cursor.plan.session_match.rules
        )
        assert sorted(cursor.fetchall()) == _fresh_rows(refined)

    def test_non_grouping_strengthening_not_served(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        strengthened = BASE_Q.replace(
            "FROM cars", "FROM cars WHERE price < 40000"
        )
        cursor = con.execute(strengthened)
        assert cursor.plan.strategy != SESSION_STRATEGY
        assert cursor.plan.session_match is not None
        assert not cursor.plan.session_match.servable
        assert sorted(cursor.fetchall()) == _fresh_rows(strengthened)

    def test_dimension_swap_not_served(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        swapped = "SELECT * FROM cars PREFERRING LOWEST(price) AND HIGHEST(mileage)"
        cursor = con.execute(swapped)
        assert cursor.plan.strategy != SESSION_STRATEGY
        assert sorted(cursor.fetchall()) == _fresh_rows(swapped)

    def test_explain_surfaces_session_reuse(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        refined = BASE_Q + " CASCADE make IN ('vw')"
        rows = dict(con.execute("EXPLAIN PREFERENCE " + refined).fetchall())
        assert rows["strategy"].startswith("session")
        assert rows["refinement relation"].startswith("refines cached result")
        assert "cascade tie-breaker appended" in rows["refinement relation"]
        assert "re-winnow" in rows["session reuse"]
        assert "cost: session" in rows
        report = con.explain(refined)
        assert "session reuse" in report

    def test_session_reuse_toggle(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        con.session_reuse = False
        assert con.session_stats()["entries"] == 0
        refined = BASE_Q + " CASCADE make IN ('vw')"
        cursor = con.execute(refined)
        assert cursor.plan.strategy != SESSION_STRATEGY
        assert sorted(cursor.fetchall()) == _fresh_rows(refined)
        assert con.session_stats()["served"] == 0
        con.session_reuse = True
        con.execute(BASE_Q).fetchall()
        assert con.execute(refined).plan.strategy == SESSION_STRATEGY


class TestSessionInvalidation:
    def test_dml_invalidates_but_reprimes(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        con.execute(
            "INSERT INTO cars VALUES (9001, 1, 1, 'diesel', 'vw')"
        )
        refined = BASE_Q + " CASCADE make IN ('vw')"
        cursor = con.execute(refined)
        assert cursor.plan.strategy != SESSION_STRATEGY
        rows = sorted(cursor.fetchall())
        assert (9001, 1, 1, "diesel", "vw") in rows
        assert con.session_stats()["invalidations"] >= 1
        # Re-running the base query re-primes the cache, and refinements
        # served from it see the inserted row.
        con.execute(BASE_Q).fetchall()
        cursor = con.execute(refined)
        assert cursor.plan.strategy == SESSION_STRATEGY
        assert (9001, 1, 1, "diesel", "vw") in cursor.fetchall()

    def test_dml_on_other_table_also_invalidates(self, cars_connection):
        # The data version is connection-global: any write is a
        # conservative but correct reason to drop cached winners.
        con = cars_connection
        con.execute("CREATE TABLE other (x INTEGER)")
        con.execute(BASE_Q).fetchall()
        con.execute("INSERT INTO other VALUES (1)")
        cursor = con.execute(BASE_Q + " CASCADE make IN ('vw')")
        assert cursor.plan.strategy != SESSION_STRATEGY

    def test_cross_connection_write_detected(self, tmp_path):
        path = str(tmp_path / "cars.db")
        writer = repro.connect(path)
        _make_cars(writer)
        writer.commit()
        reader = repro.connect(path)
        reader.execute(BASE_Q).fetchall()
        writer.execute("INSERT INTO cars VALUES (9002, 1, 1, 'diesel', 'vw')")
        writer.commit()
        refined = BASE_Q + " CASCADE make IN ('vw')"
        cursor = reader.execute(refined)
        # PRAGMA data_version moved -> the cached winners must not be
        # served; the cheap new row must appear.
        assert cursor.plan.strategy != SESSION_STRATEGY
        assert (9002, 1, 1, "diesel", "vw") in cursor.fetchall()
        writer.close()
        reader.close()

    def test_catalog_ddl_orphans_entries(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        con.execute("CREATE PREFERENCE cheap ON cars AS LOWEST(price)")
        cursor = con.execute(BASE_Q + " CASCADE make IN ('vw')")
        assert cursor.plan.strategy != SESSION_STRATEGY
        assert con.session_stats()["invalidations"] >= 1

    def test_named_preference_matches_inlined_form(self, cars_connection):
        # The cache canonicalises through the catalog: a query phrased via
        # a named preference refines an entry stored in inline form.
        con = cars_connection
        con.execute(
            "CREATE PREFERENCE value_hunt ON cars AS LOWEST(price) AND LOWEST(mileage)"
        )
        con.execute(BASE_Q).fetchall()
        refined = (
            "SELECT * FROM cars PREFERRING PREFERENCE value_hunt "
            "CASCADE make IN ('vw')"
        )
        cursor = con.execute(refined)
        assert cursor.plan.strategy == SESSION_STRATEGY
        assert sorted(cursor.fetchall()) == _fresh_rows(
            BASE_Q + " CASCADE make IN ('vw')"
        )


class TestCacheTierInterplay:
    def test_session_plans_never_enter_the_plan_cache(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        refined = BASE_Q + " CASCADE make IN ('vw')"
        first = con.execute(refined)
        assert first.plan.strategy == SESSION_STRATEGY
        # A second execution re-validates the match against live versions
        # rather than replaying a session plan whose entry may have moved.
        second = con.execute(refined)
        assert sorted(second.fetchall()) == _fresh_rows(refined)

    def test_explain_of_a_cache_answer_shows_no_host_plan(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        query = BASE_Q + " CASCADE make IN ('vw')"
        plan = con.plan(query)
        assert plan.strategy == SESSION_STRATEGY
        assert plan.host_sql is None
        report = con.explain(query)
        assert report.split("\n\n")[-1] == (
            "host plan: none — answered from the session cache"
        )

    def test_rebind_refuses_session_plans(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        plan = con.plan(BASE_Q + " CASCADE make IN ('vw')")
        assert plan.strategy == SESSION_STRATEGY
        from repro.plan.planner import rebind_plan

        with pytest.raises(PlanError, match="re-planned"):
            rebind_plan(plan, plan.statement)

    def test_dml_keeps_still_valid_plan_cache_parse(self, cars_connection):
        con = cars_connection
        query = BASE_Q + " CASCADE make IN ('vw')"
        con.execute(query).fetchall()
        before = con.plan_cache_stats().hits
        con.execute("INSERT INTO cars VALUES (9003, 2, 2, 'diesel', 'vw')")
        cursor = con.execute(query)
        # The session entry is gone, but the plan cache still shortcuts
        # the parse/plan for the (non-session) strategy.
        assert cursor.plan.strategy != SESSION_STRATEGY
        assert con.plan_cache_stats().hits >= before
        assert (9003, 2, 2, "diesel", "vw") in cursor.fetchall()

    def test_parameter_rebinds_never_serve_stale(self, cars_connection):
        con = cars_connection
        sql = (
            "SELECT * FROM cars WHERE price < ? "
            "PREFERRING LOWEST(mileage) CASCADE make IN ('vw')"
        )
        first = sorted(con.execute(sql, (40000,)).fetchall())
        assert first == _fresh_rows(sql, (40000,))
        # A different bound literal changes the WHERE structurally; the
        # session layer must not reuse winners computed under the old one.
        second = sorted(con.execute(sql, (9000,)).fetchall())
        assert second == _fresh_rows(sql, (9000,))
        third = sorted(con.execute(sql, (40000,)).fetchall())
        assert third == first

    def test_session_hit_builds_no_plan(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        refined = BASE_Q + " CASCADE make IN ('vw')"
        assert con.execute(refined).plan.strategy == SESSION_STRATEGY
        with mock.patch.object(
            dbapi, "plan_statement", wraps=dbapi.plan_statement
        ) as planned, mock.patch.object(
            plan_planner, "rewrite_statement", wraps=plan_planner.rewrite_statement
        ) as rewritten, mock.patch.object(
            con.session_cache, "match", wraps=con.session_cache.match
        ) as matched:
            cursor = con.execute(refined)
            rows = sorted(cursor.fetchall())
        assert (planned.call_count, rewritten.call_count) == (0, 0)
        assert matched.call_count == 1
        assert cursor.plan.strategy == SESSION_STRATEGY
        assert rows == _fresh_rows(refined)

    def test_plan_cache_never_holds_a_session_plan(self, cars_connection):
        con = cars_connection
        chain = [BASE_Q, BASE_Q + " CASCADE make IN ('vw')"]
        for _round in range(2):
            for sql in chain:
                con.execute(sql).fetchall()
        assert con.session_stats()["served"] >= 3
        cached = [entry.plan for entry in con._plan_cache._entries.values()]
        assert len(cached) == len(chain)
        assert all(plan.strategy != SESSION_STRATEGY for plan in cached)
        assert all(plan.session_match is None for plan in cached)

    def test_write_between_executions_replans_exactly_once(self, cars_connection):
        con = cars_connection
        refined = BASE_Q + " CASCADE make IN ('vw')"
        con.execute(BASE_Q).fetchall()
        con.execute(refined).fetchall()
        con.execute("INSERT INTO cars VALUES (9004, 1, 1, 'diesel', 'vw')")
        with mock.patch.object(
            dbapi, "plan_statement", wraps=dbapi.plan_statement
        ) as planned:
            con.execute(BASE_Q).fetchall()
            assert planned.call_count == 1
            first = con.execute(refined)
            first_rows = sorted(first.fetchall())
            assert planned.call_count == 2
            second = con.execute(refined)
            second_rows = sorted(second.fetchall())
        # The write moved the data version under both cached plans: each
        # statement re-plans once, and the refinement is served again.
        assert planned.call_count == 2
        assert first.plan.strategy == second.plan.strategy == SESSION_STRATEGY
        expected = sorted(con.execute(refined, algorithm="rewrite").fetchall())
        assert (9004, 1, 1, "diesel", "vw") in expected
        assert first_rows == second_rows == expected

    def test_pooled_sibling_serves_only_from_its_own_session_cache(self, tmp_path):
        from repro.server.shared import SharedState

        database = str(tmp_path / "cars.db")
        setup = repro.connect(database)
        _make_cars(setup)
        setup.commit()
        setup.close()
        shared = SharedState()
        first = repro.connect(database, shared=shared)
        second = repro.connect(database, shared=shared)
        refined = BASE_Q + " CASCADE make IN ('vw')"
        try:
            first.execute(BASE_Q).fetchall()
            assert first.execute(refined).plan.strategy == SESSION_STRATEGY
            # The sibling finds the base plan in the shared plan cache,
            # but its own session cache is empty: it scans.
            hits = second.plan_cache_stats().hits
            cursor = second.execute(refined)
            assert second.plan_cache_stats().hits == hits + 1
            assert cursor.plan.strategy != SESSION_STRATEGY
            assert sorted(cursor.fetchall()) == _fresh_rows(refined)
            assert second.session_stats()["served"] == 0
            # Once it has captured winners of its own, it serves from them.
            second.execute(BASE_Q).fetchall()
            again = second.execute(refined)
            assert again.plan.strategy == SESSION_STRATEGY
            assert sorted(again.fetchall()) == _fresh_rows(refined)
        finally:
            first.close()
            second.close()

    def test_view_creation_bumps_catalog_and_session(self, cars_connection):
        con = cars_connection
        con.execute(BASE_Q).fetchall()
        con.execute(
            "CREATE PREFERENCE VIEW best_cars AS SELECT * FROM cars "
            "PREFERRING LOWEST(price)"
        )
        cursor = con.execute(BASE_Q + " CASCADE make IN ('vw')")
        assert cursor.plan.strategy != SESSION_STRATEGY

"""One strategy × surface matrix through ``Cursor.execute``.

Every way the driver can turn a statement into rows — the host rewrite,
the in-memory winnow (auto and pinned), the pinned winnow over a join
scan, the rewrite's inline anti-join over a join with a WITHOUT ROWID
table, the three session-served refinements, a view-served read, plain
pass-through and ``INSERT … SELECT … PREFERRING`` — is crossed with every result surface (``*``, a column list,
``ORDER BY … LIMIT/OFFSET``, ``DISTINCT``, GROUPING, BUT ONLY) and run
untimed and under a generous deadline.  Each cell is checked twice: its
rows against the quadratic ``nested_loop`` oracle over a fresh
connection's table, and the cursor contract (``plan.strategy``,
``was_rewritten``, ``executed_sql``, ``description``, ``rowcount``, the
``trace`` entry, the session counters, and — where the execution
captures one — the stored winner base).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.engine import PreferenceEngine, Relation

CAR_COLUMNS = ["id", "price", "mileage", "fuel", "make"]
PREFERENCE = "LOWEST(price) AND LOWEST(mileage)"
REFINED = PREFERENCE + " CASCADE make IN ('vw')"
JOIN = "cars JOIN makes ON make = name"


def _car_rows(count: int) -> list[tuple]:
    rng = random.Random(7)
    return [
        (
            i,
            rng.randrange(5000, 90000),
            rng.randrange(0, 300000),
            rng.choice(["diesel", "petrol", "hybrid"]),
            rng.choice(["vw", "opel", "bmw", "audi"]),
        )
        for i in range(count)
    ]


MAKE_ROWS = [("vw", "de"), ("opel", "de"), ("bmw", "de"), ("audi", "hu")]


def _connect(count: int, without_rowid: bool = False) -> repro.Connection:
    con = repro.connect(":memory:")
    if without_rowid:
        con.execute(
            "CREATE TABLE cars (id INTEGER PRIMARY KEY, price INTEGER, "
            "mileage INTEGER, fuel TEXT, make TEXT) WITHOUT ROWID"
        )
    else:
        con.execute(
            "CREATE TABLE cars (id INTEGER, price INTEGER, mileage INTEGER, "
            "fuel TEXT, make TEXT)"
        )
    con.execute("CREATE TABLE makes (name TEXT, country TEXT)")
    con.raw.executemany("INSERT INTO cars VALUES (?,?,?,?,?)", _car_rows(count))
    con.raw.executemany("INSERT INTO makes VALUES (?,?)", MAKE_ROWS)
    con.execute("ANALYZE")
    return con


def _oracle(sql: str, count: int) -> Relation:
    """The statement under the quadratic nested-loop evaluator."""
    engine = PreferenceEngine(
        {
            "cars": Relation(CAR_COLUMNS, _car_rows(count)),
            "makes": Relation(["name", "country"], MAKE_ROWS),
        },
        algorithm="nested_loop",
    )
    return engine.execute(sql)


# ----------------------------------------------------------------------
# Surfaces


@dataclass(frozen=True)
class Surface:
    items: str = "*"
    grouping: str = ""
    but_only: str = ""
    tail: str = ""

    @property
    def ordered(self) -> bool:
        return "ORDER BY" in self.tail


SURFACES = {
    "star": Surface(),
    "columns": Surface(items="id, price"),
    "ordered": Surface(
        items="id, price, mileage", tail="ORDER BY price, id LIMIT 3 OFFSET 1"
    ),
    "distinct": Surface(items="DISTINCT fuel"),
    "grouping": Surface(grouping="GROUPING fuel"),
    "but_only": Surface(but_only="BUT ONLY DISTANCE(price) <= 20000"),
}


def _select(
    surface: Surface,
    source: str = "cars",
    where: str = "",
    preferring: str | None = PREFERENCE,
    grouping: str | None = None,
) -> str:
    parts = [f"SELECT {surface.items} FROM {source}", where]
    if preferring is not None:
        parts += [
            f"PREFERRING {preferring}",
            surface.grouping if grouping is None else grouping,
            surface.but_only,
        ]
    parts.append(surface.tail)
    return " ".join(part for part in parts if part)


# ----------------------------------------------------------------------
# Strategies


@dataclass(frozen=True)
class Cell:
    """One statement, how to reach it and what the cursor must report."""

    sql: str
    #: Expected ``cursor.plan.strategy``; None for no plan (pass-through).
    strategy: str | None
    algorithm: str | None = None
    #: Statements executed first, unpinned (prime a cache, create a view).
    prime: tuple[str, ...] = ()
    #: Plan attribute ``executed_sql`` must equal.
    executed: str = "rewritten_sql"
    #: What follows the host SQL in the trace entry.
    note: str = ""
    captures: bool = False
    served: int = 0
    #: The statement the oracle evaluates, when it is not ``sql`` itself.
    oracle_sql: str | None = None
    rows: int = 1200
    without_rowid: bool = False


#: Strategy × surface cells that cannot exist, with the reason.
NOT_APPLICABLE = {
    ("session_strengthened", "but_only"): "BUT ONLY disables session reuse",
    ("session_weakened", "but_only"): "BUT ONLY disables session reuse",
    ("session_surface", "but_only"): "BUT ONLY disables session reuse",
    ("passthrough", "grouping"): "GROUPING needs PREFERRING",
    ("passthrough", "but_only"): "BUT ONLY needs PREFERRING",
}


def _rewrite(surface: Surface) -> Cell:
    return Cell(_select(surface), "rewrite", algorithm="rewrite")


def _bnl_auto(surface: Surface) -> Cell:
    return Cell(
        _select(surface),
        "bnl",
        executed="pushdown_sql",
        note=" /* + in-memory bnl */",
        captures=not surface.but_only,
    )


def _bnl_pinned(surface: Surface) -> Cell:
    return Cell(
        _select(surface),
        "bnl",
        algorithm="bnl",
        executed="pushdown_sql",
        note=" /* + in-memory bnl */",
    )


def _bnl_join(surface: Surface) -> Cell:
    return Cell(
        _select(surface, source=JOIN),
        "bnl",
        algorithm="bnl",
        executed="pushdown_sql",
        note=" /* + in-memory bnl */",
    )


def _rewrite_rowless_join(surface: Surface) -> Cell:
    # A join keeps the inline NOT EXISTS anti-join, as does a WITHOUT
    # ROWID table: no rowid to read the rank CTE back through.
    return Cell(
        _select(surface, source=JOIN),
        "rewrite",
        algorithm="rewrite",
        without_rowid=True,
    )


def _session_strengthened(surface: Surface) -> Cell:
    # Strengthening is served only on grouping columns, so every surface
    # of this strategy carries GROUPING fuel.
    grouping = "GROUPING fuel"
    return Cell(
        _select(surface, where="WHERE fuel IN ('diesel')", grouping=grouping),
        "session",
        prime=(_select(SURFACES["star"], grouping=grouping),),
        executed="session_delta_sql",
        note="/* no delta scan */",
        captures=True,
        served=1,
    )


def _session_weakened(surface: Surface) -> Cell:
    # The cost model leaves a filtered scan on the host rewrite until the
    # table is large enough; 2,400 rows put the narrow query in memory.
    narrow = "WHERE fuel <> 'hybrid' AND make <> 'opel'"
    return Cell(
        _select(surface, where="WHERE fuel <> 'hybrid'"),
        "session",
        prime=(_select(SURFACES["star"], where=narrow, grouping=surface.grouping),),
        executed="session_delta_sql",
        captures=True,
        served=1,
        rows=2400,
    )


def _session_surface(surface: Surface) -> Cell:
    return Cell(
        _select(surface, preferring=REFINED),
        "session",
        prime=(_select(SURFACES["star"], grouping=surface.grouping),),
        executed="session_delta_sql",
        note="/* no delta scan */",
        captures=True,
        served=1,
    )


def _view(surface: Surface) -> Cell:
    sql = _select(surface)
    return Cell(sql, "view", prime=(f"CREATE PREFERENCE VIEW best AS {sql}",))


def _passthrough(surface: Surface) -> Cell:
    return Cell(
        _select(surface, where="WHERE price < 40000", preferring=None), None
    )


def _insert(surface: Surface) -> Cell:
    select = _select(surface)
    return Cell(
        f"INSERT INTO picks {select}",
        "rewrite",
        prime=(
            f"CREATE TABLE picks AS SELECT {surface.items} FROM cars WHERE 0",
        ),
        oracle_sql=select,
    )


STRATEGIES = {
    "rewrite": _rewrite,
    "bnl": _bnl_auto,
    "bnl_pinned": _bnl_pinned,
    "bnl_join": _bnl_join,
    "rewrite_rowless_join": _rewrite_rowless_join,
    "session_strengthened": _session_strengthened,
    "session_weakened": _session_weakened,
    "session_surface": _session_surface,
    "view": _view,
    "passthrough": _passthrough,
    "insert": _insert,
}

MATRIX = [
    pytest.param(strategy, surface, timeout, id=f"{strategy}-{surface}-{label}")
    for strategy in STRATEGIES
    for surface in SURFACES
    if (strategy, surface) not in NOT_APPLICABLE
    for label, timeout in (("untimed", None), ("timed", 60_000))
]


def test_matrix_is_complete():
    cells = len(STRATEGIES) * len(SURFACES) - len(NOT_APPLICABLE)
    assert len(MATRIX) == 2 * cells == 122


@pytest.mark.parametrize("strategy, surface_name, timeout_ms", MATRIX)
def test_strategy_surface_cell(strategy, surface_name, timeout_ms):
    surface = SURFACES[surface_name]
    cell = STRATEGIES[strategy](surface)
    oracle = _oracle(cell.oracle_sql or cell.sql, cell.rows)
    con = _connect(cell.rows, without_rowid=cell.without_rowid)
    try:
        for statement in cell.prime:
            con.execute(statement).fetchall()
        before = con.session_stats()
        cursor = con.execute(
            cell.sql, algorithm=cell.algorithm, timeout_ms=timeout_ms
        )

        # Rows, against the oracle.
        if strategy == "insert":
            assert cursor.description is None
            assert cursor.rowcount == len(oracle.rows)
            rows = con.raw.execute("SELECT * FROM picks").fetchall()
        else:
            assert cursor.column_names == list(oracle.columns)
            assert cursor.rowcount == -1
            rows = cursor.fetchall()
        if surface.ordered and strategy != "insert":
            assert rows == oracle.rows
        else:
            assert sorted(rows) == sorted(oracle.rows)

        # The cursor contract.
        plan = cursor.plan
        original, executed = con.trace[-1]
        assert original == cell.sql
        if cell.strategy is None:
            assert plan is None
            assert cursor.was_rewritten is False
            assert cursor.executed_sql == cell.sql
            assert executed == cell.sql
        else:
            assert plan is not None and plan.strategy == cell.strategy
            assert cursor.was_rewritten is True
            host_sql = getattr(plan, cell.executed)
            assert cursor.executed_sql == host_sql
            if cell.strategy == "session":
                rules = ", ".join(plan.session_match.rules)
                assert (host_sql is None) == (cell.note == "/* no delta scan */")
                assert executed == (
                    f"{host_sql or cell.note} /* + session reuse: {rules} */"
                )
            else:
                assert host_sql is not None
                assert executed == host_sql + cell.note
            assert "PREFERRING" not in executed

        # Session counters and the captured winner base.
        after = con.session_stats()
        assert after["stores"] - before["stores"] == int(cell.captures)
        assert after["served"] - before["served"] == cell.served
        assert after["hits"] - before["hits"] == cell.served
        if cell.captures:
            select = repro.parse_statement(cell.sql)
            where = f"WHERE {repro.to_sql(select.where)}" if select.where else ""
            grouping = (
                "GROUPING " + ", ".join(repro.to_sql(g) for g in select.grouping)
                if select.grouping
                else ""
            )
            full = _oracle(
                f"SELECT * FROM cars {where} PREFERRING "
                f"{repro.to_sql(select.preferring)} {grouping}",
                cell.rows,
            )
            stored = con.session_cache.entries[0]
            assert stored.text == repro.to_sql(select)
            assert list(stored.winners.columns) == CAR_COLUMNS
            if cell.strategy == "session":
                # Cached winners first, delta rows after: scan order is
                # not table order here.
                assert sorted(stored.winners.rows) == sorted(full.rows)
            else:
                assert stored.winners.rows == full.rows
    finally:
        con.close()


# ----------------------------------------------------------------------
# One winnow per statement, and the law the second pass used to lean on


def test_capturing_and_session_executions_winnow_once(monkeypatch):
    from repro.engine import bmo

    calls = []
    original = bmo.bmo_filter

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(bmo, "bmo_filter", counting)
    con = _connect(1200)
    try:
        base = _select(SURFACES["columns"])
        assert con.execute(base).plan.strategy == "bnl"
        assert len(calls) == 1 and con.session_stats()["stores"] == 1
        served = con.execute(_select(SURFACES["ordered"], preferring=REFINED))
        assert served.plan.strategy == "session"
        assert len(calls) == 2 and con.session_stats()["stores"] == 2
    finally:
        con.close()


_PREFERENCES = [
    "LOWEST(a) AND LOWEST(b)",
    "LOWEST(a) CASCADE HIGHEST(b)",
    "(LOWEST(a) AND c IN (1, 2)) CASCADE HIGHEST(b)",
    "a AROUND 3 AND c <> 0",
]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(*[st.integers(0, 5)] * 4), min_size=0, max_size=40
    ),
    preference=st.sampled_from(_PREFERENCES),
    grouped=st.booleans(),
)
def test_winnow_is_idempotent_per_grouping_partition(rows, preference, grouped):
    """``w(w(R)) = w(R)``: winnowing the winners again changes nothing."""
    from repro.engine.bmo import winnow

    select = repro.parse_statement(
        f"SELECT * FROM r PREFERRING {preference}"
        + (" GROUPING g" if grouped else "")
    )
    columns = ["a", "b", "c", "g"]
    once = winnow(select, Relation(columns, rows)).surface(select)
    twice = winnow(select, once).surface(select)
    assert twice.rows == once.rows
    oracle = PreferenceEngine(
        {"r": Relation(columns, rows)}, algorithm="nested_loop"
    ).execute_select(select)
    assert once.rows == oracle.rows

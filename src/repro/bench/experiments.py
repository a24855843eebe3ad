"""The experiments: one function per paper table or figure.

Each experiment returns a :class:`~repro.bench.harness.Report` whose main
table mirrors the corresponding artifact in the paper; ``BENCH_paper.json``
at the repository root is a checked-in full run.  ``quick=True`` shrinks
data sizes for smoke runs.
"""

from __future__ import annotations

import statistics
from collections import Counter

import repro
from repro.bench.harness import Report, Table, time_call
from repro.sql.parser import parse_statement
from repro.workloads.cosima import MetaSearch, make_catalog, make_shops
from repro.workloads.fixtures import load_fixtures
from repro.workloads.jobs import CONDITION_SETS, POOLS, benchmark_queries, load_jobs


def e1_jobs_benchmark(quick: bool = False, rows: int | None = None, repeats: int = 3) -> Report:
    """Paper section 3.3: the large-scale job-search benchmark table.

    The paper's table reports real-time measurements for pre-selection
    result sizes 300/600/1000 and two second-selection conditions, for SQL
    solution 1 (conjunctive), SQL solution 2 (disjunctive) and Preference
    SQL (Pareto).  Our substrate is sqlite over a synthetic 74-attribute
    profile table (see ``repro.workloads.jobs``); shapes, not absolute
    times, are the reproduction target.  Every cell keeps all of its
    timing samples, so the report shows spread, not only the best run.
    """
    n = rows if rows is not None else (12_000 if quick else 120_000)
    report = Report(
        experiment="E1",
        title=f"job-search benchmark (section 3.3), {n} profiles, sqlite",
    )
    connection = repro.connect(":memory:")
    load_jobs(connection, n=n)

    table = Table(
        (
            "pre-selection",
            "condition",
            "solution",
            "result rows",
            "time [ms]",
        )
    )
    raw: dict = {}
    for pool in POOLS:
        for condition_set in CONDITION_SETS:
            queries = benchmark_queries(pool, condition_set)
            for solution, sql in (
                ("SQL 1 (conjunctive)", queries.conjunctive),
                ("SQL 2 (disjunctive)", queries.disjunctive),
                ("Preference SQL", queries.preferring),
            ):
                result, timing = time_call(
                    lambda sql=sql: connection.execute(sql).fetchall(),
                    repeats=repeats,
                )
                count = len(result)
                table.add(pool, condition_set, solution, count, timing.ms())
                raw[(pool, condition_set, solution)] = {
                    "rows": count,
                    **timing.spread(),
                }
    report.add_table("timings and result sizes (best of the samples)", table)
    report.data = raw
    report.note(
        "expected shape: conjunctive is fast but starves the user; "
        "disjunctive floods; Preference SQL returns a small BMO set at "
        "comparable cost — 'soft constraints can be implemented efficiently'."
    )
    connection.close()
    return report


def e2_oldtimer(quick: bool = False) -> Report:
    """Paper section 2.2.3: the adorned oldtimer result (exact match)."""
    report = Report(
        experiment="E2",
        title="oldtimer answer explanation (section 2.2.3)",
    )
    connection = repro.connect(":memory:")
    load_fixtures(connection, names=("oldtimer",))
    query = (
        "SELECT ident, color, age, LEVEL(color), DISTANCE(age) FROM oldtimer "
        "PREFERRING color = 'white' ELSE color = 'yellow' AND age AROUND 40"
    )
    rows, timing = time_call(lambda: connection.execute(query).fetchall())
    table = Table(("ident", "color", "age", "LEVEL(color)", "DISTANCE(age)"))
    for row in sorted(rows, key=lambda r: r[3]):
        table.add(*row)
    report.add_table(f"adorned Pareto-optimal result ({timing.ms()} ms)", table)

    expected = {
        ("Selma", "red", 40, 3, 0),
        ("Homer", "yellow", 35, 2, 5),
        ("Maggie", "white", 19, 1, 21),
    }
    exact = {tuple(row) for row in rows} == expected
    report.data = {"rows": rows, "exact_match": exact}
    report.note(
        "paper expectation: Selma (level 3, distance 0), Homer (2, 5), "
        f"Maggie (1, 21) — exact match: {exact}"
    )
    connection.close()
    return report


def e3_cars_rewrite(quick: bool = False) -> Report:
    """Paper section 3.2: the Cars rewrite — script form vs planner form."""
    report = Report(
        experiment="E3",
        title="Cars selection-method rewrite (section 3.2)",
    )
    connection = repro.connect(":memory:")
    load_fixtures(connection, names=("cars",))
    query = "SELECT Identifier, Make, Model FROM Cars PREFERRING Make = 'Audi' AND Diesel = 'yes'"

    # Planner (production) path.
    planner_rows, planner_timing = time_call(
        lambda: connection.execute(query).fetchall()
    )

    # Paper-style script path (CREATE VIEW Aux / SELECT / DROP VIEW).
    script = repro.paper_style_script(parse_statement(query), view_name="Aux")

    def run_script():
        raw = connection.raw
        raw.execute(script[0])
        try:
            return raw.execute(script[1]).fetchall()
        finally:
            raw.execute(script[2])

    script_rows, script_timing = time_call(run_script)

    table = Table(("path", "result", "time [ms]"))
    table.add(
        "planner (inline NOT EXISTS)",
        sorted(r[:2] for r in planner_rows),
        planner_timing.ms(),
    )
    table.add(
        "paper script (view + anti-join)",
        sorted(r[:2] for r in script_rows),
        script_timing.ms(),
    )
    report.add_table("both rewrite forms", table)

    agree = sorted(planner_rows) == sorted(script_rows)
    winners_ok = sorted(r[0] for r in planner_rows) == [1, 2]
    report.data = {
        "script": script,
        "agree": agree,
        "winners_ok": winners_ok,
    }
    report.note(f"paper expectation: maximal tuples are the Audi A6 and the "
                f"BMW 5 series — matched: {winners_ok}; paths agree: {agree}")
    report.note("generated script:\n" + "\n".join(script))
    connection.close()
    return report


def e4_cosima(quick: bool = False, sessions: int | None = None) -> Report:
    """Paper section 4.3: COSIMA meta-search observations."""
    count = sessions if sessions is not None else (40 if quick else 200)
    report = Report(
        experiment="E4",
        title=f"COSIMA comparison shopping (section 4.3), {count} sessions",
    )
    search = MetaSearch(shops=make_shops(3), catalog=make_catalog(120))
    results = search.run_sessions(count)

    sizes = [r.pareto_size for r in results]
    buckets = (
        ("1-5", sum(1 for s in sizes if 1 <= s <= 5)),
        ("6-10", sum(1 for s in sizes if 6 <= s <= 10)),
        ("11-20", sum(1 for s in sizes if 11 <= s <= 20)),
        (">20", sum(1 for s in sizes if s > 20)),
    )
    size_table = Table(("Pareto set size", "sessions", "share"))
    for label, hits in buckets:
        size_table.add(label, hits, f"{hits / count:.0%}")
    report.add_table("Pareto-optimal set sizes", size_table)

    latency_table = Table(("component", "mean [s]", "median [s]"))
    shop_seconds = [r.shop_seconds for r in results]
    preference_seconds = [r.preference_seconds for r in results]
    total_seconds = [r.total_seconds for r in results]
    latency_table.add(
        "shop access (simulated)",
        f"{statistics.fmean(shop_seconds):.2f}",
        f"{statistics.median(shop_seconds):.2f}",
    )
    latency_table.add(
        "Preference SQL (measured)",
        f"{statistics.fmean(preference_seconds):.4f}",
        f"{statistics.median(preference_seconds):.4f}",
    )
    latency_table.add(
        "total meta-search",
        f"{statistics.fmean(total_seconds):.2f}",
        f"{statistics.median(total_seconds):.2f}",
    )
    report.add_table("latency breakdown", latency_table)

    in_1_20 = sum(1 for s in sizes if 1 <= s <= 20) / count
    overhead = statistics.fmean(preference_seconds) / statistics.fmean(total_seconds)
    report.data = {
        "sessions_by_size": dict(sorted(Counter(sizes).items())),
        "share_in_1_20": in_1_20,
        "preference_share_of_total": overhead,
    }
    report.note(
        f"paper expectation: sizes predominantly 1-20 (measured share "
        f"{in_1_20:.0%}); total 1-2 s dominated by shop access (preference "
        f"share of total: {overhead:.1%})"
    )
    return report


EXPERIMENTS = {
    "e1": e1_jobs_benchmark,
    "e2": e2_oldtimer,
    "e3": e3_cars_rewrite,
    "e4": e4_cosima,
}


def run_experiment(name: str, quick: bool = False) -> Report:
    """Run one experiment by id (``e1`` ... ``e4``)."""
    key = name.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key](quick=quick)

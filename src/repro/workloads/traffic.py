"""Server traffic: a Zipfian mix of preference query sessions.

The paper's production argument is a *serving* argument: Preference SQL
ran as resident middleware behind "one of the busiest Internet sites in
Germany", where a small number of advisor pages generate the bulk of the
query text and real users repeat and refine each other's searches.  This
module models that load shape for the server workloads of the
repository benchmark (``serve_zipf``, ``serve_dml``) and the chaos suite:

* one database holding all three product scenarios — the jobs search
  (section 3.3), the washing-machine shop (section 4.1) and the used-car
  dealer joins (section 3.2),
* a fixed set of :class:`QueryChain` templates — each chain is one
  simulated user session: a base query optionally followed by
  refinements of it (refinements are what the driver's session cache
  answers without rescanning),
* a Zipfian template popularity distribution, so a handful of chains
  dominate exactly the way a handful of advisor pages dominate real
  traffic — which is what makes cross-session plan caching pay.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads.cardealer import load_car_dealer
from repro.workloads.jobs import benchmark_queries, load_jobs
from repro.workloads.shop import washing_machines_relation


@dataclass(frozen=True)
class QueryChain:
    """One simulated user session: a named sequence of statements.

    Statements past the first refine their predecessor (added CASCADE
    facets, narrowed WHERE), so chains exercise the session cache the
    way interactive drill-down does.
    """

    name: str
    statements: tuple[str, ...]


def load_traffic_database(connection, scale: float = 1.0, seed: int = 1902) -> None:
    """Load all three scenarios into one connection (then commits).

    ``scale`` multiplies the default table sizes (jobs 6000, products
    3000, cars 4000).  Floors keep the scenarios meaningful at small
    scales: the pre-selection pools force jobs ≥ 1900, and the shop
    catalog stays ≥ 2000 rows so its skylines keep taking the in-memory
    path (the one whose refinements the session cache serves).
    """
    jobs_rows = max(1900, int(6_000 * scale))
    product_rows = max(2_000, int(3_000 * scale))
    car_rows = max(200, int(4_000 * scale))
    load_jobs(connection, n=jobs_rows, seed=seed)
    relation = washing_machines_relation(rows=product_rows, seed=seed + 1)
    connection.execute("DROP TABLE IF EXISTS products")
    connection.execute(
        "CREATE TABLE products (product_id INTEGER, manufacturer TEXT, "
        "width INTEGER, spinspeed INTEGER, powerconsumption REAL, "
        "waterconsumption INTEGER, price INTEGER)"
    )
    connection.cursor().executemany(
        "INSERT INTO products VALUES (?, ?, ?, ?, ?, ?, ?)", relation.rows
    )
    load_car_dealer(connection, cars=car_rows, dealers=40, seed=seed + 2)
    connection.commit()


def query_chains() -> tuple[QueryChain, ...]:
    """The template set, roughly ordered most-popular-first.

    The mix deliberately spans the planner's strategies: shop skylines
    take the in-memory path (and their refinements the session cache),
    the jobs advisor queries take the SQL rewrite path, the dealer
    queries exercise join planning, and the lookup chains are plain SQL
    passthrough — a server only ever sees a blend.
    """
    shop_base = (
        "SELECT * FROM products "
        "PREFERRING LOWEST(price) AND LOWEST(powerconsumption)"
    )
    shop_wide = (
        "SELECT * FROM products "
        "PREFERRING LOWEST(price) AND LOWEST(powerconsumption) "
        "AND HIGHEST(spinspeed)"
    )
    jobs_600 = benchmark_queries("600", "A").preferring
    jobs_1000 = benchmark_queries("1000", "B").preferring
    return (
        QueryChain(
            "shop-browse",
            (
                shop_base,
                shop_base + " CASCADE manufacturer IN ('Miola')",
                shop_base
                + " CASCADE manufacturer IN ('Miola') "
                "CASCADE LOWEST(waterconsumption)",
            ),
        ),
        QueryChain("jobs-advisor-600", (jobs_600,)),
        QueryChain(
            "shop-compare",
            (shop_wide, shop_wide + " CASCADE manufacturer IN ('Boschner')"),
        ),
        QueryChain("jobs-advisor-1000", (jobs_1000,)),
        QueryChain(
            "dealer-join",
            (
                "SELECT * FROM cars c, dealers d "
                "WHERE c.dealer_id = d.dealer_id "
                "PREFERRING LOWEST(c.price) AND HIGHEST(d.rating)",
            ),
        ),
        QueryChain(
            "product-lookup",
            ("SELECT * FROM products WHERE product_id = 17",),
        ),
        QueryChain(
            "dealer-lookup",
            ("SELECT dealer_id, region, rating FROM dealers WHERE rating >= 4",),
        ),
    )


def zipfian_schedule(
    chains: int, sessions: int, s: float = 1.1, seed: int = 71
) -> list[int]:
    """``sessions`` chain indices drawn from a Zipf(s) distribution.

    Index 0 is the most popular template; popularity decays as
    ``1 / rank**s``.  Deterministic for a given seed.
    """
    if chains < 1:
        raise ValueError("need at least one chain")
    weights = [1.0 / (rank**s) for rank in range(1, chains + 1)]
    rng = random.Random(seed)
    return rng.choices(range(chains), weights=weights, k=sessions)

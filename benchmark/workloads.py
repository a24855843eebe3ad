"""The five workloads: their data, their request streams and their proofs.

A workload is (a) a database built by :attr:`Workload.load` from the
repository's own generators at their default seeds — the reference data
set, identical on every run — and (b) an endless request stream made
from ``--seed`` by :attr:`Workload.stream`.  The program only ever sees
the generated statements.

Streams are built from *blocks*: inside one block every template appears
an exact number of times and only the order (and the literals) are
random.  Drawing templates independently instead lets the share of the
one slow template wander by ±9 % between seeds, which moved
``throughput_qps`` on ``serve_zipf`` by 7 % with no change to the program.

:attr:`Workload.verify` is the traffic verification: it proves from the
program's public counters that a run stressed the layers its row in
``benchmark/README.md`` says it stresses, and fails the run otherwise.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.workloads.distributions import DISTRIBUTIONS
from repro.workloads.jobs import CONDITION_SETS, POOLS, benchmark_queries, load_jobs
from repro.workloads.shop import (
    SearchMask,
    mask_to_preference_sql,
    washing_machines_relation,
)
from repro.workloads.traffic import load_traffic_database, query_chains

#: Strategies that evaluate the winnow in the program, not in sqlite.
IN_MEMORY = ("bnl", "sfs", "dnc", "parallel")

#: Ops hashed per client for the op-sequence fingerprint.
HASHED_OPS = 1000


@dataclass(frozen=True)
class Op:
    """One generated statement.  ``kind`` names its template."""

    kind: str
    sql: str
    params: tuple = ()
    #: ``insert`` / ``update`` / ``delete`` for a write (the conservation
    #: check counts the acknowledged ones); None for a read.
    write: str | None = None


#: One closed-loop unit: statements a caller sends back to back on one
#: connection (a search session's refinement chain, or a single op).
Session = Sequence[Op]


@dataclass(frozen=True)
class Workload:
    name: str
    #: Served through ``PreferenceServer`` (else embedded ``repro.connect``).
    served: bool
    #: Closed-loop callers: app-server workers that wait for their reply.
    connections: int
    #: Untimed ops before the window (about 5 % of a window's ops).
    warmup_ops: int
    #: Oracle-checked statements per template while an embedded window
    #: runs (a served workload's templates are checked once each after it).
    checks_per_kind: int
    #: Ops the traced pass replays: whole blocks, so every template is there.
    replay_ops: int
    load: Callable[[object], None]
    stream: Callable[[int, int], Iterator[Session]]
    verify: Callable[[dict], list[str]]


def flatten(sessions: Iterable[Session]) -> Iterator[Op]:
    """A stream of sessions as the stream of their ops."""
    for session in sessions:
        yield from session


def _blocks(rng: random.Random, counts: dict[str, int]) -> Iterator[str]:
    """Endless template names: exact ``counts`` per block, shuffled."""
    block = [kind for kind, count in counts.items() for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


def _rng(seed: int, client: int, salt: str) -> random.Random:
    return random.Random(f"{salt}/{seed}/{client}")


def op_sequence_hash(workload: Workload, seed: int) -> str:
    """Fingerprint of the generated ops: same seed ⇒ same hash."""
    digest = hashlib.sha256()
    for client in range(workload.connections):
        ops = flatten(workload.stream(seed, client))
        for op in itertools.islice(ops, HASHED_OPS):
            digest.update(repr((op.kind, op.sql, op.params)).encode())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# mask_cold — the section 4.1 search mask generating dynamic Preference SQL

_PRODUCTS_DDL = (
    "CREATE TABLE products (product_id INTEGER, manufacturer TEXT, "
    "width INTEGER, spinspeed INTEGER, powerconsumption REAL, "
    "waterconsumption INTEGER, price INTEGER)"
)
_MANUFACTURERS = ("Aturi", "Miola", "Boschner", "Wasch AG", "Eletta")
_NAMED_PREFERENCES = {
    "thrifty": "LOWEST(price) AND LOWEST(powerconsumption)",
    "eco": "LOWEST(waterconsumption) AND LOWEST(powerconsumption)",
    "fast_spin": "HIGHEST(spinspeed)",
}


def _load_mask_cold(connection) -> None:
    relation = washing_machines_relation(rows=300)
    connection.execute(_PRODUCTS_DDL)
    connection.cursor().executemany(
        "INSERT INTO products VALUES (?, ?, ?, ?, ?, ?, ?)", relation.rows
    )
    for name, term in _NAMED_PREFERENCES.items():
        connection.execute(f"CREATE PREFERENCE {name} ON products AS {term}")
    connection.commit()
    connection.execute("ANALYZE")
    connection.commit()


def _random_mask(rng: random.Random) -> SearchMask:
    mask = SearchMask(manufacturer=rng.choice(_MANUFACTURERS))
    if rng.random() < 0.8:
        mask.width = rng.randrange(40, 76)
    if rng.random() < 0.7:
        mask.spinspeed = rng.randrange(700, 1700, 10)
    if rng.random() < 0.5:
        mask.max_powerconsumption = round(rng.uniform(0.6, 1.8), 3)
    mask.minimize_waterconsumption = rng.random() < 0.5
    low = rng.randrange(500, 2500)
    mask.price_low, mask.price_high = low, low + rng.randrange(100, 900)
    return mask


def _stream_mask_cold(seed: int, client: int) -> Iterator[Session]:
    rng = _rng(seed, client, "mask_cold")
    names = sorted(_NAMED_PREFERENCES)
    for kind in _blocks(rng, {"mask": 9, "mask_named": 1}):
        sql = mask_to_preference_sql(_random_mask(rng))
        if kind == "mask_named":
            # The e-merchant's persistent PDL preference goes first.
            sql = sql.replace(
                " PREFERRING ",
                f" PREFERRING PREFERENCE {rng.choice(names)} CASCADE ",
            )
        yield (Op(kind, sql),)


def _verify_mask_cold(counters: dict) -> list[str]:
    failures = []
    if counters["plan_cache_hit_rate"] > 0.02:
        failures.append(
            f"plan-cache hit rate {counters['plan_cache_hit_rate']:.3f} > 0.02: "
            "statements are not cold"
        )
    if counters["session_served"] > 0:
        failures.append("session cache served a cold statement")
    return failures


# ----------------------------------------------------------------------
# skyline_scan — host scan → rank columns → winnow kernel

#: table → (distribution, dimensions, rows).  Sized so the cost model
#: (which prices ``BETWEEN`` at a fixed 0.25 selectivity) expects ≥ 5 000
#: candidates and picks an in-memory strategy; at 8 000 rows it picks the
#: NOT EXISTS rewrite, which the probe timed at 50–680 ms against 7–28 ms
#: in memory (see README, "What sizing found").
_POINT_TABLES = {
    "anti3": ("anticorrelated", 3, 20_000),
    "indep4": ("independent", 4, 40_000),
    "corr4": ("correlated", 4, 40_000),
}
_BUCKETS = 12
#: Share of a table's rows inside one ``BETWEEN ? AND ?`` window.
_WINDOW = 0.10

#: kind → (table, window column, statement).
_SKYLINE_TEMPLATES = {
    "anti3_pareto": (
        "anti3",
        "d0",
        "SELECT * FROM anti3 WHERE d0 BETWEEN ? AND ? "
        "PREFERRING LOWEST(d0) AND LOWEST(d1) AND LOWEST(d2)",
    ),
    "anti3_mixed": (
        "anti3",
        "d1",
        "SELECT * FROM anti3 WHERE d1 BETWEEN ? AND ? "
        "PREFERRING LOWEST(d0) AND HIGHEST(d1) AND d2 AROUND 0.3",
    ),
    "indep4_pareto": (
        "indep4",
        "d0",
        "SELECT * FROM indep4 WHERE d0 BETWEEN ? AND ? "
        "PREFERRING LOWEST(d0) AND LOWEST(d1) AND LOWEST(d2) AND LOWEST(d3)",
    ),
    "indep4_cascade": (
        "indep4",
        "d3",
        "SELECT * FROM indep4 WHERE d3 BETWEEN ? AND ? "
        "PREFERRING (LOWEST(d0) AND HIGHEST(d1)) CASCADE LOWEST(d2)",
    ),
    "indep4_grouping": (
        "indep4",
        "d2",
        "SELECT row_id, d0, d1 FROM indep4 WHERE d2 BETWEEN ? AND ? "
        "PREFERRING LOWEST(d0) AND LOWEST(d1) GROUPING bucket",
    ),
    "corr4_pareto": (
        "corr4",
        "d0",
        "SELECT * FROM corr4 WHERE d0 BETWEEN ? AND ? "
        "PREFERRING LOWEST(d0) AND LOWEST(d1) AND LOWEST(d2) AND LOWEST(d3)",
    ),
    "corr4_mixed": (
        "corr4",
        "d1",
        "SELECT * FROM corr4 WHERE d1 BETWEEN ? AND ? "
        "PREFERRING HIGHEST(d0) AND HIGHEST(d1) AND d2 AROUND 0.5 AND LOWEST(d3)",
    ),
    "corr4_cascade": (
        "corr4",
        "d2",
        "SELECT * FROM corr4 WHERE d2 BETWEEN ? AND ? "
        "PREFERRING LOWEST(d0) CASCADE LOWEST(d1) AND LOWEST(d2)",
    ),
}


@functools.lru_cache(maxsize=None)
def _points(table: str) -> np.ndarray:
    distribution, dimensions, rows = _POINT_TABLES[table]
    return DISTRIBUTIONS[distribution](rows, dimensions, seed=7)


@functools.lru_cache(maxsize=None)
def _sorted_column(table: str, column: str) -> np.ndarray:
    return np.sort(_points(table)[:, int(column[1:])])


def _load_skyline_scan(connection) -> None:
    for table, (_distribution, dimensions, rows) in _POINT_TABLES.items():
        matrix = _points(table)
        buckets = np.random.default_rng(8).integers(0, _BUCKETS, size=rows)
        columns = ", ".join(f"d{i} REAL" for i in range(dimensions))
        connection.execute(
            f"CREATE TABLE {table} (row_id INTEGER PRIMARY KEY, {columns}, "
            "bucket INTEGER)"
        )
        marks = ", ".join("?" * (dimensions + 2))
        connection.cursor().executemany(
            f"INSERT INTO {table} VALUES ({marks})",
            zip(range(rows), *matrix.T.tolist(), buckets.tolist()),
        )
    connection.commit()
    connection.execute("ANALYZE")
    connection.commit()


def _stream_skyline_scan(seed: int, client: int) -> Iterator[Session]:
    rng = _rng(seed, client, "skyline_scan")
    for kind in _blocks(rng, dict.fromkeys(_SKYLINE_TEMPLATES, 1)):
        table, column, sql = _SKYLINE_TEMPLATES[kind]
        values = _sorted_column(table, column)
        # Window bounds are quantiles, so every window holds the same
        # share of the table wherever it lies; two windows drawn this way
        # never nest, so no op refines its predecessor.
        span = int(len(values) * _WINDOW)
        start = rng.randrange(0, len(values) - span)
        bounds = (float(values[start]), float(values[start + span - 1]))
        yield (Op(kind, sql, bounds),)


def _verify_skyline_scan(counters: dict) -> list[str]:
    failures = []
    if counters["session_served"] > 0:
        failures.append("session cache served a skyline window")
    shares = counters["strategy_shares"]
    in_memory = sum(shares.get(name, 0.0) for name in IN_MEMORY)
    if in_memory < 0.9:
        failures.append(
            f"in-memory strategies ran {in_memory:.2f} of ops (< 0.90): {shares}"
        )
    return failures


# ----------------------------------------------------------------------
# jobs_rewrite — the section 3.3 table: conjunctive / disjunctive / preferring

JOBS_ROWS = 30_000
_JOBS_FLAVOURS = ("conjunctive", "disjunctive", "preferring")


def _jobs_statements() -> dict[str, str]:
    statements = {}
    for pool in POOLS:
        for condition_set in CONDITION_SETS:
            queries = benchmark_queries(pool, condition_set)
            for flavour in _JOBS_FLAVOURS:
                kind = f"{flavour}_{pool}{condition_set}"
                statements[kind] = getattr(queries, flavour)
    return statements


def _load_jobs_rewrite(connection) -> None:
    load_jobs(connection, n=JOBS_ROWS)
    connection.execute("ANALYZE")
    connection.commit()


def _stream_jobs_rewrite(seed: int, client: int) -> Iterator[Session]:
    rng = _rng(seed, client, "jobs_rewrite")
    statements = _jobs_statements()
    # The section 3.3 table cycled uniformly: every statement once a block.
    for kind in _blocks(rng, dict.fromkeys(statements, 1)):
        yield (Op(kind, statements[kind]),)


def _verify_jobs_rewrite(counters: dict) -> list[str]:
    failures = []
    for kind, strategies in counters["strategies_by_kind"].items():
        expected = "rewrite" if kind.startswith("preferring") else "passthrough"
        if set(strategies) != {expected}:
            failures.append(f"{kind} ran as {strategies}, expected {expected}")
    return failures


# ----------------------------------------------------------------------
# serve_zipf — the resident middleware under a Zipfian session mix

_ZIPF_S = 1.1
_ZIPF_BLOCK = 100


def _load_traffic(connection) -> None:
    load_traffic_database(connection, scale=1.0)
    connection.execute("ANALYZE")
    connection.commit()


def _zipf_counts(names: Sequence[str]) -> dict[str, int]:
    """Sessions per block and chain: Zipf(s) shares, largest remainder."""
    weights = [1.0 / (rank**_ZIPF_S) for rank in range(1, len(names) + 1)]
    exact = [_ZIPF_BLOCK * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in exact]
    by_remainder = sorted(
        range(len(names)), key=lambda i: exact[i] - counts[i], reverse=True
    )
    for index in by_remainder[: _ZIPF_BLOCK - sum(counts)]:
        counts[index] += 1
    return dict(zip(names, counts))


def _stream_serve_zipf(seed: int, client: int) -> Iterator[Session]:
    rng = _rng(seed, client, "serve_zipf")
    chains = {chain.name: chain for chain in query_chains()}
    for name in _blocks(rng, _zipf_counts(list(chains))):
        yield tuple(
            Op(f"{name}.{step}", sql)
            for step, sql in enumerate(chains[name].statements)
        )


def _verify_serve_zipf(counters: dict) -> list[str]:
    failures = []
    if counters["plan_cache_hit_rate"] < 0.99:
        failures.append(
            f"plan-cache hit rate {counters['plan_cache_hit_rate']:.4f} < 0.99"
        )
    if counters["session_served"] == 0:
        failures.append("no refinement was served from a session cache")
    return failures


# ----------------------------------------------------------------------
# serve_dml — the same server with one write in ten

BEST_VALUE_VIEW = (
    "CREATE PREFERENCE VIEW best_value AS SELECT * FROM products "
    "PREFERRING LOWEST(price) AND LOWEST(waterconsumption)"
)
BEST_VALUE_QUERY = BEST_VALUE_VIEW.split(" AS ", 1)[1]
#: Rows ``load_traffic_database(scale=1.0)`` puts into ``products``.
PRODUCT_ROWS = 3_000

#: Sessions per block of 100 ops, the same for both callers: 10 writes
#: (INSERT 5 / UPDATE 3 / DELETE 2) and 90 reads in three equal parts — 10
#: shop-browse chains of 3 statements, 30 reads of the view, 30 key
#: lookups.  Both callers write, so two writes can meet on the two pooled
#: connections.
_DML_SESSIONS = {
    "browse": 10, "view": 30, "lookup": 30, "insert": 5, "update": 3, "delete": 2,
}


def _load_serve_dml(connection) -> None:
    _load_traffic(connection)
    connection.execute(BEST_VALUE_VIEW)
    connection.commit()


def _stream_serve_dml(seed: int, client: int) -> Iterator[Session]:
    rng = _rng(seed, client, "serve_dml")
    browse = next(
        chain for chain in query_chains() if chain.name == "shop-browse"
    )
    # A delete always finds its row: it takes the oldest key this same
    # (sequential) caller inserted and has not deleted yet.  Callers
    # insert into ranges of keys that do not meet.
    next_key = 1_000_000 * (client + 1)
    inserted: list[int] = []
    for kind in _blocks(rng, _DML_SESSIONS):
        if kind == "delete" and not inserted:
            kind = "insert"
        if kind == "browse":
            yield tuple(
                Op(f"browse.{step}", sql)
                for step, sql in enumerate(browse.statements)
            )
        elif kind == "view":
            yield (Op("view", "SELECT * FROM best_value"),)
        elif kind == "lookup":
            key = rng.randrange(1, PRODUCT_ROWS + 1)
            yield (
                Op("lookup", "SELECT * FROM products WHERE product_id = ?", (key,)),
            )
        elif kind == "insert":
            row = (
                next_key,
                rng.choice(_MANUFACTURERS),
                rng.choice((45, 50, 55, 60, 65, 70)),
                rng.choice((800, 1000, 1200, 1400, 1600)),
                round(rng.uniform(0.6, 1.8), 2),
                rng.randrange(35, 75),
                rng.randrange(600, 3200, 10),
            )
            inserted.append(next_key)
            next_key += 1
            yield (
                Op(
                    "insert",
                    "INSERT INTO products VALUES (?, ?, ?, ?, ?, ?, ?)",
                    row,
                    write="insert",
                ),
            )
        elif kind == "update":
            key = rng.randrange(1, PRODUCT_ROWS + 1)
            price = rng.randrange(600, 3200, 10)
            yield (
                Op(
                    "update",
                    "UPDATE products SET price = ? WHERE product_id = ?",
                    (price, key),
                    write="update",
                ),
            )
        else:
            yield (
                Op(
                    "delete",
                    "DELETE FROM products WHERE product_id = ?",
                    (inserted.pop(0),),
                    write="delete",
                ),
            )


def _verify_serve_dml(counters: dict) -> list[str]:
    failures = []
    if counters["session_invalidations"] == 0:
        failures.append("no session cache entry was invalidated by a write")
    if not counters["view_counters"]:
        failures.append("no view maintenance ran")
    return failures


# ----------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="mask_cold",
            served=False,
            connections=1,
            warmup_ops=250,
            checks_per_kind=40,
            replay_ops=200,
            load=_load_mask_cold,
            stream=_stream_mask_cold,
            verify=_verify_mask_cold,
        ),
        Workload(
            name="skyline_scan",
            served=False,
            connections=1,
            warmup_ops=32,
            checks_per_kind=1,
            replay_ops=32,
            load=_load_skyline_scan,
            stream=_stream_skyline_scan,
            verify=_verify_skyline_scan,
        ),
        Workload(
            name="jobs_rewrite",
            served=False,
            connections=1,
            warmup_ops=60,
            checks_per_kind=1,
            replay_ops=126,
            load=_load_jobs_rewrite,
            stream=_stream_jobs_rewrite,
            verify=_verify_jobs_rewrite,
        ),
        Workload(
            name="serve_zipf",
            served=True,
            connections=2,
            warmup_ops=150,
            checks_per_kind=1,
            replay_ops=198,
            load=_load_traffic,
            stream=_stream_serve_zipf,
            verify=_verify_serve_zipf,
        ),
        Workload(
            name="serve_dml",
            served=True,
            connections=2,
            warmup_ops=100,
            checks_per_kind=1,
            replay_ops=100,
            load=_load_serve_dml,
            stream=_stream_serve_dml,
            verify=_verify_serve_dml,
        ),
    )
}

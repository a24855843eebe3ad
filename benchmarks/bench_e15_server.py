"""E15 — the preference query server under concurrent session traffic.

Benchmarks one slice of each part of the e15 experiment: the skyline
offload paths (serial columnar kernel vs the forced process pool over
shared-memory rank transport) and one burst of Zipfian session traffic
through the asyncio server, asserting row parity against a standalone
connection.  The E15 experiment in miniature.
"""

import asyncio
import os
import shutil
import tempfile

import pytest

import repro
from repro.bench.conftest import *  # noqa: F401,F403 - benchmark fixtures
from repro.engine import columnar_skyline, compute_rank_columns
from repro.engine.parallel import ParallelExecutor
from repro.model.builder import build_preference
from repro.sql.parser import parse_preferring
from repro.workloads.distributions import DISTRIBUTIONS, lowest_preference_sql
from repro.workloads.traffic import (
    load_traffic_database,
    query_chains,
    zipfian_schedule,
)

ROWS = 16_000
DIMENSIONS = 3


def _ranked_workload():
    matrix = DISTRIBUTIONS["anticorrelated"](ROWS, DIMENSIONS, seed=15)
    vectors = [tuple(row) for row in matrix.tolist()]
    preference = build_preference(
        parse_preferring(lowest_preference_sql(DIMENSIONS))
    )
    ranks = compute_rank_columns(preference, vectors)
    assert ranks is not None
    return preference, vectors, ranks


def test_serial_columnar_kernel(benchmark):
    _preference, _vectors, ranks = _ranked_workload()
    winners = benchmark(lambda: columnar_skyline(ranks, range(ROWS)))
    assert winners


def test_process_pool_offload(benchmark):
    preference, vectors, ranks = _ranked_workload()
    serial = sorted(columnar_skyline(ranks, range(ROWS)))
    with ParallelExecutor(max_workers=2, backend="process") as executor:
        winners = benchmark(
            lambda: executor.maximal_indices(preference, vectors, ranks=ranks)
        )
        assert executor.last_backend == "process"
    assert sorted(winners) == serial


@pytest.fixture()
def traffic_database():
    directory = tempfile.mkdtemp(prefix="repro-bench-e15-")
    database = os.path.join(directory, "traffic.db")
    loader = repro.connect(database)
    load_traffic_database(loader, scale=0.25)
    loader.execute("ANALYZE")
    loader.close()
    yield database
    shutil.rmtree(directory, ignore_errors=True)


def test_traffic_burst(benchmark, traffic_database):
    from repro.server import PreferenceClient, PreferenceServer

    chains = query_chains()
    schedule = zipfian_schedule(len(chains), sessions=30, seed=29)

    async def burst():
        async with PreferenceServer(traffic_database, pool_size=2) as server:
            client = await PreferenceClient.connect(server.host, server.port)
            count = 0
            try:
                for index in schedule:
                    for sql in chains[index].statements:
                        _columns, rows = await client.query(sql)
                        count += 1
            finally:
                await client.close()
            return count, server.stats()

    count, stats = benchmark(lambda: asyncio.run(burst()))
    assert count == sum(len(chains[i].statements) for i in schedule)
    assert stats["admission"]["errors"] == 0
    assert stats["plan_cache"]["hit_rate"] > 0.5

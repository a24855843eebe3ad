"""Fault-injection chaos suite: the server survives what clients cannot see.

Each fault class from the robustness tentpole gets a deterministic
scenario: injected sqlite errors, broken pooled connections, client
disconnects mid-query, and slow queries past their deadline.  The common assertions:

* **no wedge** — every request completes or fails fast (the whole suite
  runs under asyncio timeouts),
* **no stale or wrong serves** — every successful reply matches a fresh
  single-connection oracle row-for-row,
* **counters conserved** — once idle, ``admitted == served + errors +
  cancelled`` and the waiting/inflight gauges read zero,
* **bounded recovery** — after the fault plan is removed, the next
  request succeeds (the pool healed).
"""

import asyncio
import json
import sqlite3

import pytest

import repro
from repro.server import PreferenceClient, PreferenceServer, ServerError
from repro.testing import FaultPlan, FaultRule, faults, injected
from repro.testing.faults import break_pooled_connection
from repro.workloads.traffic import (
    load_traffic_database,
    query_chains,
    zipfian_schedule,
)


@pytest.fixture(autouse=True)
def no_leftover_plan():
    """Every scenario starts and ends with inert injection points."""
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def traffic_database(tmp_path_factory):
    """The server traffic scenarios in one file database."""
    path = str(tmp_path_factory.mktemp("chaos") / "traffic.db")
    connection = repro.connect(path, isolation_level=None)
    load_traffic_database(connection, scale=0.4)
    connection.close()
    return path


@pytest.fixture(scope="module")
def oracle(traffic_database):
    """Fresh-connection expected rows per statement, fault-free."""
    chains = query_chains()
    expected: dict[str, list] = {}
    connection = repro.connect(traffic_database)
    for chain in chains:
        for sql in chain.statements:
            if sql not in expected:
                rows = connection.execute(sql).fetchall()
                expected[sql] = sorted([list(row) for row in rows], key=repr)
    connection.close()
    return expected


def serve(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=120))


async def run_traffic(
    server,
    oracle,
    sessions=10,
    retries=3,
    timeout_ms=10_000,
    seed=5,
):
    """Zipfian chain traffic against the server; parity-checked replies.

    Returns ``(wrong, errors)`` — replies that differ from the oracle
    (must stay empty under every fault mix) and the structured errors
    that survived the client's bounded retries.  A firing
    ``client.disconnect`` point makes the chaos client drop its
    connection mid-exchange and reconnect.
    """
    chains = query_chains()
    schedule = zipfian_schedule(len(chains), sessions, seed=seed)
    wrong: list[tuple[str, str]] = []
    errors: list[ServerError] = []
    for chain_index in schedule:
        chain = chains[chain_index]
        client = await PreferenceClient.connect(server.host, server.port)
        try:
            for sql in chain.statements:
                if faults.fire("client.disconnect", sql=sql):
                    # Hang up mid-query: send, never read the reply.
                    line = json.dumps({"op": "query", "sql": sql}) + "\n"
                    async with client._lock:
                        client._writer.write(line.encode("utf-8"))
                        await client._writer.drain()
                    await client.close()
                    client = await PreferenceClient.connect(
                        server.host, server.port
                    )
                    continue
                try:
                    _columns, rows = await client.query(
                        sql,
                        timeout_ms=timeout_ms,
                        retries=retries,
                    )
                except ServerError as error:
                    errors.append(error)
                    continue
                if sorted(rows, key=repr) != oracle[sql]:
                    wrong.append((chain.name, sql))
        finally:
            await client.close()
    return wrong, errors


async def settle(server):
    """Wait for the admission gauges to drain back to idle."""
    for _ in range(200):
        if server._inflight == 0 and server._waiting == 0:
            return
        await asyncio.sleep(0.02)
    raise AssertionError("server did not return to idle")


def assert_conserved(server):
    assert server._inflight == 0
    assert server._waiting == 0
    assert server.admitted == server.served + server.errors + server.cancelled


class TestChaosTraffic:
    """Traffic-level fault mixes through the full server stack."""

    def test_injected_sqlite_errors_are_retried_away(
        self, traffic_database, oracle
    ):
        async def body():
            plan = FaultPlan(
                [
                    FaultRule(
                        "driver.execute",
                        times=None,
                        probability=0.15,
                        error=lambda: sqlite3.OperationalError(
                            "chaos: injected database failure"
                        ),
                    )
                ],
                seed=11,
            )
            async with PreferenceServer(traffic_database, pool_size=2) as server:
                with injected(plan):
                    wrong, errors = await run_traffic(server, oracle)
                await settle(server)
                assert wrong == []
                # Bounded retries may still be exhausted by back-to-back
                # firings; whatever surfaced must be structured+retryable.
                for error in errors:
                    assert error.code == "database"
                    assert error.retryable
                assert_conserved(server)
                assert plan.fires.get("driver.execute", 0) >= 1
                # Bounded recovery: inert points, first query succeeds.
                client = await PreferenceClient.connect(
                    server.host, server.port
                )
                _columns, rows = await client.query(
                    "SELECT * FROM products WHERE product_id = 17"
                )
                assert sorted(rows, key=repr) == oracle[
                    "SELECT * FROM products WHERE product_id = 17"
                ]
                await client.close()

        serve(body())

    def test_broken_pooled_connections_heal_invisibly(
        self, traffic_database, oracle
    ):
        async def body():
            plan = FaultPlan(
                [
                    FaultRule(
                        "pool.checkout",
                        times=3,
                        every=4,
                        action=break_pooled_connection,
                    )
                ]
            )
            async with PreferenceServer(traffic_database, pool_size=2) as server:
                with injected(plan):
                    wrong, errors = await run_traffic(server, oracle)
                await settle(server)
                # The health check catches every break at checkout: no
                # client ever sees a broken connection.
                assert wrong == []
                assert errors == []
                assert server.pool.recycled == plan.fires["pool.checkout"] == 3
                assert (
                    server.pool.shared.event_counts()["connection_recycled"]
                    == 3
                )
                assert_conserved(server)

        serve(body())

    def test_client_disconnects_mid_query_do_not_wedge(
        self, traffic_database, oracle
    ):
        async def body():
            plan = FaultPlan(
                [FaultRule("client.disconnect", times=4, every=3)]
            )
            async with PreferenceServer(traffic_database, pool_size=2) as server:
                with injected(plan):
                    wrong, errors = await run_traffic(server, oracle)
                await settle(server)
                assert wrong == []
                assert errors == []
                assert plan.fires["client.disconnect"] == 4
                assert_conserved(server)
                # The pool reclaimed every connection.
                assert server.pool.stats()["free"] == server.pool.size
                # Cross-session caching took effect under the traffic:
                # later sessions hit plans cached by earlier ones, and
                # some refinement was served from a session cache.
                stats = server.stats()
                assert stats["plan_cache"]["hits"] >= 1
                assert stats["sessions"]["served"] >= 1

        serve(body())

    def test_slow_queries_time_out_and_release_workers(self, traffic_database):
        async def body():
            plan = FaultPlan(
                [
                    FaultRule(
                        "server.slow_query",
                        times=None,
                        delay=0.5,
                    )
                ]
            )
            async with PreferenceServer(
                traffic_database, pool_size=2, default_timeout_ms=150
            ) as server:
                client = await PreferenceClient.connect(
                    server.host, server.port
                )
                with injected(plan):
                    for _ in range(3):
                        with pytest.raises(ServerError) as excinfo:
                            await client.query(
                                "SELECT * FROM products WHERE product_id = 17"
                            )
                        assert excinfo.value.code == "timeout"
                        assert excinfo.value.retryable
                await settle(server)
                # Workers reclaimed: the very next (fault-free) query runs.
                _columns, rows = await client.query(
                    "SELECT * FROM products WHERE product_id = 17"
                )
                assert rows
                # A per-request budget overrides the server default.
                _columns, rows = await client.query(
                    "SELECT * FROM products WHERE product_id = 17",
                    timeout_ms=30_000,
                )
                assert rows
                await client.close()
                assert_conserved(server)

        serve(body())

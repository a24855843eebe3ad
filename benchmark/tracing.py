"""The traced pass: per-layer times measured from the benchmark's files.

The timed windows carry no instrumentation.  After them, a seeded sample
of the same request stream is replayed *step by step* through each
layer's public entry point — ``sql.tokenize`` → ``sql.parse_statement``
→ ``rewrite.rewrite_statement`` → ``Connection.plan`` /
``plan.rebind_plan`` → the raw host scan → ``engine.rank_columns_from_values``
→ ``engine.columnar_skyline`` → ``engine.bmo.run_plan`` — and then once
whole through ``Connection.execute``.  Every call is wrapped in an
in-memory span ``{name, start, end, parent, op_id}``; the spans are
written to ``trace_<workload>.json`` when the pass ends.  A layer's self
time is its span minus the child spans measured for the same op.

Served workloads add what only the wire can show: ``ping`` and
pass-through round trips, per-statement round trips on one connection,
the cost of ``json.dumps`` on the reply, throughput on one connection
against two, and (``serve_zipf``) an open loop at a fixed rate.

Spans inside ``src/`` are a later change (ROADMAP, "a tracing spine").
"""

from __future__ import annotations

import contextlib
import itertools
import json
import random
import re
import statistics
import time
from pathlib import Path
from typing import Iterator, Sequence

import repro
from benchmark.runner import Driver, Measurement, percentile, summarise
from benchmark.workloads import Op, Workload, flatten
from repro.engine import columnar_skyline, rank_columns_from_values
from repro.engine.bmo import run_plan
from repro.errors import PreferenceSQLError
from repro.model import build_preference
from repro.plan import rebind_plan
from repro.plan.planner import inline_named_preferences
from repro.rewrite import rewrite_statement
from repro.sql import ast, parse_statement, to_sql, tokenize
from repro.sql.params import bind_parameters

#: Strategies ``execute(..., algorithm=)`` can pin; the quadratic one last,
#: so that :func:`_best_time` can give up on it after one execution.
FORCEABLE = ("bnl", "sfs", "dnc", "parallel", "rewrite")
#: The open loop's fixed arrival rate, requests per second.
OPEN_LOOP_RATE = 100.0
#: Round trips per wire probe.
PROBES = 200
#: Longest one-connection window and open loop, seconds: a traced run
#: must fit the driver's per-run budget beside its full timed window.
SIDE_SECONDS = 3.0

_PREFERENCE = re.compile(r"\b(PREFERRING|PREFERENCE)\b", re.IGNORECASE)


class Recorder:
    """In-memory spans; nothing is written until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_id = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        record = {
            "name": name,
            "op_id": self.op_id,
            "parent": self._open[-1] if self._open else None,
            "start": 0.0,
            "end": 0.0,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def milliseconds(self, name: str) -> list[float]:
        return [_duration(span) for span in self.spans if span["name"] == name]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans), encoding="utf-8")


def median(values: Sequence[float]) -> float:
    """Median, or 0 for a layer the workload never reached."""
    return statistics.median(values) if values else 0.0


def _has_named(term: ast.PrefTerm) -> bool:
    if isinstance(term, ast.NamedPref):
        return True
    return any(_has_named(part) for part in getattr(term, "parts", ()))


def _duration(span: dict) -> float:
    return 1e3 * (span["end"] - span["start"])


# ----------------------------------------------------------------------
# The embedded, step-by-step replay


def trace_op(whole, connection, runner, op: Op, recorder: Recorder) -> dict:
    """One op through every layer, then whole; returns its accounting.

    Three connections, because sqlite keeps a per-connection cache of
    prepared statements keyed on SQL text: were the host scan, ``run_plan``
    and the whole ``execute`` to share one, only the first would pay for
    preparing the (literal-bearing, so mostly unique) host SQL and the
    other two would look cheaper than they are in the timed window.
    ``connection`` plans and scans, ``runner`` executes plans, ``whole``
    sees exactly the statements an untraced connection would.
    """
    raw = connection.raw
    span = recorder.span
    record: dict = {"kind": op.kind, "write": op.write is not None}
    # What the whole execute() will do again: these add up to its stages.
    stages: dict[str, float] = {}
    plan = None

    with span("steps"):
        if not _PREFERENCE.search(op.sql):
            if not record["write"]:
                with span("host.scan") as scan:
                    rows = raw.execute(op.sql, op.params).fetchall()
                stages["host.scan"] = _duration(scan)
                record["candidates"] = record["results"] = len(rows)
        else:
            with span("sql.tokenize"):
                record["tokens"] = len(tokenize(op.sql))
            with span("sql.parse") as parse:
                statement = parse_statement(op.sql)
            stages["sql.parse"] = _duration(parse)
            resolver = connection.catalog.resolve
            if _has_named(statement.preferring):
                with span("pdl.resolve"):
                    inline_named_preferences(statement.preferring, resolver)
            with span("plan.plan") as planning:
                plan = connection.plan(statement, op.params)
            stages["plan.plan"] = _duration(planning)
            if plan.strategy in FORCEABLE + ("prejoin",) and not plan.semantic_rule:
                schema = connection.schema()
                with span("rewrite.rewrite"):
                    bound = bind_parameters(statement, op.params)
                    rewritten = rewrite_statement(bound, schema=schema, resolver=resolver)
                record["sql_bytes"] = len(to_sql(rewritten.statement))
                with span("plan.rebind") as rebind:
                    bound = bind_parameters(statement, op.params)
                    rebind_plan(plan, bound, schema=schema, resolver=resolver)
                stages["plan.rebind"] = _duration(rebind)
                _trace_execution(raw, runner.raw, plan, recorder, record, stages)

    hits = whole.plan_cache_stats().hits
    with span("driver.execute") as execution:
        cursor = whole.execute(op.sql, op.params)
        rows = cursor.fetchall() if cursor.description is not None else []
    record["execute_ms"] = _duration(execution)
    executed = cursor.plan.strategy if cursor.plan is not None else "passthrough"
    record["strategy"] = executed
    record.setdefault("results", len(rows))

    # Which of the measured stages this execute() went through.
    if executed == "passthrough":
        path = ["host.scan"]
    elif executed == "session":
        path = ["plan.plan"]
    elif whole.plan_cache_stats().hits > hits:
        path = (["plan.rebind"] if op.params else []) + ["engine.run_plan"]
    else:
        path = ["sql.parse", "plan.plan", "engine.run_plan"]
    record["stages_ms"] = sum(stages.get(name, 0.0) for name in path)
    return record


def _trace_execution(
    raw, runner_raw, plan, recorder: Recorder, record: dict, stages: dict
) -> None:
    """Host scan, rank columns, kernel and ``run_plan`` of one plan."""
    span = recorder.span
    host_sql = plan.prejoin_scan_sql or plan.pushdown_sql or plan.rewritten_sql
    with span("host.scan"):
        cursor = raw.execute(host_sql)
        rows = cursor.fetchall()
    if plan.uses_engine:
        record["candidates"] = len(rows)
        width = plan.rank_width
        if width and not plan.residual.grouping:
            preference = build_preference(plan.residual.preferring)
            with span("engine.rank"):
                split = len(cursor.description) - width
                cells = [[row[split + k] for row in rows] for k in range(width)]
                ranks = rank_columns_from_values(preference, cells)
            if ranks is not None and ranks.mode is not None:
                flavor = plan.strategy if plan.strategy in ("bnl", "sfs", "dnc") else "sfs"
                with span("engine.kernel") as kernel:
                    winners = columnar_skyline(ranks, range(len(rows)), flavor)
                record["winners"] = len(winners)
                record["kernel_ms"] = _duration(kernel)
    with span("engine.run_plan") as running:
        result = run_plan(runner_raw.execute, plan)
    stages["engine.run_plan"] = _duration(running)
    record["results"] = len(result.rows)
    if "candidates" not in record:
        # A rewrite answers inside sqlite; count what its WHERE admits.
        select = plan.statement
        if isinstance(select, ast.Select) and select.where is not None:
            count = ast.Select(
                items=(ast.SelectItem(ast.FuncCall("COUNT", (), star=True)),),
                sources=select.sources,
                where=select.where,
            )
            record["candidates"] = raw.execute(to_sql(count)).fetchone()[0]


def replay(workload: Workload, database: str, seed: int, recorder: Recorder) -> list[dict]:
    """The first ``replay_ops`` ops of the stream, traced in order."""
    # The pool opens its connections in autocommit, so that a write is
    # durable (one fsync) before its reply; the replay of a served
    # workload must pay for the same.
    options = {"isolation_level": None} if workload.served else {}
    connections = [repro.connect(database, **options) for _ in range(3)]
    records = []
    try:
        ops = flatten(workload.stream(seed, 0))
        written = False
        for op_id in range(workload.replay_ops):
            recorder.op_id = op_id
            record = trace_op(*connections, next(ops), recorder)
            if record["write"]:
                written = True
            elif record["strategy"] != "passthrough":
                # The first preference read after a write pays for the
                # invalidation; the others find the caches as they left them.
                record["after_write"], written = written, False
            records.append(record)
    finally:
        for connection in connections:
            connection.close()
    return records


def regret(workload: Workload, database: str, seed: int) -> list[float]:
    """Per preference template: chosen strategy's time ÷ the best one's.

    Pinned executions bypass the plan cache, so the chosen strategy is
    timed pinned too; every ratio is therefore at least 1.
    """
    connection = repro.connect(database)
    ratios = []
    try:
        first: dict[str, Op] = {}
        stream = flatten(workload.stream(seed, 0))
        for op in itertools.islice(stream, workload.replay_ops):
            first.setdefault(op.kind, op)
        for op in first.values():
            if not _PREFERENCE.search(op.sql):
                continue
            chosen = connection.plan(op.sql, op.params).strategy
            if chosen not in FORCEABLE:
                continue
            times: dict[str, float] = {}
            for algorithm in FORCEABLE:
                try:
                    times[algorithm] = _best_time(connection, op, algorithm, times)
                except PreferenceSQLError:
                    continue  # the statement is not eligible for it
            ratios.append(times[chosen] / min(times.values()))
    finally:
        connection.close()
    return ratios


def _best_time(connection, op: Op, algorithm: str, so_far: dict) -> float:
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        connection.execute(op.sql, op.params, algorithm=algorithm).fetchall()
        best = min(best, time.perf_counter() - started)
        if so_far and best > 3 * min(so_far.values()):
            break  # hopeless: do not repeat a quadratic rewrite
    return best


# ----------------------------------------------------------------------
# What only the wire can show


async def wire_probe(driver: Driver, seconds: float, seed: int) -> dict:
    """Round trips, encode cost, one connection against two, open loop."""
    client = driver.clients[0]
    clock = time.perf_counter
    wire: dict = {}

    pings = []
    for _ in range(PROBES):
        started = clock()
        await client.ping()
        pings.append(1e3 * (clock() - started))
    wire["ping_ms"] = median(pings)
    trips = []
    for _ in range(PROBES):
        started = clock()
        await client.query("SELECT 1")
        trips.append(1e3 * (clock() - started))
    wire["passthrough_rtt_ms"] = median(trips)

    served, encode, size = {}, [], []
    for kind, op in sorted(driver.first_seen.items()):
        if op.write:
            continue
        times = []
        for _ in range(5):
            started = clock()
            columns, rows = await client.query(op.sql, op.params)
            times.append(1e3 * (clock() - started))
        served[kind] = min(times)
        started = clock()
        reply = json.dumps({"columns": columns, "rows": rows})
        encode.append(1e3 * (clock() - started))
        size.append(len(reply))
    wire["served_ms"] = served
    wire["encode_ms"] = median(encode)
    wire["reply_bytes"] = median(size)

    side = min(seconds / 4, SIDE_SECONDS)
    single = await driver.closed_loop(seconds=side, connections=1)
    wire["single_qps"] = summarise(single)["throughput_qps"]
    if driver.workload.name == "serve_zipf":
        wire.update(await open_loop(driver, side, seed))
    return wire


async def open_loop(driver: Driver, seconds: float, seed: int) -> dict:
    """Poisson arrivals at a fixed rate, timed from when each was due."""
    import asyncio

    rng = random.Random(f"open/{seed}")
    due, at = [], 0.0
    while at < seconds:
        at += rng.expovariate(OPEN_LOOP_RATE)
        due.append(at)
    ops = flatten(driver.workload.stream(seed, len(driver.clients)))
    requests = [(moment, next(ops)) for moment in due]
    latencies, lateness = [], []
    clock = time.perf_counter
    started = clock()

    async def sender(client) -> None:
        while requests:
            moment, op = requests.pop(0)
            wait = started + moment - clock()
            if wait > 0:
                await asyncio.sleep(wait)
            sent = clock()
            await client.query(op.sql, op.params)
            latencies.append(1e3 * (clock() - started - moment))
            lateness.append(1e3 * (sent - started - moment))

    await asyncio.gather(*(sender(client) for client in driver.clients))
    latencies.sort()
    lateness.sort()
    return {
        "open_p50_ms": percentile(latencies, 0.50),
        "open_p99_ms": percentile(latencies, 0.99),
        "open_late_p99_ms": max(0.0, percentile(lateness, 0.99)),
    }


# ----------------------------------------------------------------------
# From spans and counters to the per-layer metrics


def layer_metrics(
    measurement: Measurement,
    recorder: Recorder,
    records: list[dict],
    ratios: list[float],
    wire: dict,
) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one workload.

    A layer the workload never reaches reports 0.
    """
    counters = measurement.counters
    samples = measurement.window.samples
    reads = [record for record in records if not record["write"]]
    ms = recorder.milliseconds

    def of(key: str, among: list[dict] = records, **where) -> list[float]:
        return [
            record[key]
            for record in among
            if key in record and all(record.get(k) == v for k, v in where.items())
        ]

    shares = counters.get("strategy_shares")
    if shares is None:
        # The wire does not say which strategy ran; the replay does.
        strategies = of("strategy", reads)
        shares = {name: strategies.count(name) / len(reads) for name in set(strategies)}

    # Per template: the replay's whole execute(), the traced pass's time
    # (for a served workload the one-connection round trip) and the
    # untraced window's latency.
    embedded_ms = {
        kind: median(of("execute_ms", reads, kind=kind))
        for kind in set(of("kind", reads))
    }
    traced_ms = wire.get("served_ms", embedded_ms)
    window_ms = {
        kind: 1e3 * median([s[0] for s in samples if s[1] == kind])
        for kind in traced_ms
        if any(s[1] == kind for s in samples)
    }
    view = counters["view_counters"]
    admission = counters.get("admission", {})

    metrics = {
        "sql.tokenize_ms": median(ms("sql.tokenize")),
        "sql.parse_ms": median(ms("sql.parse")),
        "sql.tokens_per_stmt": median(of("tokens")),
        "pdl.resolve_ms": median(ms("pdl.resolve")),
        "rewrite.rewrite_ms": median(ms("rewrite.rewrite")),
        "rewrite.sql_bytes": median(of("sql_bytes")),
        "plan.plan_ms": median(ms("plan.plan")),
        "plan.rebind_ms": median(ms("plan.rebind")),
        "plan.cache_hit_rate": counters["plan_cache_hit_rate"],
        "plan.cache_evictions": counters["plan_cache_evictions"],
        "plan.regret_median": median(ratios),
        "plan.regret_max": max(ratios, default=0.0),
        "plan.session_served_share": counters["session_served"] / len(samples),
        "plan.session_invalidations": counters["session_invalidations"],
        "host.scan_ms": median(ms("host.scan")),
        "host.rows_scanned": median(of("candidates")),
        "host.rows_per_result": median(
            [
                record["candidates"] / max(1, record["results"])
                for record in records
                if "candidates" in record
            ]
        ),
        "engine.rank_ms": median(ms("engine.rank")),
        "engine.kernel_ms": median(ms("engine.kernel")),
        "engine.run_plan_ms": median(ms("engine.run_plan")),
        "engine.candidates": median(
            of("candidates", [r for r in records if "kernel_ms" in r])
        ),
        "engine.winners": median(of("winners")),
        "engine.kernel_rows_per_s": median(
            [
                1e3 * record["candidates"] / record["kernel_ms"]
                for record in records
                if "kernel_ms" in record
            ]
        ),
        "engine.view_incremental_share": (
            (view.get("incremental", 0) + view.get("noop", 0))
            / max(1, sum(view.values()))
        ),
        "engine.view_recomputes": view.get("recompute", 0),
        "engine.view_stale": len(measurement.known),
        "engine.shm_leaked": counters["shm_leaked"],
        "driver.execute_ms": median(of("execute_ms", reads)),
        "driver.self_ms": median(
            [record["execute_ms"] - record["stages_ms"] for record in reads]
        ),
        "driver.passthrough_overhead_us": 1e3
        * median(
            [
                record["execute_ms"] - record["stages_ms"]
                for record in reads
                if record["strategy"] == "passthrough"
            ]
        ),
        "driver.insert_ms": median(of("execute_ms", kind="insert")),
        "driver.update_ms": median(of("execute_ms", kind="update")),
        "driver.delete_ms": median(of("execute_ms", kind="delete")),
        "driver.read_after_write_ms": median(of("execute_ms", after_write=True)),
        "driver.read_steady_ms": median(of("execute_ms", after_write=False)),
        "server.ping_ms": wire.get("ping_ms", 0.0),
        "server.passthrough_rtt_ms": wire.get("passthrough_rtt_ms", 0.0),
        "server.overhead_ms": median(
            [
                served - embedded_ms[kind]
                for kind, served in wire.get("served_ms", {}).items()
                if kind in embedded_ms
            ]
        ),
        "server.encode_ms": wire.get("encode_ms", 0.0),
        "server.reply_bytes": wire.get("reply_bytes", 0.0),
        "server.admitted": admission.get("admitted", 0),
        "server.rejected": admission.get("rejected", 0),
        "server.errors": admission.get("errors", 0),
        "server.recycled": counters.get("recycled", 0),
        "server.concurrency_gain": (
            summarise(measurement.window)["throughput_qps"] / wire["single_qps"]
            if wire
            else 0.0
        ),
        "server.open_p50_ms": wire.get("open_p50_ms", 0.0),
        "server.open_p99_ms": wire.get("open_p99_ms", 0.0),
        "server.open_late_p99_ms": wire.get("open_late_p99_ms", 0.0),
        "trace.coverage": sum(of("stages_ms", reads)) / sum(of("execute_ms", reads)),
        "trace.overhead_ratio": median(
            [traced_ms[kind] / window_ms[kind] for kind in window_ms]
        ),
    }
    for name in FORCEABLE + ("prejoin", "session", "passthrough"):
        metrics[f"plan.strategy.{name}_share"] = shares.get(name, 0.0)
    return metrics

"""Set-up, the timed window and the checks around it, for one workload.

:func:`measure` is the whole of one run: build the database and start
the program (:data:`SETUPS` times, for the median ``setup_s``), let the
window run with no instrumentation, then — outside the window — verify the
traffic, compare answers with the oracle and, for ``serve_dml``, check
conservation.  Everything it writes goes under ``.bench_work/`` in the
checkout.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import repro
from benchmark import ROOT
from benchmark.oracle import check, digest, expected_digest, wrong_answers
from benchmark.workloads import (
    BEST_VALUE_QUERY,
    PRODUCT_ROWS,
    WORKLOADS,
    Op,
    Workload,
    flatten,
)
from repro.errors import PreferenceSQLError
from repro.server import PreferenceClient

WORK = ROOT / ".bench_work"

#: Set-ups per run; ``setup_s`` is their median.  The first ones are torn
#: down again, the last one runs the window.
SETUPS = 3
#: How long the child may take to become ready, and to exit once told to.
READY_TIMEOUT = 120.0
EXIT_TIMEOUT = 60.0

STALE_VIEW = "best_value differs from a fresh evaluation"
#: Checks the program is known to fail at this commit.  They run on every
#: run, are reported as ``KNOWN FAILURE`` and counted in a per-layer
#: metric, and do not make the run incorrect: the benchmark has to work on
#: the parent commit, and ``src/`` is not this change's to repair.  Two
#: pooled connections that write at the same time each read ``best_value``,
#: add their own row and write it back, and the later write-back drops the
#: earlier one's row (README, "What building it found").  The change that
#: repairs it empties this set.
KNOWN_FAILURES = frozenset({STALE_VIEW})


@dataclass
class Window:
    """The samples of one closed-loop window."""

    #: Wall time from the first op's start to the last op's end.
    seconds: float
    #: (latency in seconds, kind, ...) in completion order; an embedded
    #: child appends the strategy and the row count.
    samples: list[tuple] = field(default_factory=list)
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.samples) + self.failed


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def summarise(window: Window) -> dict[str, float]:
    """Throughput and latency over the whole window, nothing left out.

    ``latency_p99_ms`` and ``latency_max_ms`` are printed, never gated.
    """
    latencies = sorted(sample[0] for sample in window.samples)
    return {
        "throughput_qps": len(latencies) / window.seconds,
        "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
        "latency_p95_ms": 1e3 * percentile(latencies, 0.95),
        "latency_p99_ms": 1e3 * percentile(latencies, 0.99),
        "latency_max_ms": 1e3 * latencies[-1],
        "samples": len(latencies),
    }


# ----------------------------------------------------------------------
# Set-up: database + the process that runs the program


@dataclass
class Program:
    """One started child process and the database it serves."""

    workload: Workload
    database: str
    process: subprocess.Popen
    result_path: Path
    port: int | None
    setup_seconds: float

    def stop(self, timeout: float = EXIT_TIMEOUT) -> None:
        """Close the child's stdin, which tells it to exit, and wait."""
        with contextlib.suppress(OSError):
            self.process.stdin.close()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("the program did not exit") from None
        if self.process.returncode != 0:
            raise RuntimeError(
                f"the program exited with code {self.process.returncode}"
            )

    def result(self) -> dict:
        """What the child reported before it exited."""
        with open(self.result_path, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


@contextlib.contextmanager
def work_directory() -> Iterator[Path]:
    """A scratch directory of this invocation's own, removed afterwards.

    While it exists it is also where sqlite and ``multiprocessing`` — in
    this process and in the children it starts — put their temporary
    files, so that nothing is written outside the checkout.
    """
    directory = WORK / f"run-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    names = ("TMPDIR", "SQLITE_TMPDIR")
    before = {name: os.environ.get(name) for name in names}
    os.environ.update(dict.fromkeys(names, str(directory)))
    try:
        yield directory
    finally:
        for name, value in before.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
        shutil.rmtree(directory, ignore_errors=True)


def start_program(
    workload: Workload, directory: Path, index: int, seed: int, seconds: float
) -> Program:
    """Build the database and start the program; timed as ``setup_s``.

    The child prints ``ready`` when the program can take a request and
    then waits: an embedded child for ``go`` on its stdin before it runs
    the window, both kinds for the end of stdin before they exit.
    """
    started = time.perf_counter()
    database = str(directory / f"{workload.name}-{index}.db")
    connection = repro.connect(database)
    try:
        workload.load(connection)
    finally:
        connection.close()
    result_path = directory / f"{workload.name}-{index}.result.json"
    spec_path = directory / f"{workload.name}-{index}.spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "mode": "server" if workload.served else "embedded",
                "workload": workload.name,
                "database": database,
                "connections": workload.connections,
                "seed": seed,
                "seconds": seconds,
                "result": str(result_path),
            }
        ),
        encoding="utf-8",
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmark.child", str(spec_path)],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    readable, _, _ = select.select([process.stdout], [], [], READY_TIMEOUT)
    line = process.stdout.readline() if readable else ""
    if not line.startswith("ready"):
        process.kill()
        process.wait()
        raise RuntimeError(f"the program did not start: {line!r}")
    words = line.split()
    return Program(
        workload=workload,
        database=database,
        process=process,
        result_path=result_path,
        port=int(words[1]) if len(words) > 1 else None,
        setup_seconds=time.perf_counter() - started,
    )


# ----------------------------------------------------------------------
# Driving a server: closed-loop callers over PreferenceClient


class Driver:
    """The benchmark's side of a served workload.

    Each caller owns one connection and one request stream, and sends
    its next request only after the reply to the previous one: the
    callers of a resident middleware are application-server workers
    that wait for their answer.
    """

    def __init__(self, workload: Workload, port: int, seed: int):
        self.workload = workload
        self.port = port
        self.streams = [
            flatten(workload.stream(seed, client))
            for client in range(workload.connections)
        ]
        self.clients: list[PreferenceClient] = []
        #: Acknowledged writes, for the conservation check.
        self.acknowledged = {"insert": 0, "update": 0, "delete": 0}
        #: The first op seen of every template, for the oracle pass.
        self.first_seen: dict[str, Op] = {}

    async def __aenter__(self) -> "Driver":
        for _ in self.streams:
            self.clients.append(
                await PreferenceClient.connect("127.0.0.1", self.port)
            )
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        for client in self.clients:
            await client.close()

    async def closed_loop(
        self,
        seconds: float | None = None,
        ops: int | None = None,
        connections: int | None = None,
    ) -> Window:
        """Run until ``seconds`` have passed or ``ops`` were attempted."""
        window = Window(seconds=0.0)
        clock = time.perf_counter
        started = clock()
        deadline = started + seconds if seconds is not None else None

        async def caller(index: int) -> None:
            client, stream = self.clients[index], self.streams[index]
            while True:
                if ops is not None and window.attempted >= ops:
                    return
                op = next(stream)
                self.first_seen.setdefault(op.kind, op)
                begin = clock()
                try:
                    await client.query(op.sql, op.params)
                except PreferenceSQLError:
                    window.failed += 1
                else:
                    window.samples.append((clock() - begin, op.kind))
                    if op.write:
                        self.acknowledged[op.write] += 1
                if deadline is not None and clock() >= deadline:
                    return

        await asyncio.gather(
            *(caller(i) for i in range(connections or len(self.clients)))
        )
        window.seconds = clock() - started
        return window

    async def checks(self) -> list[dict]:
        """Every template's first op once more, now that all is quiet."""
        checks = []
        for _kind, op in sorted(self.first_seen.items()):
            if not op.write:
                _columns, rows = await self.clients[0].query(op.sql, op.params)
                checks.append(check(op, rows))
        return checks

    async def conservation(self, database: str) -> list[str]:
        """``serve_dml``: the view is fresh and no row was lost or kept."""
        failures = []
        _columns, rows = await self.clients[0].query("SELECT * FROM best_value")
        if digest(rows) != expected_digest(database, BEST_VALUE_QUERY, ()):
            failures.append(STALE_VIEW)
        _columns, rows = await self.clients[0].query("SELECT COUNT(*) FROM products")
        expected = (
            PRODUCT_ROWS + self.acknowledged["insert"] - self.acknowledged["delete"]
        )
        if rows[0][0] != expected:
            failures.append(
                f"products holds {rows[0][0]} rows, expected {expected} "
                f"({PRODUCT_ROWS} + {self.acknowledged['insert']} inserts − "
                f"{self.acknowledged['delete']} deletes)"
            )
        return failures


# ----------------------------------------------------------------------
# One run


@dataclass
class Measurement:
    """What one run of one workload found."""

    workload: str
    window: Window
    setup_seconds: list[float]
    peak_rss_mb: float
    #: The program's public counters over the window (see ``counters``).
    counters: dict
    wrong: list[str]
    unverified: list[str]
    #: Failed checks that are in :data:`KNOWN_FAILURES`.
    known: list[str]
    database: str

    @property
    def correct(self) -> bool:
        return not self.wrong and not self.unverified


def embedded_counters(result: dict) -> dict:
    """Verification counters from what the embedded child reported."""
    cache = result["plan_cache"]
    lookups = cache["hits"] + cache["misses"]
    strategies: dict[str, int] = {}
    by_kind: dict[str, dict[str, int]] = {}
    for _latency, kind, strategy, _rows in result["samples"]:
        strategies[strategy] = strategies.get(strategy, 0) + 1
        per_kind = by_kind.setdefault(kind, {})
        per_kind[strategy] = per_kind.get(strategy, 0) + 1
    total = max(1, len(result["samples"]))
    return {
        "plan_cache_hit_rate": cache["hits"] / lookups if lookups else 0.0,
        "plan_cache_evictions": cache["evictions"],
        "session_served": result["sessions"]["served"],
        "session_invalidations": result["sessions"]["invalidations"],
        "strategy_shares": {
            name: count / total for name, count in sorted(strategies.items())
        },
        "strategies_by_kind": by_kind,
        "view_counters": {},
        "shm_leaked": result["shm"]["leaked"],
    }


def served_counters(before: dict, after: dict, result: dict) -> dict:
    """Verification counters from the server's ``stats`` op.

    ``before`` and ``after`` are the ``stats`` replies around the window;
    ``result`` is what the server child reported at exit.
    """
    hits = after["plan_cache"]["hits"] - before["plan_cache"]["hits"]
    misses = after["plan_cache"]["misses"] - before["plan_cache"]["misses"]
    view_counters: dict[str, int] = {}
    for counters in result["view_maintenance"].values():
        for strategy, count in counters.items():
            view_counters[strategy] = view_counters.get(strategy, 0) + count
    return {
        "plan_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "plan_cache_evictions": after["plan_cache"]["evictions"],
        "session_served": after["sessions"]["served"] - before["sessions"]["served"],
        "session_invalidations": after["sessions"]["invalidations"]
        - before["sessions"]["invalidations"],
        "view_counters": view_counters,
        "shm_leaked": result["shm"]["leaked"],
        "admission": after["admission"],
        "recycled": after["pool"]["recycled"],
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    directory: Path,
    setups: int = SETUPS,
    extra=None,
) -> Measurement:
    """One run of one workload: set-ups, window, verification, oracle.

    ``extra`` is the traced pass's hook into a served run: an async
    callable given the live :class:`Driver` after the window and the
    checks, while the server is still up.
    """
    workload = WORKLOADS[name]
    setup_seconds = []
    for index in range(setups - 1):
        program = start_program(workload, directory, index, seed, seconds)
        try:
            program.stop()
        finally:
            program.kill()
        os.remove(program.database)
        setup_seconds.append(program.setup_seconds)
    program = start_program(workload, directory, setups - 1, seed, seconds)
    setup_seconds.append(program.setup_seconds)
    try:
        if workload.served:
            window, counters, wrong, failures, rss = asyncio.run(
                _drive_served(program, seed, seconds, extra)
            )
        else:
            program.process.stdin.write("go\n")
            program.process.stdin.flush()
            program.stop(timeout=seconds + EXIT_TIMEOUT)
            result = program.result()
            window = Window(
                seconds=result["seconds"],
                samples=[tuple(sample) for sample in result["samples"]],
                failed=result["failed"],
            )
            counters = embedded_counters(result)
            wrong = wrong_answers(program.database, result["checks"])
            failures, rss = [], result["peak_rss_mb"]
    finally:
        program.kill()
    failures += workload.verify(counters)
    if not window.samples:
        raise RuntimeError(f"{name}: no operation succeeded")
    return Measurement(
        workload=name,
        window=window,
        setup_seconds=setup_seconds,
        peak_rss_mb=rss,
        counters=counters,
        wrong=wrong,
        unverified=[f for f in failures if f not in KNOWN_FAILURES],
        known=[f for f in failures if f in KNOWN_FAILURES],
        database=program.database,
    )


async def _drive_served(program: Program, seed: int, seconds: float, extra):
    workload = program.workload
    async with Driver(workload, program.port, seed) as driver:
        await driver.closed_loop(ops=workload.warmup_ops)
        before = await driver.clients[0].stats()
        window = await driver.closed_loop(seconds=seconds)
        after = await driver.clients[0].stats()
        # Answers are compared while the database is quiet and before the
        # traced pass sends anything more.
        wrong = wrong_answers(program.database, await driver.checks())
        failures = []
        if workload.name == "serve_dml":
            failures = await driver.conservation(program.database)
        if extra is not None:
            await extra(driver)
    program.stop()
    result = program.result()
    counters = served_counters(before, after, result)
    return window, counters, wrong, failures, result["peak_rss_mb"]

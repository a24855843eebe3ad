"""The process that runs the program under test.

``python3 -m benchmark.child <spec.json>`` is started by
:mod:`benchmark.runner` once per set-up.  It either

* opens one embedded ``repro.connect`` connection and runs the workload's
  request stream against it (``mode: embedded``), or
* runs a ``PreferenceServer`` for the benchmark process to drive over
  TCP (``mode: server``).

Keeping the program in a process of its own is what makes
``peak_rss_mb`` the program's memory and not the load generator's.  The
child prints ``ready`` (embedded) or ``ready <port>`` (server) once the
program can take requests.  An embedded child then runs its window when
it reads ``go`` on its stdin; either kind exits when its stdin ends, and
writes its samples and the program's public counters to
``spec["result"]`` first.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time

import repro
from benchmark.oracle import check
from benchmark.workloads import WORKLOADS, flatten
from repro.engine.shm import segment_counters
from repro.errors import PreferenceSQLError
from repro.server import PreferenceServer


def peak_rss_mb() -> float:
    """This process's peak resident set, from ``VmHWM``.

    Not ``getrusage().ru_maxrss``: across fork and exec Linux carries the
    *parent's* high-water mark into it, so a child started by a 120 MB
    benchmark process reports 120 MB however little it uses itself.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_embedded(spec: dict) -> dict:
    workload = WORKLOADS[spec["workload"]]
    connection = repro.connect(spec["database"])
    print("ready", flush=True)
    if not sys.stdin.readline():  # a set-up that is not to be run
        connection.close()
        return {}

    ops = flatten(workload.stream(spec["seed"], 0))
    for _ in range(workload.warmup_ops):
        op = next(ops)
        connection.execute(op.sql, op.params).fetchall()
    # The counters the verification and the per-layer metrics need are
    # taken as differences over the timed window.
    cache_before = connection.plan_cache_stats()
    session_before = connection.session_stats()

    clock = time.perf_counter
    samples: list[tuple[float, str, str, int]] = []
    checked: dict[str, int] = {}
    answers: list[tuple] = []
    failed = 0
    started = clock()
    deadline = started + spec["seconds"]
    while True:
        op = next(ops)
        begin = clock()
        try:
            cursor = connection.execute(op.sql, op.params)
            rows = cursor.fetchall()
        except PreferenceSQLError:
            failed += 1
            if clock() >= deadline:
                break
            continue
        end = clock()
        plan = cursor.plan
        samples.append(
            (
                end - begin,
                op.kind,
                plan.strategy if plan is not None else "passthrough",
                len(rows),
            )
        )
        if checked.get(op.kind, 0) < workload.checks_per_kind:
            # The answer the program gave, kept for the oracle pass the
            # parent makes after the window.
            checked[op.kind] = checked.get(op.kind, 0) + 1
            answers.append((op, rows))
        if end >= deadline:
            break
    seconds = clock() - started
    rss = peak_rss_mb()

    cache_after = connection.plan_cache_stats()
    session_after = connection.session_stats()
    result = {
        "seconds": seconds,
        "samples": samples,
        "failed": failed,
        "checks": [check(op, rows) for op, rows in answers],
        "peak_rss_mb": rss,
        "plan_cache": {
            "hits": cache_after.hits - cache_before.hits,
            "misses": cache_after.misses - cache_before.misses,
            "evictions": cache_after.evictions - cache_before.evictions,
        },
        "sessions": {
            key: session_after[key] - session_before[key]
            for key in ("served", "invalidations", "stores")
        },
        "view_maintenance": connection.view_maintenance_stats(),
        "shm": segment_counters(),
    }
    connection.close()
    return result


async def run_server(spec: dict) -> dict:
    server = PreferenceServer(
        spec["database"],
        pool_size=spec["connections"],
        max_inflight=spec["connections"],
    )
    _host, port = await server.start()
    print(f"ready {port}", flush=True)
    # The benchmark process closes our stdin when it is done.
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    stats = server.stats()
    # View maintenance is counted per pooled connection and the ``stats``
    # op does not carry it; check every connection out at once to read it.
    maintenance: dict[str, dict[str, int]] = {}

    def collect(remaining: int) -> None:
        if not remaining:
            return
        with server.pool.connection(timeout=5.0) as connection:
            for view, counters in connection.view_maintenance_stats().items():
                merged = maintenance.setdefault(view, {})
                for strategy, count in counters.items():
                    merged[strategy] = merged.get(strategy, 0) + count
            collect(remaining - 1)

    collect(server.pool.size)
    await server.stop()
    return {
        "stats": stats,
        "view_maintenance": maintenance,
        "shm": segment_counters(),
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        spec = json.load(handle)
    if spec["mode"] == "server":
        result = asyncio.run(run_server(spec))
    else:
        result = run_embedded(spec)
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

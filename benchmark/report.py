"""One result schema: the header, the printed tables and ``compare``.

``BENCHMARK.json`` is the single place that names workloads and metrics
and fixes the regression bounds; this module reads it and never repeats
it.  Two end-to-end metrics cannot be listed there, because its metrics
must never be 0 and these are 0 on every healthy run: ``failed_share``
and ``wrong_answers``.  The driver's contract carries them as ``failed``
/ ``attempted`` / ``correct``; ``run`` prints them and ``compare`` gates
them with the slacks in :data:`ZERO_METRICS`.
"""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
import time

import numpy

from benchmark import ROOT

#: name → (unit, absolute amount by which it may rise).
ZERO_METRICS = {"failed_share": ("ratio", 0.001), "wrong_answers": ("count", 0.0)}

#: Units of what ``run`` prints beyond the metrics of ``BENCHMARK.json``:
#: the two above, the ungated tail, and the sample counts they rest on.
EXTRA_UNITS = {
    **{name: unit for name, (unit, _slack) in ZERO_METRICS.items()},
    "latency_p99_ms": "ms",
    "latency_max_ms": "ms",
    "samples": "count",
}

#: Runs of one workload a spread needs; with fewer, ``compare`` cannot
#: tell a change from noise and says ``unresolved``.
MIN_RUNS_FOR_SPREAD = 4


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def header(seed: int, seconds: float, database: str) -> dict:
    """Where and on what the numbers were taken.

    ``database`` is a workload's database file: a fresh connection to it
    reports the journal and synchronous settings the program's own
    connections get, since the benchmark sets none.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    probe = sqlite3.connect(database)
    journal = probe.execute("PRAGMA journal_mode").fetchone()[0]
    synchronous = probe.execute("PRAGMA synchronous").fetchone()[0]
    probe.close()
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    return {
        "git_sha": sha,
        "seed": seed,
        "seconds": seconds,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "sqlite_journal_mode": journal,
        "sqlite_synchronous": synchronous,
        "load_average_1m": load,
        "noisy": load > 0.5 * nproc,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_workload(name: str, runs: list[dict], out=sys.stdout) -> None:
    """Every metric of one workload by name, with its unit.

    End-to-end metrics are medians over ``runs`` with the range beside
    them; the per-layer metrics are those of the traced pass, which
    ``run`` files under the first run.
    """
    print(
        f"\n== {name}  (ops {runs[0]['op_sequence_hash']}, {len(runs)} run(s)) ==",
        file=out,
    )
    for metric, entry in runs[0]["end_to_end"].items():
        values = [run["end_to_end"][metric]["value"] for run in runs]
        print(
            f"  {metric:<34} {statistics.median(values):>14.4f} {entry['unit']:<6}"
            f" [{min(values):.4f} .. {max(values):.4f}]",
            file=out,
        )
    for metric, entry in runs[0].get("per_layer", {}).items():
        print(f"  {metric:<34} {entry['value']:>14.4f} {entry['unit']}", file=out)
    for label, key in (
        ("WRONG ANSWER", "wrong"),
        ("NOT VERIFIED", "unverified"),
        ("KNOWN FAILURE", "known_failures"),
    ):
        for index, run in enumerate(runs):
            for problem in run[key]:
                print(f"  {label} (run {index}): {problem}", file=out)


# ----------------------------------------------------------------------
# compare


def _values(result: dict, workload: str, metric: str) -> list[float]:
    return [
        run["end_to_end"][metric]["value"]
        for run in result["workloads"][workload]["runs"]
    ]


def _spread(values: list[float]) -> float:
    """Quartile distance as a share of the median, as the driver takes it."""
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def _missing(result: dict, workloads: list[str], metrics: list[str]) -> list[str]:
    """Workloads, or metrics of a workload, a result file does not hold."""
    found = []
    for workload in workloads:
        runs = result["workloads"].get(workload, {}).get("runs")
        if not runs:
            found.append(workload)
            continue
        found += [
            f"{workload} {metric}"
            for metric in metrics
            if any(metric not in run["end_to_end"] for run in runs)
        ]
    return found


def compare(base: dict, change: dict, spec: dict, out=sys.stdout) -> int:
    """One row per workload × end-to-end metric.

    Returns 1 if any row regressed, and 2 — without a verdict — if either
    file lacks a workload or a metric that ``BENCHMARK.json`` lists.
    """
    rules = [
        (m["name"], m["better"], m["bound"], True) for m in spec["end_to_end"]
    ] + [(name, "lower", slack, False) for name, (_u, slack) in ZERO_METRICS.items()]
    workloads = [w["name"] for w in spec["workloads"]]
    missing = [
        f"{label}: {entry}"
        for label, result in (("base", base), ("change", change))
        for entry in _missing(result, workloads, [rule[0] for rule in rules])
    ]
    if missing:
        print("cannot compare, missing " + "; ".join(missing), file=out)
        return 2

    regressed = 0
    print(
        f"{'workload':<14}{'metric':<18}{'base':>12}{'change':>12}"
        f"{'change/base':>13}  verdict",
        file=out,
    )
    for workload in workloads:
        for metric, better, bound, relative in rules:
            a_values = _values(base, workload, metric)
            b_values = _values(change, workload, metric)
            a, b = statistics.median(a_values), statistics.median(b_values)
            if not relative:
                # An absolute slack on a metric that is 0 when all is well.
                verdict = "ok" if b - a <= bound else f"regressed (slack {bound})"
                ratio = f"{'—':>10}"
            else:
                ratio = f"{b / a:>10.3f}"
                worse = (b - a) / a if better == "lower" else (a - b) / a
                runs = min(len(a_values), len(b_values))
                if runs < MIN_RUNS_FOR_SPREAD:
                    verdict = (
                        f"unresolved (a side has {runs} run(s), a spread "
                        f"needs {MIN_RUNS_FOR_SPREAD})"
                    )
                elif (spread := max(_spread(a_values), _spread(b_values))) > bound:
                    verdict = f"unresolved (spread {spread:.3f} > bound {bound})"
                elif worse > bound:
                    verdict = f"regressed (bound {bound})"
                else:
                    verdict = "ok"
            regressed += verdict.startswith("regressed")
            print(
                f"{workload:<14}{metric:<18}{a:>12.4f}{b:>12.4f}{ratio}/1  {verdict}",
                file=out,
            )
    return 1 if regressed else 0

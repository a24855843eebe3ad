"""Command line of the repository benchmark.

Three forms, all run from the repository root:

``python3 -m benchmark --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload — the form ``BENCHMARK.json`` names and the
    driver calls.  The last line of standard output is one JSON object
    with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
    end-to-end metrics with ``--trace 0``, the per-layer metrics (from
    the traced pass) with ``--trace 1``.

``python3 -m benchmark run --seed N --out PATH [--seconds S] [--repeats R]``
    Every workload, each run in a fresh child process of the first form,
    R times untraced (4 unless told) and then once traced; prints every
    metric by name with its unit,
    writes one result file and the ``trace_<workload>.json`` files beside
    it, and exits non-zero on a wrong answer, a failed op or a failed
    traffic verification.

``python3 -m benchmark compare A.json B.json``
    Per workload × end-to-end metric: both medians, their ratio with its
    base, and ``ok`` / ``regressed`` / ``unresolved`` against the bounds
    in ``BENCHMARK.json``; exits 1 on any ``regressed`` and 2 if a file
    lacks a workload or a metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from benchmark import ROOT

try:
    from benchmark import report, runner, tracing
    from benchmark.workloads import WORKLOADS, op_sequence_hash
except ImportError as error:  # the program's sources are not in this checkout
    print(f"benchmark: cannot import the program: {error}", file=sys.stderr)
    sys.exit(2)


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setups: int = runner.SETUPS,
    detail_path: Path | None = None,
) -> dict:
    """One run of one workload; returns the driver's result object.

    ``detail_path`` additionally receives everything the run found, in
    the schema ``run`` assembles its result file from.
    """
    spec = report.load_spec()
    workload = WORKLOADS[name]
    wire: dict = {}

    async def probe(driver: runner.Driver) -> None:
        wire.update(await tracing.wire_probe(driver, seconds, seed))

    with runner.work_directory() as directory:
        measurement = runner.measure(
            name,
            seed,
            seconds,
            directory,
            # ``setup_s`` is an end-to-end metric: a traced run does not
            # report it and sets up once.
            setups=1 if trace else setups,
            extra=probe if trace and workload.served else None,
        )
        window = runner.summarise(measurement.window)
        end_to_end = {
            "setup_s": statistics.median(measurement.setup_seconds),
            **window,
            "peak_rss_mb": measurement.peak_rss_mb,
            "failed_share": measurement.window.failed / measurement.window.attempted,
            "wrong_answers": len(measurement.wrong),
        }
        per_layer = {}
        if trace:
            recorder = tracing.Recorder()
            records = tracing.replay(workload, measurement.database, seed, recorder)
            ratios = tracing.regret(workload, measurement.database, seed)
            found = tracing.layer_metrics(measurement, recorder, records, ratios, wire)
            per_layer = {m["name"]: found[m["name"]] for m in spec["per_layer"]}
            recorder.write(runner.WORK / f"trace_{name}.json")
        header = report.header(seed, seconds, measurement.database)

    if detail_path is not None:
        units = {
            **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
            **report.EXTRA_UNITS,
        }
        detail = {
            "header": header,
            "op_sequence_hash": op_sequence_hash(workload, seed),
            "end_to_end": {
                key: {"value": value, "unit": units[key]}
                for key, value in end_to_end.items()
            },
            "per_layer": {
                key: {"value": value, "unit": units[key]}
                for key, value in per_layer.items()
            },
            "attempted": measurement.window.attempted,
            "failed": measurement.window.failed,
            "wrong": measurement.wrong,
            "unverified": measurement.unverified,
            "known_failures": measurement.known,
        }
        detail_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    source = per_layer if trace else end_to_end
    return {
        "correct": measurement.correct,
        "attempted": measurement.window.attempted,
        "failed": measurement.window.failed,
        "metrics": {
            m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed
        },
    }


def run_all(seed: int, seconds: float, repeats: int, out: Path) -> int:
    """Every workload in fresh child processes; one result file."""
    spec = report.load_spec()
    scratch = runner.WORK / "run-all"
    scratch.mkdir(parents=True, exist_ok=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    result: dict = {"header": None, "workloads": {}}
    healthy = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for repeat in range(repeats):
            for trace in (0, 1) if repeat == 0 else (0,):
                detail_path = scratch / f"{name}-{repeat}-{trace}.json"
                subprocess.run(
                    [
                        sys.executable, "-m", "benchmark",
                        "--workload", name, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--detail", str(detail_path),
                    ],
                    cwd=ROOT,
                    check=True,
                    stdout=subprocess.DEVNULL,
                )
                detail = json.loads(detail_path.read_text(encoding="utf-8"))
                healthy &= not (
                    detail["wrong"] or detail["unverified"] or detail["failed"]
                )
                if trace:
                    runs[0]["per_layer"] = detail["per_layer"]
                    shutil.copy(
                        runner.WORK / f"trace_{name}.json",
                        out.parent / f"trace_{name}.json",
                    )
                else:
                    runs.append(detail)
        result["header"] = result["header"] or runs[0]["header"]
        for run in runs:
            del run["header"]
        result["workloads"][name] = {
            "op_sequence_hash": runs[0]["op_sequence_hash"],
            "runs": runs,
        }
        report.print_workload(name, runs)
    shutil.rmtree(scratch, ignore_errors=True)
    out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    print(f"\nheader: {json.dumps(result['header'])}")
    if result["header"]["noisy"]:
        print("NOISY: the 1-minute load average was above half the cores at start")
    return 0 if healthy else 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="benchmark compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return report.compare(
            json.loads(args.base.read_text(encoding="utf-8")),
            json.loads(args.change.read_text(encoding="utf-8")),
            report.load_spec(),
        )
    spec = report.load_spec()
    if argv[:1] == ["run"]:
        parser = argparse.ArgumentParser(prog="benchmark run")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
        # ``compare`` needs four runs a side to tell a change from noise.
        parser.add_argument(
            "--repeats", type=int, default=report.MIN_RUNS_FOR_SPREAD
        )
        parser.add_argument("--out", type=Path, required=True)
        args = parser.parse_args(argv[1:])
        return run_all(args.seed, args.seconds, args.repeats, args.out.resolve())
    parser = argparse.ArgumentParser(prog="benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=Path, default=None)
    args = parser.parse_args(argv)
    outcome = run_once(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        detail_path=args.detail,
    )
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

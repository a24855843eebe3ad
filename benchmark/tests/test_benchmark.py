"""The benchmark's own checks, at a scale of a few hundred ops per run.

Nothing here asserts a timing: the assertions are about names, shapes,
determinism of the generated requests and the verdicts of ``compare``.
"""

from __future__ import annotations

import copy
import io
import re

import pytest

from benchmark import report, runner
from benchmark.__main__ import run_once
from benchmark.workloads import WORKLOADS, op_sequence_hash

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
QUICK_SECONDS = 0.4


def test_benchmark_json_is_well_formed():
    spec = report.load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [entry["name"] for entry in spec["workloads"] + metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(metric["unit"]) for metric in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(0 < metric["bound"] <= 0.25 for metric in spec["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        metric for metric in spec["end_to_end"] if metric["name"] == "setup_s"
    ).items()
    assert 1 <= spec["run_seconds"] <= 60


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_ops_other_seed_other_ops(name):
    workload = WORKLOADS[name]
    assert op_sequence_hash(workload, 7) == op_sequence_hash(workload, 7)
    assert op_sequence_hash(workload, 7) != op_sequence_hash(workload, 8)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_end_to_end_metric(name):
    spec = report.load_spec()
    outcome = run_once(name, seed=3, seconds=QUICK_SECONDS, trace=False, setups=1)
    assert outcome["failed"] == 0 and outcome["attempted"] > 0
    assert list(outcome["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert all(entry["value"] > 0 for entry in outcome["metrics"].values())


def test_traced_pass_emits_every_per_layer_metric():
    spec = report.load_spec()
    outcome = run_once("mask_cold", seed=3, seconds=QUICK_SECONDS, trace=True)
    assert list(outcome["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert outcome["metrics"]["sql.parse_ms"]["value"] > 0
    assert outcome["metrics"]["plan.strategy.rewrite_share"]["value"] == 1.0


def test_same_seed_same_behaviour_on_an_embedded_workload():
    """Per op: the template, the strategy the planner chose, the rows."""
    behaviour = []
    for _ in range(2):
        with runner.work_directory() as directory:
            measurement = runner.measure(
                "mask_cold", 5, QUICK_SECONDS, directory, setups=1
            )
        assert measurement.wrong == []
        behaviour.append([sample[1:] for sample in measurement.window.samples])
    shared = min(map(len, behaviour))
    assert shared > 0
    assert behaviour[0][:shared] == behaviour[1][:shared]


def _result(p50: float, runs: int = 5) -> dict:
    def run(scale: float) -> dict:
        values = {
            "setup_s": 0.7,
            "throughput_qps": 500.0,
            "latency_p50_ms": p50 * scale,
            "latency_p95_ms": 3.0,
            "peak_rss_mb": 70.0,
            "failed_share": 0.0,
            "wrong_answers": 0,
        }
        return {"end_to_end": {k: {"value": v} for k, v in values.items()}}

    return {
        "workloads": {
            name: {"runs": [run(1 + 0.001 * i) for i in range(runs)]}
            for name in WORKLOADS
        }
    }


def test_compare_of_a_file_with_itself_is_all_ok():
    out = io.StringIO()
    base = _result(2.0)
    assert report.compare(base, copy.deepcopy(base), report.load_spec(), out) == 0
    verdicts = [line.rsplit("  ", 1)[1] for line in out.getvalue().splitlines()[1:]]
    assert len(verdicts) == 7 * len(WORKLOADS)
    assert set(verdicts) == {"ok"}


def test_compare_flags_a_30_percent_slower_median_as_regressed():
    out = io.StringIO()
    assert report.compare(_result(2.0), _result(2.6), report.load_spec(), out) == 1
    regressed = [line for line in out.getvalue().splitlines() if "regressed" in line]
    assert len(regressed) == len(WORKLOADS)
    assert all("latency_p50_ms" in line for line in regressed)


def test_compare_cannot_resolve_fewer_than_four_runs_a_side():
    out = io.StringIO()
    assert report.compare(_result(2.0, 3), _result(2.6, 3), report.load_spec(), out) == 0
    rows = out.getvalue().splitlines()[1:]
    relative = [row for row in rows if "failed_share" not in row and "wrong" not in row]
    assert relative and all("unresolved" in row for row in relative)


def test_compare_refuses_a_file_that_lacks_a_workload_or_a_metric():
    spec = report.load_spec()
    base, change = _result(2.0), _result(2.0)
    del change["workloads"]["serve_dml"]
    assert report.compare(base, change, spec, io.StringIO()) == 2
    change = _result(2.0)
    del change["workloads"]["mask_cold"]["runs"][0]["end_to_end"]["peak_rss_mb"]
    out = io.StringIO()
    assert report.compare(base, change, spec, out) == 2
    assert "change: mask_cold peak_rss_mb" in out.getvalue()

"""The bench harness and the paper-exactness of E2/E3."""

import pytest

from repro.bench import EXPERIMENTS, Report, Table, run_experiment, time_call
from repro.bench.experiments import e2_oldtimer, e3_cars_rewrite


class TestHarness:
    def test_time_call_returns_result(self):
        result, timing = time_call(lambda: 42, repeats=2)
        assert result == 42
        assert len(timing.samples) == 2
        assert timing.best <= timing.mean

    def test_table_rendering(self):
        table = Table(("a", "b"))
        table.add(1, "x")
        text = table.render()
        assert "a" in text and "x" in text

    def test_table_arity_checked(self):
        table = Table(("a",))
        with pytest.raises(ValueError):
            table.add(1, 2)

    def test_report_render(self):
        report = Report(experiment="eX", title="demo")
        table = Table(("c",))
        table.add(1)
        report.add_table("numbers", table)
        report.note("a note")
        text = report.render()
        assert "eX" in text and "numbers" in text and "a note" in text


class TestExperiments:
    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e10",
            "e11", "e12", "e13", "e14", "e15", "e16",
        }

    def test_plan_alias(self):
        from repro.bench.experiments import ALIASES

        assert ALIASES["plan"] == "e8"
        assert ALIASES["views"] == "e10"
        assert ALIASES["columnar"] == "e11"
        assert ALIASES["joins"] == "e12"
        assert ALIASES["semantic"] == "e13"
        assert ALIASES["sessions"] == "e14"
        assert ALIASES["server"] == "e15"
        assert ALIASES["robustness"] == "e16"

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("e99")

    def test_json_emitter(self, tmp_path):
        import json

        from repro.bench.__main__ import main
        from repro.bench.harness import report_payload

        payload = report_payload(e2_oldtimer())
        json.dumps(payload)  # tuple keys and row values must serialise
        assert payload["experiment"] == "E2"
        assert payload["data"]["exact_match"] is True

        out = tmp_path / "bench.json"
        assert main(["e2", "--json", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["experiment"] == "E2"

    def test_cli_lives_in_harness(self, tmp_path):
        """``__main__`` is a thin shim; the runner itself is ``run_cli``."""
        import json

        from repro.bench.__main__ import main
        from repro.bench.harness import run_cli

        assert main is run_cli

        out = tmp_path / "multi.json"
        assert run_cli(["e2", "e3", "--json", str(out)]) == 0
        document = json.loads(out.read_text())
        assert [payload["experiment"] for payload in document] == ["E2", "E3"]

    def test_e2_exact_match(self):
        report = e2_oldtimer()
        assert report.data["exact_match"] is True

    def test_e3_paths_agree_and_match_paper(self):
        report = e3_cars_rewrite()
        assert report.data["agree"] is True
        assert report.data["winners_ok"] is True
        create_view = report.data["script"][0]
        assert create_view.startswith("CREATE VIEW Aux AS")

    def test_e4_quick_reproduces_claims(self):
        report = run_experiment("e4", quick=True)
        assert report.data["share_in_1_20"] >= 0.9
        assert report.data["preference_share_of_total"] < 0.2

    def test_e14_quick_serves_and_gates(self):
        report = run_experiment("e14", quick=True)
        assert report.data["min_refinement_speedup"] >= report.data["speedup_floor"]
        assert report.data["session_stats"]["served"] >= 4

    def test_e15_quick_traffic(self):
        report = run_experiment("e15", quick=True)
        assert "offload" not in report.data
        traffic = report.data["traffic"]
        assert traffic["plan_cache"]["hit_rate"] >= 0.5
        assert traffic["session_stats"]["served"] >= 1
        assert traffic["admission"]["errors"] == 0
        assert traffic["parity_checked"] >= 10

    def test_e16_quick_chaos_traffic(self):
        report = run_experiment("e16", quick=True)
        # Wrong answers, conservation and recovery are asserted inside
        # the experiment; the data must show real chaos.
        assert report.data["wrong_answers"] == 0
        assert sum(report.data["fires"].values()) >= 1
        assert report.data["recovery_requests"] == 1
        assert report.data["p50_ratio"] <= 1.10
        for code in report.data["error_codes"]:
            assert code in {"database", "overloaded", "timeout"}

    def test_e1_quick_shapes(self):
        report = run_experiment("e1", quick=True)
        for pool in ("300", "600", "1000"):
            pool_size = int(pool)
            for conditions in ("A", "B"):
                conj = report.data[(pool, conditions, "SQL 1 (conjunctive)")]
                disj = report.data[(pool, conditions, "SQL 2 (disjunctive)")]
                pref = report.data[(pool, conditions, "Preference SQL")]
                # starvation / flooding / small BMO set
                assert conj["rows"] <= pool_size * 0.05
                assert disj["rows"] >= pool_size * 0.3
                assert 1 <= pref["rows"] <= 50

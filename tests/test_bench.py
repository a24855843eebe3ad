"""The bench harness, its CLI and the paper-exactness of E1–E4."""

import pytest

from repro.bench import EXPERIMENTS, Report, Table, run_experiment, time_call
from repro.bench.experiments import e2_oldtimer, e3_cars_rewrite
from repro.bench.harness import Timing


class TestHarness:
    def test_time_call_returns_result(self):
        result, timing = time_call(lambda: 42, repeats=2)
        assert result == 42
        assert len(timing.samples) == 2
        assert timing.best <= timing.mean

    def test_timing_spread_keeps_every_sample(self):
        spread = Timing(samples=[0.3, 0.1, 0.2]).spread()
        assert spread == {
            "samples_s": [0.3, 0.1, 0.2],
            "min_s": 0.1,
            "median_s": 0.2,
            "max_s": 0.3,
        }

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
        assert set(EXPERIMENTS) == {"e1", "e2", "e3", "e4"}

    def test_unknown_experiment_raises(self):
        # Retired ids and aliases must fail loudly, not map to anything.
        for name in ("e99", "plan", "e16"):
            with pytest.raises(KeyError):
                run_experiment(name)

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

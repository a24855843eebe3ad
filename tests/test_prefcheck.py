"""The prefcheck analyzer: every rule catches its bad fixture, spares the
clean one, honors reasoned suppressions — and the live tree is clean.

The fixtures under ``tests/prefcheck_fixtures/`` are checked-in minimal
reproductions: one known-bad and one known-clean snippet per rule, a
suppression trio (reasoned / reasonless / malformed), and two
self-contained repo-shaped trees for the cross-file fault-registry rule.
"""

import json
import subprocess
import sys
from pathlib import Path

from tools.prefcheck.engine import SUPPRESSION_RULE, analyze_paths
from tools.prefcheck.rules import all_rules
from tools.prefcheck.rules.single_site import SITES

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "prefcheck_fixtures"


def analyze(relative: str):
    return analyze_paths([FIXTURES / relative], root=FIXTURES)


def rules_found(report) -> set:
    return {finding.rule for finding in report.findings}


def run_cli(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "tools.prefcheck", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestRuleCatalog:
    def test_six_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == [
            "lock-discipline",
            "paired-mutation",
            "deadline-poll",
            "fault-registry",
            "error-taxonomy",
            "single-site",
        ]

    def test_every_rule_states_its_invariant(self):
        for rule in all_rules():
            assert rule.invariant, rule.rule_id
            assert "PR" in rule.invariant  # provenance: the motivating PR


class TestLockDiscipline:
    def test_bad_fixture_flags_both_scopes(self):
        report = analyze("bad/lock_bad.py")
        assert rules_found(report) == {"lock-discipline"}
        messages = [f.message for f in report.findings]
        assert any("module global _count" in m for m in messages)
        assert any("self._entries" in m for m in messages)
        # The guarded write *under* the lock is not flagged.
        assert not any("put" in m for m in messages)

    def test_clean_fixture(self):
        assert analyze("clean/lock_ok.py").clean


class TestPairedMutation:
    def test_bad_fixture_flags_both_families(self):
        report = analyze("bad/paired_bad.py")
        assert rules_found(report) == {"paired-mutation"}
        messages = " ".join(f.message for f in report.findings)
        assert "_waiting gauge" in messages
        assert "finally-guarded .put()" in messages

    def test_clean_fixture(self):
        assert analyze("clean/paired_ok.py").clean


class TestDeadlinePoll:
    def test_bad_fixture_flags_the_unpolled_loop(self):
        report = analyze("bad/engine/bmo.py")
        assert rules_found(report) == {"deadline-poll"}
        assert "slow_scan()" in report.findings[0].message

    def test_clean_fixture(self):
        assert analyze("clean/engine/columns.py").clean

    def test_only_kernel_modules_are_checked(self, tmp_path):
        # The same unpolled loop outside engine/ is out of scope.
        moved = tmp_path / "driver" / "bmo.py"
        moved.parent.mkdir()
        moved.write_text((FIXTURES / "bad" / "engine" / "bmo.py").read_text())
        assert analyze_paths([moved], root=tmp_path).clean


class TestErrorTaxonomy:
    def test_bad_fixture_flags_raise_and_swallow(self):
        report = analyze("bad/server/replies.py")
        assert rules_found(report) == {"error-taxonomy"}
        messages = " ".join(f.message for f in report.findings)
        assert "ValueError" in messages
        assert "swallowed" in messages

    def test_clean_fixture(self):
        assert analyze("clean/server/replies.py").clean


class TestSingleSite:
    def test_registry_declares_the_planner_and_session_sites(self):
        assert {(site.callee, site.caller) for site in SITES} == {
            ("plan_statement", "Connection._plan_statement"),
            ("session_reuse_estimate", "with_session"),
            ("winnow_kernel", "bmo_filter"),
            ("_build_rewrite", "STRATEGY_TABLE[...].build"),
            ("_build_bnl", "STRATEGY_TABLE[...].build"),
            ("_build_session", "STRATEGY_TABLE[...].build"),
        }

    def test_bad_fixture_flags_each_stray_call(self):
        report = analyze("bad/single_site")
        assert rules_found(report) == {"single-site"}
        assert [(f.path.split("/")[-1], f.line) for f in report.findings] == [
            ("dbapi.py", 12),
            ("planner.py", 7),
        ]
        assert "called from Connection.plan" in report.findings[0].message
        # plan_statement() inside plan/ is not a driver call site.
        assert all("replan" not in f.message for f in report.findings)

    def test_clean_fixture(self):
        assert analyze("clean/single_site").clean

    def test_bad_fixture_flags_a_kernel_and_a_build_called_past_their_site(self):
        report = analyze("bad/single_site_stages")
        assert [(f.path.split("/")[-1], f.line) for f in report.findings] == [
            ("incremental.py", 7),
            ("planner.py", 12),
        ]
        assert "its one call site is bmo_filter" in report.findings[0].message
        assert "called from rebind_plan" in report.findings[1].message

    def test_clean_fixture_reaches_builds_through_the_table(self):
        # The kernel's own module calls it freely.
        assert analyze("clean/single_site_stages").clean


class TestFaultRegistry:
    def test_bad_tree_reports_every_drift(self):
        root = FIXTURES / "registry_bad"
        report = analyze_paths([root], root=root)
        assert rules_found(report) == {"fault-registry"}
        messages = " ".join(f.message for f in report.findings)
        assert "'undeclared.point'" in messages  # undeclared call site
        assert "string literal" in messages  # non-literal point name
        assert "'ghost.point'" in messages  # dead registry entry
        assert "'client.thing'" in messages  # client point never fired
        assert "'weird.point'" in messages  # bad fired-by value
        assert "'extra.point'" in messages  # documented but undeclared
        assert "ARCHITECTURE.md says 'client'" in messages  # firer mismatch

    def test_consistent_tree_is_clean(self):
        root = FIXTURES / "registry_ok"
        assert analyze_paths([root], root=root).clean

    def test_rule_is_inert_without_a_registry_module(self):
        # Fixture scans without a faults.py stay self-contained.
        report = analyze("bad/lock_bad.py")
        assert "fault-registry" not in rules_found(report)


class TestSuppressions:
    def test_reasoned_suppression_silences_its_finding(self):
        report = analyze("suppression/with_reason.py")
        assert report.clean
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "lock-discipline"

    def test_suppression_without_reason_is_a_finding(self):
        report = analyze("suppression/without_reason.py")
        rules = rules_found(report)
        assert SUPPRESSION_RULE in rules
        # And the reasonless suppression does not apply either.
        assert "lock-discipline" in rules

    def test_malformed_directive_is_a_finding(self):
        report = analyze("suppression/malformed.py")
        assert rules_found(report) == {SUPPRESSION_RULE}
        assert "unparseable" in report.findings[0].message


class TestCommandLine:
    def test_bad_fixtures_exit_nonzero(self):
        for fixture in (
            "bad/lock_bad.py",
            "bad/paired_bad.py",
            "bad/engine/bmo.py",
            "bad/server/replies.py",
            "bad/single_site",
            "bad/single_site_stages",
            "registry_bad",
        ):
            result = run_cli(str(FIXTURES / fixture))
            assert result.returncode == 1, (fixture, result.stdout)

    def test_clean_fixtures_exit_zero(self):
        result = run_cli(str(FIXTURES / "clean"))
        assert result.returncode == 0, result.stdout

    def test_json_output(self):
        result = run_cli(str(FIXTURES / "bad" / "lock_bad.py"), "--json", "-")
        payload = json.loads(result.stdout)
        assert payload["files"] == 1
        assert payload["findings"]
        first = payload["findings"][0]
        assert {"rule", "path", "line", "message", "invariant"} <= set(first)

    def test_rules_filter(self):
        result = run_cli(
            str(FIXTURES / "bad" / "lock_bad.py"), "--rules", "deadline-poll"
        )
        assert result.returncode == 0  # lock findings filtered out

    def test_unknown_rule_is_a_usage_error(self):
        result = run_cli("src", "--rules", "no-such-rule")
        assert result.returncode == 2

    def test_missing_path_is_a_usage_error(self):
        result = run_cli("no/such/dir")
        assert result.returncode == 2

    def test_list_rules(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        assert "deadline-poll" in result.stdout


class TestLiveTree:
    def test_src_is_finding_free(self):
        """The merged tree passes its own gate (the CI invariant)."""
        result = run_cli("src", "--json", "-")
        payload = json.loads(result.stdout)
        assert result.returncode == 0, payload["findings"]
        assert payload["findings"] == []
        # Every suppression that made the tree clean carries its reason
        # by construction (reasonless ones surface as findings).  The
        # count is a ceiling: lower it when suppressions go, never raise
        # it to admit a new one.
        assert 0 < len(payload["suppressed"]) <= 24

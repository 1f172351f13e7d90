"""Engine, reporters, rule registry, CLI verbs, and the meta self-check."""

import json
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.devtools import lint_paths, lint_sources
from repro.devtools.base import LintRule
from repro.devtools.lint import main as lint_main
from repro.devtools.registry import LINT_RULES
from repro.devtools.reporters import render_github, render_json, render_text

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"

BAD_SIM_SOURCE = "import random\nrng = random.Random(0)\n"


class TestEngine:
    def test_unparsable_file_reported_as_lint_002(self):
        report = lint_sources({"sim/broken.py": "def f(:\n"})
        assert [f.rule_id for f in report.findings] == ["LINT-002"]
        assert report.findings[0].path == "sim/broken.py"
        assert report.file_count == 1

    def test_unknown_select_rejected(self):
        with pytest.raises(KeyError, match="ZZZ-999"):
            lint_sources({"sim/x.py": "x = 1\n"}, select=["ZZZ-999"])

    def test_select_runs_only_chosen_rules(self):
        src = "import random, numpy as np\nrandom.random()\nnp.power(10.0, 2)\n"
        report = lint_sources({"sim/x.py": src}, select=["BITX-001"])
        assert {f.rule_id for f in report.findings} == {"BITX-001"}

    def test_findings_sorted_by_path_then_line(self):
        sources = {
            "sim/b.py": "import random\nrandom.random()\nrandom.random()\n",
            "sim/a.py": "import random\nrandom.random()\n",
        }
        report = lint_sources(sources, select=["RNG-001"])
        assert [(f.path, f.line) for f in report.findings] == [
            ("sim/a.py", 2),
            ("sim/b.py", 2),
            ("sim/b.py", 3),
        ]

    def test_malformed_pragma_reported_and_finding_kept(self):
        src = "import random\nrng = random.Random(0)  # repro-lint: ok RNG-001\n"
        report = lint_sources({"sim/x.py": src})
        assert {f.rule_id for f in report.findings} == {"LINT-001", "RNG-001"}

    def test_lint_paths_walks_directories(self, tmp_path):
        tree = tmp_path / "pkg"
        tree.mkdir()
        (tree / "sim").mkdir()
        (tree / "sim" / "bad.py").write_text(BAD_SIM_SOURCE)
        (tree / "clean.py").write_text("x = 1\n")
        report = lint_paths([str(tree)])
        assert report.file_count == 2
        assert [f.rule_id for f in report.findings] == ["RNG-001"]
        assert report.findings[0].path == "sim/bad.py"


class TestReporters:
    def _report(self):
        return lint_sources({"sim/bad.py": BAD_SIM_SOURCE}, select=["RNG-001"])

    def test_text_format(self):
        text = render_text(self._report())
        assert "sim/bad.py:2:6: RNG-001 [error]" in text
        assert "1 error(s), 0 warning(s)" in text

    def test_json_format_round_trips(self):
        payload = json.loads(render_json(self._report()))
        assert payload["clean"] is False
        assert payload["errors"] == 1
        finding = payload["findings"][0]
        assert (finding["rule"], finding["path"], finding["line"]) == (
            "RNG-001",
            "sim/bad.py",
            2,
        )

    def test_github_format_emits_annotations(self):
        out = render_github(self._report())
        assert "::error file=sim/bad.py,line=2," in out
        assert "title=RNG-001::" in out

    def test_clean_summary(self):
        report = lint_sources({"sim/ok.py": "x = 1\n"})
        assert render_text(report).endswith("1 file(s) linted: clean")


class TestRuleRegistry:
    def test_builtin_rules_registered(self):
        assert {
            "RNG-001", "BITX-001", "DET-001", "DET-002",
            "REG-001", "LINT-001", "LINT-002",
        } <= set(LINT_RULES.names())

    def test_rule_rows_cover_every_rule(self):
        rows = LINT_RULES.kind_rows()
        assert [row["rule"] for row in rows] == LINT_RULES.names()
        assert all(row["severity"] and row["rationale"] for row in rows)

    def test_registering_a_plugin_rule(self):
        @LINT_RULES.register("TST-001")
        class NoTodoRule(LintRule):
            severity = "warning"
            rationale = "test rule"

            def check_module(self, module):
                for lineno, line in enumerate(module.text.splitlines(), start=1):
                    if "TODO" in line:
                        yield self._finding(module, lineno)

            def _finding(self, module, lineno):
                from repro.devtools.findings import Finding

                return Finding(
                    path=module.relpath, line=lineno, col=0,
                    rule_id=self.rule_id, message="todo", severity=self.severity,
                )

        try:
            report = lint_sources({"sim/x.py": "# TODO fix\n"}, select=["TST-001"])
            assert [f.rule_id for f in report.findings] == ["TST-001"]
        finally:
            LINT_RULES.unregister("TST-001")
        assert "TST-001" not in LINT_RULES

    def test_bad_rule_id_rejected(self):
        with pytest.raises(ValueError, match="rng-1"):
            LINT_RULES.register("rng-1")(type("BadIdRule", (LintRule,), {}))
        assert "rng-1" not in LINT_RULES

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            LINT_RULES.register("TST-002")(type("LoudRule", (LintRule,), {"severity": "fatal"}))
        assert "TST-002" not in LINT_RULES

    def test_duplicate_rule_id_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            LINT_RULES.register("RNG-001")(LINT_RULES["RNG-001"])


class TestCommandLine:
    def test_module_entrypoint_exit_codes(self, tmp_path):
        bad = tmp_path / "sim"
        bad.mkdir()
        (bad / "bad.py").write_text(BAD_SIM_SOURCE)
        assert lint_main([str(tmp_path)]) == 1
        (bad / "bad.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0

    def test_module_entrypoint_unknown_rule_is_usage_error(self, tmp_path):
        (tmp_path / "x.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path), "--select", "ZZZ-999"]) == 2

    def test_cli_lint_verb(self, tmp_path, capsys):
        (tmp_path / "clean.py").write_text("x = 1\n")
        assert cli_main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_lint_verb_json_failure(self, tmp_path, capsys):
        target = tmp_path / "sim"
        target.mkdir()
        (target / "bad.py").write_text(BAD_SIM_SOURCE)
        assert cli_main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1

    def test_cli_list_lint_rules_verb(self, capsys):
        assert cli_main(["list", "lint-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in LINT_RULES.names():
            assert rule_id in out
        assert "repro-lint: ok" in out


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        """The merge gate: the real tree has zero findings."""
        report = lint_paths([str(SRC_REPRO)])
        assert report.clean, "\n".join(f.location + " " + f.rule_id for f in report.findings)
        assert report.file_count > 100


class TestHistoricalBugsRefire:
    def test_unseeding_random_waypoint_refires_rng_001(self):
        """Acceptance criterion: re-introducing the PR 2 fixed-seed fallback
        in the real random-waypoint source must re-flag RNG-001."""
        original = (SRC_REPRO / "mobility" / "random_waypoint.py").read_text(
            encoding="utf-8"
        )
        assert "self._rng = rng" in original
        reverted = original.replace(
            "self._rng = rng",
            "self._rng = rng if rng is not None else random.Random(0)",
        )
        report = lint_sources(
            {"mobility/random_waypoint.py": reverted}, select=["RNG-001"]
        )
        assert [f.rule_id for f in report.findings] == ["RNG-001"]
        # The current, fixed source stays clean.
        clean = lint_sources(
            {"mobility/random_waypoint.py": original}, select=["RNG-001"]
        )
        assert clean.clean

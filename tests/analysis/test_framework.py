"""Framework-level behaviour of repro-lint: suppressions, RL005, JSON, CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import lint_source
from repro.analysis.driver import iter_python_files
from repro.analysis.source import parse_suppressions

# A snippet with one genuine RL004 violation (mutable default argument) that we
# reuse to exercise the suppression machinery.
BAD = "def f(x=[]):\n    return x\n"


def _codes(report):
    return [finding.code for finding in report.findings]


class TestSuppressions:
    def test_finding_reported_without_suppression(self):
        report = lint_source(BAD)
        assert _codes(report) == ["RL004"]
        assert not report.ok

    def test_same_line_suppression_silences_the_finding(self):
        report = lint_source("def f(x=[]):  # repro-lint: disable=RL004\n    return x\n")
        assert report.ok
        assert [finding.code for finding in report.suppressed] == ["RL004"]

    def test_file_level_suppression_silences_the_whole_file(self):
        text = "# repro-lint: disable-file=RL004\n" + BAD + "\ndef g(y={}):\n    return y\n"
        report = lint_source(text)
        assert report.ok
        assert [finding.code for finding in report.suppressed] == ["RL004", "RL004"]

    def test_suppression_of_a_different_code_does_not_apply(self):
        report = lint_source("def f(x=[]):  # repro-lint: disable=RL003\n    return x\n")
        codes = _codes(report)
        # The RL004 finding survives, and the RL003 annotation is reported dead.
        assert "RL004" in codes
        assert "RL005" in codes

    def test_unused_suppression_is_reported_as_rl005(self):
        report = lint_source("x = 1  # repro-lint: disable=RL002\n")
        assert _codes(report) == ["RL005"]
        assert "unused" in report.findings[0].message

    def test_marker_inside_a_string_literal_is_not_a_suppression(self):
        text = 'MARKER = "# repro-lint: disable=RL004"\n' + BAD
        assert parse_suppressions(text) == []
        assert _codes(lint_source(text)) == ["RL004"]

    def test_multiple_codes_in_one_comment(self):
        suppressions = parse_suppressions("x = 1  # repro-lint: disable=RL001,RL002\n")
        assert len(suppressions) == 1
        assert suppressions[0].codes == ("RL001", "RL002")


class TestDriver:
    def test_syntax_error_fails_the_run(self):
        report = lint_source("def broken(:\n")
        assert not report.ok
        assert report.errors and "syntax error" in report.errors[0][1]

    def test_out_of_scope_path_is_not_checked(self):
        # The same bad snippet outside any repro/ path produces nothing.
        report = lint_source(BAD, path="examples/demo.py")
        assert report.ok

    def test_json_report_shape(self):
        report = lint_source(BAD)
        payload = report.as_dict()
        assert payload["version"] == 1
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        (entry,) = payload["findings"]
        assert set(entry) == {"path", "line", "code", "message"}
        assert json.loads(json.dumps(payload)) == payload

    def test_iter_python_files_skips_caches(self, tmp_path: Path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.cpython-312.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
        collected = iter_python_files([str(tmp_path)])
        assert collected == [str(tmp_path / "pkg" / "a.py")]


class TestCli:
    def _run(self, *arguments: str, cwd: Path):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *arguments],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=environment,
        )

    def test_exit_one_and_output_artifact_on_findings(self, tmp_path: Path):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(BAD)
        artifact = tmp_path / "report.json"
        result = self._run("src", "--output", str(artifact), cwd=tmp_path)
        assert result.returncode == 1
        assert "RL004" in result.stdout
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is False and payload["findings"]

    def test_exit_zero_on_clean_tree_with_json_stdout(self, tmp_path: Path):
        good = tmp_path / "src" / "repro" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text(
            textwrap.dedent(
                """
                def f(x=None):
                    return [] if x is None else x
                """
            )
        )
        result = self._run("src", "--json", cwd=tmp_path)
        assert result.returncode == 0
        assert json.loads(result.stdout)["ok"] is True

    def test_list_rules_names_every_code(self, tmp_path: Path):
        result = self._run("--list-rules", cwd=tmp_path)
        assert result.returncode == 0
        for code in ("RL002", "RL003", "RL004", "RL005"):
            assert code in result.stdout
        assert "RL001" not in result.stdout

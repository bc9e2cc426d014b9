"""Opt-in smoke tests for the counting-engine throughput benchmark.

The ``bench_smoke`` marker keeps these out of the default (tier-1) test run — they
time real detection work, so they are opt-in::

    PYTHONPATH=src python -m pytest benchmarks -m bench_smoke

The pure-logic tests of ``check_regression`` and its command-line entry point
below are cheap and run everywhere.
"""

from __future__ import annotations

import copy
import json

import pytest

from benchmarks.bench_engine_throughput import run_benchmarks
from benchmarks.check_regression import (
    DEFAULT_BASELINE,
    check_regression,
    load_artifact,
    main,
)


class TestCheckRegressionLogic:
    BASELINE = {
        "workloads": [
            {"workload": "w", "problem": "global", "algorithm": "IterTD", "speedup": 4.0},
            {"workload": "w", "problem": "global", "algorithm": "GlobalBounds", "speedup": 1.5},
        ],
        "summary": {"meets_target": True, "k_sweep_min_speedup": 4.0, "target_speedup": 3.0},
    }

    def test_passes_when_unchanged(self):
        assert check_regression(copy.deepcopy(self.BASELINE), self.BASELINE) == []

    def test_small_drift_within_tolerance_passes(self):
        current = copy.deepcopy(self.BASELINE)
        current["workloads"][0]["speedup"] = 3.5  # -12.5% vs 4.0, within 20%
        assert check_regression(current, self.BASELINE) == []

    def test_large_drop_fails(self):
        current = copy.deepcopy(self.BASELINE)
        current["workloads"][0]["speedup"] = 3.0  # -25% vs 4.0
        problems = check_regression(current, self.BASELINE)
        assert len(problems) == 1
        assert "w/global/IterTD" in problems[0]

    def test_missing_entry_fails(self):
        current = copy.deepcopy(self.BASELINE)
        current["workloads"].pop()
        problems = check_regression(current, self.BASELINE)
        assert any("missing" in problem for problem in problems)

    def test_missed_target_fails(self):
        current = copy.deepcopy(self.BASELINE)
        current["summary"] = {"meets_target": False, "k_sweep_min_speedup": 2.0,
                              "target_speedup": 3.0}
        problems = check_regression(current, self.BASELINE)
        assert any("k-sweep target" in problem for problem in problems)


class TestCheckRegressionMain:
    """The command-line entry point, on artifacts written to a temporary directory."""

    BASELINE = TestCheckRegressionLogic.BASELINE

    @staticmethod
    def _write(path, artifact):
        path.write_text(json.dumps(artifact))
        return str(path)

    def _args(self, tmp_path, current, planner=None):
        return [
            "--current", self._write(tmp_path / "current.json", current),
            "--baseline", self._write(tmp_path / "baseline.json", self.BASELINE),
            "--planner", str(planner or tmp_path / "absent.json"),
        ]

    def test_committed_artifacts_pass(self, capsys):
        assert main([]) == 0
        assert "planner gates passed" in capsys.readouterr().out

    def test_unchanged_artifact_passes_without_a_planner_artifact(self, tmp_path, capsys):
        assert main(self._args(tmp_path, self.BASELINE)) == 0
        out = capsys.readouterr().out
        assert "skipping the planner gates" in out
        assert "throughput regression check passed" in out

    def test_regression_exits_1_and_lists_the_problem(self, tmp_path, capsys):
        current = copy.deepcopy(self.BASELINE)
        current["workloads"][0]["speedup"] = 3.0
        assert main(self._args(tmp_path, current)) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "w/global/IterTD" in out

    def test_failing_planner_artifact_fails_the_check(self, tmp_path, capsys):
        planner = self._write(tmp_path / "planner.json", {"summary": {}})
        assert main(self._args(tmp_path, self.BASELINE, planner)) == 1
        assert "planner artifact has no summary.gates mapping" in capsys.readouterr().out

    def test_missing_artifacts_exit_2(self, tmp_path):
        args = self._args(tmp_path, self.BASELINE)
        absent = str(tmp_path / "absent.json")
        assert main(["--current", absent] + args[2:]) == 2
        assert main(args[:2] + ["--baseline", absent] + args[4:]) == 2


@pytest.mark.bench_smoke
class TestEngineSmoke:
    @pytest.fixture(scope="class")
    def artifact(self):
        """One scaled-down benchmark run shared by the smoke assertions."""
        return run_benchmarks(scale=0.2, n_attributes=6, synthetic_rows=2500, repeats=2)

    def test_artifact_shape(self, artifact):
        assert artifact["schema_version"] == 3
        assert len(artifact["workloads"]) == 8
        for entry in artifact["workloads"]:
            assert entry["naive_seconds"] > 0 and entry["engine_seconds"] > 0
            assert entry["speedup"] == pytest.approx(
                entry["naive_seconds"] / entry["engine_seconds"]
            )

    def test_k_sweep_fast_path_beats_naive(self, artifact):
        """Even at smoke scale the engine must clearly beat the per-pattern path."""
        sweep = [e["speedup"] for e in artifact["workloads"] if e["algorithm"] == "IterTD"]
        assert min(sweep) > 1.5

    def test_incremental_detectors_not_badly_regressed(self, artifact):
        others = [e["speedup"] for e in artifact["workloads"] if e["algorithm"] != "IterTD"]
        assert min(others) > 0.5

    def test_committed_baseline_structure_is_comparable(self, artifact):
        """The committed baseline must cover the same (workload, problem, algorithm)
        grid the benchmark produces, so check_regression can match entries."""
        baseline = load_artifact(DEFAULT_BASELINE)
        from benchmarks.check_regression import entry_key

        assert {entry_key(e) for e in baseline["workloads"]} == {
            entry_key(e) for e in artifact["workloads"]
        }
        assert baseline["summary"]["meets_target"] is True

"""Smoke tests for the query-planner benchmark and its regression gates.

The cheap pure-logic tests of ``check_planner`` run everywhere; the scaled-down
benchmark run itself is opt-in behind the ``bench_smoke`` marker::

    PYTHONPATH=src python -m pytest benchmarks -m bench_smoke
"""

from __future__ import annotations

import copy

import pytest

from benchmarks.bench_query_planner import run_benchmark
from benchmarks.check_regression import NODE_CHECKS, PLANNER_GATES, check_planner


class TestCheckPlannerLogic:
    ARTIFACT = {
        "summary": {
            "gates": {name: True for name in PLANNER_GATES},
            "gates_ok": True,
            "full_searches_saved": 120,
            "batch_evaluations_saved": 4000,
        },
        "planned": {"nodes_evaluated": 9000},
        "per_query": {"nodes_evaluated": 30000},
        "partial_overlap": {
            "extension": {
                "result_cache_partial_hits": 3,
                "batch_evaluations": 100,
                "nodes_evaluated": 800,
            },
            "covering_rerun": {"batch_evaluations": 450, "nodes_evaluated": 2500},
        },
        "two_sided": {
            "extension": {"nodes_evaluated": 700},
            "covering_rerun": {"nodes_evaluated": 1900},
        },
        "threshold_tuning": {
            "n_thresholds": 12,
            "planned": {"nodes_evaluated": 21000},
            "per_query": {"nodes_evaluated": 21000},
        },
    }

    def test_passes_when_all_gates_hold(self):
        assert check_planner(copy.deepcopy(self.ARTIFACT)) == []

    def test_failed_gate_reported_by_name(self):
        current = copy.deepcopy(self.ARTIFACT)
        current["summary"]["gates"]["fewer_full_searches"] = False
        problems = check_planner(current)
        assert len(problems) == 1
        assert "fewer_full_searches" in problems[0]

    def test_missing_gate_reported(self):
        current = copy.deepcopy(self.ARTIFACT)
        del current["summary"]["gates"]["results_bit_identical"]
        problems = check_planner(current)
        assert any("results_bit_identical" in problem for problem in problems)

    def test_zero_savings_reported(self):
        current = copy.deepcopy(self.ARTIFACT)
        current["summary"]["full_searches_saved"] = 0
        problems = check_planner(current)
        assert any("saved no root searches" in problem for problem in problems)

    def test_malformed_artifact_reported(self):
        assert check_planner({}) == ["planner artifact has no summary.gates mapping"]

    def test_missing_partial_hits_reported(self):
        current = copy.deepcopy(self.ARTIFACT)
        current["partial_overlap"]["extension"]["result_cache_partial_hits"] = 0
        problems = check_planner(current)
        assert any("no partial hits" in problem for problem in problems)

    def test_extension_not_cheaper_reported(self):
        current = copy.deepcopy(self.ARTIFACT)
        current["partial_overlap"]["extension"]["batch_evaluations"] = 450
        problems = check_planner(current)
        assert any("covering re-run" in problem for problem in problems)

    @pytest.mark.parametrize("section,served_key,control_key", NODE_CHECKS)
    def test_served_side_evaluating_more_nodes_reported(
        self, section, served_key, control_key
    ):
        current = copy.deepcopy(self.ARTIFACT)
        parent = current if section is None else current[section]
        parent[served_key]["nodes_evaluated"] = (
            parent[control_key]["nodes_evaluated"] + 1
        )
        problems = check_planner(current)
        assert len(problems) == 1
        assert "evaluated more nodes" in problems[0]

    def test_failed_warm_store_gate_reported(self):
        current = copy.deepcopy(self.ARTIFACT)
        current["summary"]["gates"]["warm_store_no_engine_work"] = False
        problems = check_planner(current)
        assert any("warm_store_no_engine_work" in problem for problem in problems)


@pytest.mark.bench_smoke
class TestPlannerSmoke:
    @pytest.fixture(scope="class")
    def artifact(self):
        """One scaled-down benchmark run shared by the smoke assertions."""
        return run_benchmark(n_rows=3000, n_attributes=6, repeat_factor=2)

    def test_gates_hold_at_smoke_scale(self, artifact):
        assert artifact["summary"]["gates_ok"], artifact["summary"]["gates"]
        assert check_planner(artifact) == []

    def test_plan_shape(self, artifact):
        assert artifact["n_queries"] == 24
        plan = artifact["plan"]
        # The 12-query batch collapses to 5 covering sweeps; the repeated batch
        # is absorbed entirely by dedupe + the result cache.
        assert plan["n_steps"] == 5
        assert plan["deduped_queries"] + plan["merged_ranges"] == 24 - 5

    def test_savings_are_substantial(self, artifact):
        per_query = artifact["per_query"]
        planned = artifact["planned"]
        # 24 queries served by 5 sweeps: at least half the root searches saved.
        assert planned["full_searches"] * 2 < per_query["full_searches"]
        assert planned["result_cache_hits"] == 24 - 5
        assert planned["result_cache_misses"] == 5

    def test_extension_mode_serves_partial_hits(self, artifact):
        partial = artifact["partial_overlap"]
        extension = partial["extension"]
        rerun = partial["covering_rerun"]
        assert extension["result_cache_partial_hits"] == partial["n_extension_queries"]
        assert extension["extended_k_values"] > 0
        assert extension["full_searches"] < rerun["full_searches"]
        assert extension["batch_evaluations"] < rerun["batch_evaluations"]

    def test_warm_store_mode_does_no_engine_work(self, artifact):
        warm = artifact["warm_store"]["warm"]
        assert warm["full_searches"] == 0
        assert warm["batch_evaluations"] == 0
        assert warm["result_cache_misses"] == 0

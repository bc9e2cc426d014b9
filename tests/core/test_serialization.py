"""Tests for repro.core.serialization."""

from __future__ import annotations

import json

import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec, step_lower_bounds
from repro.core.global_bounds import GlobalBoundsDetector
from repro.core.pattern import Pattern
from repro.core.result_set import DetectionResult
from repro.core.serialization import (
    REPORT_FORMAT_VERSION,
    bound_from_dict,
    bound_to_dict,
    load_report,
    load_result,
    pattern_from_dict,
    pattern_to_dict,
    report_from_dict,
    report_to_dict,
    result_from_dict,
    result_to_dict,
    save_result,
    stats_from_dict,
)
from repro.exceptions import DetectionError


class TestPatternSerialization:
    def test_round_trip(self):
        pattern = Pattern({"School": "GP", "Failures": 1})
        assert pattern_from_dict(pattern_to_dict(pattern)) == pattern

    def test_empty_pattern(self):
        assert pattern_from_dict(pattern_to_dict(Pattern())) == Pattern()


class TestResultSerialization:
    def make_result(self) -> DetectionResult:
        return DetectionResult(
            {
                4: [Pattern({"Address": "U"}), Pattern({"Failures": 1})],
                5: [Pattern({"Gender": "F"})],
            }
        )

    def test_round_trip_in_memory(self):
        result = self.make_result()
        assert result_from_dict(result_to_dict(result)) == result

    def test_round_trip_via_file(self, tmp_path):
        result = self.make_result()
        path = tmp_path / "result.json"
        save_result(result, path)
        assert load_result(path) == result
        # The file is plain JSON and sorted, so it is stable and diffable.
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["format_version"] == 1
        assert set(payload["per_k"]) == {"4", "5"}

    def test_version_check(self):
        with pytest.raises(DetectionError):
            result_from_dict({"format_version": 99, "per_k": {}})

    def test_malformed_payloads(self, tmp_path):
        with pytest.raises(DetectionError):
            result_from_dict({"format_version": 1})
        with pytest.raises(DetectionError):
            result_from_dict({"format_version": 1, "per_k": {"not a number": []}})
        bad_file = tmp_path / "bad.json"
        bad_file.write_text("{not json", encoding="utf-8")
        with pytest.raises(DetectionError):
            load_result(bad_file)


class TestBoundSerialization:
    @pytest.mark.parametrize(
        "bound",
        [
            GlobalBoundSpec(lower_bounds=2.0),
            GlobalBoundSpec(lower_bounds=2.0, upper_bounds=10.0),
            GlobalBoundSpec(lower_bounds=step_lower_bounds({10: 10, 20: 20, 30: 30})),
            GlobalBoundSpec(
                lower_bounds=step_lower_bounds({5: 1.0, 15: 4.0}), upper_bounds={5: 40.0}
            ),
            ProportionalBoundSpec(alpha=0.8),
            ProportionalBoundSpec(alpha=0.8, beta=2.5),
        ],
    )
    def test_round_trip(self, bound):
        rebuilt = bound_from_dict(bound_to_dict(bound))
        assert rebuilt == bound
        # The rebuilt bound must behave identically, not just compare equal.
        # (Every schedule above starts at k <= 10, so these ks are all defined.)
        for k in (12, 25, 31):
            assert rebuilt.lower(k, 50, 200) == bound.lower(k, 50, 200)
            assert rebuilt.upper(k, 50, 200) == bound.upper(k, 50, 200)

    def test_payload_is_json_compatible(self):
        bound = GlobalBoundSpec(lower_bounds=step_lower_bounds({10: 10, 20: 20}))
        payload = json.loads(json.dumps(bound_to_dict(bound)))
        assert bound_from_dict(payload) == bound

    def test_callable_schedule_saves_opaque_but_refuses_rebuild(self):
        bound = GlobalBoundSpec(lower_bounds=len)  # any callable
        payload = bound_to_dict(bound)
        assert payload["lower_bounds"]["kind"] == "opaque"
        with pytest.raises(DetectionError):
            bound_from_dict(payload)

    def test_unknown_payloads_rejected(self):
        with pytest.raises(DetectionError):
            bound_from_dict({"type": "exotic"})
        with pytest.raises(DetectionError):
            bound_from_dict({"type": "proportional"})
        with pytest.raises(DetectionError):
            bound_from_dict({"type": "global", "lower_bounds": {"kind": "wat"}})


class TestReportSerialization:
    def test_report_round_trip_preserves_groups_and_context(self, toy_dataset, toy_ranking, tmp_path):
        report = GlobalBoundsDetector(
            bound=GlobalBoundSpec(lower_bounds=2), tau_s=4, k_min=4, k_max=5
        ).detect(toy_dataset, toy_ranking)
        path = tmp_path / "report.json"
        save_result(report, path)

        reloaded = load_result(path)
        assert reloaded == report.result

        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["algorithm"] == "GlobalBounds"
        assert payload["report_format_version"] == REPORT_FORMAT_VERSION
        assert payload["parameters"]["tau_s"] == 4
        assert payload["stats"]["nodes_evaluated"] > 0
        groups_k4 = payload["groups"]["4"]
        assert all(group["count_in_top_k"] < group["bound"] for group in groups_k4)
        described = {tuple(sorted(group["pattern"].items())) for group in groups_k4}
        assert tuple(sorted({"Address": "U"}.items())) in described

    def test_load_report_full_round_trip(self, toy_dataset, toy_ranking, tmp_path):
        report = GlobalBoundsDetector(
            bound=GlobalBoundSpec(lower_bounds=step_lower_bounds({4: 2.0})),
            tau_s=4, k_min=4, k_max=5,
        ).detect(toy_dataset, toy_ranking)
        path = tmp_path / "report.json"
        save_result(report, path)

        loaded = load_report(path)
        assert loaded.algorithm == report.algorithm
        assert loaded.result == report.result
        assert loaded.parameters.bound == report.parameters.bound
        assert loaded.parameters.tau_s == report.parameters.tau_s
        assert loaded.parameters.k_min == report.parameters.k_min
        assert loaded.parameters.k_max == report.parameters.k_max
        assert loaded.stats.as_dict() == report.stats.as_dict()
        for k in report.result.k_values:
            assert loaded.groups_at(k) == report.groups_at(k)
            for order_by in ("size", "bias"):
                assert loaded.detailed_groups(k, order_by) == report.detailed_groups(k, order_by)
        with pytest.raises(DetectionError):
            loaded.detailed_groups(4, order_by="alphabetical")

    def test_load_report_round_trips_proportional_bound(
        self, toy_dataset, toy_ranking, tmp_path
    ):
        from repro.core import detect_biased_groups

        report = detect_biased_groups(
            toy_dataset, toy_ranking, ProportionalBoundSpec(alpha=0.9),
            tau_s=5, k_min=4, k_max=5,
        )
        path = tmp_path / "prop_report.json"
        save_result(report, path)
        loaded = load_report(path)
        assert loaded.parameters.bound == ProportionalBoundSpec(alpha=0.9)
        assert loaded.result == report.result

    def test_load_report_rejects_result_only_and_legacy_payloads(self, tmp_path):
        result_path = tmp_path / "result.json"
        save_result(DetectionResult({4: [Pattern({"A": 1})]}), result_path)
        with pytest.raises(DetectionError):
            load_report(result_path)
        # A pre-version-2 report payload (bound stored as repr only).
        legacy = {
            "format_version": 1,
            "per_k": {"4": []},
            "algorithm": "GlobalBounds",
            "parameters": {"tau_s": 4, "k_min": 4, "k_max": 5, "bound": "GlobalBoundSpec(...)"},
        }
        with pytest.raises(DetectionError):
            report_from_dict(legacy)
        # load_result still reads both shapes.
        legacy_path = tmp_path / "legacy.json"
        legacy_path.write_text(json.dumps(legacy), encoding="utf-8")
        assert load_result(legacy_path).k_values == (4,)

    def test_loaded_report_can_be_resaved(self, toy_dataset, toy_ranking, tmp_path):
        report = GlobalBoundsDetector(
            bound=GlobalBoundSpec(lower_bounds=2), tau_s=4, k_min=4, k_max=5
        ).detect(toy_dataset, toy_ranking)
        first_path = tmp_path / "first.json"
        save_result(report, first_path)
        loaded = load_report(first_path)
        second_path = tmp_path / "second.json"
        save_result(loaded, second_path)
        resaved = load_report(second_path)
        assert resaved.result == report.result
        assert resaved.parameters.bound == report.parameters.bound
        assert resaved.stats.as_dict() == report.stats.as_dict()
        for k in report.result.k_values:
            assert resaved.detailed_groups(k) == report.detailed_groups(k)

    def test_saved_report_with_retired_counters_still_loads(
        self, toy_dataset, toy_ranking, tmp_path
    ):
        """A v2 report saved while stats still had ``implication_hits`` and
        ``refined_queries`` loads; the retired keys land in ``stats.extra``."""
        report = GlobalBoundsDetector(
            bound=GlobalBoundSpec(lower_bounds=2), tau_s=4, k_min=4, k_max=5
        ).detect(toy_dataset, toy_ranking)
        payload = report_to_dict(report)
        assert payload["report_format_version"] == 2
        payload["stats"].update(implication_hits=1, refined_queries=3)
        path = tmp_path / "older.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_report(path)
        assert loaded.result == report.result
        assert loaded.stats.extra["implication_hits"] == 1
        assert loaded.stats.extra["refined_queries"] == 3
        assert loaded.stats.nodes_evaluated == report.stats.nodes_evaluated

    def test_stats_round_trip_preserves_extra_counters(self):
        from repro.core.stats import SearchStats

        stats = SearchStats(nodes_evaluated=7, cache_hits=3, elapsed_seconds=0.5)
        stats.bump("incremental_steps", 4)
        rebuilt = stats_from_dict(json.loads(json.dumps(stats.as_dict())))
        assert rebuilt.as_dict() == stats.as_dict()

    def test_stats_round_trip_preserves_plan_and_cache_counters(self):
        """The planner/result-cache provenance counters persist in reports."""
        from repro.core.stats import SearchStats

        stats = SearchStats(
            result_cache_hits=2, result_cache_misses=1, plan_merged_queries=3
        )
        flat = stats.as_dict()
        assert flat["result_cache_hits"] == 2
        assert flat["result_cache_misses"] == 1
        assert flat["plan_merged_queries"] == 3
        rebuilt = stats_from_dict(json.loads(json.dumps(flat)))
        assert rebuilt.result_cache_hits == 2
        assert rebuilt.result_cache_misses == 1
        assert rebuilt.plan_merged_queries == 3

    def test_stats_round_trip_preserves_fault_tolerance_counters(self):
        """The supervisor/breaker counters flow through the v3 sweep serde like
        every other dataclass field (stats_from_dict is reflection-based)."""
        from repro.core.stats import SearchStats

        stats = SearchStats(
            worker_restarts=2,
            shard_retries=3,
            heartbeat_timeouts=1,
            query_deadline_exceeded=1,
            degraded_queries=4,
            executor_recoveries=1,
        )
        flat = stats.as_dict()
        for name in (
            "worker_restarts", "shard_retries", "heartbeat_timeouts",
            "query_deadline_exceeded", "degraded_queries", "executor_recoveries",
        ):
            assert name in flat
        rebuilt = stats_from_dict(json.loads(json.dumps(flat)))
        assert rebuilt.as_dict() == stats.as_dict()
        # absorb() folds the new counters by reflection, like the executor does.
        merged = SearchStats(worker_restarts=1).merge(rebuilt)
        assert merged.worker_restarts == 3
        assert merged.executor_recoveries == 1

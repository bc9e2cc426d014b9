"""Tests for repro.core.stats.

The per-field tests cover every :class:`SearchStats` field by reflection, so a
counter added later is checked on each path a report takes (``as_dict`` → JSON →
``stats_from_dict``, ``save_result``/``load_report``, ``absorb``) without anyone
listing it here.  The warm-session test checks the engine → report hop.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.engine.parallel import ExecutionConfig
from repro.core.iter_td import IterTDDetector
from repro.core.planner import DetectionQuery
from repro.core.serialization import load_report, save_result, stats_from_dict
from repro.core.session import AuditSession
from repro.core.stats import COUNTER_TYPES, SearchStats, examined_gain
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.ranking.base import PrecomputedRanker

FIELD_NAMES = [spec.name for spec in fields(SearchStats)]


def _distinct_value(name: str):
    """A non-default value for field ``name`` that no other field shares.

    Float fields get a non-integral value, so a round trip through ``int``
    shows; the ``extra`` dict gets one free-form counter.
    """
    ordinal = FIELD_NAMES.index(name) + 2
    default = getattr(SearchStats(), name)
    if isinstance(default, dict):
        return {"custom_counter": ordinal}
    if isinstance(default, float):
        return ordinal + 0.375
    return ordinal


def _stats_with(name: str) -> SearchStats:
    stats = SearchStats()
    setattr(stats, name, _distinct_value(name))
    return stats


def _assert_carries(stats: SearchStats, name: str) -> None:
    value = getattr(stats, name)
    expected = _distinct_value(name)
    assert value == expected
    assert type(value) is type(expected)
    assert stats == _stats_with(name)


class TestSearchStats:
    def test_bump_and_as_dict(self):
        stats = SearchStats(nodes_generated=10, nodes_evaluated=7)
        stats.bump("restarts")
        stats.bump("restarts", 2)
        flat = stats.as_dict()
        assert flat["nodes_generated"] == 10
        assert flat["restarts"] == 3

    def test_merge_sums_counters(self):
        first = SearchStats(nodes_generated=5, nodes_evaluated=3, size_computations=4, full_searches=1)
        first.bump("x", 2)
        second = SearchStats(nodes_generated=1, nodes_evaluated=2, size_computations=3, full_searches=2)
        second.bump("x", 1)
        second.bump("y", 7)
        merged = first.merge(second)
        assert merged.nodes_generated == 6
        assert merged.nodes_evaluated == 5
        assert merged.size_computations == 7
        assert merged.full_searches == 3
        assert merged.extra == {"x": 3, "y": 7}
        # merge does not mutate its inputs
        assert first.extra == {"x": 2}


class TestExaminedGain:
    def test_percentage(self):
        baseline = SearchStats(nodes_evaluated=200)
        optimized = SearchStats(nodes_evaluated=120)
        assert examined_gain(baseline, optimized) == pytest.approx(40.0)

    def test_zero_baseline(self):
        assert examined_gain(SearchStats(), SearchStats(nodes_evaluated=5)) == 0.0

    def test_negative_gain_possible(self):
        baseline = SearchStats(nodes_evaluated=10)
        optimized = SearchStats(nodes_evaluated=12)
        assert examined_gain(baseline, optimized) == pytest.approx(-20.0)


@pytest.mark.parametrize("name", FIELD_NAMES)
class TestEveryFieldSurvivesEveryPath:
    def test_as_dict_json_stats_from_dict(self, name):
        payload = json.loads(json.dumps(_stats_with(name).as_dict()))
        _assert_carries(stats_from_dict(payload), name)

    def test_save_result_load_report(self, name, toy_dataset, toy_ranking, tmp_path):
        report = IterTDDetector(GlobalBoundSpec(lower_bounds=2.0), 2, 4, 6).detect(
            toy_dataset, toy_ranking
        )
        report.stats = _stats_with(name)
        path = tmp_path / "report.json"
        save_result(report, path)
        _assert_carries(load_report(path).stats, name)

    def test_absorb_sums(self, name):
        merged = _stats_with(name).absorb(_stats_with(name))
        value = _distinct_value(name)
        if isinstance(value, dict):
            assert merged.extra == {key: 2 * count for key, count in value.items()}
        else:
            assert getattr(merged, name) == 2 * value


def test_every_engine_counter_reaches_the_report():
    """After a real query on a warm session, each engine counter the query moved
    is on its report, as a field or in ``extra``, with exactly that delta."""
    spec = SyntheticSpec(
        n_rows=200, cardinalities=[2, 3, 2, 4], score_weights=[1.0, -0.5, 0.25, 0.7],
        noise=0.3, seed=8,
    )
    dataset = synthetic_dataset(spec)
    ranking = PrecomputedRanker(score_column="score").rank(dataset)
    # A tiny match cache keeps matches being rebuilt and evicted; a larger block
    # cache lets the warm query reuse blocks.
    config = ExecutionConfig(match_cache_capacity=4, block_cache_capacity=15)
    with AuditSession(dataset, ranking, execution=config) as session:
        session.run(DetectionQuery(GlobalBoundSpec(lower_bounds=3.0), 4, 5, 30, "iter_td"))
        before = session.counter.stats_snapshot()
        stats = session.run(
            DetectionQuery(ProportionalBoundSpec(alpha=0.8), 2, 5, 30, "iter_td")
        ).stats
        after = session.counter.stats_snapshot()
    delta = {name: after[name] - before[name] for name in after}
    assert all(delta.values()), delta  # every key is exercised, so none can hide
    for name, value in delta.items():
        published = getattr(stats, name) if name in COUNTER_TYPES else stats.extra[name]
        assert published == value, name


#: Engine counters that reports saved before the engine kept one match
#: representation still carry; they are no longer fields.
RETIRED_COUNTERS = ["dense_masks", "sparse_masks", "representation_switches"]


@pytest.mark.parametrize("name", RETIRED_COUNTERS)
class TestRetiredCountersLoadIntoExtra:
    """A retired counter takes every path a report takes as a free-form counter
    in ``extra``, never as a field."""

    def test_as_dict_json_stats_from_dict(self, name):
        payload = json.loads(json.dumps({**SearchStats(nodes_evaluated=5).as_dict(), name: 3}))
        loaded = stats_from_dict(payload)
        assert name not in COUNTER_TYPES
        assert loaded.extra == {name: 3}
        assert loaded.nodes_evaluated == 5
        assert json.loads(json.dumps(loaded.as_dict()))[name] == 3

    def test_save_result_load_report(self, name, toy_dataset, toy_ranking, tmp_path):
        report = IterTDDetector(GlobalBoundSpec(lower_bounds=2.0), 2, 4, 6).detect(
            toy_dataset, toy_ranking
        )
        path = tmp_path / "report.json"
        save_result(report, path)
        payload = json.loads(path.read_text())
        payload["stats"][name] = 4
        path.write_text(json.dumps(payload))
        loaded = load_report(path).stats
        assert loaded.extra == {**report.stats.extra, name: 4}
        assert loaded.nodes_evaluated == report.stats.nodes_evaluated

    def test_absorb_sums(self, name):
        loaded = stats_from_dict({name: 3})
        merged = loaded.copy().absorb(stats_from_dict({name: 4, "nodes_evaluated": 1}))
        assert merged.extra == {name: 7}
        assert merged.nodes_evaluated == 1

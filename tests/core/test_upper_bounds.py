"""Tests for the upper-bound variants (most specific substantial patterns)."""

from __future__ import annotations

import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.brute_force import enumerate_patterns
from repro.core.pattern import Pattern
from repro.core.stats import SearchStats
from repro.core.upper_bounds import (
    UpperBoundsDetector,
    most_general_above_upper,
    most_specific_substantial,
    substantial_patterns,
)
from repro.exceptions import DetectionError


class TestSubstantialPatterns:
    def test_matches_definition(self, toy_counter, toy_dataset):
        tau_s = 4
        substantial = substantial_patterns(toy_counter, tau_s)
        expected = {
            pattern: toy_dataset.count(pattern)
            for pattern in enumerate_patterns(toy_dataset)
            if toy_dataset.count(pattern) >= tau_s
        }
        assert substantial == expected

    def test_sizes_recorded(self, toy_counter):
        substantial = substantial_patterns(toy_counter, 6)
        for pattern, size in substantial.items():
            assert size == toy_counter.size(pattern) >= 6


class TestMostSpecificSubstantial:
    def test_every_specialisation_falls_below_threshold(self, toy_counter, toy_dataset):
        tau_s = 4
        most_specific = most_specific_substantial(toy_counter, tau_s)
        assert most_specific  # the toy data has at least one such pattern
        for pattern, size in most_specific.items():
            assert size >= tau_s
            for attribute in toy_dataset.schema:
                if attribute.name in pattern:
                    continue
                for value in attribute.values:
                    child = pattern.extend(attribute.name, value)
                    assert toy_dataset.count(child) < tau_s

    def test_counts_no_size_beyond_the_substantial_traversal(self, toy_counter):
        """The substantial set is complete, so a pattern-graph child missing from
        it is below ``tau_s`` without a size count of its own."""
        traversal, most_specific = SearchStats(), SearchStats()
        substantial_patterns(toy_counter, 4, traversal)
        most_specific_substantial(toy_counter, 4, most_specific)
        assert most_specific.size_computations == traversal.size_computations

    def test_none_is_a_subset_of_another(self, toy_counter):
        most_specific = most_specific_substantial(toy_counter, 4)
        patterns = list(most_specific)
        for p in patterns:
            for q in patterns:
                if p != q:
                    assert not p.is_proper_subset_of(q) or True  # comparable pairs allowed only if both most specific
        # A pattern strictly containing another most-specific pattern would contradict
        # the definition, since the superset would prove the subset is not most specific.
        for p in patterns:
            for q in patterns:
                if p != q:
                    assert not p.is_proper_superset_of(q)


class TestUpperBoundsDetector:
    def test_requires_upper_bounds(self):
        with pytest.raises(DetectionError):
            UpperBoundsDetector(bound=GlobalBoundSpec(lower_bounds=2), tau_s=4, k_min=4, k_max=5)

    def test_detects_over_represented_most_specific_groups(self, toy_dataset, toy_ranking):
        bound = GlobalBoundSpec(lower_bounds=0, upper_bounds=2)
        report = UpperBoundsDetector(bound=bound, tau_s=4, k_min=5, k_max=5).detect(
            toy_dataset, toy_ranking
        )
        groups = report.groups_at(5)
        assert groups, "some group exceeds the upper bound of 2 in the top-5"
        counter_groups_ok = all(
            toy_ranking.count_in_top_k(pattern, 5) > 2 and toy_dataset.count(pattern) >= 4
            for pattern in groups
        )
        assert counter_groups_ok

    def test_proportional_upper_bound(self, toy_dataset, toy_ranking):
        bound = ProportionalBoundSpec(alpha=0.1, beta=1.1)
        report = UpperBoundsDetector(bound=bound, tau_s=4, k_min=5, k_max=6).detect(
            toy_dataset, toy_ranking
        )
        for k in report.result:
            for pattern in report.groups_at(k):
                size = toy_dataset.count(pattern)
                assert toy_ranking.count_in_top_k(pattern, k) > 1.1 * size * k / 16


class TestMostGeneralAboveUpper:
    def test_results_violate_and_are_minimal(self, toy_counter, toy_dataset, toy_ranking):
        bound = GlobalBoundSpec(lower_bounds=0, upper_bounds=1)
        result = most_general_above_upper(toy_counter, bound, tau_s=4, k=5)
        assert result
        for pattern in result:
            assert toy_ranking.count_in_top_k(pattern, 5) > 1
            for other in result:
                if other != pattern:
                    assert not other.is_proper_subset_of(pattern)

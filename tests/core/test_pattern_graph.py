"""Tests for repro.core.pattern_graph (SearchTree and PatternCounter)."""

from __future__ import annotations

from collections import deque

import pytest

from repro.core.brute_force import enumerate_patterns
from repro.core.pattern import EMPTY_PATTERN, Pattern
from repro.core.pattern_graph import PatternCounter, SearchTree
from repro.data.dataset import Dataset
from repro.data.generators.toy import students_toy
from repro.ranking.base import PrecomputedRanker, Ranking
from repro.ranking.workloads import toy_ranker


@pytest.fixture()
def toy():
    dataset = students_toy()
    return dataset, toy_ranker().rank(dataset)


class TestSearchTree:
    def test_children_of_empty_pattern(self, toy):
        dataset, _ = toy
        tree = SearchTree(dataset)
        children = list(tree.children(EMPTY_PATTERN))
        # Gender(2) + School(2) + Address(2) + Failures(3) = 9 single-attribute patterns.
        assert len(children) == 9
        assert Pattern({"Gender": "F"}) in children
        assert Pattern({"Failures": 2}) in children

    def test_children_only_add_higher_index_attributes(self, toy):
        """Definition 4.1: {G=F, S=GP} is a tree child of {G=F} but not of {S=GP}."""
        dataset, _ = toy
        tree = SearchTree(dataset)
        assert Pattern({"Gender": "F", "School": "GP"}) in list(tree.children(Pattern({"Gender": "F"})))
        assert Pattern({"Gender": "F", "School": "GP"}) not in list(
            tree.children(Pattern({"School": "GP"}))
        )

    def test_every_pattern_generated_exactly_once(self, toy):
        """Traversing the search tree enumerates the full pattern space without repeats."""
        dataset, _ = toy
        tree = SearchTree(dataset)
        seen: list[Pattern] = []
        queue = deque([EMPTY_PATTERN])
        while queue:
            pattern = queue.popleft()
            seen.append(pattern)
            queue.extend(tree.children(pattern))
        all_patterns = set(enumerate_patterns(dataset, include_empty=True))
        assert len(seen) == len(set(seen)) == len(all_patterns)
        assert set(seen) == all_patterns


class TestPatternCounter:
    def test_sizes_match_example_2_3(self, toy):
        dataset, ranking = toy
        counter = PatternCounter(dataset, ranking)
        pattern = Pattern({"School": "GP"})
        assert counter.size(pattern) == 8
        assert counter.top_k_count(pattern, 5) == 1

    def test_counts_match_dataset_and_ranking(self, toy):
        dataset, ranking = toy
        counter = PatternCounter(dataset, ranking)
        for pattern in enumerate_patterns(dataset):
            assert counter.size(pattern) == dataset.count(pattern)
            for k in (1, 4, 10, 16):
                assert counter.top_k_count(pattern, k) == ranking.count_in_top_k(pattern, k)

    def test_row_satisfies(self, toy):
        dataset, ranking = toy
        counter = PatternCounter(dataset, ranking)
        # Rank 1 is tuple 12: F / GP / U / 0 failures.
        assert counter.row_satisfies(1, Pattern({"Gender": "F", "School": "GP"}))
        assert not counter.row_satisfies(1, Pattern({"Gender": "M"}))

    def test_cache_and_clear(self, toy):
        dataset, ranking = toy
        counter = PatternCounter(dataset, ranking)
        counter.size(Pattern({"Gender": "F", "School": "GP"}))
        assert counter.cached_patterns > 0
        counter.clear_cache()
        assert counter.cached_patterns == 0

    def test_mismatched_dataset_rejected(self, toy):
        dataset, ranking = toy
        other = Dataset.from_columns({"x": ["a", "b"]}, numeric={"s": [1.0, 2.0]})
        other_ranking = PrecomputedRanker(score_column="s").rank(other)
        with pytest.raises(ValueError):
            PatternCounter(dataset, other_ranking)

    def test_mask_cache_limit_respected(self, toy):
        dataset, ranking = toy
        counter = PatternCounter(dataset, ranking, max_cached_masks=1)
        counter.size(Pattern({"Gender": "F"}))
        counter.size(Pattern({"Gender": "M"}))
        assert counter.cached_patterns <= 1
        # Counting still works without caching.
        assert counter.size(Pattern({"Gender": "M"})) == 8

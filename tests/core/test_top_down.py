"""Tests for repro.core.top_down (Algorithm 1)."""

from __future__ import annotations

import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.pattern import EMPTY_PATTERN, Pattern
from repro.core.stats import SearchStats
from repro.core.top_down import (
    SearchState,
    constant_lower_bound,
    expand_parent,
    top_down_search,
)


class TestGlobalBoundSearch:
    def test_example_2_4_school_constraint(self, toy_counter):
        """Example 2.4: with L_5 = 2, {School=GP} has only one top-5 tuple."""
        state = top_down_search(toy_counter, GlobalBoundSpec(lower_bounds=2), k=5, tau_s=4)
        assert Pattern({"School": "GP"}) in state.below
        assert state.below[Pattern({"School": "GP"})] == 1
        assert Pattern({"School": "MS"}) in state.expanded

    def test_example_4_6_result_and_frontier(self, toy_counter):
        """Example 4.6 (k=4): {Address=U} and {Failures=1} are most general results,
        while their specialisations end up on the below frontier with an ancestor in
        the result (the paper's DRes)."""
        state = top_down_search(toy_counter, GlobalBoundSpec(lower_bounds=2), k=4, tau_s=4)
        result = state.most_general()
        assert Pattern({"Address": "U"}) in result
        assert Pattern({"Failures": 1}) in result
        # The DRes patterns listed in the paper were reached and are below the bound
        # but are not most general.
        for dres_pattern in (
            Pattern({"Gender": "F", "Address": "U"}),
            Pattern({"Gender": "M", "Address": "U"}),
            Pattern({"Gender": "F", "Failures": 1}),
            Pattern({"Address": "R", "Failures": 1}),
        ):
            assert dres_pattern in state.below
            assert dres_pattern not in result

    def test_size_threshold_prunes(self, toy_counter):
        state = top_down_search(toy_counter, GlobalBoundSpec(lower_bounds=2), k=4, tau_s=9)
        # Only patterns with at least 9 of the 16 tuples survive; every single-value
        # pattern has size 8 or less except Failures=1 (size 8 as well) -> all pruned.
        assert not state.below and not state.expanded

    def test_below_and_expanded_partition_by_bound(self, toy_counter):
        bound = GlobalBoundSpec(lower_bounds=3)
        state = top_down_search(toy_counter, bound, k=6, tau_s=4)
        for pattern, count in state.below.items():
            assert count < 3
            assert toy_counter.top_k_count(pattern, 6) == count
        for pattern, count in state.expanded.items():
            assert count >= 3
            assert toy_counter.top_k_count(pattern, 6) == count

    def test_stats_are_recorded(self, toy_counter):
        stats = SearchStats()
        top_down_search(toy_counter, GlobalBoundSpec(lower_bounds=2), k=4, tau_s=4, stats=stats)
        assert stats.full_searches == 1
        assert stats.nodes_generated >= stats.nodes_evaluated > 0
        assert stats.size_computations >= stats.nodes_evaluated


class TestProportionalBoundSearch:
    def test_example_4_9_result_at_k4(self, toy_counter):
        """Example 4.9: tau_s=5, alpha=0.9, k=4 -> {School=GP}, {Address=U}, {Failures=1}."""
        state = top_down_search(toy_counter, ProportionalBoundSpec(alpha=0.9), k=4, tau_s=5)
        assert state.most_general() == frozenset(
            {Pattern({"School": "GP"}), Pattern({"Address": "U"}), Pattern({"Failures": 1})}
        )

    def test_sizes_cached_for_visited_patterns(self, toy_counter):
        state = top_down_search(toy_counter, ProportionalBoundSpec(alpha=0.9), k=4, tau_s=5)
        for pattern in list(state.below) + list(state.expanded):
            assert state.sizes[pattern] == toy_counter.size(pattern)
            assert state.sizes[pattern] >= 5


class TestExpandParent:
    """The one child loop skips children already classified below or expanded."""

    @staticmethod
    def _expand_root(counter, state, k=4, tau_s=4):
        bound = GlobalBoundSpec(lower_bounds=2)
        stats = SearchStats()
        sunk: list[Pattern] = []
        expand_parent(
            counter, bound, k, tau_s, counter.dataset_size, state, stats, EMPTY_PATTERN,
            constant_lower_bound(bound, k, counter.dataset_size), sunk.append,
        )
        return stats, sunk

    def test_visited_children_are_skipped_and_uncounted(self, toy_counter):
        state = top_down_search(toy_counter, GlobalBoundSpec(lower_bounds=2), k=4, tau_s=4)
        before = SearchState(dict(state.below), dict(state.expanded), dict(state.sizes))
        roots = [p for p in list(state.below) + list(state.expanded) if len(p) == 1]
        assert roots
        stats, sunk = self._expand_root(toy_counter, state)
        assert sunk == [] and stats.nodes_evaluated == 0
        assert stats.size_computations == stats.nodes_generated - len(roots)
        assert state == before

    def test_a_size_only_entry_is_still_classified(self, toy_counter):
        """A stored frontier may carry ``sizes`` keys beyond below and expanded;
        such a child is classified, not skipped."""
        fresh_stats, fresh_sunk = self._expand_root(toy_counter, SearchState())
        state = SearchState(sizes={Pattern({"Address": "U"}): 8})
        stats, sunk = self._expand_root(toy_counter, state)
        assert Pattern({"Address": "U"}) in state.below
        assert sunk == fresh_sunk
        assert stats == fresh_stats

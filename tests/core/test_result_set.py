"""Tests for repro.core.result_set."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pattern import Pattern
from repro.core.result_set import DetectedGroup, DetectionResult, minimal_patterns


class TestMinimalPatterns:
    def test_keeps_only_minimal_elements(self):
        patterns = [
            Pattern({"a": 1}),
            Pattern({"a": 1, "b": 2}),
            Pattern({"b": 2}),
            Pattern({"c": 3, "d": 4}),
        ]
        assert minimal_patterns(patterns) == frozenset(
            {Pattern({"a": 1}), Pattern({"b": 2}), Pattern({"c": 3, "d": 4})}
        )

    def test_duplicates_collapse(self):
        assert minimal_patterns([Pattern({"a": 1}), Pattern({"a": 1})]) == frozenset({Pattern({"a": 1})})

    @given(
        st.lists(
            st.dictionaries(
                keys=st.sampled_from(["a", "b", "c"]),
                values=st.integers(min_value=0, max_value=1),
                min_size=1,
                max_size=3,
            ),
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_minimal_set_is_an_antichain_covering_all_inputs(self, assignments):
        patterns = [Pattern(assignment) for assignment in assignments]
        minimal = minimal_patterns(patterns)
        # Antichain: no member subsumes another.
        for p in minimal:
            for q in minimal:
                if p != q:
                    assert not p.is_proper_subset_of(q)
        # Coverage: every input pattern has a minimal generalisation in the result.
        for pattern in patterns:
            assert any(member.is_subset_of(pattern) for member in minimal)


class TestDetectedGroup:
    def test_bias_gap_and_description(self):
        group = DetectedGroup(
            pattern=Pattern({"sex": "F"}), k=10, size_in_data=200, count_in_top_k=3, bound=8.0
        )
        assert group.bias_gap == pytest.approx(5.0)
        description = group.describe()
        assert "sex=F" in description and "k=10" in description


class TestDetectionResult:
    def make_result(self) -> DetectionResult:
        return DetectionResult(
            {
                11: [Pattern({"a": 1}), Pattern({"b": 2})],
                10: [Pattern({"a": 1})],
            }
        )

    def test_mapping_interface_sorted_by_k(self):
        result = self.make_result()
        assert list(result) == [10, 11]
        assert result[10] == frozenset({Pattern({"a": 1})})
        assert result.groups_at(99) == frozenset()

    def test_aggregations(self):
        result = self.make_result()
        assert result.total_reported() == 3
        assert result.max_groups_per_k() == 2
        assert result.all_groups() == frozenset({Pattern({"a": 1}), Pattern({"b": 2})})
        assert result.first_detection_k(Pattern({"b": 2})) == 11
        assert result.first_detection_k(Pattern({"z": 0})) is None

    def test_to_table(self):
        rows = self.make_result().to_table()
        assert rows[0] == (10, "a=1")
        assert (11, "b=2") in rows

    def test_equality(self):
        assert self.make_result() == self.make_result()
        assert self.make_result() == {10: {Pattern({"a": 1})}, 11: {Pattern({"a": 1}), Pattern({"b": 2})}}
        assert self.make_result() != DetectionResult({10: []})

    def test_empty_result(self):
        empty = DetectionResult({})
        assert empty.total_reported() == 0
        assert empty.max_groups_per_k() == 0

    def test_covers(self):
        sweep = DetectionResult({k: [] for k in range(5, 11)})
        assert sweep.covers(5, 10)
        assert sweep.covers(7, 7)
        assert not sweep.covers(4, 10)
        assert not sweep.covers(5, 11)
        gappy = DetectionResult({5: [], 7: []})
        assert not gappy.covers(5, 7)

    def test_restrict_k_slices_a_covering_sweep(self):
        sweep = DetectionResult(
            {k: [Pattern({"a": 1})] if k % 2 else [] for k in range(2, 9)}
        )
        sliced = sweep.restrict_k(3, 6)
        assert sliced.k_values == (3, 4, 5, 6)
        for k in sliced.k_values:
            assert sliced[k] == sweep[k]
        # Restriction to the full range reproduces the sweep exactly.
        assert sweep.restrict_k(2, 8) == sweep

    def test_restrict_k_rejects_uncovered_ranges(self):
        from repro.exceptions import DetectionError

        sweep = DetectionResult({k: [] for k in range(5, 11)})
        with pytest.raises(DetectionError):
            sweep.restrict_k(4, 8)
        with pytest.raises(DetectionError):
            sweep.restrict_k(8, 12)
        with pytest.raises(DetectionError):
            sweep.restrict_k(9, 8)

    def test_restrict_k_never_aliases_mutable_inputs(self):
        """A result sliced out of a sweep built from mutable sets stays stable if
        the originating sets are mutated afterwards."""
        live = {Pattern({"a": 1})}
        sweep = DetectionResult({5: live, 6: set(live)})
        sliced = sweep.restrict_k(5, 6)
        live.add(Pattern({"b": 2}))
        live.discard(Pattern({"a": 1}))
        assert sliced[5] == frozenset({Pattern({"a": 1})})
        assert sweep[5] == frozenset({Pattern({"a": 1})})

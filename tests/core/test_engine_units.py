"""Unit tests for the vectorized counting engine building blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine.blocks import EngineBlock
from repro.core.engine.cache import LRUCache
from repro.core.engine.counting import POSITION_DTYPE, CountingEngine
from repro.core.engine.naive import NaiveCounter
from repro.core.pattern import EMPTY_PATTERN, Pattern
from repro.core.result_set import minimal_patterns
from repro.data.dataset import Dataset
from repro.data.generators.toy import students_toy
from repro.data.schema import Attribute, Schema
from repro.ranking.base import Ranking
from repro.ranking.workloads import toy_ranker


@pytest.fixture()
def toy_engine():
    dataset = students_toy()
    ranking = toy_ranker().rank(dataset)
    return dataset, ranking, CountingEngine(dataset, ranking)


class TestLRUCache:
    def test_hit_miss_counters(self):
        cache: LRUCache[str, int] = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1

    def test_evicts_least_recently_used(self):
        cache: LRUCache[str, int] = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now the LRU entry
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_does_not_stop_caching_when_full(self):
        """Unlike the seed's mask cache, new entries keep landing after the cap."""
        cache: LRUCache[int, int] = LRUCache(3)
        for index in range(10):
            cache.put(index, index)
        assert len(cache) == 3
        assert set(cache) == {7, 8, 9}
        assert cache.evictions == 7

    def test_zero_capacity_never_stores(self):
        cache: LRUCache[str, int] = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0

    def test_zero_capacity_counts_misses_but_never_evicts(self):
        cache: LRUCache[str, int] = LRUCache(0)
        for _ in range(3):
            cache.put("a", 1)
            assert cache.get("a") is None
        assert cache.misses == 3
        assert cache.hits == 0
        assert cache.evictions == 0
        assert "a" not in cache

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)

    def test_reput_updates_value_and_refreshes_recency(self):
        cache: LRUCache[str, int] = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # update in place; must not evict, must refresh "a"
        assert cache.evictions == 0
        cache.put("c", 3)  # now "b" is the LRU entry
        assert "b" not in cache
        assert cache.evictions == 1
        assert cache.get("a") == 10

    def test_eviction_order_under_interleaved_reaccess(self):
        cache: LRUCache[int, int] = LRUCache(3)
        for key in (1, 2, 3):
            cache.put(key, key)
        cache.get(1)
        cache.get(2)  # recency now 3 < 1 < 2
        cache.put(4, 4)
        assert 3 not in cache  # 3 was the least recently used entry
        cache.get(1)  # recency now 2 < 4 < 1
        cache.put(5, 5)
        assert 2 not in cache
        assert set(cache) == {4, 1, 5}

    def test_eviction_counters_reach_search_stats(self):
        """Engine evictions under a tiny cache must surface on the run's stats."""
        from repro.core.bounds import GlobalBoundSpec
        from repro.core.iter_td import IterTDDetector
        from repro.data.synthetic import SyntheticSpec, synthetic_dataset
        from repro.ranking.base import PrecomputedRanker

        spec = SyntheticSpec(
            n_rows=60, cardinalities=[2, 3, 2], score_weights=[1.0, -0.5, 0.25],
            noise=0.3, seed=8,
        )
        dataset = synthetic_dataset(spec)
        ranking = PrecomputedRanker(score_column="score").rank(dataset)
        from repro.core.pattern_graph import PatternCounter

        counter = PatternCounter(dataset, ranking, max_cached_masks=3, max_cached_blocks=3)
        report = IterTDDetector(
            bound=GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=30
        ).detect(dataset, ranking, counter=counter)
        assert report.stats.cache_evictions > 0
        assert report.stats.cache_evictions == (
            counter._matches.evictions + counter._blocks.evictions
        )

    def test_clear_keeps_counters(self):
        cache: LRUCache[str, int] = LRUCache(2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1


#: The pattern that :func:`_engine_matching` makes match a chosen position set.
MARKED = Pattern({"A": 1})


def _engine_matching(positions, n_rows: int, **options) -> CountingEngine:
    """An engine over one binary attribute ``A`` under the identity ranking, in
    which :data:`MARKED` holds at exactly the rank positions ``positions``."""
    column = np.zeros(n_rows, dtype=np.int32)
    column[np.asarray(positions, dtype=np.intp)] = 1
    dataset = Dataset(Schema([Attribute("A", (0, 1))]), column[:, None])
    return CountingEngine(dataset, Ranking(dataset, np.arange(n_rows)), **options)


class TestMatchPositions:
    """Every cached match is its sorted rank positions; each scalar query and the
    mask are read off that one array, whether the match was gathered from its
    parent's rows or selected from a cached sibling block."""

    N_ROWS = 20

    @pytest.mark.parametrize("positions", [[], [0], [3, 7, 9], list(range(20))])
    def test_positions_answer_size_and_top_k_counts(self, positions):
        gathered = _engine_matching(positions, self.N_ROWS)
        from_block = _engine_matching(positions, self.N_ROWS)
        from_block.child_block(EMPTY_PATTERN, 0, 1)
        ks = np.arange(self.N_ROWS + 1)
        expected_counts = [sum(position < k for position in positions) for k in ks]
        for engine in (gathered, from_block):
            match = engine.match(MARKED)
            assert match.dtype == POSITION_DTYPE
            assert match.tolist() == positions
            assert engine.size(MARKED) == len(positions)
            assert [engine.top_k_count(MARKED, int(k)) for k in ks] == expected_counts
            assert engine.top_k_counts(MARKED, ks).tolist() == expected_counts
        assert gathered.batch_evaluations == 0
        assert from_block.batch_evaluations == 1

    @pytest.mark.parametrize("positions", [[], [0], [3, 7, 9], list(range(20))])
    def test_mask_and_row_satisfies_agree_with_positions(self, positions):
        engine = _engine_matching(positions, self.N_ROWS)
        expected = [position in positions for position in range(self.N_ROWS)]
        assert engine.mask(MARKED).tolist() == expected
        for rank in range(1, self.N_ROWS + 1):
            assert engine.row_satisfies(rank, MARKED) == expected[rank - 1]

    def test_root_match_is_every_rank_position_and_pinned(self):
        engine = _engine_matching([2, 5], self.N_ROWS, max_cached_masks=0)
        root = engine.match(EMPTY_PATTERN)
        assert root.dtype == POSITION_DTYPE
        assert root.tolist() == list(range(self.N_ROWS))
        assert engine.size(EMPTY_PATTERN) == self.N_ROWS
        assert engine.top_k_counts(EMPTY_PATTERN, np.arange(self.N_ROWS + 1)).tolist() == list(
            range(self.N_ROWS + 1)
        )
        assert engine.mask(EMPTY_PATTERN).all()
        engine.clear_cache()
        # Pinned outside the LRU cache: never counted, never evicted.
        assert engine.match(EMPTY_PATTERN) is root
        assert engine.stats_snapshot()["cache_hits"] == 0
        assert engine.stats_snapshot()["cache_misses"] == 0

    def test_mask_is_a_fresh_array(self):
        engine = _engine_matching([1, 4, 5], 8)
        mask = engine.mask(MARKED)
        assert mask.tolist() == [False, True, False, False, True, True, False, False]
        mask[:] = True  # a caller writing to its mask cannot reach the cache
        assert engine.match(MARKED).tolist() == [1, 4, 5]
        assert engine.mask(MARKED).tolist() == [
            False, True, False, False, True, True, False, False
        ]

    def test_match_is_memoised_until_evicted(self):
        engine = _engine_matching([3, 7, 9], self.N_ROWS)
        first = engine.match(MARKED)
        assert engine.match(MARKED) is first
        assert engine.stats_snapshot()["cache_hits"] == 1
        uncached = _engine_matching([3, 7, 9], self.N_ROWS, max_cached_masks=0)
        again = uncached.match(MARKED)
        assert uncached.match(MARKED) is not again
        assert uncached.match(MARKED).tolist() == again.tolist() == [3, 7, 9]
        assert uncached.stats_snapshot()["cache_hits"] == 0


class TestCSRBlock:
    def test_qualifying_skips_small_children(self, toy_engine):
        _, _, engine = toy_engine
        block = engine.child_block(EMPTY_PATTERN, 0, k=5)
        survivors = list(block.qualifying(tau_s=8))
        assert {pattern.describe() for pattern, _, _ in survivors} == {"Gender=F", "Gender=M"}
        assert all(size >= 8 for _, size, _ in survivors)
        assert list(block.qualifying(tau_s=9)) == []

    def test_cached_block_counts_match_fresh_counts(self, toy_engine):
        _, _, engine = toy_engine
        fresh = engine.child_block(EMPTY_PATTERN, 1, k=5)
        cached = engine.child_block(EMPTY_PATTERN, 1, k=7)  # same block, different k
        assert isinstance(cached, EngineBlock)
        assert cached.entry is fresh.entry  # served from the block cache
        for index in range(fresh.n_children):
            assert fresh.count_for(index) == fresh.positions_for(index).searchsorted(5)
            assert cached.count_for(index) == cached.positions_for(index).searchsorted(7)
        assert engine.block_reuses == 1


class TestCountingEngine:
    def test_counters_move(self, toy_engine):
        _, _, engine = toy_engine
        list(engine.child_blocks(EMPTY_PATTERN, k=4))
        snapshot = engine.stats_snapshot()
        assert snapshot["batch_evaluations"] == 4  # one per attribute
        assert snapshot["cache_misses"] > 0

    def test_row_satisfies_matches_mask(self, toy_engine):
        dataset, _, engine = toy_engine
        pattern = Pattern({"Gender": "F", "School": "GP"})
        mask = engine.mask(pattern)
        for rank in range(1, dataset.n_rows + 1):
            assert engine.row_satisfies(rank, pattern) == bool(mask[rank - 1])

    def test_eviction_does_not_change_answers(self):
        dataset = students_toy()
        ranking = toy_ranker().rank(dataset)
        tiny = CountingEngine(dataset, ranking, max_cached_masks=2, max_cached_blocks=2)
        reference = NaiveCounter(dataset, ranking)
        patterns = [
            Pattern({"Gender": "F"}),
            Pattern({"School": "GP"}),
            Pattern({"Gender": "F", "School": "GP"}),
            Pattern({"Address": "U", "Failures": 1}),
            Pattern({"Gender": "M", "Address": "R"}),
        ]
        for _ in range(2):  # second pass exercises recomputation after eviction
            for pattern in patterns:
                assert tiny.size(pattern) == reference.size(pattern)
                for k in (1, 5, dataset.n_rows):
                    assert tiny.top_k_count(pattern, k) == reference.top_k_count(pattern, k)
        assert tiny.stats_snapshot()["cache_evictions"] > 0

    def test_mismatched_dataset_rejected(self, toy_engine):
        from repro.data.dataset import Dataset
        from repro.ranking.base import PrecomputedRanker

        dataset, _, _ = toy_engine
        other = Dataset.from_columns({"x": ["a", "b"]}, numeric={"s": [1.0, 2.0]})
        other_ranking = PrecomputedRanker(score_column="s").rank(other)
        with pytest.raises(ValueError):
            CountingEngine(dataset, other_ranking)


class TestMinimalPatternsGrouping:
    def _reference(self, patterns):
        accepted = []
        for pattern in sorted(set(patterns), key=len):
            if not any(member.is_subset_of(pattern) for member in accepted):
                accepted.append(pattern)
        return frozenset(accepted)

    def test_randomized_equivalence_with_pairwise_reference(self):
        rng = np.random.default_rng(7)
        names = ["A", "B", "C", "D", "E"]
        for _ in range(25):
            patterns = []
            for _ in range(rng.integers(0, 40)):
                width = int(rng.integers(1, len(names) + 1))
                chosen = rng.choice(len(names), size=width, replace=False)
                patterns.append(
                    Pattern({names[i]: int(rng.integers(0, 3)) for i in chosen})
                )
            assert minimal_patterns(patterns) == self._reference(patterns)

    def test_empty_pattern_subsumes_everything(self):
        patterns = [EMPTY_PATTERN, Pattern({"A": 1}), Pattern({"A": 1, "B": 2})]
        assert minimal_patterns(patterns) == frozenset({EMPTY_PATTERN})

    def test_equal_length_antichain_kept_whole(self):
        patterns = [Pattern({"A": 1}), Pattern({"A": 2}), Pattern({"B": 1})]
        assert minimal_patterns(patterns) == frozenset(patterns)

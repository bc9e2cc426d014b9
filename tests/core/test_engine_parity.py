"""Property-style parity tests: the engine path must be byte-identical to the seed.

The vectorized counting engine is a pure performance refactor — sizes, top-k counts
and every detector's per-k result sets must match the naive per-pattern reference
path (:class:`~repro.core.engine.naive.NaiveCounter`, a faithful copy of the seed
``PatternCounter``) and the brute-force oracle on randomized synthetic datasets,
including the edge cases ``k = 1``, ``k = n`` and ``tau_s = 1``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec, step_lower_bounds
from repro.core.brute_force import brute_force_detection, enumerate_patterns
from repro.core.engine.naive import NaiveCounter
from repro.core.global_bounds import GlobalBoundsDetector
from repro.core.iter_td import IterTDDetector
from repro.core.pattern import EMPTY_PATTERN
from repro.core.pattern_graph import PatternCounter
from repro.core.prop_bounds import PropBoundsDetector
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.exceptions import DetectionError
from repro.ranking.base import PrecomputedRanker

#: Deterministic parameterisation: (seed, n_rows, cardinalities, skew).
INSTANCES = [
    (11, 40, [2, 3], 1.0),
    (23, 60, [3, 2, 2], 0.6),
    (37, 80, [2, 2, 3, 2], 1.5),
    (51, 48, [4, 3], 0.8),
    (68, 72, [2, 3, 3], 1.0),
]


def _instance(seed: int, n_rows: int, cardinalities: list[int], skew: float):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.5, 1.5, size=len(cardinalities)).tolist()
    spec = SyntheticSpec(
        n_rows=n_rows,
        cardinalities=cardinalities,
        score_weights=weights,
        noise=0.4,
        skew=skew,
        seed=seed,
    )
    dataset = synthetic_dataset(spec)
    ranking = PrecomputedRanker(score_column="score").rank(dataset)
    return dataset, ranking


@pytest.mark.parametrize("seed,n_rows,cardinalities,skew", INSTANCES)
class TestCountParity:
    def test_sizes_and_top_k_counts_match_naive(self, seed, n_rows, cardinalities, skew):
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        engine_counter = PatternCounter(dataset, ranking)
        naive = NaiveCounter(dataset, ranking)
        ks = np.asarray([1, 2, n_rows // 3, n_rows - 1, n_rows])
        for pattern in enumerate_patterns(dataset, include_empty=True):
            assert engine_counter.size(pattern) == naive.size(pattern)
            assert np.array_equal(
                engine_counter.top_k_counts(pattern, ks), naive.top_k_counts(pattern, ks)
            )
            assert np.array_equal(engine_counter.mask(pattern), naive.mask(pattern))

    def test_sibling_blocks_match_naive_blocks(self, seed, n_rows, cardinalities, skew):
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        engine_counter = PatternCounter(dataset, ranking)
        naive = NaiveCounter(dataset, ranking)
        k = max(1, n_rows // 4)
        parents = [EMPTY_PATTERN] + list(engine_counter.tree.children(EMPTY_PATTERN))
        for parent in parents:
            engine_blocks = list(engine_counter.child_blocks(parent, k))
            naive_blocks = list(naive.child_blocks(parent, k))
            assert len(engine_blocks) == len(naive_blocks)
            for engine_block, naive_block in zip(engine_blocks, naive_blocks):
                assert engine_block.n_children == naive_block.n_children
                assert list(engine_block.qualifying(1)) == list(naive_block.qualifying(1))

    def test_row_satisfies_matches_naive(self, seed, n_rows, cardinalities, skew):
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        engine_counter = PatternCounter(dataset, ranking)
        naive = NaiveCounter(dataset, ranking)
        ranks = [1, 2, n_rows // 2, n_rows]
        for pattern in enumerate_patterns(dataset):
            for rank in ranks:
                assert engine_counter.row_satisfies(rank, pattern) == naive.row_satisfies(
                    rank, pattern
                )

    def test_out_of_range_ranks_raise_in_both_counters(self, seed, n_rows, cardinalities, skew):
        """Rank 0, a negative rank and rank n+1 name no tuple: neither counter may
        wrap them to another row or leak a bare ``IndexError``."""
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        pattern = next(iter(enumerate_patterns(dataset)))
        for counter in (PatternCounter(dataset, ranking), NaiveCounter(dataset, ranking)):
            counter.row_satisfies(n_rows, pattern)
            for rank in (0, -1, n_rows + 1):
                with pytest.raises(DetectionError, match="outside the ranking"):
                    counter.row_satisfies(rank, pattern)
                with pytest.raises(DetectionError, match="outside the ranking"):
                    counter.satisfying(rank, {pattern: 0})

    def test_satisfying_is_the_touched_scan_in_dict_order(self, seed, n_rows, cardinalities, skew):
        """``satisfying(k, d)`` keeps ``d``'s order: PropBounds schedules by it."""
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        naive = NaiveCounter(dataset, ranking)
        patterns = list(enumerate_patterns(dataset, include_empty=True))
        order = np.random.default_rng(seed).permutation(len(patterns))
        scanned = {patterns[index]: 0 for index in order}
        for counter in (PatternCounter(dataset, ranking), NaiveCounter(dataset, ranking)):
            for rank in range(1, n_rows + 1):
                expected = [p for p in scanned if naive.row_satisfies(rank, p)]
                assert counter.satisfying(rank, scanned) == expected


@pytest.mark.parametrize("seed,n_rows,cardinalities,skew", INSTANCES)
@pytest.mark.parametrize(
    "bound_factory",
    [
        lambda n: GlobalBoundSpec(lower_bounds=2.0),
        lambda n: GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 1.0, 8: 3.0, 20: 5.0})),
        lambda n: ProportionalBoundSpec(alpha=0.8),
        lambda n: ProportionalBoundSpec(alpha=1.0),
    ],
)
class TestDetectorParity:
    """All three detectors, engine vs naive vs brute force, over the full k range."""

    def _detectors(self, bound, tau_s, k_min, k_max):
        detectors = [
            IterTDDetector(bound=bound, tau_s=tau_s, k_min=k_min, k_max=k_max),
            PropBoundsDetector(bound=bound, tau_s=tau_s, k_min=k_min, k_max=k_max),
        ]
        if not bound.pattern_dependent:
            detectors.append(
                GlobalBoundsDetector(bound=bound, tau_s=tau_s, k_min=k_min, k_max=k_max)
            )
        return detectors

    def _check(self, dataset, ranking, bound, tau_s, k_min, k_max):
        oracle_counter = PatternCounter(dataset, ranking)
        expected = brute_force_detection(dataset, oracle_counter, bound, tau_s, k_min, k_max)
        for detector in self._detectors(bound, tau_s, k_min, k_max):
            engine_report = detector.detect(dataset, ranking)
            naive_report = detector.detect(
                dataset, ranking, counter=NaiveCounter(dataset, ranking)
            )
            assert engine_report.result == expected, detector.name
            assert naive_report.result == expected, detector.name

    def test_per_k_result_sets_identical(self, seed, n_rows, cardinalities, skew, bound_factory):
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        bound = bound_factory(n_rows)
        self._check(dataset, ranking, bound, tau_s=max(2, n_rows // 10), k_min=2, k_max=n_rows - 1)

    def test_edge_cases_k1_kn_tau1(self, seed, n_rows, cardinalities, skew, bound_factory):
        """k = 1, k = n and tau_s = 1 in one sweep over the full k range."""
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        bound = bound_factory(n_rows)
        self._check(dataset, ranking, bound, tau_s=1, k_min=1, k_max=n_rows)


@pytest.mark.parametrize("seed,n_rows,cardinalities,skew", INSTANCES[:3])
class TestKernelParity:
    """The engine's block counting vs the naive oracle, bit for bit."""

    def test_sizes_and_counts_match_naive_across_k_range(
        self, seed, n_rows, cardinalities, skew
    ):
        """k at both range ends, via both cache paths."""
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        counter = PatternCounter(dataset, ranking)
        naive = NaiveCounter(dataset, ranking)
        for k in (1, 2, n_rows // 2, n_rows - 1, n_rows):
            parents = [EMPTY_PATTERN] + list(counter.tree.children(EMPTY_PATTERN))
            for parent in parents:
                engine_blocks = list(counter.child_blocks(parent, k))
                naive_blocks = list(naive.child_blocks(parent, k))
                for engine_block, naive_block in zip(engine_blocks, naive_blocks):
                    assert engine_block.sizes.tolist() == list(naive_block.sizes)
                    assert engine_block.counts == list(naive_block.counts)

    def test_empty_blocks_and_cached_recounts(self, seed, n_rows, cardinalities, skew):
        """A parent with zero matching rows yields all-zero sizes and counts."""
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        counter = PatternCounter(dataset, ranking)
        schema = dataset.schema
        first, second = schema.attributes[0], schema.attributes[1]
        empty_parent = None
        for value_a in first.values:
            for value_b in second.values:
                candidate = EMPTY_PATTERN.extend(first.name, value_a).extend(
                    second.name, value_b
                )
                if counter.size(candidate) == 0:
                    empty_parent = candidate
                    break
            if empty_parent is not None:
                break
        if empty_parent is None:
            pytest.skip("instance has no empty two-attribute pattern")
        for block in counter.child_blocks(empty_parent, max(1, n_rows // 2)):
            assert block.sizes.sum() == 0
            assert sum(block.counts) == 0
        # The second pass re-counts through the cached BlockEntry (prefix path).
        for block in counter.child_blocks(empty_parent, 1):
            assert sum(block.counts) == 0

    def test_detectors_bit_identical_per_kernel(self, seed, n_rows, cardinalities, skew):
        """All three detectors produce the oracle result."""
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        tau_s = max(2, n_rows // 10)
        oracle_counter = PatternCounter(dataset, ranking)
        bound = ProportionalBoundSpec(alpha=0.8)
        global_bound = GlobalBoundSpec(lower_bounds=2.0)
        expected_prop = brute_force_detection(
            dataset, oracle_counter, bound, tau_s, 2, n_rows - 1
        )
        expected_global = brute_force_detection(
            dataset, oracle_counter, global_bound, tau_s, 2, n_rows - 1
        )
        for detector, expected in (
            (IterTDDetector(bound=bound, tau_s=tau_s, k_min=2, k_max=n_rows - 1),
             expected_prop),
            (PropBoundsDetector(bound=bound, tau_s=tau_s, k_min=2, k_max=n_rows - 1),
             expected_prop),
            (GlobalBoundsDetector(bound=global_bound, tau_s=tau_s, k_min=2,
                                  k_max=n_rows - 1), expected_global),
        ):
            report = detector.detect(dataset, ranking)
            assert report.result == expected, detector.name


def test_parity_survives_cache_eviction():
    """A tiny LRU capacity (constant churn) must not change any result set."""
    dataset, ranking = _instance(91, 64, [2, 3, 2], 1.0)
    bound = ProportionalBoundSpec(alpha=0.9)
    detector = PropBoundsDetector(bound=bound, tau_s=2, k_min=1, k_max=64)
    reference = detector.detect(dataset, ranking)
    tiny_counter = PatternCounter(dataset, ranking, max_cached_masks=4)
    churned = detector.detect(dataset, ranking, counter=tiny_counter)
    assert churned.result == reference.result
    assert churned.stats.cache_evictions > 0


def test_engine_stats_published_on_reports():
    dataset, ranking = _instance(17, 50, [2, 2, 3], 1.0)
    detector = IterTDDetector(
        bound=GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=1, k_max=25
    )
    report = detector.detect(dataset, ranking)
    stats = report.stats
    assert stats.batch_evaluations > 0
    assert stats.cache_hits > 0
    assert stats.cache_misses > 0
    assert stats.as_dict()["batch_evaluations"] == stats.batch_evaluations

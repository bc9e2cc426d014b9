"""Tests for the parallel sharded search executor and its building blocks.

Covers the merge primitives (``SearchState.merge``, ``SearchStats.absorb/merge``),
the shared-memory dataset view, the weight-balanced shard partitioning, the
``ExecutionConfig`` plumbing through the public detector API, the serial fallback
guards (no pool, no shared memory with ``workers=1``; graceful degradation on
platforms without shared memory), and — most importantly — bit-identical parity of
the parallel executor against the serial path for all three detectors on
randomized instances.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec, step_lower_bounds
from repro.core.engine import parallel as parallel_module
from repro.core.engine import shared as shared_module
from repro.core.engine.parallel import ExecutionConfig, create_search_executor
from repro.core.engine.shared import SharedDatasetView
from repro.core.engine.sharding import estimate_subtree_weight, partition_weighted
from repro.core.global_bounds import GlobalBoundsDetector
from repro.core.iter_td import IterTDDetector
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternCounter
from repro.core.prop_bounds import PropBoundsDetector
from repro.core.stats import SearchStats
from repro.core.top_down import SearchState, top_down_search
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.exceptions import ConfigurationError, DetectionError
from repro.ranking.base import PrecomputedRanker


def _instance(seed: int, n_rows: int, cardinalities: list[int], skew: float = 1.0):
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


# -- SearchState.merge ---------------------------------------------------------------
class TestSearchStateMerge:
    def _random_state(self, rng) -> SearchState:
        state = SearchState()
        for index in range(int(rng.integers(0, 30))):
            pattern = Pattern({f"A{int(rng.integers(1, 5))}": int(rng.integers(0, 3))})
            bucket = [state.below, state.expanded][int(rng.integers(0, 2))]
            bucket[pattern] = index
            state.sizes[pattern] = index + 1
        return state

    def test_merge_of_partition_reproduces_serial_state(self):
        """Splitting a real search state arbitrarily and merging must round-trip."""
        dataset, ranking = _instance(5, 80, [2, 3, 2])
        counter = PatternCounter(dataset, ranking)
        bound = GlobalBoundSpec(lower_bounds=2.0)
        reference = top_down_search(counter, bound, 20, 2, SearchStats())
        rng = np.random.default_rng(11)
        parts = [SearchState() for _ in range(3)]
        for mapping_name in ("below", "expanded", "sizes"):
            for pattern, value in getattr(reference, mapping_name).items():
                part = parts[int(rng.integers(0, 3))]
                getattr(part, mapping_name)[pattern] = value
        merged = SearchState()
        for part in parts:
            assert merged.merge(part) is merged
        assert merged.below == reference.below
        assert merged.expanded == reference.expanded
        assert merged.sizes == reference.sizes
        assert merged.most_general() == reference.most_general()

    def test_merge_overlap_last_wins(self):
        pattern = Pattern({"A1": 0})
        first = SearchState(below={pattern: 1}, sizes={pattern: 5})
        second = SearchState(below={pattern: 2}, sizes={pattern: 5})
        first.merge(second)
        assert first.below[pattern] == 2

    def test_randomized_merge_equals_dict_union(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            one, two = self._random_state(rng), self._random_state(rng)
            expected_below = {**one.below, **two.below}
            expected_expanded = {**one.expanded, **two.expanded}
            merged = one.merge(two)
            assert merged.below == expected_below
            assert merged.expanded == expected_expanded


# -- SearchStats merge/absorb --------------------------------------------------------
class TestSearchStatsMerge:
    def test_absorb_accumulates_in_place(self):
        first = SearchStats(nodes_evaluated=3, cache_hits=2, extra={"a": 1})
        second = SearchStats(nodes_evaluated=4, cache_hits=1, extra={"a": 2, "b": 5})
        result = first.absorb(second)
        assert result is first
        assert first.nodes_evaluated == 7
        assert first.cache_hits == 3
        assert first.extra == {"a": 3, "b": 5}

    def test_merge_leaves_operands_untouched(self):
        first = SearchStats(nodes_evaluated=3, extra={"a": 1})
        second = SearchStats(nodes_evaluated=4, extra={"a": 2})
        merged = first.merge(second)
        assert merged.nodes_evaluated == 7
        assert merged.extra == {"a": 3}
        assert first.nodes_evaluated == 3 and first.extra == {"a": 1}
        assert second.nodes_evaluated == 4 and second.extra == {"a": 2}

    def test_copy_is_independent(self):
        stats = SearchStats(extra={"a": 1})
        clone = stats.copy()
        clone.bump("a")
        assert stats.extra == {"a": 1}


# -- sharding ------------------------------------------------------------------------
class TestSharding:
    def test_partition_covers_every_index_exactly_once(self):
        weights = [7, 1, 9, 3, 3, 5, 2]
        shards = partition_weighted(weights, 3)
        flat = sorted(index for shard in shards for index in shard)
        assert flat == list(range(len(weights)))

    def test_partition_balances_better_than_worst_case(self):
        rng = np.random.default_rng(3)
        weights = [int(w) for w in rng.integers(1, 100, size=40)]
        shards = partition_weighted(weights, 4)
        loads = [sum(weights[i] for i in shard) for shard in shards]
        # LPT guarantee: makespan <= (4/3 - 1/3m) * OPT, and OPT >= total/m.
        assert max(loads) <= (4 / 3) * sum(weights) / 4 + max(weights)

    def test_partition_is_deterministic(self):
        weights = [4, 4, 2, 2, 1]
        assert partition_weighted(weights, 2) == partition_weighted(weights, 2)

    def test_more_shards_than_units_drops_empties(self):
        shards = partition_weighted([5, 1], 8)
        assert len(shards) == 2
        assert sorted(index for shard in shards for index in shard) == [0, 1]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            partition_weighted([1], 0)

    def test_subtree_weight_decreases_with_attribute_index(self):
        n_attributes = 6
        weights = [estimate_subtree_weight(100, index, n_attributes) for index in range(6)]
        assert weights == sorted(weights, reverse=True)
        # Leaf subtrees (last attribute) still get positive weight.
        assert weights[-1] == 1


# -- shared memory view --------------------------------------------------------------
class TestSharedDatasetView:
    def test_publish_attach_round_trip_zero_copy(self):
        dataset, ranking = _instance(9, 60, [2, 3])
        counter = PatternCounter(dataset, ranking)
        ranked = counter.engine.ranked_codes
        view = SharedDatasetView.publish(
            ranked, np.ascontiguousarray(ranking.order), dataset.schema
        )
        try:
            attached = view.handle().attach()
            try:
                assert np.array_equal(attached.ranked_codes, ranked)
                assert np.array_equal(attached.order, ranking.order)
                assert attached.ranked_codes.flags["F_CONTIGUOUS"]
                assert not attached.ranked_codes.flags["WRITEABLE"]
                assert attached.schema == dataset.schema
                assert not attached.is_owner
            finally:
                attached.close()
        finally:
            view.close()

    def test_handle_is_picklable(self):
        dataset, ranking = _instance(10, 40, [2, 2])
        counter = PatternCounter(dataset, ranking)
        view = SharedDatasetView.publish(
            counter.engine.ranked_codes, np.ascontiguousarray(ranking.order), dataset.schema
        )
        try:
            handle = pickle.loads(pickle.dumps(view.handle()))
            attached = handle.attach()
            try:
                assert np.array_equal(attached.ranked_codes, counter.engine.ranked_codes)
            finally:
                attached.close()
        finally:
            view.close()

    def test_publish_validates_shapes(self):
        dataset, ranking = _instance(12, 30, [2, 2])
        counter = PatternCounter(dataset, ranking)
        with pytest.raises(ValueError):
            SharedDatasetView.publish(
                counter.engine.ranked_codes, np.arange(7), dataset.schema
            )


# -- Pattern pickling across processes ----------------------------------------------
class TestPatternPickle:
    def test_reduce_rebuilds_through_reconstructor(self):
        pattern = Pattern({"b": 2, "a": 1})
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone == pattern
        assert hash(clone) == hash(pattern)
        assert {clone: 1}[pattern] == 1

    def test_empty_pattern_round_trips(self):
        from repro.core.pattern import EMPTY_PATTERN

        assert pickle.loads(pickle.dumps(EMPTY_PATTERN)) == EMPTY_PATTERN


# -- ExecutionConfig -----------------------------------------------------------------
class TestExecutionConfig:
    def test_defaults_document_engine_tunables(self):
        from repro.core.engine.counting import DEFAULT_CACHE_CAPACITY
        from repro.core.engine.masks import DEFAULT_SPARSE_THRESHOLD

        config = ExecutionConfig()
        assert config.workers == 1
        assert config.match_cache_capacity == DEFAULT_CACHE_CAPACITY
        assert config.sparse_threshold == DEFAULT_SPARSE_THRESHOLD
        assert config.block_cache_capacity is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(workers=-1)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(match_cache_capacity=-1)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(block_cache_capacity=-2)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(sparse_threshold=-0.1)
        with pytest.raises(ConfigurationError):
            ExecutionConfig(start_method="thread")

    @pytest.mark.parametrize(
        "invalid",
        [
            {"heartbeat_interval": 0.0},
            {"heartbeat_interval": 2.0, "heartbeat_timeout": 1.0},
            {"shard_timeout": 0.0},
            {"query_deadline": -1.0},
            {"max_worker_restarts": -1},
            {"retry_backoff": -0.1},
            {"breaker_cooldown": -1.0},
        ],
        ids=lambda invalid: "-".join(invalid),
    )
    def test_fault_tolerance_fields_raise_configuration_error(self, invalid):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(**invalid)

    def test_workers_zero_resolves_to_available_cpus(self):
        import os

        affinity = getattr(os, "sched_getaffinity", None)
        expected = (
            max(1, len(affinity(0))) if affinity is not None else max(1, os.cpu_count() or 1)
        )
        assert ExecutionConfig(workers=0).resolved_workers() == expected
        assert ExecutionConfig(workers=3).resolved_workers() == 3

    def test_workers_zero_respects_affinity_mask(self, monkeypatch):
        """A container CPU mask narrower than cpu_count wins the resolution."""
        import os

        if getattr(os, "sched_getaffinity", None) is None:
            pytest.skip("platform has no sched_getaffinity")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert ExecutionConfig(workers=0).resolved_workers() == 2

    def test_only_the_process_backend_is_accepted(self):
        for backend in ("greenlet", "thread", "auto"):
            with pytest.raises(ConfigurationError):
                ExecutionConfig(backend=backend)
        # ConfigurationError stays inside the DetectionError taxonomy.
        with pytest.raises(DetectionError):
            ExecutionConfig(backend="thread")
        assert ExecutionConfig(backend="process").backend == "process"

    def test_cache_capacity_reaches_engine(self, synthetic_small, synthetic_small_ranking):
        execution = ExecutionConfig(match_cache_capacity=4, block_cache_capacity=4)
        detector = IterTDDetector(
            bound=GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=30,
            execution=execution,
        )
        report = detector.detect(synthetic_small, synthetic_small_ranking)
        assert report.stats.cache_evictions > 0
        assert report._counter.cached_patterns <= 4

    def test_sparse_threshold_reaches_engine(self, synthetic_small, synthetic_small_ranking):
        # A threshold above 1.0 forces every cached match into sparse storage.
        execution = ExecutionConfig(sparse_threshold=1.1)
        detector = IterTDDetector(
            bound=GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=10,
            execution=execution,
        )
        report = detector.detect(synthetic_small, synthetic_small_ranking)
        assert report.stats.sparse_masks > 0
        assert report.stats.dense_masks == 0

    def test_facade_threads_execution_config(self, synthetic_small, synthetic_small_ranking):
        from repro.core import detect_biased_groups

        report = detect_biased_groups(
            synthetic_small, synthetic_small_ranking, GlobalBoundSpec(lower_bounds=2.0),
            tau_s=2, k_min=2, k_max=6,
            execution=ExecutionConfig(match_cache_capacity=123),
        )
        assert report.stats.nodes_evaluated > 0


# -- serial fallback guards ----------------------------------------------------------
class TestSerialFallback:
    def test_workers_1_never_touches_pool_or_shared_memory(self, monkeypatch):
        """The default path must not create a process or a shared segment."""

        def forbidden(*args, **kwargs):  # pragma: no cover - failing is the test
            raise AssertionError("parallel machinery touched on the serial path")

        monkeypatch.setattr(shared_module.SharedDatasetView, "publish", forbidden)
        monkeypatch.setattr(parallel_module.ParallelSearchExecutor, "__init__", forbidden)
        dataset, ranking = _instance(31, 60, [2, 3])
        report = IterTDDetector(
            bound=GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=10
        ).detect(dataset, ranking)
        assert report.result.total_reported() >= 0
        assert "parallel_fallback" not in report.stats.extra

    def test_falls_back_serially_when_shared_memory_unavailable(self, monkeypatch):
        def failing_publish(*args, **kwargs):
            raise OSError("no shared memory in this sandbox")

        monkeypatch.setattr(shared_module.SharedDatasetView, "publish", failing_publish)
        monkeypatch.setattr(
            parallel_module.SharedDatasetView, "publish", failing_publish
        )
        dataset, ranking = _instance(33, 60, [2, 3])
        serial = IterTDDetector(
            bound=GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=10
        ).detect(dataset, ranking)
        degraded = IterTDDetector(
            bound=GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=10,
            execution=ExecutionConfig(workers=4),
        ).detect(dataset, ranking)
        assert degraded.result == serial.result
        assert degraded.stats.extra.get("parallel_fallback") == 1

    def test_falls_back_serially_when_workers_cannot_start(self, monkeypatch):
        """Worker-side init failure (e.g. attach blocked) degrades to serial."""

        def failing_build(handle, config):
            raise OSError("attach blocked in this sandbox")

        # Forked workers inherit the patched module, so every worker reports
        # init_error, the startup handshake fails, and detect() must fall back.
        monkeypatch.setattr(parallel_module, "_build_worker_counter", failing_build)
        dataset, ranking = _instance(36, 60, [2, 3])
        serial = IterTDDetector(
            bound=GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=10
        ).detect(dataset, ranking)
        degraded = IterTDDetector(
            bound=GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=10,
            execution=ExecutionConfig(workers=2, start_method="fork"),
        ).detect(dataset, ranking)
        assert degraded.result == serial.result
        assert degraded.stats.extra.get("parallel_fallback") == 1

    def test_falls_back_when_module_reports_no_shared_memory(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "shared_memory_available", lambda: False)
        dataset, ranking = _instance(34, 50, [2, 2])
        counter = PatternCounter(dataset, ranking)
        assert create_search_executor(counter, ExecutionConfig(workers=2)) is None

    def test_non_engine_counter_stays_serial(self):
        from repro.core.engine.naive import NaiveCounter

        dataset, ranking = _instance(35, 50, [2, 2])
        naive = NaiveCounter(dataset, ranking)
        assert create_search_executor(naive, ExecutionConfig(workers=2)) is None


# -- executor parity -----------------------------------------------------------------
PARITY_INSTANCES = [
    (41, 64, [2, 3, 2], 0.8),
    (57, 90, [3, 2, 2, 2], 1.2),
]


@pytest.mark.parametrize("seed,n_rows,cardinalities,skew", PARITY_INSTANCES)
@pytest.mark.parametrize("workers", [2, 3])
class TestParallelParity:
    """Parallel execution must be bit-identical to serial for every detector."""

    def _compare(self, detector_class, bound, dataset, ranking, workers, n_rows):
        tau_s = max(2, n_rows // 12)
        serial = detector_class(
            bound=bound, tau_s=tau_s, k_min=2, k_max=n_rows - 1
        ).detect(dataset, ranking)
        parallel = detector_class(
            bound=bound, tau_s=tau_s, k_min=2, k_max=n_rows - 1,
            execution=ExecutionConfig(workers=workers),
        ).detect(dataset, ranking)
        assert parallel.result == serial.result
        # The traversal counters must match the serial run exactly: the shards
        # partition the search tree, they do not re-do or skip work.
        assert parallel.stats.nodes_evaluated == serial.stats.nodes_evaluated
        assert parallel.stats.nodes_generated == serial.stats.nodes_generated
        assert "parallel_fallback" not in parallel.stats.extra
        assert parallel.stats.extra.get("parallel_searches", 0) > 0

    def test_iter_td(self, seed, n_rows, cardinalities, skew, workers):
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        bound = GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 1.0, 10: 3.0, 30: 6.0}))
        self._compare(IterTDDetector, bound, dataset, ranking, workers, n_rows)

    def test_global_bounds(self, seed, n_rows, cardinalities, skew, workers):
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        bound = GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 1.0, 10: 3.0, 30: 6.0}))
        self._compare(GlobalBoundsDetector, bound, dataset, ranking, workers, n_rows)

    def test_prop_bounds(self, seed, n_rows, cardinalities, skew, workers):
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        self._compare(
            PropBoundsDetector, ProportionalBoundSpec(alpha=0.9), dataset, ranking,
            workers, n_rows,
        )


class TestParallelExecutorDirect:
    def test_full_classification_state_matches_serial(self):
        dataset, ranking = _instance(71, 70, [2, 3, 2], 1.0)
        counter = PatternCounter(dataset, ranking)
        bound = GlobalBoundSpec(lower_bounds=2.0)
        reference = top_down_search(counter, bound, 25, 3, SearchStats())
        executor = create_search_executor(
            PatternCounter(dataset, ranking), ExecutionConfig(workers=2)
        )
        assert executor is not None
        try:
            state = executor.search(bound, 25, 3, SearchStats())
            assert state.below == reference.below
            assert state.expanded == reference.expanded
            assert state.sizes == reference.sizes
        finally:
            executor.close()

    def test_sweep_fast_path_preserves_most_general(self):
        dataset, ranking = _instance(72, 70, [2, 3, 2], 1.0)
        counter = PatternCounter(dataset, ranking)
        bound = GlobalBoundSpec(lower_bounds=2.0)
        executor = create_search_executor(
            PatternCounter(dataset, ranking), ExecutionConfig(workers=2)
        )
        assert executor is not None
        try:
            for k in (5, 20, 40):
                reference = top_down_search(counter, bound, k, 3, SearchStats())
                minimal_state = executor.search(
                    bound, k, 3, SearchStats(), classification=False
                )
                assert minimal_state.most_general() == reference.most_general()
        finally:
            executor.close()

    def test_spawn_start_method_parity(self):
        """Spawned workers re-import everything; catches pickling regressions."""
        dataset, ranking = _instance(73, 50, [2, 2], 1.0)
        bound = GlobalBoundSpec(lower_bounds=2.0)
        serial = IterTDDetector(bound=bound, tau_s=2, k_min=2, k_max=20).detect(
            dataset, ranking
        )
        spawned = IterTDDetector(
            bound=bound, tau_s=2, k_min=2, k_max=20,
            execution=ExecutionConfig(workers=2, start_method="spawn"),
        ).detect(dataset, ranking)
        assert spawned.result == serial.result

    def test_stale_results_from_aborted_search_are_discarded(self):
        """A straggler result left queued by a failed search must not be merged."""
        dataset, ranking = _instance(75, 60, [2, 3], 1.0)
        counter = PatternCounter(dataset, ranking)
        bound = GlobalBoundSpec(lower_bounds=2.0)
        reference = top_down_search(counter, bound, 20, 2, SearchStats())
        executor = create_search_executor(
            PatternCounter(dataset, ranking), ExecutionConfig(workers=2)
        )
        assert executor is not None
        try:
            poison = Pattern({"A1": "poison"})
            stale_state = SearchState(below={poison: 99})
            # Epochs start after this value, so the message is from "an earlier
            # search" by construction — exactly what a shard failure leaves behind
            # (in worker 0's private result queue).
            executor._result_queues[0].put(
                ("ok", executor._epoch, 0, (stale_state, SearchStats(), {}))
            )
            state = executor.search(bound, 20, 2, SearchStats())
            assert poison not in state.below
            assert state.below == reference.below
            assert state.expanded == reference.expanded
        finally:
            executor.close()

    def test_closed_executor_rejects_searches(self):
        dataset, ranking = _instance(74, 40, [2, 2], 1.0)
        executor = create_search_executor(
            PatternCounter(dataset, ranking), ExecutionConfig(workers=2)
        )
        assert executor is not None
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(DetectionError):
            executor.search(GlobalBoundSpec(lower_bounds=2.0), 5, 2, SearchStats())

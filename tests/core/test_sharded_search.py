"""Tests for the sharded-search factory and the process executor's contract.

``create_search_executor`` is the single entry point that decides between the
in-process path and the shared-memory worker pool; the session imports it by
name and builds every pool through it.  These tests pin its serial conditions
and fallbacks, then the executor's direct contract beyond detector-level parity:
full search states equal the serial ones under every bound kind, worker engine
work surfaces in the stats, a crossed deadline raises without poisoning the
pool, closing releases the shared-memory segments, every detector stays
bit-identical under the ``forkserver`` start method, and a session keeps serving
from the same pool after a query times out.
"""

from __future__ import annotations

import os
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import session as session_module
from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec, step_lower_bounds
from repro.core.engine import parallel as parallel_module
from repro.core.engine.naive import NaiveCounter
from repro.core.engine.parallel import (
    ExecutionConfig,
    ParallelSearchExecutor,
    create_search_executor,
)
from repro.core.global_bounds import GlobalBoundsDetector
from repro.core.iter_td import IterTDDetector
from repro.core.pattern_graph import PatternCounter
from repro.core.prop_bounds import PropBoundsDetector
from repro.core.session import AuditSession, DetectionQuery, detect_biased_groups
from repro.core.stats import SearchStats
from repro.core.top_down import top_down_search
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.exceptions import DetectionError, QueryTimeoutError
from repro.ranking.base import PrecomputedRanker

FLAT = GlobalBoundSpec(lower_bounds=2.0)
STEP = GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 1.0, 10: 3.0, 30: 6.0}))
PROP = ProportionalBoundSpec(alpha=0.9)

SHARDED = ExecutionConfig(workers=2)


def _instance(seed: int, n_rows: int, cardinalities: list[int], skew: float = 1.0):
    rng = np.random.default_rng(seed)
    spec = SyntheticSpec(
        n_rows=n_rows,
        cardinalities=cardinalities,
        score_weights=rng.uniform(-1.5, 1.5, size=len(cardinalities)).tolist(),
        noise=0.4,
        skew=skew,
        seed=seed,
    )
    dataset = synthetic_dataset(spec)
    ranking = PrecomputedRanker(score_column="score").rank(dataset)
    return dataset, ranking


# -- the factory ----------------------------------------------------------------------
class TestSearchExecutorFactory:
    def test_serial_conditions_return_none(self):
        dataset, ranking = _instance(204, 40, [2, 2])
        counter = PatternCounter(dataset, ranking)
        assert create_search_executor(counter, ExecutionConfig(workers=1)) is None
        naive = NaiveCounter(dataset, ranking)
        assert create_search_executor(naive, SHARDED) is None

    def test_builds_a_healthy_process_executor(self):
        dataset, ranking = _instance(205, 40, [2, 2])
        executor = create_search_executor(PatternCounter(dataset, ranking), SHARDED)
        assert isinstance(executor, ParallelSearchExecutor)
        with executor:
            assert executor.workers == 2
            assert executor.healthy and not executor.closed
        assert executor.closed and not executor.healthy
        executor.close()  # idempotent
        assert executor.closed

    def test_workers_zero_follows_the_affinity_mask(self, monkeypatch):
        if getattr(os, "sched_getaffinity", None) is None:
            pytest.skip("platform has no sched_getaffinity")
        dataset, ranking = _instance(206, 40, [2, 2])
        counter = PatternCounter(dataset, ranking)
        # One available CPU resolves to one worker: the serial path.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert create_search_executor(counter, ExecutionConfig(workers=0)) is None
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        executor = create_search_executor(counter, ExecutionConfig(workers=0))
        assert executor is not None
        with executor:
            assert executor.workers == 2

    @pytest.mark.parametrize("error", [OSError, PermissionError, DetectionError])
    def test_construction_failure_falls_back_to_serial(self, monkeypatch, error):
        def failing_init(self, *args, **kwargs):
            raise error("no worker pool on this platform")

        monkeypatch.setattr(ParallelSearchExecutor, "__init__", failing_init)
        dataset, ranking = _instance(207, 40, [2, 2])
        assert create_search_executor(PatternCounter(dataset, ranking), SHARDED) is None

    def test_session_builds_its_pool_through_the_factory(self, monkeypatch):
        """The session resolves the factory by its module-level name.

        Wrapping ``repro.core.session.create_search_executor`` is how callers
        observe pool construction, so the name must stay bound to the factory
        and every pool must be built through it.
        """
        assert session_module.create_search_executor is create_search_executor
        calls = []

        def recording_factory(counter, config, generation=0):
            calls.append(generation)
            return create_search_executor(counter, config, generation=generation)

        monkeypatch.setattr(session_module, "create_search_executor", recording_factory)
        dataset, ranking = _instance(208, 60, [2, 3])
        queries = [DetectionQuery(FLAT, 2, 2, 40), DetectionQuery(PROP, 2, 2, 40)]
        with AuditSession(dataset, ranking, execution=SHARDED) as session:
            reports = session.run_many(queries)
        assert calls == [0]
        assert sum(r.stats.extra.get("pool_spawns", 0) for r in reports) == 1
        for query, report in zip(queries, reports):
            cold = detect_biased_groups(
                dataset, ranking, query.bound, 2, 2, 40,
                algorithm=query.resolved_algorithm(),
            )
            assert report.result == cold.result


# -- the executor, driven directly ----------------------------------------------------
class TestShardedExecutorDirect:
    @pytest.mark.parametrize("bound", [FLAT, STEP, PROP], ids=["flat", "step", "proportional"])
    def test_full_state_matches_serial(self, bound):
        dataset, ranking = _instance(211, 70, [2, 3, 2])
        counter = PatternCounter(dataset, ranking)
        with create_search_executor(PatternCounter(dataset, ranking), SHARDED) as executor:
            for k in (12, 25, 50):
                reference = top_down_search(counter, bound, k, 3, SearchStats())
                state = executor.search(bound, k, 3, SearchStats())
                assert state.below == reference.below
                assert state.expanded == reference.expanded
                assert state.sizes == reference.sizes

    def test_k_sweep_preserves_most_general_for_every_tau(self):
        dataset, ranking = _instance(212, 70, [2, 3, 2])
        counter = PatternCounter(dataset, ranking)
        with create_search_executor(PatternCounter(dataset, ranking), SHARDED) as executor:
            for tau_s in (2, 5):
                for k in range(5, 70, 8):
                    reference = top_down_search(counter, STEP, k, tau_s, SearchStats())
                    minimal = executor.search(STEP, k, tau_s, SearchStats(), classification=False)
                    assert minimal.most_general() == reference.most_general()

    def test_stats_record_sharding_and_worker_engine_work(self):
        dataset, ranking = _instance(213, 70, [2, 3, 2])
        stats = SearchStats()
        with create_search_executor(PatternCounter(dataset, ranking), SHARDED) as executor:
            executor.search(FLAT, 25, 2, stats)
        assert stats.full_searches == 1
        assert stats.extra.get("parallel_searches") == 1
        assert 1 <= stats.extra.get("parallel_shards", 0) <= 2
        # Shard engines did real counting, surfaced as worker_* deltas.
        assert stats.extra.get("worker_batch_evaluations", 0) > 0

    def test_past_deadline_raises_timeout_and_executor_stays_healthy(self):
        dataset, ranking = _instance(214, 80, [2, 3, 2, 2])
        counter = PatternCounter(dataset, ranking)
        with create_search_executor(PatternCounter(dataset, ranking), SHARDED) as executor:
            stats = SearchStats()
            with pytest.raises(QueryTimeoutError) as excinfo:
                executor.search(FLAT, 40, 2, stats, deadline=time.monotonic() - 1.0)
            assert excinfo.value.stats is stats
            assert stats.query_deadline_exceeded == 1
            assert executor.healthy
            # The abandoned shards poison nothing: the next search is exact.
            reference = top_down_search(counter, FLAT, 40, 2, SearchStats())
            state = executor.search(FLAT, 40, 2, SearchStats())
            assert state.below == reference.below
            assert state.expanded == reference.expanded

    def test_close_unlinks_the_shared_segments(self):
        dataset, ranking = _instance(215, 40, [2, 2])
        executor = create_search_executor(PatternCounter(dataset, ranking), SHARDED)
        handle = executor._handle
        segment = shared_memory.SharedMemory(name=handle.codes_segment)
        segment.close()
        executor.close()
        for name in (handle.codes_segment, handle.order_segment):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


# -- detector-level parity under the forkserver start method ---------------------------
PARITY_INSTANCES = [
    (221, 64, [2, 3, 2], 0.8),
    (222, 90, [3, 2, 2, 2], 1.2),
]


@pytest.mark.parametrize("seed,n_rows,cardinalities,skew", PARITY_INSTANCES)
class TestForkserverParity:
    """Workers started by a fork server re-import the engine from a clean process;
    every detector must still be bit-identical to serial."""

    EXECUTION = ExecutionConfig(workers=2, start_method="forkserver")

    def _compare(self, detector_class, bound, dataset, ranking, n_rows):
        tau_s = max(2, n_rows // 12)
        serial = detector_class(
            bound=bound, tau_s=tau_s, k_min=2, k_max=n_rows - 1
        ).detect(dataset, ranking)
        sharded = detector_class(
            bound=bound, tau_s=tau_s, k_min=2, k_max=n_rows - 1, execution=self.EXECUTION
        ).detect(dataset, ranking)
        assert sharded.result == serial.result
        # Shards partition the tree; they never re-do or skip work.
        assert sharded.stats.nodes_evaluated == serial.stats.nodes_evaluated
        assert sharded.stats.nodes_generated == serial.stats.nodes_generated
        assert sharded.stats.extra.get("parallel_searches", 0) > 0
        assert "parallel_fallback" not in sharded.stats.extra

    def test_iter_td(self, seed, n_rows, cardinalities, skew):
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        self._compare(IterTDDetector, STEP, dataset, ranking, n_rows)

    def test_global_bounds(self, seed, n_rows, cardinalities, skew):
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        self._compare(GlobalBoundsDetector, STEP, dataset, ranking, n_rows)

    def test_prop_bounds(self, seed, n_rows, cardinalities, skew):
        dataset, ranking = _instance(seed, n_rows, cardinalities, skew)
        self._compare(PropBoundsDetector, PROP, dataset, ranking, n_rows)


# -- the session over one pool ----------------------------------------------------------
class TestShardedSession:
    def test_session_deadline_surfaces_timeout_and_keeps_the_pool(self):
        dataset, ranking = _instance(234, 80, [2, 3, 2, 2], 1.0)
        query = DetectionQuery(FLAT, 2, 2, 79)
        with AuditSession(dataset, ranking, execution=SHARDED) as session:
            with pytest.raises(QueryTimeoutError) as excinfo:
                session.run(query, query_deadline=1e-9)
            assert excinfo.value.stats.query_deadline_exceeded == 1
            # The session keeps serving from the pool the timed-out query built.
            report = session.run(query)
            assert not session.degraded
        assert report.stats.extra.get("pool_spawns", 0) == 0
        assert report.stats.extra.get("parallel_searches", 0) > 0
        cold = detect_biased_groups(
            dataset, ranking, query.bound, 2, 2, 79,
            algorithm=query.resolved_algorithm(),
        )
        assert report.result == cold.result

    def test_closing_the_session_unlinks_the_shared_segments(self):
        dataset, ranking = _instance(235, 60, [2, 3], 1.0)
        with AuditSession(dataset, ranking, execution=SHARDED) as session:
            session.run(DetectionQuery(FLAT, 2, 2, 40))
            handle = session._executor._handle
        for name in (handle.codes_segment, handle.order_segment):
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

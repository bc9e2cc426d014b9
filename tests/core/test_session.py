"""Tests for the session-oriented repeated-query API (AuditSession / DetectionQuery).

The contract under test, in order of importance:

* session results are bit-identical to the one-shot ``detect_biased_groups`` path
  for all three algorithms, serial and parallel (``workers=2``, the spawn start
  method included);
* executor reuse: a mixed-bounds multi-query sweep through one session performs
  exactly one shared-memory publication and one worker-pool spawn, asserted both
  through the ``SearchStats`` lifecycle counters and by counting actual
  ``SharedDatasetView.publish`` / executor constructions;
* engine reuse: with the result store off, a batch on one warm session misses
  and evaluates strictly less than one cold session per query, and evaluates no
  more nodes;
* per-query stats isolation on the shared warm engine;
* lifecycle: lazy executor creation, idempotent close, context manager, serial
  reattach (with a rerun) after a worker death;
* the compatibility wrappers (``Detector.detect``, ``detect_biased_groups``)
  behave exactly as before.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import (
    GlobalBoundSpec,
    ProportionalBoundSpec,
    paper_default_global_bounds,
    paper_default_proportional_bounds,
    step_lower_bounds,
)
from repro.core.engine import parallel as parallel_module
from repro.core.engine import shared as shared_module
from repro.core.engine.parallel import ExecutionConfig, ParallelSearchExecutor
from repro.core.pattern_graph import PatternCounter
from repro.core.session import (
    DETECTOR_CLASSES,
    AuditSession,
    DetectionQuery,
    detect_biased_groups,
    run_queries,
)
from repro.core.upper_bounds import UpperBoundsDetector
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.exceptions import DetectionError
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


def _mixed_queries(n_rows: int) -> list[DetectionQuery]:
    """A 10-query mixed-bounds sweep: both problems, all three algorithms, two tau_s."""
    k_max = n_rows - 1
    step = GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 1.0, 10: 3.0, 30: 6.0}))
    return [
        DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=k_max),
        DetectionQuery(ProportionalBoundSpec(alpha=0.9), tau_s=2, k_min=2, k_max=k_max),
        DetectionQuery(step, tau_s=2, k_min=2, k_max=k_max, algorithm="iter_td"),
        DetectionQuery(step, tau_s=2, k_min=2, k_max=k_max, algorithm="global_bounds"),
        DetectionQuery(ProportionalBoundSpec(alpha=0.7), tau_s=2, k_min=5, k_max=k_max),
        DetectionQuery(GlobalBoundSpec(lower_bounds=3.0), tau_s=4, k_min=2, k_max=k_max),
        DetectionQuery(ProportionalBoundSpec(alpha=1.1), tau_s=4, k_min=2, k_max=k_max,
                       algorithm="prop_bounds"),
        DetectionQuery(step, tau_s=4, k_min=2, k_max=k_max, algorithm="iter_td"),
        DetectionQuery(GlobalBoundSpec(lower_bounds=1.0), tau_s=2, k_min=2, k_max=10),
        DetectionQuery(ProportionalBoundSpec(alpha=0.8), tau_s=2, k_min=10, k_max=k_max),
    ]


# -- DetectionQuery -------------------------------------------------------------------
class TestDetectionQuery:
    def test_auto_resolution_follows_bound_kind(self):
        global_query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 5)
        prop_query = DetectionQuery(ProportionalBoundSpec(alpha=0.9), 2, 2, 5)
        assert global_query.resolved_algorithm() == "global_bounds"
        assert prop_query.resolved_algorithm() == "prop_bounds"
        explicit = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 5, "iter_td")
        assert explicit.resolved_algorithm() == "iter_td"

    def test_build_detector_matches_registry(self):
        for name, detector_class in DETECTOR_CLASSES.items():
            # upper_bounds queries need an upper level; beta is its canonical form.
            beta = 4.0 if name == "upper_bounds" else None
            query = DetectionQuery(
                GlobalBoundSpec(lower_bounds=2.0), 2, 2, 5, name, beta=beta
            )
            detector = query.build_detector()
            assert isinstance(detector, detector_class)
            assert detector.parameters.tau_s == 2

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 5, "quantum")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DetectionError):
            DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), tau_s=0, k_min=2, k_max=5)
        with pytest.raises(DetectionError):
            DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=6, k_max=5)

    def test_is_frozen(self):
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 5)
        with pytest.raises(AttributeError):
            query.tau_s = 3


# -- parity with the one-shot path ----------------------------------------------------
EXECUTIONS = [
    pytest.param(None, id="serial"),
    pytest.param(ExecutionConfig(workers=2), id="workers2"),
    pytest.param(ExecutionConfig(workers=2, start_method="spawn"), id="workers2-spawn"),
]


@pytest.mark.parametrize("execution", EXECUTIONS)
class TestSessionParity:
    """Session results must be bit-identical to one-shot detect_biased_groups."""

    def test_all_algorithms_bit_identical(self, execution):
        dataset, ranking = _instance(101, 64, [2, 3, 2], 0.8)
        step = GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 1.0, 10: 3.0, 30: 6.0}))
        cases = [
            ("iter_td", step, 3),
            ("global_bounds", step, 3),
            ("prop_bounds", ProportionalBoundSpec(alpha=0.9), 3),
        ]
        with AuditSession(dataset, ranking, execution=execution) as session:
            for algorithm, bound, tau_s in cases:
                query = DetectionQuery(bound, tau_s, 2, 63, algorithm)
                warm = session.run(query)
                cold = detect_biased_groups(
                    dataset, ranking, bound, tau_s, 2, 63,
                    algorithm=algorithm, execution=execution,
                )
                assert warm.result == cold.result
                # The traversal counters must match too: a warm engine changes
                # where counts come from (caches), never how many nodes the
                # algorithm touches.
                assert warm.stats.nodes_evaluated == cold.stats.nodes_evaluated
                assert warm.stats.nodes_generated == cold.stats.nodes_generated
                assert warm.query is query
                assert warm.algorithm == cold.algorithm

    def test_run_many_matches_individual_runs(self, execution):
        dataset, ranking = _instance(103, 56, [2, 2, 3], 1.1)
        queries = _mixed_queries(56)[:4]
        with AuditSession(dataset, ranking, execution=execution) as session:
            batched = session.run_many(queries)
        assert [report.query for report in batched] == queries
        for query, report in zip(queries, batched):
            cold = detect_biased_groups(
                dataset, ranking, query.bound, query.tau_s, query.k_min, query.k_max,
                algorithm=query.algorithm,
            )
            assert report.result == cold.result


# -- executor / engine reuse ----------------------------------------------------------
class TestExecutorReuse:
    def test_ten_query_sweep_one_publish_one_spawn(self, monkeypatch):
        """The acceptance criterion: N parallel queries, one publish, one pool."""
        dataset, ranking = _instance(107, 72, [2, 3, 2], 1.0)
        queries = _mixed_queries(72)
        assert len(queries) == 10

        publishes = []
        real_publish = shared_module.SharedDatasetView.publish.__func__

        def counting_publish(cls, *args, **kwargs):
            publishes.append(1)
            return real_publish(cls, *args, **kwargs)

        monkeypatch.setattr(
            shared_module.SharedDatasetView, "publish", classmethod(counting_publish)
        )
        monkeypatch.setattr(
            parallel_module.SharedDatasetView, "publish", classmethod(counting_publish)
        )
        spawns = []
        real_init = ParallelSearchExecutor.__init__

        def counting_init(self, *args, **kwargs):
            spawns.append(1)
            return real_init(self, *args, **kwargs)

        monkeypatch.setattr(ParallelSearchExecutor, "__init__", counting_init)

        with AuditSession(
            dataset, ranking, execution=ExecutionConfig(workers=2)
        ) as session:
            reports = session.run_many(queries)

        assert len(reports) == 10
        # Actual lifecycle events: one shared-memory publication, one pool spawn.
        assert len(publishes) == 1
        assert len(spawns) == 1
        # The same numbers as seen through the stats counters (the first query
        # pays for the executor; every other query reuses it).
        assert sum(r.stats.extra.get("shm_publishes", 0) for r in reports) == 1
        assert sum(r.stats.extra.get("pool_spawns", 0) for r in reports) == 1
        assert all("parallel_fallback" not in r.stats.extra for r in reports)
        # The pool is genuinely exercised across the sweep (a query whose root
        # pass classifies everything below bound legitimately fans nothing out).
        assert sum(r.stats.extra.get("parallel_searches", 0) for r in reports) >= 8
        # And the per-query results match the cold path bit for bit.
        for query, report in zip(queries, reports):
            cold = detect_biased_groups(
                dataset, ranking, query.bound, query.tau_s, query.k_min, query.k_max,
                algorithm=query.algorithm,
            )
            assert report.result == cold.result

    @pytest.mark.parametrize("execution", EXECUTIONS[:2])
    def test_warm_session_does_less_engine_work_than_a_cold_loop(self, execution):
        """With the result store off, only the warm engine is shared: a batch on
        one session misses and evaluates strictly less than one cold session
        per query, bit-identically and without evaluating more nodes."""
        dataset, ranking = _instance(1109, 1500, [2, 3, 2, 4, 3, 2])
        step = paper_default_global_bounds()
        queries = [
            DetectionQuery(step, 8, 10, 49, "iter_td"),
            DetectionQuery(step, 8, 10, 49, "global_bounds"),
            DetectionQuery(paper_default_proportional_bounds(), 8, 10, 49, "prop_bounds"),
            DetectionQuery(GlobalBoundSpec(lower_bounds=15.0), 15, 10, 49),
            DetectionQuery(ProportionalBoundSpec(alpha=0.9), 8, 20, 45),
        ]
        cold = [
            detect_biased_groups(
                dataset, ranking, q.bound, q.tau_s, q.k_min, q.k_max,
                algorithm=q.algorithm, execution=execution,
            )
            for q in queries
        ]
        with AuditSession(
            dataset, ranking, execution=execution, result_cache_capacity=0
        ) as session:
            warm = session.run_many(queries)
        for warm_report, cold_report in zip(warm, cold):
            assert warm_report.result == cold_report.result

        def engine_work(reports):
            return sum(r.stats.cache_misses + r.stats.batch_evaluations for r in reports)

        assert engine_work(warm) < engine_work(cold)
        assert sum(r.stats.nodes_evaluated for r in warm) <= sum(
            r.stats.nodes_evaluated for r in cold
        )

    def test_serial_session_shares_one_counter(self):
        """With result reuse disabled, a warm rerun answers from the block caches."""
        dataset, ranking = _instance(109, 60, [2, 3], 1.0)
        with AuditSession(dataset, ranking, result_cache_capacity=0) as session:
            first = session.run(
                DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30, "iter_td")
            )
            second = session.run(
                DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30, "iter_td")
            )
            assert first._counter is session.counter
            assert second._counter is session.counter
        # The warm rerun of the identical query answers from the block caches:
        # it cannot miss more often than it hits, nor more often than the cold run.
        assert second.stats.cache_misses < second.stats.cache_hits
        assert second.stats.cache_misses < first.stats.cache_misses

    def test_identical_rerun_is_a_result_cache_hit(self):
        """With the default session, a repeated query never reaches the engine."""
        dataset, ranking = _instance(109, 60, [2, 3], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30, "iter_td")
        with AuditSession(dataset, ranking) as session:
            first = session.run(query)
            second = session.run(query)
        assert first.stats.result_cache_misses == 1
        assert second.stats.result_cache_hits == 1
        # A cache-served report performed no engine work at all.
        assert second.stats.full_searches == 0
        assert second.stats.batch_evaluations == 0
        assert second.stats.nodes_evaluated == 0
        assert second.result == first.result

    def test_per_query_stats_are_isolated(self):
        """Engine counters on a report reflect that query only, not the session."""
        dataset, ranking = _instance(110, 60, [2, 3], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30, "iter_td")
        with AuditSession(dataset, ranking) as session:
            reports = [session.run(query) for _ in range(3)]
        cumulative = session.counter.stats_snapshot()
        summed = sum(report.stats.batch_evaluations for report in reports)
        assert cumulative["batch_evaluations"] == summed
        assert session.queries_run == 3

    def test_lazy_executor_not_created_for_serial_or_upper_bounds(self, monkeypatch):
        def forbidden(*args, **kwargs):  # pragma: no cover - failing is the test
            raise AssertionError("parallel machinery touched unexpectedly")

        monkeypatch.setattr(shared_module.SharedDatasetView, "publish", forbidden)
        monkeypatch.setattr(ParallelSearchExecutor, "__init__", forbidden)
        dataset, ranking = _instance(111, 50, [2, 2], 1.0)
        # Serial session: never touches the pool.
        with AuditSession(dataset, ranking) as session:
            session.run(DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 20))
        # Parallel session running only a non-search detector: stays lazy.
        with AuditSession(
            dataset, ranking, execution=ExecutionConfig(workers=2)
        ) as session:
            report = session.run_detector(UpperBoundsDetector(
                bound=GlobalBoundSpec(lower_bounds=1.0, upper_bounds=30.0),
                tau_s=2, k_min=5, k_max=5,
            ))
            assert report.algorithm == "UpperBounds"


# -- lifecycle ------------------------------------------------------------------------
class TestSessionLifecycle:
    def test_close_is_idempotent_and_blocks_queries(self):
        dataset, ranking = _instance(113, 40, [2, 2], 1.0)
        session = AuditSession(dataset, ranking)
        report = session.run(DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 10))
        session.close()
        session.close()
        assert session.closed
        with pytest.raises(DetectionError):
            session.run(DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 10))
        # Reports stay readable after close.
        assert report.detailed_groups(10) is not None

    def test_context_manager_closes_executor(self):
        dataset, ranking = _instance(114, 60, [2, 3], 1.0)
        with AuditSession(
            dataset, ranking, execution=ExecutionConfig(workers=2)
        ) as session:
            session.run(DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30))
            executor = session._executor
            assert executor is not None and executor.healthy
        assert session.closed
        assert executor.closed
        assert not any(process.is_alive() for process in executor._processes)

    def test_accepts_ranker_and_exposes_ranking(self):
        from repro.ranking.workloads import toy_ranker
        from repro.data.generators.toy import students_toy

        dataset = students_toy()
        with AuditSession(dataset, toy_ranker()) as session:
            assert session.ranking.dataset is dataset
            report = session.run(
                DetectionQuery(GlobalBoundSpec(lower_bounds=2), 4, 4, 5)
            )
            assert report.result.total_reported() > 0

    def test_counter_reuse_validation_uses_fingerprint(self):
        dataset, ranking = _instance(115, 50, [2, 2], 1.0)
        counter = PatternCounter(dataset, ranking)
        # An equal-but-distinct dataset object is accepted via the fingerprint.
        clone = type(dataset)(dataset.schema, dataset.codes.copy(),
                              {name: dataset.numeric_column(name)
                               for name in dataset.numeric_names})
        assert clone.fingerprint() == dataset.fingerprint()
        session = AuditSession(clone, ranking, counter=counter)
        assert session.counter is counter
        session.close()
        # A genuinely different dataset is rejected.
        other, other_ranking = _instance(116, 50, [2, 2], 1.0)
        assert other.fingerprint() != dataset.fingerprint()
        with pytest.raises(DetectionError):
            AuditSession(other, other_ranking, counter=counter)

    def test_run_queries_convenience(self):
        dataset, ranking = _instance(117, 40, [2, 2], 1.0)
        queries = _mixed_queries(40)[:3]
        reports = run_queries(dataset, ranking, queries)
        assert [report.query for report in reports] == queries


# -- the single-caller guard ----------------------------------------------------------
class TestSingleCallerGuard:
    def test_concurrent_use_raises_typed_error(self):
        """Sessions attribute per-query stats through warm-engine snapshot
        deltas, so two interleaved callers would silently corrupt each other's
        counters.  The guard turns that misuse into a typed error while the
        first caller's query completes untouched — and the session stays fully
        usable afterwards."""
        import threading

        from repro.exceptions import ConcurrentSessionUseError

        dataset, ranking = _instance(118, 48, [2, 2], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 20)
        reference = detect_biased_groups(
            dataset, ranking, query.effective_bound(), 2, 2, 20
        ).result
        with AuditSession(dataset, ranking, result_cache_capacity=0) as session:
            entered = threading.Event()
            proceed = threading.Event()
            original_execute = session._execute

            def blocking_execute(*args, **kwargs):
                # Deterministic overlap: signal the main thread we are inside
                # the guarded section, then wait for it to finish its attempt.
                entered.set()
                assert proceed.wait(timeout=30), "main thread never released us"
                return original_execute(*args, **kwargs)

            session._execute = blocking_execute
            outcome: list[object] = []
            worker = threading.Thread(
                target=lambda: outcome.append(session.run(query))
            )
            worker.start()
            try:
                assert entered.wait(timeout=30), "worker never entered the session"
                with pytest.raises(ConcurrentSessionUseError, match="single-caller"):
                    session.run(query)
                with pytest.raises(ConcurrentSessionUseError):
                    session.run_many([query])
            finally:
                proceed.set()
                worker.join(timeout=60)
            assert not worker.is_alive()
            session._execute = original_execute
            # The guarded query completed normally and the lock was released:
            # the session serves the next caller as if nothing happened.
            assert outcome[0].result == reference
            assert session.run(query).result == reference


# -- serial reattach after a worker death ---------------------------------------------
class TestSerialReattach:
    def test_worker_death_mid_session_reattaches_serially(self):
        """With the restart budget disabled, a dead pool opens the circuit
        breaker: the interrupted query re-runs serially and later queries stay
        serial (degraded, not permanently fallen back) until the cooldown."""
        dataset, ranking = _instance(119, 64, [2, 3, 2], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 40, "iter_td")
        reference = detect_biased_groups(
            dataset, ranking, query.bound, query.tau_s, query.k_min, query.k_max,
            algorithm=query.algorithm,
        )
        # The lifecycle under test is the executor's; result reuse is disabled so
        # the repeated query genuinely reaches the (broken) pool each time.  A
        # long cooldown keeps the breaker open for the whole test.
        with AuditSession(
            dataset, ranking,
            execution=ExecutionConfig(
                workers=2, max_worker_restarts=0, breaker_cooldown=300.0
            ),
            result_cache_capacity=0,
        ) as session:
            first = session.run(query)
            assert first.result == reference.result
            executor = session._executor
            assert executor is not None
            for process in executor._processes:
                process.terminate()
                process.join(timeout=5.0)
            # The interrupted query is rerun serially, bit-identically.
            second = session.run(query)
            assert second.result == reference.result
            assert second.stats.extra.get("executor_reattach") == 1
            assert second.stats.degraded_queries == 1
            assert not executor.healthy
            assert session._executor is None
            assert session.degraded
            # Within the cooldown the session serves serially without probing a
            # new pool — degraded, not permanently serial.
            third = session.run(query)
            assert third.result == reference.result
            assert third.stats.degraded_queries == 1
            assert "parallel_fallback" not in third.stats.extra
            assert "executor_reattach" not in third.stats.extra
            assert session._executor is None

    def test_reattach_on_creating_query_keeps_lifecycle_counters(self, monkeypatch):
        """A worker death during the pool-creating query must not erase the
        shm_publishes/pool_spawns it already paid for: the session-wide sums are
        the reuse accounting the benchmarks gate on."""
        def dying_search(self, *args, **kwargs):
            from repro.exceptions import ExecutorBrokenError

            self._broken = True
            raise ExecutorBrokenError("simulated worker death")

        monkeypatch.setattr(ParallelSearchExecutor, "search", dying_search)
        dataset, ranking = _instance(124, 56, [2, 3], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30, "iter_td")
        reference = detect_biased_groups(
            dataset, ranking, query.bound, query.tau_s, query.k_min, query.k_max,
            algorithm=query.algorithm,
        )
        with AuditSession(
            dataset, ranking, execution=ExecutionConfig(workers=2)
        ) as session:
            report = session.run(query)
        assert report.result == reference.result
        assert report.stats.extra.get("executor_reattach") == 1
        assert report.stats.extra.get("shm_publishes") == 1
        assert report.stats.extra.get("pool_spawns") == 1

    def test_platform_without_shared_memory_stays_serial(self, monkeypatch):
        monkeypatch.setattr(parallel_module, "shared_memory_available", lambda: False)
        dataset, ranking = _instance(120, 50, [2, 2], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 20)
        with AuditSession(
            dataset, ranking, execution=ExecutionConfig(workers=2),
            result_cache_capacity=0,
        ) as session:
            reports = [session.run(query) for _ in range(2)]
        reference = detect_biased_groups(
            dataset, ranking, query.bound, query.tau_s, query.k_min, query.k_max
        )
        for report in reports:
            assert report.result == reference.result
            assert report.stats.extra.get("parallel_fallback") == 1


# -- compatibility wrappers -----------------------------------------------------------
class TestCompatibilityWrappers:
    def test_detector_detect_equals_session_run_detector(self):
        from repro.core.global_bounds import GlobalBoundsDetector

        dataset, ranking = _instance(121, 56, [2, 3], 1.0)
        detector = GlobalBoundsDetector(
            bound=GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=30
        )
        one_shot = detector.detect(dataset, ranking)
        with AuditSession(dataset, ranking) as session:
            via_session = session.run_detector(detector)
        assert one_shot.result == via_session.result
        assert one_shot.stats.nodes_evaluated == via_session.stats.nodes_evaluated

    def test_detect_biased_groups_reports_have_query(self):
        dataset, ranking = _instance(122, 40, [2, 2], 1.0)
        report = detect_biased_groups(
            dataset, ranking, GlobalBoundSpec(lower_bounds=2.0), 2, 2, 10
        )
        assert report.query is not None
        assert report.query.resolved_algorithm() == "global_bounds"

    def test_one_shot_session_closes_its_executor(self):
        dataset, ranking = _instance(123, 60, [2, 3], 1.0)
        created = []
        real_init = ParallelSearchExecutor.__init__

        def tracking_init(self, *args, **kwargs):
            created.append(self)
            return real_init(self, *args, **kwargs)

        import unittest.mock as mock

        with mock.patch.object(ParallelSearchExecutor, "__init__", tracking_init):
            report = detect_biased_groups(
                dataset, ranking, GlobalBoundSpec(lower_bounds=2.0), 2, 2, 20,
                execution=ExecutionConfig(workers=2),
            )
        assert report.result.total_reported() >= 0
        assert len(created) == 1
        assert created[0].closed
        assert not any(process.is_alive() for process in created[0]._processes)

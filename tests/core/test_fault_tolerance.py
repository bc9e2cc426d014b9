"""End-to-end tests for the fault-tolerant execution supervisor.

Every test here drives a *deterministic* fault through the
:class:`~repro.core.engine.faults.FaultPlan` harness instead of relying on
real races.  The contract under test, in order of importance:

* a worker killed mid-sweep is respawned against the still-published shared
  dataset view and its shard re-dispatched, and the final result is
  bit-identical to the serial oracle (``worker_restarts == 1``, no
  session-wide degradation);
* hung workers are detected by the heartbeat watchdog and lost result
  messages by ``shard_timeout`` — both recover through the same respawn path;
* a briefly silent worker that still delivers is *not* restarted (the
  watchdog must not be trigger-happy);
* query deadlines raise :class:`~repro.exceptions.QueryTimeoutError` carrying
  the partial-progress stats, on both the serial and the parallel path, and
  leave the executor and session healthy;
* an exhausted restart budget opens the session's circuit breaker (serial
  service, ``degraded_queries``), and after the cooldown a probe restores a
  fresh executor (``executor_recoveries``);
* a batch interrupted mid-way leaves the executor healthy and the result
  store consistent;
* seeded chaos rounds: randomized query mixes under randomized fault plans
  stay bit-identical to the serial oracle with bounded restart counts, under
  both the fork and the spawn start method.

Set ``REPRO_CHAOS_ROUNDS`` to raise the chaos-round count (CI smoke uses a
higher value; the default keeps the tier-1 run fast).
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.engine.faults import (
    FaultAction,
    FaultPlan,
    HANG,
    KILL,
    STALL_HEARTBEATS,
    drop_result,
    hang_worker,
    kill_worker,
)
from repro.core.engine.parallel import ExecutionConfig
from repro.core.planner import query_group_key
from repro.core.result_store import DiskResultStore, InMemoryResultStore
from repro.core.session import AuditSession, DetectionQuery, detect_biased_groups
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.exceptions import QueryTimeoutError
from repro.ranking.base import PrecomputedRanker

CHAOS_ROUNDS = int(os.environ.get("REPRO_CHAOS_ROUNDS", "2"))

START_METHODS = [
    method for method in ("fork", "spawn") if method in multiprocessing.get_all_start_methods()
]


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


def _oracle(dataset, ranking, query: DetectionQuery):
    """The serial, fault-free reference result for one query."""
    return detect_biased_groups(
        dataset, ranking, query.effective_bound(), query.tau_s, query.k_min,
        query.k_max, algorithm=query.resolved_algorithm(),
    ).result


def _recovery_config(fault_plan: FaultPlan, **overrides) -> ExecutionConfig:
    """A two-worker config with fast, test-friendly recovery timings."""
    settings = dict(
        workers=2,
        heartbeat_interval=0.05,
        heartbeat_timeout=5.0,
        retry_backoff=0.01,
        fault_plan=fault_plan,
    )
    settings.update(overrides)
    return ExecutionConfig(**settings)


# -- the acceptance scenario: kill one worker mid-sweep ------------------------------
class TestWorkerRespawn:
    @pytest.mark.parametrize("start_method", START_METHODS)
    def test_kill_mid_sweep_is_bit_identical(self, start_method):
        """A worker killed partway through a sweep is respawned, its shard is
        re-dispatched, and the query result matches the serial oracle exactly —
        with no session-wide degradation."""
        dataset, ranking = _instance(211, 64, [2, 3, 2], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 40, "iter_td")
        reference = _oracle(dataset, ranking, query)
        plan = FaultPlan(actions=(kill_worker(0, at_task=2),))
        config = _recovery_config(plan, start_method=start_method)
        with AuditSession(dataset, ranking, execution=config,
                          result_cache_capacity=0) as session:
            first = session.run(query)
            assert first.result == reference
            assert first.stats.worker_restarts == 1
            assert first.stats.shard_retries == 1
            assert "executor_reattach" not in first.stats.extra
            assert "parallel_fallback" not in first.stats.extra
            assert not session.degraded
            assert session._executor is not None and session._executor.healthy
            # The restart budget is per-search: the next query starts clean and
            # the respawned worker (incarnation 1) is out of the fault's reach.
            second = session.run(query)
            assert second.result == reference
            assert second.stats.worker_restarts == 0

    def test_hung_worker_is_recovered_by_heartbeat_watchdog(self):
        """A worker that goes silent mid-task (alive but stuck) is declared
        hung once its heartbeats lapse, and the shard is re-run elsewhere."""
        dataset, ranking = _instance(223, 56, [2, 3], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30, "iter_td")
        reference = _oracle(dataset, ranking, query)
        plan = FaultPlan(actions=(hang_worker(0, at_task=1, seconds=30.0),))
        config = _recovery_config(plan, heartbeat_timeout=0.3)
        with AuditSession(dataset, ranking, execution=config) as session:
            report = session.run(query)
        assert report.result == reference
        assert report.stats.worker_restarts == 1
        assert report.stats.heartbeat_timeouts == 1

    def test_dropped_result_is_recovered_by_shard_timeout(self):
        """A lost result message (worker finished the task but the ok never
        arrived) is caught by ``shard_timeout`` and the shard re-dispatched."""
        dataset, ranking = _instance(227, 56, [2, 3], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30, "iter_td")
        reference = _oracle(dataset, ranking, query)
        plan = FaultPlan(actions=(drop_result(0, at_task=1),))
        config = _recovery_config(plan, shard_timeout=0.4)
        with AuditSession(dataset, ranking, execution=config) as session:
            report = session.run(query)
        assert report.result == reference
        assert report.stats.worker_restarts == 1
        assert report.stats.shard_retries == 1

    def test_brief_heartbeat_stall_does_not_restart(self):
        """Negative control: a worker silent for less than the heartbeat
        timeout that still delivers its result must NOT be restarted."""
        dataset, ranking = _instance(229, 56, [2, 3], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30, "iter_td")
        reference = _oracle(dataset, ranking, query)
        plan = FaultPlan(
            actions=(FaultAction(STALL_HEARTBEATS, worker=0, at_task=1, seconds=0.2),)
        )
        config = _recovery_config(plan, heartbeat_timeout=2.0)
        with AuditSession(dataset, ranking, execution=config) as session:
            report = session.run(query)
        assert report.result == reference
        assert report.stats.worker_restarts == 0
        assert report.stats.heartbeat_timeouts == 0


# -- query deadlines -----------------------------------------------------------------
class TestQueryDeadline:
    def test_serial_deadline_raises_with_partial_stats(self):
        dataset, ranking = _instance(233, 56, [2, 3], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30, "iter_td")
        config = ExecutionConfig(workers=1, query_deadline=1e-6)
        with AuditSession(dataset, ranking, execution=config) as session:
            with pytest.raises(QueryTimeoutError) as excinfo:
                session.run(query)
            stats = excinfo.value.stats
            assert stats is not None
            assert stats.query_deadline_exceeded == 1
            assert stats.elapsed_seconds > 0.0
            # A deadline is a per-query verdict, not a fault.
            assert not session.degraded
            assert not session.closed

    def test_parallel_deadline_keeps_executor_healthy(self):
        """A query stuck behind a hung worker times out at its deadline (before
        the lenient heartbeat watchdog fires) without poisoning the pool."""
        dataset, ranking = _instance(239, 56, [2, 3], 1.0)
        # A single-search sweep; on this instance its one shard lands on
        # worker 1, so that is the worker the hang must target — and the
        # retry fits comfortably inside the deadline once the hang elapses.
        query = DetectionQuery(ProportionalBoundSpec(alpha=0.9), 2, 2, 30)
        plan = FaultPlan(actions=(hang_worker(1, at_task=1, seconds=2.0),))
        config = _recovery_config(plan, heartbeat_timeout=30.0, query_deadline=0.5)
        with AuditSession(dataset, ranking, execution=config,
                          result_cache_capacity=0) as session:
            with pytest.raises(QueryTimeoutError) as excinfo:
                session.run(query)
            stats = excinfo.value.stats
            assert stats.query_deadline_exceeded == 1
            assert stats.worker_restarts == 0
            assert session._executor is not None and session._executor.healthy
            assert not session.degraded
            # Once the hang elapses the same pool serves the query in full
            # (every query gets the same 0.4 s deadline, so the retry must not
            # start while the worker is still sleeping).
            time.sleep(2.1)
            report = session.run(query)
            assert report.result == _oracle(dataset, ranking, query)
            assert report.stats.worker_restarts == 0


# -- circuit breaker: exhaustion, cooldown, probe ------------------------------------
class TestCircuitBreaker:
    def test_exhausted_restarts_degrade_then_probe_recovers(self):
        """A persistent fault burns the restart budget → serial service with
        ``degraded_queries``; after the cooldown a probe builds a fresh pool
        (``executor_recoveries``) that the pinned fault no longer reaches."""
        dataset, ranking = _instance(241, 56, [2, 3], 1.0)
        query = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30, "iter_td")
        reference = _oracle(dataset, ranking, query)
        # incarnation=None: the kill re-fires on every respawn of worker 0 —
        # but only on executor generation 0, so the probe pool is clean.
        plan = FaultPlan(
            actions=(FaultAction(KILL, worker=0, at_task=1, incarnation=None),)
        )
        config = _recovery_config(plan, max_worker_restarts=1, breaker_cooldown=0.4)
        with AuditSession(dataset, ranking, execution=config,
                          result_cache_capacity=0) as session:
            first = session.run(query)
            assert first.result == reference
            assert first.stats.extra.get("executor_reattach") == 1
            assert first.stats.degraded_queries == 1
            assert first.stats.worker_restarts == 1
            assert session.degraded
            assert session._executor is None
            # Within the cooldown: serial service, no probe spawned.
            second = session.run(query)
            assert second.result == reference
            assert second.stats.degraded_queries == 1
            assert "pool_spawns" not in second.stats.extra
            assert session._executor is None
            time.sleep(0.45)
            # Cooldown over: this query probes a fresh executor and recovers.
            third = session.run(query)
            assert third.result == reference
            assert third.stats.executor_recoveries == 1
            assert third.stats.worker_restarts == 0
            assert third.stats.degraded_queries == 0
            assert not session.degraded
            assert session._executor is not None and session._executor.healthy


# -- batch interruption --------------------------------------------------------------
class TestBatchInterruption:
    def test_run_many_interrupted_mid_batch_stays_consistent(self, tmp_path):
        """A deadline tripping on the batch's second step propagates, but the
        executor stays healthy and the disk store holds exactly the completed
        steps — no torn entries, and the retried batch is bit-identical."""
        dataset, ranking = _instance(251, 56, [2, 3], 1.0)
        queries = [
            DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30),
            DetectionQuery(ProportionalBoundSpec(alpha=0.9), 2, 2, 30),
            DetectionQuery(GlobalBoundSpec(lower_bounds=3.0), 4, 2, 30),
        ]
        references = [_oracle(dataset, ranking, query) for query in queries]
        # Worker 0's second task belongs to the batch's second step (each
        # global-bounds/prop-bounds sweep is one search → one task per worker);
        # the hang outlives the query deadline, interrupting that step.
        plan = FaultPlan(actions=(hang_worker(0, at_task=2, seconds=2.0),))
        config = _recovery_config(plan, heartbeat_timeout=30.0, query_deadline=0.6)
        store = DiskResultStore(tmp_path)
        with AuditSession(dataset, ranking, execution=config, store=store,
                          result_cache_capacity=0) as session:
            with pytest.raises(QueryTimeoutError):
                session.run_many(queries)
            # Only the completed first step landed in the store, and every
            # persisted file is readable — no torn mid-batch writes.
            assert len(store) == 1
            assert store.quarantined_entries == 0
            assert list(tmp_path.glob("*.json.corrupt")) == []
            assert session._executor is not None and session._executor.healthy
            assert not session.degraded
            # The retried batch completes on the same pool, bit-identically —
            # after the hang has fully elapsed (the per-query deadline would
            # otherwise trip again behind the still-sleeping worker).
            time.sleep(2.1)
            reports = session.run_many(queries)
            assert [r.result for r in reports] == references
            assert sum(r.stats.worker_restarts for r in reports) == 0
            assert len(store) == len(queries)

    @pytest.mark.parametrize("algorithm", ["iter_td", "global_bounds", "prop_bounds"])
    def test_partial_reports_expose_exactly_the_completed_prefix(self, algorithm):
        """A mid-batch timeout's ``partial_reports`` is the serving layer's
        contract: completed queries carry full, oracle-identical reports in
        input order, unserved ones are ``None``, and the store holds exactly
        the completed steps — for every algorithm the interrupted step runs."""
        dataset, ranking = _instance(263, 56, [2, 3], 1.0)
        first = DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 30,
                               "global_bounds")
        if algorithm == "prop_bounds":
            second = DetectionQuery(ProportionalBoundSpec(alpha=0.9), 2, 2, 30,
                                    algorithm)
        elif algorithm == "global_bounds":
            # A different tau_s makes step 2 dispatch its own worker tasks: a
            # tighter same-tau threshold could be served from the warm engine
            # without one, and a fault that never fires means no timeout to
            # observe.
            second = DetectionQuery(GlobalBoundSpec(lower_bounds=1.0), 3, 2, 30,
                                    algorithm)
        else:
            second = DetectionQuery(GlobalBoundSpec(lower_bounds=3.0), 2, 2, 30,
                                    algorithm)
        reference = _oracle(dataset, ranking, first)
        # Step 1 is a single covering search, so no worker sees more than one
        # task before step 2 begins; a worker's *second* task therefore always
        # belongs to the second step.  The fault is not pinned to a worker
        # index — the sweep may shard onto either worker — so whichever worker
        # reaches its second task hangs past the deadline and trips it.
        plan = FaultPlan(
            actions=(FaultAction(HANG, worker=None, at_task=2, seconds=2.0),)
        )
        config = _recovery_config(plan, heartbeat_timeout=30.0, query_deadline=0.6)
        store = InMemoryResultStore()
        with AuditSession(dataset, ranking, execution=config, store=store,
                          result_cache_capacity=0) as session:
            with pytest.raises(QueryTimeoutError) as excinfo:
                session.run_many([first, second])
        error = excinfo.value
        assert error.partial_reports is not None
        completed, unserved = error.partial_reports
        assert unserved is None
        assert completed.result == reference
        assert completed.query == first
        # Partial-progress stats travel with the error too.
        assert error.stats is not None
        assert error.stats.query_deadline_exceeded == 1
        # The store retains exactly the completed step's sweep: the first
        # query's group is covered, the interrupted one's is not.
        fingerprint = ranking.fingerprint()
        assert store.coverage(fingerprint, query_group_key(first)) != ()
        assert store.coverage(fingerprint, query_group_key(second)) == ()


# -- seeded chaos vs the serial oracle -----------------------------------------------
class TestSeededChaos:
    @pytest.mark.parametrize("start_method", START_METHODS)
    @pytest.mark.parametrize("round_index", range(CHAOS_ROUNDS))
    def test_chaos_round_matches_serial_oracle(self, start_method, round_index):
        """Randomized (but seeded) query mixes under randomized fault plans:
        every report must match the fault-free serial oracle bit-for-bit, and
        the restart count is bounded by the number of scheduled one-shot
        faults.  At least one ``at_task=1`` kill is always armed, so every
        round genuinely exercises the respawn path."""
        seed = 300 + 10 * round_index + (0 if start_method == "fork" else 5)
        rng = np.random.default_rng(seed)
        dataset, ranking = _instance(seed, 48 + int(rng.integers(0, 16)), [2, 3], 1.0)
        k_max = int(rng.integers(20, 35))
        pool = [
            DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, k_max, "iter_td"),
            DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, k_max, "global_bounds"),
            DetectionQuery(ProportionalBoundSpec(alpha=0.9), 2, 2, k_max),
            DetectionQuery(GlobalBoundSpec(lower_bounds=3.0), 4, 2, k_max, "iter_td"),
        ]
        picks = sorted(rng.choice(len(pool), size=int(rng.integers(2, 4)), replace=False))
        queries = [pool[i] for i in picks]
        references = [_oracle(dataset, ranking, query) for query in queries]
        # Every action is one-shot (pinned incarnation), so each fires at most
        # once and each firing costs at most one restart.
        actions = [kill_worker(int(rng.integers(0, 2)), at_task=1)]
        if rng.random() < 0.5:
            actions.append(drop_result(int(rng.integers(0, 2)), at_task=2))
        if rng.random() < 0.5:
            actions.append(
                FaultAction(
                    STALL_HEARTBEATS,
                    worker=int(rng.integers(0, 2)),
                    at_task=int(rng.integers(2, 4)),
                    seconds=0.1,
                )
            )
        plan = FaultPlan(actions=tuple(actions))
        config = _recovery_config(
            plan,
            start_method=start_method,
            heartbeat_timeout=5.0,
            shard_timeout=2.0,
            max_worker_restarts=4,
        )
        with AuditSession(dataset, ranking, execution=config,
                          result_cache_capacity=0) as session:
            reports = session.run_many(queries)
        assert [r.result for r in reports] == references
        restarts = sum(r.stats.worker_restarts for r in reports)
        assert 1 <= restarts <= len(actions)
        assert all("executor_reattach" not in r.stats.extra for r in reports)
        assert all("parallel_fallback" not in r.stats.extra for r in reports)

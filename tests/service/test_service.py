"""AuditService end-to-end: correctness, admission, deadlines, lifecycle.

The service's contract, in order of importance:

* every completed response is **bit-identical** to a serial single-session run
  of the same queries — concurrency and pooling change latency and provenance
  counters, never content;
* pooling pays: one session per ranking and its store serve repeated requests
  with strictly less engine work than a fresh session per request;
* requests beyond the per-tenant quota+queue are shed *synchronously* with a
  structured, typed error; queued requests that outlive their deadline fail
  with the same :class:`QueryTimeoutError` as running ones;
* registration is validated/idempotent, and replacing or unregistering content
  retires the pooled session *and* its named shared store — while plain LRU
  eviction keeps the store so re-created sessions start warm;
* :meth:`shutdown` stops admission, settles work (bounded), closes every
  session the pool ever built and leaves the shared-store registry clean.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.planner import DetectionQuery
from repro.core.result_store import (
    clear_shared_result_stores,
    shared_result_store_names,
)
from repro.core.session import AuditSession
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.exceptions import QueryTimeoutError
from repro.ranking.base import PrecomputedRanker
from repro.service import (
    AdmissionConfig,
    AuditService,
    ServiceClosedError,
    ServiceFaultPlan,
    ServiceOverloadedError,
    UnknownRankingError,
)


def _instance(seed: int, n_rows: int = 60, cardinalities=(3, 2)):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(-1.5, 1.5, size=len(cardinalities)).tolist()
    spec = SyntheticSpec(
        n_rows=n_rows,
        cardinalities=list(cardinalities),
        score_weights=weights,
        noise=0.4,
        seed=seed,
    )
    dataset = synthetic_dataset(spec)
    ranking = PrecomputedRanker(score_column="score").rank(dataset)
    return dataset, ranking


def _queries(k_max: int = 30) -> list[DetectionQuery]:
    return [
        DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), tau_s=2, k_min=2, k_max=k_max),
        DetectionQuery(ProportionalBoundSpec(alpha=0.9), tau_s=2, k_min=2, k_max=k_max),
    ]


def _oracle(dataset, ranking, queries):
    with AuditSession(dataset, ranking) as session:
        return [report.result for report in session.run_many(queries)]


@pytest.fixture(autouse=True)
def _clean_store_registry():
    clear_shared_result_stores()
    yield
    clear_shared_result_stores()


def _service(**overrides) -> AuditService:
    settings = dict(
        admission=AdmissionConfig(max_concurrent_per_tenant=1, max_queue_per_tenant=4),
        dispatchers=2,
    )
    settings.update(overrides)
    return AuditService(**settings)


class TestServing:
    def test_concurrent_tenants_get_bit_identical_results(self):
        dataset, ranking = _instance(31)
        queries = _queries()
        reference = _oracle(dataset, ranking, queries)
        with _service() as service:
            service.register_dataset("census", dataset)
            service.register_ranking("census", "r", ranking)
            futures = [
                service.submit(tenant, "census/r", queries, deadline=60.0)
                for tenant in ("alice", "bob", "carol")
            ]
            for future in futures:
                reports = future.result(timeout=60)
                assert [r.result for r in reports] == reference
                assert all(r.stats.queue_wait_seconds >= 0 for r in reports)
        service.pool.assert_all_closed()

    def test_service_does_less_engine_work_than_a_session_per_request(self):
        """Three tenants ask the same batch twice each over two rankings: the
        service builds one session per ranking and serves repeats from each
        ranking's store, so it does strictly less engine work than a fresh
        session per request, with identical results."""
        instances = {
            f"data{index}/rank": _instance(811 + 97 * index, 600, (2, 3, 2, 4))
            for index in range(2)
        }
        keys = list(instances)
        stream = [
            (f"tenant{tenant}", keys[(tenant + request) % len(keys)])
            for tenant in range(3)
            for request in range(2)
        ]
        batch = [
            DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 10, 40),
            DetectionQuery(ProportionalBoundSpec(alpha=0.9), 2, 10, 40),
            DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 10, 40, "iter_td"),
        ]
        control = []
        for _tenant, key in stream:
            with AuditSession(*instances[key]) as session:
                control.append(session.run_many(batch))
        admission = AdmissionConfig(max_concurrent_per_tenant=2, max_queue_per_tenant=4)
        with _service(admission=admission, max_sessions=len(instances)) as service:
            for key, (dataset, ranking) in instances.items():
                dataset_name, ranking_name = key.split("/")
                service.register_dataset(dataset_name, dataset)
                service.register_ranking(dataset_name, ranking_name, ranking)
            futures = [
                service.submit(tenant, key, batch, deadline=60.0) for tenant, key in stream
            ]
            served = [future.result(timeout=60) for future in futures]
            health = service.health()
        service.pool.assert_all_closed()

        for reports, reference in zip(served, control):
            assert [r.result for r in reports] == [r.result for r in reference]
        assert health["pool"]["sessions_created"] == len(instances)
        assert health["requests"]["failed"] == 0
        assert sum(tenant["shed"] for tenant in health["admission"].values()) == 0

        def total(responses, *counters):
            return sum(
                getattr(report.stats, counter)
                for reports in responses
                for report in reports
                for counter in counters
            )

        engine = ("full_searches", "batch_evaluations", "cache_misses")
        assert total(served, *engine) < total(control, *engine)
        assert total(served, "nodes_evaluated") <= total(control, "nodes_evaluated")
        assert total(served, "result_cache_hits") > 0

    def test_unknown_ranking_fails_synchronously(self):
        with _service() as service:
            with pytest.raises(UnknownRankingError):
                service.submit("alice", "census/r", _queries())

    def test_empty_batch_is_rejected(self):
        dataset, ranking = _instance(31)
        with _service() as service:
            service.register_dataset("census", dataset)
            service.register_ranking("census", "r", ranking)
            with pytest.raises(ValueError, match="at least one"):
                service.submit("alice", "census/r", [])

    def test_run_is_submit_plus_wait(self):
        dataset, ranking = _instance(31)
        queries = _queries()
        reference = _oracle(dataset, ranking, queries)
        with _service() as service:
            service.register_dataset("census", dataset)
            service.register_ranking("census", "r", ranking)
            reports = service.run("alice", "census/r", queries)
            assert [r.result for r in reports] == reference


class TestOverload:
    def test_quota_exhaustion_sheds_with_retry_hint(self):
        dataset, ranking = _instance(31)
        plan = ServiceFaultPlan(slow_requests=((1, 0.4),))
        with _service(
            admission=AdmissionConfig(
                max_concurrent_per_tenant=1, max_queue_per_tenant=0
            ),
            fault_plan=plan,
        ) as service:
            service.register_dataset("census", dataset)
            service.register_ranking("census", "r", ranking)
            slow = service.submit("alice", "census/r", _queries())
            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.submit("alice", "census/r", _queries())
            assert excinfo.value.tenant == "alice"
            assert excinfo.value.retry_after > 0
            slow.result(timeout=60)
            snapshot = service.admission.snapshot()["alice"]
            assert snapshot["shed"] == 1

    def test_injected_shed_fault(self):
        dataset, ranking = _instance(31)
        plan = ServiceFaultPlan(force_shed_requests=(2,))
        with _service(fault_plan=plan) as service:
            service.register_dataset("census", dataset)
            service.register_ranking("census", "r", ranking)
            service.run("alice", "census/r", _queries())  # ordinal 1: fine
            with pytest.raises(ServiceOverloadedError, match="injected"):
                service.submit("alice", "census/r", _queries())  # ordinal 2
            assert service.health()["requests"]["injected_sheds"] == 1


class TestDeadlines:
    def test_deadline_expired_in_queue_fails_typed(self):
        """A request whose budget is consumed by queue wait fails with the same
        QueryTimeoutError a running timeout raises — before touching a session."""
        dataset, ranking = _instance(31)
        plan = ServiceFaultPlan(slow_requests=((1, 0.5),))
        with _service(fault_plan=plan, dispatchers=1) as service:
            service.register_dataset("census", dataset)
            service.register_ranking("census", "r", ranking)
            slow = service.submit("alice", "census/r", _queries())
            doomed = service.submit("alice", "census/r", _queries(), deadline=0.05)
            error = doomed.exception(timeout=60)
            assert isinstance(error, QueryTimeoutError)
            assert "in queue" in str(error)
            with pytest.raises(QueryTimeoutError):
                doomed.result()
            slow.result(timeout=60)
            assert service.health()["requests"]["failed"] == 1

    def test_invalid_deadline_is_rejected(self):
        dataset, ranking = _instance(31)
        with _service() as service:
            service.register_dataset("census", dataset)
            service.register_ranking("census", "r", ranking)
            with pytest.raises(ValueError, match="deadline"):
                service.submit("alice", "census/r", _queries(), deadline=0.0)


class TestStoreAndPoolLifecycle:
    def test_eviction_keeps_store_warm_for_recreated_session(self):
        """LRU eviction closes the session but keeps its named store, so the
        re-created session answers repeats from the cache (the warmth contract);
        shutdown then discards every service store (the no-leak contract)."""
        d1, r1 = _instance(31)
        d2, r2 = _instance(37)
        queries = _queries()
        with _service(max_sessions=1) as service:
            service.register_dataset("one", d1)
            service.register_ranking("one", "r", r1)
            service.register_dataset("two", d2)
            service.register_ranking("two", "r", r2)
            first = service.run("alice", "one/r", queries)
            service.run("alice", "two/r", queries)  # evicts the "one/r" session
            assert service.pool.evictions == 1
            assert set(shared_result_store_names()) == {
                "audit-service:one/r",
                "audit-service:two/r",
            }
            again = service.run("alice", "one/r", queries)
            assert [r.result for r in again] == [r.result for r in first]
            # Served from the surviving store, not recomputed.
            assert all(r.stats.result_cache_hits == 1 for r in again)
            assert service.pool.sessions_created == 3
        assert shared_result_store_names() == ()
        service.pool.assert_all_closed()

    def test_unregister_ranking_retires_session_and_store(self):
        dataset, ranking = _instance(31)
        with _service() as service:
            service.register_dataset("census", dataset)
            service.register_ranking("census", "r", ranking)
            service.run("alice", "census/r", _queries())
            service.unregister_ranking("census/r")
            assert shared_result_store_names() == ()
            assert service.pool.open_sessions == 0
            with pytest.raises(UnknownRankingError):
                service.submit("alice", "census/r", _queries())

    def test_replacing_a_ranking_serves_the_new_order(self):
        dataset, _ = _instance(31)
        descending = PrecomputedRanker(score_column="score").rank(dataset)
        ascending = PrecomputedRanker(score_column="score", descending=False).rank(dataset)
        queries = _queries()
        with _service() as service:
            service.register_dataset("census", dataset)
            service.register_ranking("census", "r", descending)
            before = service.run("alice", "census/r", queries)
            assert [r.result for r in before] == _oracle(dataset, descending, queries)
            # Idempotent re-registration keeps the warm session and store.
            service.register_ranking("census", "r", descending)
            assert service.pool.open_sessions == 1
            # Replacement retires both: stale sweeps must not serve the new order.
            service.register_ranking("census", "r", ascending, replace=True)
            assert service.pool.open_sessions == 0
            after = service.run("alice", "census/r", queries)
            assert [r.result for r in after] == _oracle(dataset, ascending, queries)

    def test_services_sharing_a_namespace_keep_rankings_apart(self):
        """Two services with the default namespace share the named store of a
        key; where the key names a different ranking of one dataset in each,
        each service serves its own ranking's results."""
        dataset, _ = _instance(31)
        descending = PrecomputedRanker(score_column="score").rank(dataset)
        ascending = PrecomputedRanker(score_column="score", descending=False).rank(dataset)
        queries = _queries()
        expected = _oracle(dataset, ascending, queries)
        assert expected != _oracle(dataset, descending, queries)  # a leak would show
        with _service() as first, _service() as second:
            first.register_dataset("census", dataset)
            first.register_ranking("census", "r", descending)
            second.register_dataset("census", dataset)
            second.register_ranking("census", "r", ascending)
            first.run("alice", "census/r", queries)
            assert shared_result_store_names() == ("audit-service:census/r",)
            served = second.run("alice", "census/r", queries)
        assert [r.result for r in served] == expected
        assert all(r.stats.result_cache_hits == 0 for r in served)
        first.pool.assert_all_closed()
        second.pool.assert_all_closed()

    def test_replacing_a_dataset_drops_dependent_sessions(self):
        d1, r1 = _instance(31)
        d2, _ = _instance(37)
        with _service() as service:
            service.register_dataset("census", d1)
            service.register_ranking("census", "r", r1)
            service.run("alice", "census/r", _queries())
            service.register_dataset("census", d2, replace=True)
            assert service.pool.open_sessions == 0
            assert shared_result_store_names() == ()
            assert service.registry.ranking_keys() == ()


class TestHealthAndShutdown:
    def test_health_surfaces_sessions_and_stats(self):
        dataset, ranking = _instance(31)
        with _service() as service:
            service.register_dataset("census", dataset)
            service.register_ranking("census", "r", ranking)
            service.run("alice", "census/r", _queries())
            health = service.health()
            assert health["status"] == "ok" and health["ready"]
            assert health["rankings"] == ["census/r"]
            (session,) = health["sessions"]
            assert session["key"] == "census/r"
            assert session["degraded"] is False
            assert session["queries_served"] == 1
            assert health["requests"]["completed"] == 1
            assert health["stats"]["elapsed_seconds"] > 0
            # The admission slot is released just after the future resolves;
            # give the dispatcher a beat before asserting on its counters.
            deadline = time.monotonic() + 5.0
            while (
                service.admission.snapshot()["alice"]["completed"] == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert service.admission.snapshot()["alice"]["completed"] == 1
        assert service.health()["status"] == "closed"
        assert not service.ready()

    def test_submit_after_shutdown_raises_closed(self):
        dataset, ranking = _instance(31)
        service = _service()
        service.register_dataset("census", dataset)
        service.register_ranking("census", "r", ranking)
        service.shutdown()
        with pytest.raises(ServiceClosedError):
            service.submit("alice", "census/r", _queries())
        service.shutdown()  # idempotent

    def test_drain_shutdown_serves_queued_requests(self):
        dataset, ranking = _instance(31)
        queries = _queries()
        reference = _oracle(dataset, ranking, queries)
        plan = ServiceFaultPlan(slow_requests=((1, 0.3),))
        service = _service(fault_plan=plan, dispatchers=1)
        service.register_dataset("census", dataset)
        service.register_ranking("census", "r", ranking)
        slow = service.submit("alice", "census/r", queries)
        queued = service.submit("alice", "census/r", queries)
        service.shutdown(drain=True, timeout=60.0)
        assert [r.result for r in slow.result()] == reference
        assert [r.result for r in queued.result()] == reference
        service.pool.assert_all_closed()

    def test_non_drain_shutdown_fails_queued_typed(self):
        dataset, ranking = _instance(31)
        plan = ServiceFaultPlan(slow_requests=((1, 0.3),))
        service = _service(fault_plan=plan, dispatchers=1)
        service.register_dataset("census", dataset)
        service.register_ranking("census", "r", ranking)
        slow = service.submit("alice", "census/r", _queries())
        queued = service.submit("alice", "census/r", _queries())
        service.shutdown(drain=False, timeout=60.0)
        slow.result()  # the running request still completes
        assert isinstance(queued.exception(), ServiceClosedError)
        service.pool.assert_all_closed()

    def test_shutdown_never_hangs(self):
        """Shutdown's wait is bounded even with work outstanding."""
        dataset, ranking = _instance(31)
        plan = ServiceFaultPlan(slow_requests=((1, 5.0),))
        service = _service(fault_plan=plan, dispatchers=1)
        service.register_dataset("census", dataset)
        service.register_ranking("census", "r", ranking)
        service.submit("alice", "census/r", _queries())
        started = time.monotonic()
        service.shutdown(timeout=0.2)
        assert time.monotonic() - started < 3.0
        assert service.health()["status"] == "closed"

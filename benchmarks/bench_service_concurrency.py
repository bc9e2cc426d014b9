"""Multi-tenant service vs per-request cold sessions: the amortization story.

One :class:`~repro.AuditService` serves T tenants x R requests over M
registered rankings, submitted concurrently from tenant threads.  The control
re-runs exactly the same request stream the way a service-less deployment
would: one fresh ``AuditSession`` per request (no pooled sessions, no shared
per-ranking result store).

Wall clock is recorded but advisory — on a 1-core container the dispatcher
concurrency cannot show.  The *gated* numbers are machine-independent:

* every service response is bit-identical to the serial oracle (one warm
  session per ranking, requests replayed in submission order);
* the pool built exactly one session per ranking, however many tenants and
  requests hit it (``sessions_created == M``);
* repeated questions across tenants are served from each ranking's result
  store: the service's total ``full_searches`` + ``batch_evaluations`` are
  strictly below the cold control's, with no more ``nodes_evaluated``, and
  ``result_cache_hits > 0``;
* nothing was shed or failed (the run is sized inside the admission bounds).

Results are written to ``BENCH_service.json`` at the repository root.

Run with::

    PYTHONPATH=src python benchmarks/bench_service_concurrency.py
    PYTHONPATH=src python benchmarks/bench_service_concurrency.py --rows 8000
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from pathlib import Path

# One BLAS/OpenMP thread: counters must not depend on library threading.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.result_store import clear_shared_result_stores
from repro.core.session import AuditSession, DetectionQuery
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.ranking.base import PrecomputedRanker
from repro.service import AdmissionConfig, AuditService

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_service.json"

ENGINE_COUNTERS = ("full_searches", "batch_evaluations", "cache_misses")


def build_instances(n_rows: int, n_rankings: int, seed: int = 811):
    """M synthetic ranked datasets, registered as ``data<i>/rank``."""
    instances = {}
    for index in range(n_rankings):
        rng = np.random.default_rng(seed + 97 * index)
        spec = SyntheticSpec(
            n_rows=n_rows,
            cardinalities=[2, 3, 2, 4],
            score_weights=rng.uniform(-1.0, 1.0, size=4).tolist(),
            noise=0.5,
            seed=seed + 97 * index,
        )
        dataset = synthetic_dataset(spec)
        ranking = PrecomputedRanker(score_column="score").rank(dataset)
        instances[f"data{index}/rank"] = (dataset, ranking)
    return instances


def build_batch(n_rows: int) -> list[DetectionQuery]:
    """One tenant request: a small mixed batch (shared across tenants, so the
    per-ranking stores get real cross-tenant reuse to amortize)."""
    tau = max(2, n_rows // 400)
    k_max = min(40, n_rows - 1)
    return [
        DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), tau, 10, k_max),
        DetectionQuery(ProportionalBoundSpec(alpha=0.9), tau, 10, k_max),
        DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), tau, 10, k_max,
                       algorithm="iter_td"),
    ]


def request_stream(keys, n_tenants: int, requests_per_tenant: int):
    """(tenant, key) pairs; tenants rotate over the registered rankings."""
    stream = []
    for tenant_index in range(n_tenants):
        for request_index in range(requests_per_tenant):
            key = keys[(tenant_index + request_index) % len(keys)]
            stream.append((f"tenant{tenant_index}", key))
    return stream


def collect(reports) -> dict[str, int]:
    totals = {name: 0 for name in ENGINE_COUNTERS}
    totals["nodes_evaluated"] = 0
    totals["result_cache_hits"] = 0
    for report in reports:
        for name in ENGINE_COUNTERS:
            totals[name] += getattr(report.stats, name)
        totals["nodes_evaluated"] += report.stats.nodes_evaluated
        totals["result_cache_hits"] += report.stats.result_cache_hits
    return totals


def run_oracle(instances, stream, batch):
    """One warm session per ranking; the stream replayed in submission order."""
    sessions = {
        key: AuditSession(dataset, ranking)
        for key, (dataset, ranking) in instances.items()
    }
    try:
        return {
            index: [r.result for r in sessions[key].run_many(batch)]
            for index, (_tenant, key) in enumerate(stream)
        }
    finally:
        for session in sessions.values():
            session.close()


def run_cold(instances, stream, batch):
    """The service-less control: a fresh session (cold engine) per request."""
    reports = []
    started = time.perf_counter()
    for _tenant, key in stream:
        dataset, ranking = instances[key]
        with AuditSession(dataset, ranking) as session:
            reports.extend(session.run_many(batch))
    return {
        "mode": "cold_per_request",
        "seconds_total": time.perf_counter() - started,
        "counters": collect(reports),
    }


def run_service(instances, stream, batch, dispatchers: int):
    """All requests submitted concurrently from per-tenant threads."""
    clear_shared_result_stores()
    by_tenant: dict[str, list[tuple[int, str]]] = {}
    for index, (tenant, key) in enumerate(stream):
        by_tenant.setdefault(tenant, []).append((index, key))
    service = AuditService(
        dispatchers=dispatchers,
        max_sessions=len(instances),
        admission=AdmissionConfig(
            max_concurrent_per_tenant=2,
            max_queue_per_tenant=max(8, len(stream)),
        ),
    )
    responses: dict[int, list] = {}
    reports_flat: list = []
    lock = threading.Lock()

    def tenant_thread(tenant: str, requests) -> None:
        futures = [
            (index, service.submit(tenant, key, batch, deadline=600.0))
            for index, key in requests
        ]
        for index, future in futures:
            reports = future.result(timeout=600)
            with lock:
                responses[index] = [r.result for r in reports]
                reports_flat.extend(reports)

    started = time.perf_counter()
    try:
        for key, (dataset, ranking) in instances.items():
            dataset_name, ranking_name = key.split("/")
            service.register_dataset(dataset_name, dataset)
            service.register_ranking(dataset_name, ranking_name, ranking)
        threads = [
            threading.Thread(target=tenant_thread, args=(tenant, requests))
            for tenant, requests in by_tenant.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        health = service.health()
    finally:
        service.shutdown(timeout=120.0)
        clear_shared_result_stores()
    service.pool.assert_all_closed()
    return {
        "mode": "service",
        "seconds_total": time.perf_counter() - started,
        "counters": collect(reports_flat),
        "sessions_created": health["pool"]["sessions_created"],
        "requests": health["requests"],
        "admission": {
            tenant: {"shed": state["shed"], "completed": state["completed"]}
            for tenant, state in health["admission"].items()
        },
    }, responses


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=4000)
    parser.add_argument("--rankings", type=int, default=2)
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--requests-per-tenant", type=int, default=2)
    parser.add_argument("--dispatchers", type=int, default=2)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()

    instances = build_instances(args.rows, args.rankings)
    batch = build_batch(args.rows)
    stream = request_stream(
        tuple(instances), args.tenants, args.requests_per_tenant
    )
    print(
        f"{args.tenants} tenants x {args.requests_per_tenant} requests "
        f"({len(batch)} queries each) over {args.rankings} rankings of "
        f"{args.rows} rows"
    )

    oracle = run_oracle(instances, stream, batch)
    cold = run_cold(instances, stream, batch)
    service_entry, responses = run_service(
        instances, stream, batch, args.dispatchers
    )

    bit_identical = all(
        responses.get(index) == oracle[index] for index in range(len(stream))
    )
    cold_engine = sum(cold["counters"][name] for name in ENGINE_COUNTERS)
    service_engine = sum(
        service_entry["counters"][name] for name in ENGINE_COUNTERS
    )
    total_shed = sum(
        tenant["shed"] for tenant in service_entry["admission"].values()
    )
    summary = {
        "requests_total": len(stream),
        "cpu_count": os.cpu_count(),
        "results_bit_identical": bit_identical,
        "sessions_created": service_entry["sessions_created"],
        "one_session_per_ranking": (
            service_entry["sessions_created"] == args.rankings
        ),
        "engine_work_cold": cold_engine,
        "engine_work_service": service_engine,
        "service_engine_work_below_cold": (
            service_engine < cold_engine
            and service_entry["counters"]["nodes_evaluated"]
            <= cold["counters"]["nodes_evaluated"]
        ),
        "result_cache_hits": service_entry["counters"]["result_cache_hits"],
        "shed": total_shed,
        "failed": service_entry["requests"]["failed"],
        "amortized_speedup": (
            cold["seconds_total"] / service_entry["seconds_total"]
            if service_entry["seconds_total"]
            else None
        ),
    }
    artifact = {
        "entries": [cold, service_entry],
        "summary": summary,
    }
    args.output.write_text(
        json.dumps(artifact, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"wrote {args.output}")

    ok = (
        summary["results_bit_identical"]
        and summary["one_session_per_ranking"]
        and summary["service_engine_work_below_cold"]
        and summary["result_cache_hits"] > 0
        and summary["shed"] == 0
        and summary["failed"] == 0
    )
    if not ok:
        print(
            "GATE FAILED: the service did not amortize the request stream "
            "(see summary above)"
        )
        return 1
    print(
        "gates ok: bit-identical to the oracle; one session per ranking; "
        "service engine work < cold; cross-tenant store hits; zero shed/failed"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

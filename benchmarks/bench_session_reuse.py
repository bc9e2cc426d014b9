"""Cold-per-query vs warm-session benchmark for the AuditSession serving layer.

Runs one N-query mixed-bounds sweep (both problem definitions, all three
algorithms, two size thresholds — the interactive parameter-tuning workflow of
Section III) against the same synthetic ranked dataset twice:

* **cold** — one ``detect_biased_groups`` call per query: every query re-encodes
  the ranking, rebuilds the counting engine and (in parallel mode) re-publishes
  the shared-memory segment and respawns the worker pool;
* **warm** — one ``AuditSession`` serving all N queries from one engine and (in
  parallel mode) one long-lived executor.

Per-query wall-clock seconds and the amortized speedup are recorded, but the
*gated* numbers are machine-independent engine/lifecycle counters — on a 1-core
container (CI, sandboxes) parallel wall clock is meaningless, while these are
exact:

* the warm session's total cache misses and batch evaluations are strictly
  below the cold loop's (the whole point of a shared warm engine), with no
  more ``nodes_evaluated``;
* in parallel mode the warm session performs exactly one shared-memory publish
  and one pool spawn where the cold loop pays one per search-running query;
* total CPU (``os.times()``, child processes included) is reported so parallel
  parity can be judged against serial on core-starved machines.

Results are written to ``BENCH_session.json`` at the repository root.

Run with::

    PYTHONPATH=src python benchmarks/bench_session_reuse.py
    PYTHONPATH=src python benchmarks/bench_session_reuse.py --rows 20000 --workers 2
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import time
from pathlib import Path

# One BLAS/OpenMP thread: counters must not depend on library threading.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec, step_lower_bounds
from repro.core.engine.parallel import ExecutionConfig
from repro.core.session import AuditSession, DetectionQuery, detect_biased_groups
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.ranking.base import PrecomputedRanker

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_session.json"

DEFAULT_ROWS = 20_000
DEFAULT_ATTRIBUTES = 8
CARDINALITY_CYCLE = (2, 3, 2, 4, 3, 2, 5)

#: Engine counters whose warm-vs-cold totals are the gated metrics.
ENGINE_COUNTERS = ("cache_misses", "batch_evaluations")
#: Lifecycle counters asserted in parallel mode.
LIFECYCLE_COUNTERS = ("shm_publishes", "pool_spawns", "parallel_fallback")


def build_instance(n_rows: int, n_attributes: int, seed: int = 907):
    cardinalities = [CARDINALITY_CYCLE[i % len(CARDINALITY_CYCLE)] for i in range(n_attributes)]
    rng = np.random.default_rng(seed)
    spec = SyntheticSpec(
        n_rows=n_rows,
        cardinalities=cardinalities,
        score_weights=rng.uniform(-1.0, 1.0, size=n_attributes).tolist(),
        noise=0.5,
        skew=0.9,
        seed=seed,
    )
    dataset = synthetic_dataset(spec)
    ranking = PrecomputedRanker(score_column="score").rank(dataset)
    return dataset, ranking


def build_queries(n_rows: int, n_queries: int) -> list[DetectionQuery]:
    """An N-query mixed-bounds sweep over one ranked dataset."""
    tau_lo = max(2, n_rows // 200)
    tau_hi = max(4, n_rows // 100)
    k_min, k_max = 10, min(60, n_rows - 1)
    step = GlobalBoundSpec(lower_bounds=step_lower_bounds({10: 10, 20: 20, 30: 30, 40: 40}))
    pool = [
        DetectionQuery(step, tau_lo, k_min, k_max),
        DetectionQuery(ProportionalBoundSpec(alpha=0.8), tau_lo, k_min, k_max),
        DetectionQuery(step, tau_lo, k_min, k_max, algorithm="iter_td"),
        DetectionQuery(ProportionalBoundSpec(alpha=0.95), tau_hi, k_min, k_max),
        DetectionQuery(GlobalBoundSpec(lower_bounds=15.0), tau_hi, k_min, k_max),
        DetectionQuery(ProportionalBoundSpec(alpha=0.6), tau_lo, k_min, k_max,
                       algorithm="prop_bounds"),
        DetectionQuery(step, tau_hi, k_min, k_max, algorithm="iter_td"),
        DetectionQuery(GlobalBoundSpec(lower_bounds=5.0), tau_lo, k_min, min(30, k_max)),
        DetectionQuery(ProportionalBoundSpec(alpha=0.8), tau_hi, 20, k_max),
        DetectionQuery(step, tau_lo, 20, k_max, algorithm="global_bounds"),
    ]
    return [pool[i % len(pool)] for i in range(n_queries)]


def _cpu_seconds() -> float:
    """Total CPU seconds of this process *and* reaped children (worker pools)."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def _collect(reports) -> dict[str, float]:
    totals: dict[str, float] = {name: 0 for name in ENGINE_COUNTERS + LIFECYCLE_COUNTERS}
    totals["nodes_evaluated"] = 0
    totals["total_reported"] = 0
    for report in reports:
        for name in ENGINE_COUNTERS:
            totals[name] += getattr(report.stats, name)
        for name in LIFECYCLE_COUNTERS:
            totals[name] += report.stats.extra.get(name, 0)
        totals["nodes_evaluated"] += report.stats.nodes_evaluated
        totals["total_reported"] += report.result.total_reported()
    return totals


def run_mode(mode: str, dataset, ranking, queries, execution: ExecutionConfig):
    """One full sweep, either 'cold' (one-shot per query) or 'warm' (one session)."""
    gc.collect()
    per_query_seconds: list[float] = []
    reports = []
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    if mode == "warm":
        with AuditSession(dataset, ranking, execution=execution) as session:
            for query in queries:
                query_started = time.perf_counter()
                reports.append(session.run(query))
                per_query_seconds.append(time.perf_counter() - query_started)
    else:
        for query in queries:
            query_started = time.perf_counter()
            reports.append(detect_biased_groups(
                dataset, ranking, query.bound, query.tau_s, query.k_min, query.k_max,
                algorithm=query.algorithm, execution=execution,
            ))
            per_query_seconds.append(time.perf_counter() - query_started)
    total_seconds = time.perf_counter() - started
    cpu_seconds = _cpu_seconds() - cpu_before
    entry = {
        "mode": mode,
        "seconds_total": total_seconds,
        "seconds_per_query": per_query_seconds,
        "seconds_mean_per_query": total_seconds / len(queries),
        "cpu_seconds": cpu_seconds,
        "counters": _collect(reports),
    }
    return entry, reports


def run_config(label: str, dataset, ranking, queries, execution: ExecutionConfig):
    cold, cold_reports = run_mode("cold", dataset, ranking, queries, execution)
    warm, warm_reports = run_mode("warm", dataset, ranking, queries, execution)
    identical = all(
        c.result == w.result for c, w in zip(cold_reports, warm_reports)
    )
    cold_engine = sum(cold["counters"][name] for name in ENGINE_COUNTERS)
    warm_engine = sum(warm["counters"][name] for name in ENGINE_COUNTERS)
    return {
        "label": label,
        "workers": execution.resolved_workers(),
        "n_queries": len(queries),
        "cold": cold,
        "warm": warm,
        "results_bit_identical": identical,
        "amortized_speedup": (
            cold["seconds_total"] / warm["seconds_total"] if warm["seconds_total"] else None
        ),
        "cpu_ratio_warm_over_cold": (
            warm["cpu_seconds"] / cold["cpu_seconds"] if cold["cpu_seconds"] else None
        ),
        "engine_work_cold": cold_engine,
        "engine_work_warm": warm_engine,
        "warm_engine_work_below_cold": (
            warm_engine < cold_engine
            and warm["counters"]["nodes_evaluated"] <= cold["counters"]["nodes_evaluated"]
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument("--attributes", type=int, default=DEFAULT_ATTRIBUTES)
    parser.add_argument("--queries", type=int, default=10)
    parser.add_argument("--workers", type=int, default=2,
                        help="worker count of the parallel entry (0 disables it)")
    parser.add_argument("--parallel-rows", type=int, default=None,
                        help="row count of the parallel entry (default: --rows)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args()

    entries = []
    dataset, ranking = build_instance(args.rows, args.attributes)
    queries = build_queries(args.rows, args.queries)
    print(f"serial: {args.queries} queries over {args.rows} rows x {args.attributes} attrs")
    entries.append(run_config("serial", dataset, ranking, queries, ExecutionConfig(workers=1)))

    if args.workers and args.workers > 1:
        parallel_rows = args.parallel_rows or args.rows
        if parallel_rows != args.rows:
            dataset, ranking = build_instance(parallel_rows, args.attributes)
            queries = build_queries(parallel_rows, args.queries)
        print(f"parallel (workers={args.workers}): {args.queries} queries over "
              f"{parallel_rows} rows")
        entries.append(run_config(
            f"workers{args.workers}", dataset, ranking, queries,
            ExecutionConfig(workers=args.workers),
        ))

    parallel_entries = [e for e in entries if e["workers"] > 1]
    summary = {
        "n_queries": args.queries,
        "cpu_count": os.cpu_count(),
        # Gated, machine-independent: the warm engine did strictly less work.
        "warm_engine_work_below_cold": all(
            e["warm_engine_work_below_cold"] for e in entries
        ),
        "results_bit_identical": all(e["results_bit_identical"] for e in entries),
        # Gated in parallel mode: one publish/spawn per session vs one per query.
        "warm_shm_publishes": sum(
            e["warm"]["counters"]["shm_publishes"] for e in parallel_entries
        ),
        "warm_pool_spawns": sum(
            e["warm"]["counters"]["pool_spawns"] for e in parallel_entries
        ),
        "cold_pool_spawns": sum(
            e["cold"]["counters"]["pool_spawns"] for e in parallel_entries
        ),
        "amortized_speedup_serial": next(
            (e["amortized_speedup"] for e in entries if e["workers"] == 1), None
        ),
    }
    artifact = {"entries": entries, "summary": summary}
    args.output.write_text(json.dumps(artifact, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps(summary, indent=2, sort_keys=True))
    print(f"wrote {args.output}")

    ok = summary["warm_engine_work_below_cold"] and summary["results_bit_identical"]
    if parallel_entries:
        per_parallel_ok = all(
            e["warm"]["counters"]["shm_publishes"] == 1
            and e["warm"]["counters"]["pool_spawns"] == 1
            and e["cold"]["counters"]["pool_spawns"] > 1
            for e in parallel_entries
        )
        ok = ok and per_parallel_ok
    if not ok:
        print("GATE FAILED: warm session did not beat cold-per-query on the "
              "engine/lifecycle counters")
        return 1
    print("gates ok: warm < cold on engine counters; one publish/spawn per session")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Row-scaling benchmark for the sharded lattice search over the process pool.

Sweeps synthetic datasets across row counts, attribute counts and worker counts,
timing one full engine-backed detection per combination end to end — counter
construction, executor setup (shared-memory publication + pool spawn), search,
merge — so ``rows_per_second`` reflects what a caller actually observes.  For
every (rows, attributes) instance the single-worker serial run is the baseline:

* ``speedup``    = ``seconds(workers=1) / seconds(workers=w)``
* ``efficiency`` = ``speedup / w`` (1.0 = perfect linear scaling)
* ``cpu_ratio``  = ``cpu_seconds(entry) / cpu_seconds(workers=1)`` — total CPU
  (self + reaped children, via ``os.times``) relative to serial.  The shards
  partition the search tree, so total CPU stays near parity regardless of core
  count; anything above it is coordination overhead.

Every entry also records the executor-lifecycle counters (``shm_publishes``,
``pool_spawns``) and ``parallel_fallback``, so a run that silently fell back to
the serial path is visible in the artifact.

Results are written to ``BENCH_scaling.json`` at the repository root together with
the machine's ``cpu_count``: parallel wall-clock speedup is physically bounded by
the number of available cores, so a 4-worker run on a 1-core container reports
efficiency ≈ 0.25 by construction and the artifact must be read against
``cpu_count``.

Run with::

    PYTHONPATH=src python benchmarks/bench_scaling_rows.py
    PYTHONPATH=src python benchmarks/bench_scaling_rows.py \
        --rows 10000,100000 --attributes 5,10 --workers 1,2 --repeats 2
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import time
from pathlib import Path

# One BLAS/OpenMP thread per process: the workers provide the parallelism here,
# and nested thread pools would both skew the 1-worker baseline and oversubscribe
# the machine at higher worker counts.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec, step_lower_bounds
from repro.core.engine.parallel import ExecutionConfig
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.experiments.harness import ALGORITHMS
from repro.ranking.base import PrecomputedRanker

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_scaling.json"

#: The speedup the sharded executor targets at 4 workers on the 10^6-row
#: workload — only reachable when the machine has >= 4 usable cores.
TARGET_SPEEDUP = 2.5
TARGET_WORKERS = 4

DEFAULT_ROWS = (10_000, 100_000, 1_000_000)
DEFAULT_ATTRIBUTES = (5, 10, 15)
DEFAULT_WORKERS = (1, 2, 4)

#: k range of the per-instance sweep (IterTD runs one full search per k, which is
#: exactly the fan-out-heavy workload the executor shards).
K_MIN, K_MAX = 10, 30

#: Attribute cardinalities, cycled to the requested width (mirrors the throughput
#: benchmark's synthetic schema).
CARDINALITY_CYCLE = (2, 3, 2, 4, 3, 2, 5)


def build_instance(n_rows: int, n_attributes: int, problem: str = "global", seed: int = 611):
    """One synthetic (dataset, ranking, bound, tau_s) scaling instance."""
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
    # 0.5% of the rows: deep enough that the search descends several lattice
    # levels (real sharded work for the pool) while staying tractable serially.
    tau_s = max(5, n_rows // 200)
    if problem == "global":
        # Permissive step schedule relative to k, so high-scoring subtrees keep
        # expanding instead of collapsing into below-bound leaves at the root.
        bound = GlobalBoundSpec(
            lower_bounds=step_lower_bounds({K_MIN: 2.0, (K_MIN + K_MAX) // 2: 4.0})
        )
    else:
        bound = ProportionalBoundSpec(alpha=0.8)
    return dataset, ranking, bound, tau_s


def _total_cpu_seconds() -> float:
    """Total CPU consumed so far: this process plus every reaped child."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def _time_detection(detector_class, dataset, ranking, bound, tau_s, k_min, k_max,
                    workers: int, repeats: int) -> tuple[float, float, object]:
    """Best-of-``repeats`` end-to-end detection at the given worker count.

    Returns ``(wall_seconds, cpu_seconds, report)`` with ``cpu_seconds`` taken
    from the same run that produced the best wall clock.  Process-pool children
    are reaped when ``detect`` closes its executor, so their CPU is visible to
    ``os.times`` by the time the after-measurement is taken.
    """
    execution = ExecutionConfig(workers=workers)
    detector = detector_class(
        bound=bound, tau_s=tau_s, k_min=k_min, k_max=k_max, execution=execution
    )
    best_seconds = math.inf
    best_cpu = math.inf
    report = None
    for _ in range(repeats):
        cpu_before = _total_cpu_seconds()
        started = time.perf_counter()
        report = detector.detect(dataset, ranking)
        elapsed = time.perf_counter() - started
        cpu_elapsed = _total_cpu_seconds() - cpu_before
        if elapsed < best_seconds:
            best_seconds = elapsed
            best_cpu = cpu_elapsed
    return best_seconds, best_cpu, report


def run_benchmarks(
    rows_list: tuple[int, ...] = DEFAULT_ROWS,
    attribute_list: tuple[int, ...] = DEFAULT_ATTRIBUTES,
    worker_list: tuple[int, ...] = DEFAULT_WORKERS,
    algorithm: str = "IterTD",
    problem: str = "global",
    k_min: int = K_MIN,
    k_max: int = K_MAX,
    repeats: int = 1,
    verbose: bool = False,
) -> dict:
    """Measure every (rows, attributes, workers) combination."""
    detector_class = ALGORITHMS[algorithm]
    # The serial run is the baseline for every other worker count, so it must
    # come first regardless of how the list was given (e.g. --workers 4,1).
    worker_list = (1, *[workers for workers in worker_list if workers != 1])
    entries = []
    for n_rows in rows_list:
        for n_attributes in attribute_list:
            dataset, ranking, bound, tau_s = build_instance(n_rows, n_attributes, problem)
            k_hi = min(k_max, dataset.n_rows - 1)
            baseline_seconds = None
            baseline_cpu = None
            reference_result = None
            for workers in worker_list:
                # A previous measurement's caches (engine masks, blocks, report)
                # inflate allocation/GC cost for the next one; drop them first so
                # combinations are compared from identical starting states.
                gc.collect()
                seconds, cpu_seconds, report = _time_detection(
                    detector_class, dataset, ranking, bound, tau_s, k_min, k_hi,
                    workers, repeats,
                )
                if workers == 1:
                    baseline_seconds = seconds
                    baseline_cpu = cpu_seconds
                    reference_result = report.result
                elif report.result != reference_result:
                    raise RuntimeError(
                        f"parallel result mismatch at rows={n_rows} "
                        f"attrs={n_attributes} workers={workers}"
                    )
                speedup = baseline_seconds / seconds
                extra = report.stats.extra
                entry = {
                    "n_rows": n_rows,
                    "n_attributes": n_attributes,
                    "workers": workers,
                    "tau_s": tau_s,
                    "k_min": k_min,
                    "k_max": k_hi,
                    "seconds": seconds,
                    "cpu_seconds": cpu_seconds,
                    "cpu_ratio": cpu_seconds / baseline_cpu if baseline_cpu else None,
                    "rows_per_second": n_rows / seconds,
                    "speedup": speedup,
                    "efficiency": speedup / workers,
                    "nodes_evaluated": report.stats.nodes_evaluated,
                    "groups_reported": report.result.total_reported(),
                    "parallel_fallback": extra.get("parallel_fallback", 0),
                    "shm_publishes": extra.get("shm_publishes", 0),
                    "pool_spawns": extra.get("pool_spawns", 0),
                }
                entries.append(entry)
                if verbose:
                    print(
                        f"rows={n_rows:>9,} attrs={n_attributes:>2} "
                        f"workers={workers}  "
                        f"{seconds:8.2f}s  cpu {cpu_seconds:8.2f}s  "
                        f"speedup {speedup:5.2f}x  "
                        f"efficiency {entry['efficiency']:.2f}",
                        flush=True,
                    )
                del report
    return _summarise(
        entries, rows_list, attribute_list, worker_list, algorithm, problem, repeats,
        k_min, k_max,
    )


def _summarise(entries, rows_list, attribute_list, worker_list, algorithm, problem,
               repeats, k_min, k_max) -> dict:
    def _geomean(values):
        values = list(values)
        return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0

    max_rows = max(rows_list)
    per_worker = {}
    for workers in worker_list:
        matching = [e for e in entries if e["workers"] == workers]
        large = [e["speedup"] for e in matching if e["n_rows"] == max_rows]
        per_worker[str(workers)] = {
            "geomean_speedup": _geomean(e["speedup"] for e in matching),
            "geomean_speedup_largest_rows": _geomean(large),
            "geomean_efficiency": _geomean(e["efficiency"] for e in matching),
        }
    target_entry = per_worker.get(str(TARGET_WORKERS), {})
    speedup_at_target = target_entry.get("geomean_speedup_largest_rows", 0.0)
    cpu_count = os.cpu_count() or 1
    return {
        "schema_version": 3,
        "description": (
            "Sharded lattice search over the process pool: end-to-end detection "
            "wall clock and total CPU vs worker count on synthetic row-scaling "
            "workloads; speedup = seconds(workers=1) / seconds(entry), "
            "cpu_ratio = cpu_seconds(entry) / cpu_seconds(workers=1)"
        ),
        "cpu_count": cpu_count,
        "parameters": {
            "algorithm": algorithm,
            "problem": problem,
            "rows": list(rows_list),
            "attributes": list(attribute_list),
            "workers": list(worker_list),
            "repeats": repeats,
            "k_min": k_min,
            "k_max": k_max,
        },
        "entries": entries,
        "summary": {
            "per_worker_count": per_worker,
            "target_workers": TARGET_WORKERS,
            "target_speedup": TARGET_SPEEDUP,
            "speedup_at_target_workers_largest_rows": speedup_at_target,
            "meets_target": speedup_at_target >= TARGET_SPEEDUP,
            "cores_limit_speedup": cpu_count < TARGET_WORKERS,
        },
    }


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--rows", type=_parse_int_list,
                        default=DEFAULT_ROWS, help="comma-separated row counts")
    parser.add_argument("--attributes", type=_parse_int_list,
                        default=DEFAULT_ATTRIBUTES, help="comma-separated attribute counts")
    parser.add_argument("--workers", type=_parse_int_list,
                        default=DEFAULT_WORKERS, help="comma-separated worker counts")
    parser.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="IterTD")
    parser.add_argument("--problem", choices=("global", "proportional"), default="global")
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)

    artifact = run_benchmarks(
        rows_list=args.rows,
        attribute_list=args.attributes,
        worker_list=args.workers,
        algorithm=args.algorithm,
        problem=args.problem,
        repeats=args.repeats,
        verbose=True,
    )
    args.output.write_text(json.dumps(artifact, indent=2) + "\n")
    summary = artifact["summary"]
    if str(summary["target_workers"]) in summary["per_worker_count"]:
        print(
            f"speedup at {summary['target_workers']} workers on the largest workload: "
            f"{summary['speedup_at_target_workers_largest_rows']:.2f}x "
            f"(target {summary['target_speedup']:.1f}x, cpu_count={artifact['cpu_count']})"
        )
    else:
        print(
            f"target worker count {summary['target_workers']} not in the measured grid; "
            f"no target comparison (cpu_count={artifact['cpu_count']})"
        )
    print(f"wrote {args.output}")
    if summary["cores_limit_speedup"]:
        print(
            "note: this machine has fewer cores than the target worker count; "
            "the speedup target cannot be met here by construction"
        )
        return 0
    return 0 if summary["meets_target"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

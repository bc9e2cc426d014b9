"""Runs one workload in this process and prints its metrics.

Started by ``run.py`` in a fresh interpreter whose hash seed and BLAS thread
counts are already pinned.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; everything before
it is the human-readable report.  Details (every sample, the machine facts,
the calibration readings and, for a traced run, the spans) are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from repro.core import DetectionResult, SearchStats
from repro.service.errors import ServiceOverloadedError

from perfbench import inputs, measure
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS, digest

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: Seconds of timed phase between two set-up samples.  Machine speed on a
#: shared host shifts within a second, so set-up is sampled across the whole
#: run rather than in one burst that one fast or slow second could decide.
SETUP_EVERY_S = 2.0


def _catalogue(kind: str) -> dict[str, str]:
    """Name -> unit of every ``kind`` metric ("end_to_end" or "per_layer") in BENCHMARK.json."""
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())[kind]
    return {entry["name"]: entry["unit"] for entry in declared}


#: Metrics of untraced runs and of traced runs.
END_TO_END = _catalogue("end_to_end")
PER_LAYER = _catalogue("per_layer")


@dataclass(frozen=True)
class Answer:
    """What the output check and the metrics read of one report.

    A report holds its session's warm counter; keeping only this much lets
    that counter go as soon as the request returns.
    """

    result: DetectionResult
    stats: SearchStats


@dataclass
class Record:
    """One request's outcome: an :class:`Answer` per query, or the error it failed with."""

    request: inputs.Request
    start: float
    end: float
    outcome: object
    shed: bool = False

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Phase:
    records: list[Record]
    elapsed: float
    cpu_s: float
    peak_rss_mb: float
    setups: list[float]


# -- driving -----------------------------------------------------------------------
def closed_loop(workload, target, requests, *, seconds=None, count=None, tracer=None,
                setup_every=None) -> Phase:
    """One client: the next request is sent when the previous one has finished.

    Peak memory is read once ``workload.memory_after`` requests have completed
    (at the end, if fewer do), so that it measures a fixed amount of work, not
    how many requests a fast run got through.  With ``setup_every``, the loop
    pauses after that many seconds of requests to time one more set-up; the
    pauses count toward neither the elapsed nor the CPU time.
    """
    records, setups, peak_rss_mb = [], [], None
    paused_s = paused_cpu_s = 0.0
    next_setup = setup_every
    cpu_before = measure.cpu_seconds()
    started = time.perf_counter()
    for request in requests:
        begin = time.perf_counter()
        shed = False
        try:
            if tracer is None:
                outcome = _answers(workload.execute(target, request))
            else:
                with tracer.request(request.rid, request.kind):
                    outcome = _answers(workload.execute(target, request))
        except ServiceOverloadedError as error:
            outcome, shed = error, True
        except Exception as error:  # a failed request is counted, the run goes on
            outcome = error
        end = time.perf_counter()
        records.append(Record(request, begin, end, outcome, shed))
        if len(records) == workload.memory_after:
            peak_rss_mb = measure.peak_rss_mb()
        running = end - started - paused_s
        if count is not None and len(records) >= count:
            break
        if seconds is not None and running >= seconds:
            break
        if next_setup is not None and running >= next_setup:
            pause_started, pause_cpu = time.perf_counter(), measure.cpu_seconds()
            extra, duration = timed_setup(workload)
            workload.close(extra)
            gc.collect()
            setups.append(duration)
            paused_s += time.perf_counter() - pause_started
            paused_cpu_s += measure.cpu_delta(pause_cpu, measure.cpu_seconds())
            next_setup += setup_every
    elapsed = time.perf_counter() - started - paused_s
    cpu_s = measure.cpu_delta(cpu_before, measure.cpu_seconds()) - paused_cpu_s
    return Phase(records, elapsed, cpu_s, peak_rss_mb or measure.peak_rss_mb(), setups)


def _answers(reports) -> list[Answer]:
    return [Answer(report.result, report.stats) for report in reports]


def drive(workload, target, requests, *, seconds=None, count=None, tracer=None,
          setup_every=None) -> Phase:
    gc.collect()
    return closed_loop(workload, target, requests, seconds=seconds, count=count, tracer=tracer,
                       setup_every=setup_every)


def timed_setup(workload, tracer=None):
    """Set up once, after a collection; returns the target and the seconds it took."""
    gc.collect()
    started = time.perf_counter()
    if tracer is None:
        target = workload.setup()
    else:
        with tracer.request("setup", "setup"):
            target = workload.setup()
    return target, time.perf_counter() - started


# -- metrics -----------------------------------------------------------------------
def _answered(records):
    return [record for record in records if isinstance(record.outcome, list)]


def failures(records, verdict) -> dict[str, int]:
    errors = sum(1 for r in records if not isinstance(r.outcome, list) and not r.shed)
    shed = sum(1 for r in records if r.shed)
    return {"errors": errors, "shed": shed, "mismatched": len(verdict.mismatched)}


def end_to_end(phase: Phase, setup_durations) -> tuple[dict[str, float], dict]:
    answered = _answered(phase.records)
    latencies = [record.latency for record in answered] or [float("nan")]
    metrics = {
        "setup_s": statistics.median(setup_durations),
        "requests_per_s": len(answered) / phase.elapsed,
        "latency_p50_ms": measure.percentile_ms(latencies, 50),
        "latency_p90_ms": measure.percentile_ms(latencies, 90),
        "cpu_s_per_request": phase.cpu_s / max(1, len(answered)),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    details = {
        "latency_samples": len(answered),
        "samples_beyond_p90": sum(1 for value in latencies if value * 1000 > metrics["latency_p90_ms"]),
        "elapsed_s": phase.elapsed,
        "cpu_s": phase.cpu_s,
        "setup_samples_s": setup_durations,
        "latencies_ms": [round(value * 1000, 3) for value in latencies],
    }
    return metrics, details


def _stat_sum(records, *names) -> float:
    total = 0
    for record in _answered(records):
        for report in record.outcome:
            stats = report.stats
            for name in names:
                total += getattr(stats, name, 0) + stats.extra.get(name, 0)
                total += stats.extra.get(f"worker_{name}", 0)
    return total


def layer_metrics(tracer: Tracer, phase: Phase, untraced: Phase, workload, target) -> dict[str, float]:
    traces = {record.request.rid for record in phase.records}
    own = tracer.self_times(traces)
    totals, counts = tracer.totals(), tracer.counts()
    spans = tracer.spans()
    hits, misses = _stat_sum(phase.records, "cache_hits"), _stat_sum(phase.records, "cache_misses")
    waits = [
        record.outcome[0].stats.queue_wait_seconds
        for record in _answered(phase.records) if record.outcome
    ]
    service = target[0] if workload.name == "service_closed_loop" else None
    traced_total = sum(record.latency for record in phase.records)
    untraced_total = sum(record.latency for record in untraced.records[: len(phase.records)])
    return {
        "minimality.self_s": own["minimality"],
        "minimality.calls": counts["minimality.calls"],
        "minimality.input_patterns": counts["minimality.input_patterns"],
        "search.self_s": own["search"],
        "search.nodes_evaluated": _stat_sum(phase.records, "nodes_evaluated"),
        "search.full_searches": _stat_sum(phase.records, "full_searches"),
        "search.row_satisfies": counts["row_satisfies"],
        "search.bound_lower": counts["bound_lower"],
        "refine.self_s": own["refine"],
        "refine.calls": counts["refine.calls"],
        "engine.count_s": totals["engine"],
        "engine.blocks": _stat_sum(phase.records, "batch_evaluations"),
        "engine.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "planner.self_s": own["planner"],
        "planner.steps_per_query": (
            counts["planner.steps"] / counts["planner.queries"] if counts["planner.queries"] else 0.0
        ),
        "planner.refine_steps": counts["planner.refine_steps"],
        "planner.extend_steps": counts["planner.extend_steps"],
        "store.self_s": own["store"],
        "store.hit_ratio": (
            counts["store.hits"] / counts["store.lookups"] if counts["store.lookups"] else 0.0
        ),
        "store.evictions": counts["store.evictions"],
        "session.self_s": own["session"],
        "service.self_s": own["service"],
        "service.queue_wait_ms_p50": measure.percentile_ms(waits, 50) if service and waits else 0.0,
        "service.queue_wait_ms_p90": measure.percentile_ms(waits, 90) if service and waits else 0.0,
        "service.shed": sum(1 for record in phase.records if record.shed),
        "service.sessions_created": service.pool.sessions_created if service else 0,
        "executor.setup_s": sum(
            (end - start for _, _, _, layer, _, start, end, _ in spans if layer == "executor.setup"),
            0.0,
        ),
        "executor.coordinator_s": own["executor"],
        "executor.wait_s": own["executor.wait"],
        "executor.merge_s": own["executor.merge"],
        "executor.shards": _stat_sum(phase.records, "parallel_shards"),
        "executor.worker_restarts": _stat_sum(phase.records, "worker_restarts"),
        "python.gc_s": totals["python.gc"],
        "request.self_s": own["request"],
        "trace.requests": len(phase.records),
        "trace.spans": len(spans),
        "trace.overhead": traced_total / untraced_total - 1.0 if untraced_total else 0.0,
    }


def _layers() -> dict[str, list[str]]:
    """Layer -> its per-layer metrics, in catalogue order (``trace.*`` is printed apart)."""
    layers: dict[str, list[str]] = {}
    for name in PER_LAYER:
        layer = name.split(".", 1)[0]
        if layer != "trace":
            layers.setdefault(layer, []).append(name)
    return layers


def print_layer_table(workload_name: str, metrics: dict[str, float], wall: float) -> None:
    """One row per layer: its first time metric with its share of request time, then the rest."""
    predictions = json.loads((HERE / "predictions.json").read_text())["layers"]
    print(f"per-layer self time over {metrics['trace.requests']} traced requests "
          f"({wall:.3f} s of request time):")
    print(f"  {'layer':<11} {'self_s':>9} {'share':>6}  other metrics / expectation")
    for layer, names in _layers().items():
        timed = next(name for name in names if PER_LAYER[name] == "s")
        share = f"{100 * metrics[timed] / wall:5.1f}%" if wall else "     -"
        others = ", ".join(
            f"{name.split('.', 1)[1]}={metrics[name]:.4g}" for name in names if name != timed
        )
        expectation = predictions.get(layer, {})
        if workload_name in expectation.get("flat_in", ()):
            note = "expected: little or no work here"
        elif workload_name in expectation.get("moves", {}):
            note = "expected to move " + ", ".join(expectation["moves"][workload_name])
        else:
            note = ""
        print(f"  {layer:<11} {metrics[timed]:9.4f} {share}  "
              f"{others}{'; ' if others and note else ''}{note}")
    print(f"  trace.overhead {metrics['trace.overhead']:+.3f} (traced / untraced request time - 1, "
          f"same {metrics['trace.requests']} requests)")


# -- main --------------------------------------------------------------------------
def dry_run(workload) -> None:
    workload.generate()
    requests = list(islice(workload.requests(), workload.dry_run_requests))
    print(f"{workload.name}: closed loop, one client; first {len(requests)} requests of the script")
    print(json.dumps(inputs.describe_mix(requests), indent=1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dry-run", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds, args.tiny)
    if args.dry_run:
        dry_run(workload)
        return 0
    facts = measure.machine_facts()
    calibration = {"start_s": measure.calibration_seconds()}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + ", ".join(f"{key}={value}" for key, value in facts.items()))
    workload.generate()
    allowed = measure.pin_to_one_cpu() if workload.one_cpu else None
    if allowed is not None:
        print(f"set-up and timed phase on CPU {os.sched_getaffinity(0)} of {sorted(allowed)}")
    target, first_setup = timed_setup(workload)
    tracer = None
    if args.trace:
        # Half the time untraced, then the same requests again, traced, on a
        # fresh set-up: the difference is the tracing overhead.  Halves keep
        # a traced run about as long as an untraced one.
        untraced = drive(workload, target, workload.requests(), seconds=args.seconds / 2)
        replay = [record.request for record in untraced.records]
        workload.close(target)
        tracer = Tracer()
        tracer.install()
        try:
            target, _ = timed_setup(workload, tracer)
            tracer.reset_counters()
            phase = drive(workload, target, replay, count=len(replay), tracer=tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, phase, untraced, workload, target)
        units = PER_LAYER
        details = {}
        checked = untraced.records + phase.records
    else:
        phase = drive(workload, target, workload.requests(), seconds=args.seconds,
                      setup_every=SETUP_EVERY_S)
        metrics, details = end_to_end(phase, [first_setup, *phase.setups])
        units = END_TO_END
        checked = phase.records
    measure.unpin(allowed)  # the reference processes may use every CPU
    verdict = workload.check(target, checked)
    workload.close(target)
    calibration["end_s"] = measure.calibration_seconds()
    failed = failures(phase.records, verdict)
    attempted = len(phase.records)
    n_failed = sum(failed.values())
    first = [record.outcome[i].result for record in _answered(phase.records)[:30]
             for i in range(len(record.outcome))]

    print(f"calibration loop: {calibration['start_s']:.4f} s at start, "
          f"{calibration['end_s']:.4f} s at end")
    if args.trace:
        print_layer_table(args.workload, metrics, sum(r.latency for r in phase.records))
    else:
        for name, unit in END_TO_END.items():
            print(f"{name}: {metrics[name]:.6g} {unit}")
        print(f"cpu_s: {details['cpu_s']:.6g} s (timed phase, this process and its workers)")
        print(f"latency samples: {details['latency_samples']} "
              f"({details['samples_beyond_p90']} beyond p90)")
    print(f"failed_ratio: {n_failed / attempted:.4f} ({n_failed} of {attempted}: "
          f"{failed['errors']} errors, {failed['shed']} shed, {failed['mismatched']} mismatched)")
    verdict_text = "PASS" if not verdict.mismatched and not failed["errors"] else "FAIL"
    print(f"output check: {verdict_text} ({verdict.compared} answers compared; "
          + ", ".join(f"{count} vs {source}" for source, count in sorted(verdict.sources.items()))
          + ")")
    for note in verdict.notes[:10]:
        print(f"  mismatch: {note}")
    for record in phase.records:
        if not isinstance(record.outcome, list) and not record.shed:
            print(f"  error: request {record.request.rid}: {record.outcome!r}")
            break
    print(f"result digest (first 30 requests): {digest(first)}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "machine": facts, "calibration": calibration, "metrics": metrics, "details": details,
        "failures": failed, "attempted": attempted, "verdict_notes": verdict.notes,
    }, indent=1, default=str))
    print(json.dumps({
        "correct": verdict_text == "PASS",
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: set-up, one request, and the reference check.

Each workload turns the generated raw columns into ready-to-serve program
state in :meth:`setup` (the part ``setup_s`` times), serves one request in
:meth:`execute`, and checks answers against references in :meth:`check`,
outside every timed window.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.core import (
    AuditSession,
    DetectionQuery,
    DetectionResult,
    ExecutionConfig,
    brute_force_detection,
)
from repro.core.pattern_graph import PatternCounter
from repro.data.dataset import Dataset
from repro.ranking.base import Ranking
from repro.service import AuditService
from repro.service.registry import ranking_key

from perfbench import inputs


def encode(table: inputs.RawTable, attribute_counts) -> dict[int, tuple[Dataset, Ranking]]:
    """Encode, rank and fingerprint ``table`` projected to each attribute count."""
    dataset = Dataset.from_columns(table.columns, numeric=table.numeric)
    order = table.ranker.rank(dataset).order
    names = dataset.attribute_names
    encoded = {}
    for count in sorted(set(attribute_counts)):
        projected = dataset if count == len(names) else dataset.project(names[:count])
        projected.fingerprint()
        encoded[count] = (projected, Ranking(projected, order))
    return encoded


def _result_key(result: DetectionResult) -> tuple:
    return tuple(
        (k, tuple(sorted(repr(pattern.items_tuple) for pattern in result[k])))
        for k in result.k_values
    )


def digest(results) -> str:
    """A short digest of answers, equal across runs and commits for equal outputs."""
    hasher = hashlib.blake2b(digest_size=8)
    for result in results:
        hasher.update(repr(_result_key(result)).encode())
    return hasher.hexdigest()


class Verdict:
    """Outcome of comparing every response with its reference."""

    def __init__(self) -> None:
        self.compared = 0
        self.mismatched: set[int] = set()
        self.sources: dict[str, int] = {}
        self.notes: list[str] = []

    def compare(self, request, result: DetectionResult, reference: DetectionResult, source: str) -> None:
        self.compared += 1
        self.sources[source] = self.sources.get(source, 0) + 1
        if result != reference:
            if request.rid not in self.mismatched:
                self.notes.append(
                    f"request {request.rid} ({request.kind}, {request.table}, "
                    f"{request.algorithms()}) differs from its {source} reference"
                )
            self.mismatched.add(request.rid)


class Workload:
    name = ""
    #: How many requests of a closed-loop script ``--dry-run`` summarises
    #: (more than a run completes).
    dry_run_requests = 300
    #: Requests after which ``peak_rss_mb`` is read: fewer than the slowest
    #: full-size run completes, so every run reads it after the same work.
    memory_after = 0
    #: Whether set-up and the timed phase run on one CPU (see ServiceClosedLoop).
    one_cpu = False

    def __init__(self, seed: int, seconds: float, tiny: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.size = inputs.sizes(tiny)

    def generate(self) -> None:
        """Build the raw inputs (untimed)."""

    def setup(self):
        raise NotImplementedError

    def close(self, target) -> None:
        """Release everything :meth:`setup` built."""

    def requests(self):
        raise NotImplementedError

    def execute(self, target, request):
        raise NotImplementedError

    def _datasets(self, target) -> dict:
        """``(table, attribute count) -> (dataset, ranking)`` of the set-up target."""
        raise NotImplementedError

    def check(self, target, records) -> Verdict:
        """Compare every answered query with the serial, uncached answer."""
        verdict = Verdict()
        answered = [
            (record.request, record.request.queries[index], report.result)
            for record in records if isinstance(record.outcome, list)
            for index, report in enumerate(record.outcome)
        ]
        jobs = {
            (request.table, request.n_attributes, repr(query)): query
            for request, query, _ in answered
        }
        answers = serial_answers(self._datasets(target), jobs)
        for request, query, result in answered:
            reference = answers[(request.table, request.n_attributes, repr(query))]
            verdict.compare(request, result, reference, "serial uncached")
        return verdict


def serial_answers(datasets: dict, jobs: dict) -> dict:
    """Serial, uncached answers to ``jobs`` (``(table, attributes, repr) -> query``).

    Every answer comes from a plain serial session whose result store is
    disabled, so each one is a full covering run; engine caches stay warm
    between runs on one dataset, which changes no answer.  The check runs
    outside every timed window; two spawned processes share its work to halve
    its wall time.
    """
    groups: dict[tuple, list] = {}
    for (table, count, _), query in jobs.items():
        groups.setdefault((table, count), []).append(query)
    tasks = []
    for key, queries in groups.items():
        dataset, ranking = datasets[key]
        for part in (queries[0::2], queries[1::2]):
            if part:
                tasks.append((key, dataset, ranking.order, part))
    answers = {}
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        for (key, _, _, part), results in zip(tasks, pool.map(_serial_task, tasks)):
            for query, result in zip(part, results):
                answers[(*key, repr(query))] = result
    return answers


def _serial_task(task) -> list[DetectionResult]:
    _, dataset, order, queries = task
    with AuditSession(dataset, Ranking(dataset, order), result_cache_capacity=0) as session:
        return [session.run(query).result for query in queries]


# -- cold_audit ----------------------------------------------------------------------
class ColdAudit(Workload):
    """Closed loop, one client; every request is a fresh one-query AuditSession."""

    name = "cold_audit"
    memory_after = 150

    def generate(self) -> None:
        self.tables = {
            name: inputs.paper_table(name, self.size.rows[name])
            for name in self.size.cold_attributes
        }
        self.n_rows = {name: table.n_rows for name, table in self.tables.items()}

    def setup(self):
        return {
            name: encode(table, self.size.cold_attributes[name])
            for name, table in self.tables.items()
        }

    def requests(self):
        return inputs.cold_audit_requests(self.seed, self.size, self.n_rows)

    def execute(self, target, request):
        dataset, ranking = target[request.table][request.n_attributes]
        with AuditSession(dataset, ranking) as session:
            return [session.run(request.queries[0])]

    def _datasets(self, target) -> dict:
        return {
            (name, count): pair
            for name, encoded in target.items()
            for count, pair in encoded.items()
        }

    def check(self, target, records) -> Verdict:
        """Brute force where the lattice is small, else the other algorithm's answer.

        Both algorithms of a family answer each drawn problem back to back, so
        most answers are checked against an independent search for free; a
        problem answered by one algorithm only (the run ended between the two)
        gets its partner run here.  Degenerate problems whose answer is empty
        by definition (zero lower bound, ``tau_s > n``) are compared with it.
        """
        verdict = Verdict()
        datasets = self._datasets(target)
        by_problem: dict[tuple, list] = {}
        for record in records:
            if isinstance(record.outcome, list):
                by_problem.setdefault(record.request.problem(), []).append(record)
        for problem, group in by_problem.items():
            table, n_attributes, label, tau_s, k_min, k_max = problem
            dataset, ranking = datasets[(table, n_attributes)]
            query = group[0].request.queries[0]
            if label == "zero" or tau_s > dataset.n_rows:
                reference = DetectionResult({k: () for k in range(k_min, k_max + 1)})
                source = "empty by definition"
            elif dataset.schema.total_patterns() <= inputs.BRUTE_FORCE_LIMIT:
                reference = brute_force_detection(
                    dataset, PatternCounter(dataset, ranking), query.bound, tau_s, k_min, k_max
                )
                source = "brute force"
            else:
                family = dict(inputs.COLD_FAMILIES)[label]
                answers = {}
                for record in group:
                    answers.setdefault(record.request.algorithms()[0], record.outcome[0].result)
                for algorithm in family:
                    if algorithm not in answers:
                        with AuditSession(dataset, ranking) as session:
                            answers[algorithm] = session.run(DetectionQuery(
                                bound=query.bound, tau_s=tau_s, k_min=k_min, k_max=k_max,
                                algorithm=algorithm,
                            )).result
                for record in group:
                    own = record.request.algorithms()[0]
                    other = next(a for a in family if a != own)
                    verdict.compare(record.request, record.outcome[0].result, answers[other],
                                    "other algorithm")
                continue
            for record in group:
                verdict.compare(record.request, record.outcome[0].result, reference, source)
        return verdict


# -- tuning_session ------------------------------------------------------------------
class TuningSession(Workload):
    """Closed loop, one analyst, one long-lived session per dataset."""

    name = "tuning_session"
    memory_after = 120

    def generate(self) -> None:
        self.tables = {
            name: inputs.paper_table(name, self.size.rows[name])
            for name in self.size.tuning_attributes
        }
        self.n_rows = {name: table.n_rows for name, table in self.tables.items()}

    def setup(self):
        target = {}
        for name, table in self.tables.items():
            count = self.size.tuning_attributes[name]
            dataset, ranking = encode(table, [count])[count]
            target[name] = (dataset, ranking, AuditSession(dataset, ranking))
        return target

    def close(self, target) -> None:
        for _, _, session in target.values():
            session.close()

    def requests(self):
        return inputs.tuning_requests(self.seed, self.size, self.n_rows)

    def execute(self, target, request):
        return target[request.table][2].run_many(request.queries)

    def _datasets(self, target) -> dict:
        return {
            (name, self.size.tuning_attributes[name]): (dataset, ranking)
            for name, (dataset, ranking, _) in target.items()
        }


# -- service_closed_loop ---------------------------------------------------------------
class ServiceClosedLoop(Workload):
    """Closed loop, one client, through one AuditService with default settings.

    The client submits, waits for the future, and sends the next request, so
    every request crosses admission, the dispatcher hand-off and the pooled
    session lease.  An open loop was tried first: on two cores the generator
    thread and both dispatchers share the interpreter lock, and p90 swung by a
    third between seeds across five traffic mixes.
    """

    name = "service_closed_loop"
    memory_after = 1200
    #: Every request is two thread hand-offs (client to dispatcher and back).
    #: A hand-off to an idle second vCPU waits on the host's scheduler, which
    #: kept slow runs off CPU for up to a third of the timed phase; on one CPU
    #: the woken thread runs as soon as the waker blocks.  With one request in
    #: flight, the second CPU had nothing to run in parallel.
    one_cpu = True
    ranking_name = "paper"

    def generate(self) -> None:
        self.tables = {
            name: inputs.paper_table(name, self.size.rows[name])
            for name in self.size.service_attributes
        }
        self.n_rows = {name: table.n_rows for name, table in self.tables.items()}

    def setup(self):
        service = AuditService()
        datasets = {}
        for name, table in self.tables.items():
            count = self.size.service_attributes[name]
            dataset, ranking = encode(table, [count])[count]
            service.register_dataset(name, dataset)
            service.register_ranking(name, self.ranking_name, ranking)
            datasets[(name, count)] = (dataset, ranking)
        # Build every pooled session now with a query no tenant asks
        # (tau_s > n is answered at the root), so the first tenant request
        # does not pay session construction.
        for name in self.tables:
            warmup = DetectionQuery(
                bound=inputs.bound_for("global"), tau_s=self.n_rows[name] + 1,
                k_min=10, k_max=10, algorithm="global_bounds",
            )
            service.run("warmup", ranking_key(name, self.ranking_name), warmup)
        return service, datasets

    def close(self, target) -> None:
        target[0].shutdown()

    def requests(self):
        return inputs.service_requests(self.seed, self.size, self.n_rows)

    def execute(self, target, request):
        future = target[0].submit(
            request.tenant, ranking_key(request.table, self.ranking_name), request.queries
        )
        return future.result(timeout=120)

    def _datasets(self, target) -> dict:
        return target[1]


# -- sharded_sweep -------------------------------------------------------------------
class ShardedSweep(Workload):
    """Closed loop on one two-worker process-backend session over the scaling instance."""

    name = "sharded_sweep"
    dry_run_requests = 100
    memory_after = 40
    execution = ExecutionConfig(workers=2, backend="process")

    def generate(self) -> None:
        self.table, self.bound = inputs.scaling_table(
            self.size.scaling_rows, self.size.scaling_attributes
        )

    def setup(self):
        count = self.size.scaling_attributes
        dataset, ranking = encode(self.table, [count])[count]
        session = AuditSession(dataset, ranking, execution=self.execution)
        # The executor (shared-memory publication and pool spawn) is created
        # lazily by the first search; force it here so it counts as set-up.
        report = session.run(DetectionQuery(
            bound=self.bound, tau_s=dataset.n_rows, k_min=10, k_max=10, algorithm="iter_td",
        ))
        if report.stats.extra.get("pool_spawns", 0) != 1:
            raise RuntimeError(f"no process pool was created: {report.stats.extra}")
        return dataset, ranking, session

    def close(self, target) -> None:
        target[2].close()

    def requests(self):
        return inputs.sharded_requests(self.seed, self.size, self.bound, self.table.n_rows)

    def execute(self, target, request):
        return target[2].run_many(request.queries)

    def _datasets(self, target) -> dict:
        return {("scaling", self.size.scaling_attributes): (target[0], target[1])}


WORKLOADS = {cls.name: cls for cls in (ColdAudit, TuningSession, ServiceClosedLoop, ShardedSweep)}

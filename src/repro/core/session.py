"""Persistent, query-oriented detection API: :class:`AuditSession`.

The one-shot entry points (:meth:`Detector.detect`,
:func:`~repro.core.detect_biased_groups`) re-encode the ranking, re-publish the
shared-memory segment and respawn the worker pool on every call — the right
trade-off for a single question, pure overhead for the interactive workflow
Section III of the paper envisions, where an analyst probes the *same* ranked
dataset with many different bounds, size thresholds and k ranges (the paper's own
tuning guidance — sweep ``alpha`` / ``L_k`` until the result set is reviewable —
is exactly such a workflow).

:class:`AuditSession` binds the (dataset, ranking) pair once and keeps the serving
infrastructure warm across queries:

* one engine-backed :class:`~repro.core.pattern_graph.PatternCounter`, whose
  match/block caches persist across queries (a k-sweep for ``alpha = 0.8`` re-uses
  the sibling blocks counted for ``alpha = 0.9``);
* at most one :class:`~repro.core.engine.parallel.ParallelSearchExecutor`,
  created lazily on the first query that needs it and kept alive until the
  session closes — one shared-memory publication and one pool spawn serve every
  query, and the per-``tau_s`` shard assignments pin each root subtree to its
  home worker *across queries*, so worker block caches stay hot for the whole
  session;
* a **query planner** (:mod:`repro.core.planner`): :meth:`run_many` does not
  replay its batch query-by-query — exact repeats are deduped, queries that
  agree on ``(bound, tau_s, algorithm)`` with overlapping/nested/adjacent k
  ranges are merged into one covering k-sweep, and the resulting plan steps are
  ordered by ``tau_s`` so per-``tau_s`` shard assignments and sibling-block
  caches are reused back-to-back (:meth:`run` is simply a one-query plan);
* a **pluggable result store** (:mod:`repro.core.result_store`): finished
  covering sweeps are kept — together with the
  :class:`~repro.core.top_down.SweepFrontier` they ended on — keyed by
  canonical query + :meth:`~repro.ranking.base.Ranking.fingerprint`.  Any later
  query whose k range is contained in a cached sweep is answered by
  :meth:`~repro.core.result_set.DetectionResult.restrict_k` without running a
  single search; a query that only *partially* overlaps a cached sweep is
  served by a two-sided k extension (an
  :class:`~repro.core.planner.ExtendStep`) — the missing suffix by frontier
  resume, the missing prefix by a bounded cold re-run, spliced bit-identically.
  A query at a new threshold is served like a cold query: by its own sweep on
  the warm engine.  The default store is a private
  in-memory LRU; pass ``store=shared_result_store()`` or a
  :class:`~repro.core.result_store.DiskResultStore` to reuse sweeps across
  sessions and processes;
* per-query stats isolation: every served query gets its own
  :class:`~repro.core.stats.SearchStats`, with engine counters attributed
  through snapshot deltas.  Summing any engine counter over a batch's reports
  equals the engine work actually performed: plan-merged and cache-served
  queries report ``result_cache_hits`` / ``result_cache_misses`` /
  ``plan_merged_queries`` instead of duplicated engine counters.

Queries are first-class values — a frozen :class:`DetectionQuery` names the bound,
``tau_s``, the k range and the algorithm, so query sets can be built, stored and
replayed.  Worker faults are routine, not terminal: the executor's supervisor
respawns a dead or hung worker and re-dispatches its shard transparently
(``worker_restarts`` / ``shard_retries`` on the query's stats).  Only when one
search exhausts ``ExecutionConfig.max_worker_restarts`` does the session's
*circuit breaker* open: the executor is closed, the interrupted query re-runs on
the serial in-process path (results are bit-identical by construction, recorded
as ``executor_reattach`` + ``degraded_queries``), and later queries stay serial
for ``ExecutionConfig.breaker_cooldown`` seconds — after which the session
probes a fresh executor and, on success, restores parallel service
(``executor_recoveries``).  ``ExecutionConfig.query_deadline`` bounds every
query's wall clock on both paths via
:class:`~repro.exceptions.QueryTimeoutError`.

The one-shot API is a thin wrapper over a single-query session, so both paths
return bit-identical reports — the planner and cache change how often searches
run, never what any query reports.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from repro.core.bounds import BoundSpec
from repro.core.detector import DetectionParameters, DetectionReport, Detector
from repro.core.engine.parallel import ExecutionConfig, create_search_executor
from repro.core.pattern_graph import PatternCounter
from repro.core.planner import (
    DETECTOR_CLASSES,
    DetectionQuery,
    ExtendStep,
    PlanStep,
    QueryPlan,
    plan_queries,
)
from repro.core.result_set import DetectionResult
from repro.core.result_store import (
    DEFAULT_RESULT_CACHE_CAPACITY,
    InMemoryResultStore,
    ResultStore,
)
from repro.core.stats import SearchStats
from repro.core.top_down import SweepOutcome, top_down_search
from repro.data.dataset import Dataset
from repro.exceptions import (
    ConcurrentSessionUseError,
    DetectionError,
    ExecutorBrokenError,
    QueryTimeoutError,
)
from repro.ranking.base import Ranker, Ranking

__all__ = [
    "DETECTOR_CLASSES",
    "DetectionQuery",
    "AuditSession",
    "detect_biased_groups",
    "run_queries",
]


class AuditSession:
    """A long-lived detection context over one (dataset, ranking) pair.

    Parameters
    ----------
    dataset:
        The relation under audit.
    ranking:
        Either a :class:`~repro.ranking.base.Ranking` of ``dataset`` or a
        :class:`~repro.ranking.base.Ranker` (ranked once, at construction).
    execution:
        Engine tunables and parallelism knobs shared by every query of the
        session; ``None`` means the documented defaults (serial, warm caches).
    counter:
        An existing counter to adopt instead of building a fresh one — e.g. a
        warm engine-backed counter from an earlier session, or the naive
        reference counter for parity runs.  Must have been built over the same
        dataset and ranking (validated cheaply via
        :meth:`~repro.data.dataset.Dataset.fingerprint`).
    store:
        The :class:`~repro.core.result_store.ResultStore` serving and receiving
        this session's finished covering sweeps.  ``None`` (the default) gives
        the session a private in-memory LRU
        (:class:`~repro.core.result_store.InMemoryResultStore` of
        ``result_cache_capacity`` entries).  Pass
        :func:`~repro.core.result_store.shared_result_store` to share sweeps
        across every session in the process, or a
        :class:`~repro.core.result_store.DiskResultStore` to persist them
        across processes — repeated audits of the same published ranking then
        start warm, including partial (frontier-extension) hits.  The session
        keys every entry by :meth:`~repro.ranking.base.Ranking.fingerprint`,
        which covers the dataset's fingerprint and the rank order, so a shared
        store never serves one dataset's or ranking's sweep to another.
    result_cache_capacity:
        Capacity of the private in-memory store created when ``store`` is not
        given; ``0`` disables cross-query result reuse (every plan step
        executes).  Ignored when an explicit ``store`` is passed.

    Use as a context manager, or call :meth:`close` explicitly to shut the worker
    pool down; :meth:`close` is idempotent and reports remain readable after it.

    **Recovery behaviour.** Worker faults inside a query are handled by the
    executor's supervisor (respawn + shard re-dispatch, bit-identical results);
    they surface only as ``worker_restarts`` / ``shard_retries`` /
    ``heartbeat_timeouts`` counters.  If a search exhausts its restart budget
    the session's circuit breaker opens: the interrupted query re-runs serially
    (``executor_reattach``), queries are served serially for
    ``ExecutionConfig.breaker_cooldown`` seconds (each counted in
    ``degraded_queries``, see :attr:`degraded`), and the first query after the
    cooldown probes a fresh pool (``executor_recoveries`` on success).
    ``ExecutionConfig.query_deadline`` bounds each query's wall clock on both
    paths; a timed-out query raises
    :class:`~repro.exceptions.QueryTimeoutError` with its partial stats and
    leaves the session fully usable.
    """

    def __init__(
        self,
        dataset: Dataset,
        ranking: Ranking | Ranker,
        execution: ExecutionConfig | None = None,
        counter: PatternCounter | None = None,
        store: ResultStore | None = None,
        result_cache_capacity: int = DEFAULT_RESULT_CACHE_CAPACITY,
    ) -> None:
        self._execution = execution if execution is not None else ExecutionConfig()
        if isinstance(ranking, Ranker):
            ranking = ranking.rank(dataset)
        if counter is None:
            counter = PatternCounter(dataset, ranking, **self._execution.counter_options())
        else:
            counter_dataset = counter.dataset
            if not (
                counter_dataset is dataset
                or (isinstance(counter_dataset, Dataset) and counter_dataset.same_data(dataset))
            ):
                raise DetectionError("the supplied counter was built over a different dataset")
            counter_ranking = counter.ranking
            if counter_ranking is not ranking and not np.array_equal(
                counter_ranking.order, ranking.order
            ):
                raise DetectionError("the supplied counter was built over a different ranking")
        self._dataset = dataset
        self._ranking = ranking
        self._counter = counter
        self._store = store if store is not None else InMemoryResultStore(
            capacity=result_cache_capacity
        )
        self._executor = None
        # Once the parallel path proved *unavailable* (restricted platform,
        # non-engine counter), stay serial for good: probing on every query
        # would turn a permanent condition into a per-query stall.
        self._parallel_unavailable = False
        # Circuit breaker: a fault that survived the executor's restart budget
        # opens the breaker until this monotonic timestamp.  While open, queries
        # are served serially (bit-identical) and counted as degraded; once the
        # cooldown expires the next eligible query probes a fresh executor.
        self._degraded_until: float | None = None
        # Executors created over the session's lifetime; doubles as the fault
        # harness's `generation` so injected faults can be pinned to one pool.
        self._executors_created = 0
        self._closed = False
        self._queries_run = 0
        # Sessions are single-caller: the warm engine attributes per-query stats
        # through snapshot deltas, so interleaved queries would silently corrupt
        # each other's counters.  The guard turns that misuse into a typed error
        # instead; concurrent serving layers (the service dispatcher) serialize
        # in front of the session and never trip it.
        self._serving = threading.Lock()

    # -- accessors --------------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def ranking(self) -> Ranking:
        return self._ranking

    @property
    def counter(self) -> PatternCounter:
        """The session's warm counting engine (shared by every query)."""
        return self._counter

    @property
    def execution(self) -> ExecutionConfig:
        return self._execution

    @property
    def queries_run(self) -> int:
        """Number of queries served so far."""
        return self._queries_run

    @property
    def result_cache(self) -> ResultStore:
        """The store serving this session's sweeps (private, shared or on-disk)."""
        return self._store

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def degraded(self) -> bool:
        """Whether the circuit breaker is open (serving serially after faults).

        Degradation is temporary: once ``ExecutionConfig.breaker_cooldown`` has
        elapsed, the next query that wants parallelism probes a fresh executor
        and — on success — clears this flag (``executor_recoveries`` on its
        stats).  A permanently serial session (no shared memory, naive counter)
        is *not* degraded; it reports ``parallel_fallback`` instead.
        """
        return self._degraded_until is not None

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("warm" if self._executor else "open")
        return (
            f"AuditSession(rows={self._dataset.n_rows}, "
            f"workers={self._execution.resolved_workers()}, "
            f"queries_run={self._queries_run}, state={state})"
        )

    # -- querying ---------------------------------------------------------------
    @contextmanager
    def _exclusive(self):
        """The single-caller guard around one serving call (see module docstring)."""
        if not self._serving.acquire(blocking=False):
            raise ConcurrentSessionUseError(
                "this AuditSession is already serving a query from another "
                "caller; sessions are single-caller — serialize access (the "
                "service dispatcher does) instead of sharing one session "
                "between threads"
            )
        try:
            yield
        finally:
            self._serving.release()

    def run(
        self, query: DetectionQuery, *, query_deadline: float | None = None
    ) -> DetectionReport:
        """Run one :class:`DetectionQuery` and return its :class:`DetectionReport`.

        Results are bit-identical to the one-shot
        :func:`~repro.core.detect_biased_groups` call with the same arguments;
        only the serving cost differs (warm caches, shared executor, and — when
        the session already ran a containing sweep — the result cache).  This is
        literally a one-query plan through :meth:`run_many`.
        """
        return self.run_many([query], query_deadline=query_deadline)[0]

    def run_many(
        self,
        queries: Iterable[DetectionQuery],
        *,
        query_deadline: float | None = None,
    ) -> list[DetectionReport]:
        """Plan and run a batch of queries; reports come back in input order.

        The batch goes through :func:`~repro.core.planner.plan_queries` first:
        exact repeats execute once, same-``(bound, tau_s, algorithm)`` queries
        with overlapping or nested k ranges execute as one covering k-sweep, and
        the surviving steps run in ascending ``tau_s`` order so the executor's
        per-``tau_s`` shard assignments and the engine's block caches are reused
        back-to-back.  Finished sweeps land in the session's
        :class:`~repro.core.result_store.ResultStore`; any step (now or in a later
        batch) whose range is contained in a cached sweep is answered by
        :meth:`~repro.core.result_set.DetectionResult.restrict_k` without
        touching the engine.  Every report is bit-identical to a cold
        per-query run; the serving provenance shows up on its stats as
        ``result_cache_hits`` / ``result_cache_misses`` /
        ``plan_merged_queries``.

        ``query_deadline`` overrides ``ExecutionConfig.query_deadline`` for this
        call only — the per-request budget a serving layer propagates into the
        session.  Each query of the batch gets the full budget (a deadline is
        per query, not per batch).  A tripped deadline raises
        :class:`~repro.exceptions.QueryTimeoutError` whose ``partial_reports``
        holds the completed prefix in input order (``None`` for unserved
        queries); the store retains exactly the sweeps of the completed steps.
        """
        if self._closed:
            raise DetectionError("the audit session has been closed")
        with self._exclusive():
            batch = list(queries)
            for query in batch:
                self._parameters_for(query).validate_for(self._dataset)
            fingerprint = self._ranking.fingerprint()
            plan = plan_queries(
                batch,
                coverage=lambda group_key: self._store.coverage(fingerprint, group_key),
            )
            reports: list[DetectionReport | None] = [None] * len(batch)
            try:
                for step in plan.steps:
                    self._run_step(plan, step, reports, query_deadline)
            except QueryTimeoutError as error:
                error.partial_reports = tuple(reports)
                raise
            self._queries_run += len(batch)
            return reports

    def run_detector(
        self, detector: Detector, *, query_deadline: float | None = None
    ) -> DetectionReport:
        """Run an arbitrary :class:`~repro.core.detector.Detector` instance.

        This is the escape hatch for detectors outside the query registry (e.g.
        :class:`~repro.core.upper_bounds.UpperBoundsDetector`, or a user-defined
        subclass): the detector's own problem parameters (bound, ``tau_s``, k
        range) are used, while the session supplies the warm counter and — when
        the detector runs full searches — the shared executor, so parallelism is
        governed by the *session's* :class:`ExecutionConfig`, not by whatever
        ``execution`` the detector was constructed with.  Arbitrary detectors
        have no canonical form, so this path bypasses the planner and the result
        cache.  The one-shot :meth:`Detector.detect` is implemented as a
        single-query session calling this method (it opens the session with the
        detector's own execution config, which is how the two stay consistent).
        """
        if self._closed:
            raise DetectionError("the audit session has been closed")
        with self._exclusive():
            detector.parameters.validate_for(self._dataset)
            outcome, stats = self._execute(detector, deadline_override=query_deadline)
            self._queries_run += 1
            return DetectionReport(
                detector.name, detector.parameters, outcome.result, stats, self._counter
            )

    # -- internals ---------------------------------------------------------------
    def _parameters_for(self, query: DetectionQuery) -> DetectionParameters:
        return DetectionParameters(
            bound=query.effective_bound(),
            tau_s=query.tau_s,
            k_min=query.k_min,
            k_max=query.k_max,
            execution=self._execution,
        )

    def _run_step(
        self,
        plan: QueryPlan,
        step: PlanStep,
        reports: list[DetectionReport | None],
        deadline_override: float | None = None,
    ) -> None:
        """Serve every query of one plan step: a containment hit from the store,
        a two-sided frontier extension of a cached sweep, or one real covering
        run."""
        store = self.result_cache
        fingerprint = self._ranking.fingerprint()
        covering = store.lookup(
            fingerprint, step.group_key, step.query.k_min, step.query.k_max
        )
        algorithm = DETECTOR_CLASSES[step.query.resolved_algorithm()].name
        served = list(step.serves)
        if covering is None:
            if isinstance(step, ExtendStep):
                covering, stats = self._extend_step(step, fingerprint, deadline_override)
            if covering is None:
                # Store miss: run the covering sweep once.  The primary query
                # (first of the step in batch order) carries the sweep's real
                # engine counters; everything else it serves is accounted as a
                # cache hit, so summing any engine counter over the batch's
                # reports still equals the work the engine actually performed.
                detector = step.query.build_detector(self._execution)
                outcome, stats = self._execute(
                    detector, deadline_override=deadline_override
                )
                covering = outcome.result
                store.insert(
                    fingerprint, step.group_key, step.query, covering, outcome.frontier
                )
                stats.result_cache_misses += 1
            stats.plan_merged_queries += len(step.serves) - 1
            primary = step.primary_index
            reports[primary] = self._assemble_report(
                plan.queries[primary], algorithm, covering, stats
            )
            served.remove(primary)
        for index in served:
            started = time.perf_counter()
            stats = SearchStats()
            stats.result_cache_hits += 1
            report = self._assemble_report(plan.queries[index], algorithm, covering, stats)
            report.stats.elapsed_seconds = time.perf_counter() - started
            reports[index] = report

    def _extend_step(
        self,
        step: ExtendStep,
        fingerprint: str,
        deadline_override: float | None = None,
    ) -> tuple[DetectionResult | None, SearchStats | None]:
        """Serve an :class:`~repro.core.planner.ExtendStep` by a two-sided k
        extension of a cached sweep.

        The missing k *suffix* (``entry.k_max < k_max``) resumes the cached
        :class:`~repro.core.top_down.SweepFrontier`; the missing *prefix*
        (``k_min < entry.k_min``) is a bounded cold sub-sweep over
        ``[k_min, entry.k_min - 1]``.  Every detector's per-k sets are independent
        of where its sweep started, so splicing the three pieces with
        :meth:`~repro.core.result_set.DetectionResult.merged_with` is
        bit-identical to one cold covering run.

        Returns ``(None, None)`` when the planned base is no longer usable (it
        was evicted since planning, needs a suffix but carries no frontier, or
        the detector cannot resume) — the caller then falls back to a full
        covering run, so a stale plan degrades in cost, never in correctness.
        On success the merged covering sweep replaces the base in the store
        under the widened range, and the step's primary stats carry the extension
        provenance (``result_cache_partial_hits``, ``extended_k_values``,
        ``prefix_extended_k_values``) alongside the real engine counters of
        both partial runs.
        """
        store = self.result_cache
        entry = store.extendable(
            fingerprint, step.group_key, step.query.k_min, step.query.k_max
        )
        if entry is None:
            return None, None
        needs_suffix = entry.k_max < step.query.k_max
        needs_prefix = step.query.k_min < entry.k_min
        if needs_suffix and entry.frontier is None:
            return None, None

        def _sub_query(k_min: int, k_max: int) -> DetectionQuery:
            return DetectionQuery(
                bound=step.query.bound,
                tau_s=step.query.tau_s,
                k_min=k_min,
                k_max=k_max,
                algorithm=step.query.resolved_algorithm(),
                beta=step.query.beta,
            )

        stats = None
        suffix_outcome = None
        if needs_suffix:
            detector = _sub_query(entry.k_max + 1, step.query.k_max).build_detector(
                self._execution
            )
            try:
                suffix_outcome, stats = self._execute(
                    detector,
                    resume_from=entry.frontier,
                    deadline_override=deadline_override,
                )
            except QueryTimeoutError:
                # The deadline is a property of the query, not of this serving
                # strategy: falling back to the (strictly more expensive) full
                # covering run would only bury the timeout, so it propagates.
                raise
            except DetectionError:
                # A frontier the detector refuses (wrong algorithm/k, a
                # defective entry from an out-of-process store) must degrade
                # the step to a full covering run, never fail the query.
                return None, None
        prefix_outcome = None
        if needs_prefix:
            detector = _sub_query(step.query.k_min, entry.k_min - 1).build_detector(
                self._execution
            )
            prefix_outcome, prefix_stats = self._execute(
                detector, deadline_override=deadline_override
            )
            stats = prefix_stats if stats is None else stats.absorb(prefix_stats)

        covering = entry.result
        if prefix_outcome is not None:
            covering = prefix_outcome.result.merged_with(covering)
        if suffix_outcome is not None:
            covering = covering.merged_with(suffix_outcome.result)
        # The widened sweep's frontier stays the latest-k one (suffix if run,
        # else the base's), so future suffix resumes still line up.
        frontier = suffix_outcome.frontier if suffix_outcome is not None else entry.frontier
        widened = _sub_query(
            min(entry.k_min, step.query.k_min), max(entry.k_max, step.query.k_max)
        )
        store.insert(fingerprint, step.group_key, widened, covering, frontier)
        stats.result_cache_partial_hits += 1
        stats.extended_k_values += max(0, step.query.k_max - entry.k_max)
        stats.prefix_extended_k_values += max(0, entry.k_min - step.query.k_min)
        return covering, stats

    def _assemble_report(
        self,
        query: DetectionQuery,
        algorithm: str,
        covering: DetectionResult,
        stats: SearchStats,
    ) -> DetectionReport:
        """A per-query report carved out of a (possibly wider) covering sweep."""
        result = covering
        if covering.k_values != tuple(range(query.k_min, query.k_max + 1)):
            result = covering.restrict_k(query.k_min, query.k_max)
        report = DetectionReport(
            algorithm, self._parameters_for(query), result, stats, self._counter
        )
        report.query = query
        return report

    def _execute(
        self, detector: Detector, resume_from=None, deadline_override: float | None = None
    ) -> tuple[SweepOutcome, SearchStats]:
        """Run ``detector`` over the warm counter (and executor) with fresh stats.

        ``resume_from`` carries a :class:`~repro.core.top_down.SweepFrontier`
        when the run extends a cached sweep instead of starting cold; the
        detector then computes only its (suffix) k range.  ``deadline_override``
        replaces ``ExecutionConfig.query_deadline`` for this run (a serving
        layer's per-request budget).
        """
        counter = self._counter
        stats = SearchStats()
        # A warm counter carries cumulative instrumentation; snapshot it so the
        # report only attributes this query's work.
        baseline = self._stats_baseline()
        # Executor startup (shared-memory publication, pool spawn) is part of what
        # the query that triggers it costs, so the clock starts before it.  The
        # query deadline starts with the clock and is *not* reset by a serial
        # re-run — a query has one wall-clock budget, however it is served.
        started = time.perf_counter()
        budget = (
            deadline_override
            if deadline_override is not None
            else self._execution.query_deadline
        )
        deadline = None
        if budget is not None:
            deadline = time.monotonic() + budget
        executor = self._ensure_executor(detector, stats)
        try:
            try:
                outcome = self._run_with(detector, stats, executor, resume_from, deadline)
            except ExecutorBrokenError:
                # One search burned through the restart budget: open the circuit
                # breaker, reattach to the serial in-process path and re-run this
                # query from scratch.  Fresh stats and a fresh engine baseline
                # keep the report's counters attributable to the (successful)
                # serial run; the wall clock keeps the original start so the
                # failed parallel attempt is honestly part of the elapsed time.
                # The lifecycle counters survive the reset: if this query created
                # the executor, the publish/spawn really happened and the
                # session-wide sums must still account for it.
                lifecycle = {
                    name: stats.extra[name]
                    for name in ("shm_publishes", "pool_spawns")
                    if name in stats.extra
                }
                # The fault counters also survive: the restarts and timeouts
                # the supervisor burned before giving up are this query's
                # story, not the serial rerun's.
                faults_seen = (
                    stats.worker_restarts,
                    stats.shard_retries,
                    stats.heartbeat_timeouts,
                )
                self._enter_degraded()
                stats = SearchStats()
                stats.extra.update(lifecycle)
                stats.worker_restarts, stats.shard_retries, stats.heartbeat_timeouts = faults_seen
                stats.bump("executor_reattach")
                stats.degraded_queries += 1
                baseline = self._stats_baseline()
                outcome = self._run_with(
                    detector, stats, None, resume_from, deadline
                )
        except QueryTimeoutError as error:
            # Attach the partial-progress stats (elapsed time and engine deltas
            # included) so callers can see how far the query got.  The executor
            # and the session stay healthy — a deadline is a per-query verdict,
            # not a fault.
            if isinstance(error.stats, SearchStats):
                stats = error.stats
            stats.elapsed_seconds = time.perf_counter() - started
            publish = getattr(counter, "publish_stats", None)
            if publish is not None:
                publish(stats, since=baseline)
            error.stats = stats
            raise
        stats.elapsed_seconds = time.perf_counter() - started
        publish = getattr(counter, "publish_stats", None)
        if publish is not None:
            publish(stats, since=baseline)
        return outcome, stats

    def _stats_baseline(self):
        snapshot = getattr(self._counter, "stats_snapshot", None)
        return snapshot() if snapshot is not None else None

    def _run_with(
        self,
        detector: Detector,
        stats: SearchStats,
        executor,
        resume_from=None,
        deadline: float | None = None,
    ) -> SweepOutcome:
        counter = self._counter
        if executor is not None:

            def search(bound, k, tau_s, run_stats, classification=True):
                return executor.search(
                    bound, k, tau_s, run_stats, classification, deadline=deadline
                )

        else:

            def search(bound, k, tau_s, run_stats, classification=True):
                # The in-process search always has the full state at hand;
                # `classification` only matters across process boundaries.  The
                # deadline is enforced between full searches — the serial loop
                # has no supervisor to interrupt one mid-expansion.
                if deadline is not None and time.monotonic() > deadline:
                    run_stats.query_deadline_exceeded += 1
                    raise QueryTimeoutError(
                        f"query deadline exceeded before the k={k} search",
                        stats=run_stats,
                    )
                return top_down_search(counter, bound, k, tau_s, run_stats)

        if resume_from is not None:
            return detector._resume(counter, stats, search, resume_from)
        return detector._sweep(counter, stats, search)

    def _ensure_executor(self, detector: Detector, stats: SearchStats):
        """The shared executor for this query, or ``None`` for the serial path.

        Created lazily on the first query that actually fans searches out
        (``detector.uses_search`` and more than one worker).  The creating query's
        stats record the lifecycle events — ``shm_publishes`` + ``pool_spawns``
        — so summing them over a session's reports counts the setup work the
        whole session performed, which is how the reuse guarantee is asserted
        and benchmarked.
        """
        if not detector.uses_search:
            return None
        if self._execution.resolved_workers() <= 1:
            return None
        if self._executor is not None:
            if self._executor.healthy:
                return self._executor
            self._enter_degraded()
        if self._parallel_unavailable:
            stats.bump("parallel_fallback")
            return None
        if self._degraded_until is not None:
            if time.monotonic() < self._degraded_until:
                # Breaker open: serve serially, count it, and wait the cooldown
                # out before spending another pool spawn on a probe.
                stats.degraded_queries += 1
                return None
            # Cooldown over — this query is the probe.  Success below closes the
            # breaker; a probe that cannot even build a pool downgrades to the
            # permanent fallback path.
        executor = create_search_executor(
            self._counter, self._execution, generation=self._executors_created
        )
        if executor is None:
            # Restricted platform or non-engine counter: record the fallback and
            # run the unchanged serial path — for this and every later query.
            self._parallel_unavailable = True
            stats.bump("parallel_fallback")
            return None
        self._executors_created += 1
        if self._degraded_until is not None:
            self._degraded_until = None
            stats.executor_recoveries += 1
        stats.bump("shm_publishes")
        stats.bump("pool_spawns")
        self._executor = executor
        return executor

    def _enter_degraded(self) -> None:
        """Open the circuit breaker: close the pool, serve serially for a while."""
        self._degraded_until = time.monotonic() + self._execution.breaker_cooldown
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down and release the shared-memory segment.

        Idempotent.  The session refuses new queries afterwards; already returned
        reports (and the warm counter) stay usable.
        """
        if self._closed:
            return
        self._closed = True
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "AuditSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def detect_biased_groups(
    dataset: Dataset,
    ranking: Ranking | Ranker,
    bound: BoundSpec,
    tau_s: int,
    k_min: int,
    k_max: int,
    algorithm: str = "auto",
    execution: ExecutionConfig | None = None,
) -> DetectionReport:
    """Detect the most general groups with biased (under-)representation.

    ``algorithm`` may be ``"auto"`` (GlobalBounds for pattern-independent bounds,
    PropBounds otherwise), ``"iter_td"``, ``"global_bounds"`` or ``"prop_bounds"``.
    ``execution`` carries the engine tunables and parallelism knobs (e.g.
    ``ExecutionConfig(workers=4)`` shards full searches over four processes).

    This is the one-shot convenience wrapper over a single-query
    :class:`AuditSession`; issuing several queries against the same ranked
    dataset is cheaper through an explicit session.
    """
    query = DetectionQuery(
        bound=bound, tau_s=tau_s, k_min=k_min, k_max=k_max, algorithm=algorithm
    )
    with AuditSession(dataset, ranking, execution=execution) as session:
        return session.run(query)


def run_queries(
    dataset: Dataset,
    ranking: Ranking | Ranker,
    queries: Sequence[DetectionQuery],
    execution: ExecutionConfig | None = None,
    store: ResultStore | None = None,
) -> list[DetectionReport]:
    """Run a batch of queries through one temporary :class:`AuditSession`.

    ``store`` optionally names a persistent
    :class:`~repro.core.result_store.ResultStore` (shared registry or on-disk)
    so even one-shot batches reuse — and contribute — cached sweeps.
    """
    with AuditSession(dataset, ranking, execution=execution, store=store) as session:
        return session.run_many(queries)


# Never called; kept only because perfbench/tracing.py wraps this module-level name.
def refine_sweep(*args, **kwargs) -> None:
    raise NotImplementedError("implication refinement is not part of the library")

"""Process-parallel sharded execution of the top-down lattice search.

The paper's search tree (Definition 4.1) makes the subtrees below the
single-attribute patterns pairwise disjoint, so one top-down search splits into
independent pieces with no coordination beyond a final dictionary union.  This
module exploits that:

1. The coordinator classifies the *root level* (children of the empty pattern)
   itself — one cheap sibling-block pass — and collects the expanded
   single-attribute roots.
2. :mod:`~repro.core.engine.sharding` balances the tau_s-surviving root children
   into one shard per worker by estimated subtree weight.  Root sizes do not
   depend on ``k``, so the assignment is computed once per run and every root
   pattern has a *home worker* for the run's lifetime.
3. Worker processes — each primed via a zero-copy
   :mod:`~repro.core.engine.shared` attachment of the ranked codes matrix and fed
   through its own task queue, so a shard never migrates between workers — drain
   their subtrees with the *unmodified* serial loop
   (:func:`repro.core.top_down.run_search`) on their own counting engines.
   Shard→worker affinity is what keeps the k-sweep fast path alive under
   parallelism: a worker re-counts exactly the sibling blocks it cached on the
   previous k, instead of rebuilding another worker's working set.
4. Shard states are unioned with :meth:`SearchState.merge`; most-general
   minimality is computed after the merge, so the classification — and therefore
   every detector's per-k result set — is bit-identical to a serial run.

Fault tolerance
---------------
The coordinator is a *supervisor*, not just a dispatcher.  Busy workers
heartbeat over their private result queues; while shards are outstanding the
coordinator watches for three fault signals — worker death (``is_alive()``
turning false), heartbeat loss (``ExecutionConfig.heartbeat_timeout``), and a
shard running past ``ExecutionConfig.shard_timeout``.  Any of them triggers
:meth:`ParallelSearchExecutor._recover_worker`: only the affected worker is
terminated and reaped, a replacement is spawned against the still-published
:class:`~repro.core.engine.shared.SharedDatasetView` (after a bounded
exponential backoff), and the worker's pending shard is re-dispatched.  Because
first-level subtrees are disjoint and shards merge through
``SearchState.merge``, re-executing a shard from scratch is bit-identical to
never having lost it.  Each worker owns a *private* result queue, so killing a
process mid-``put`` can only corrupt that worker's channel — the supervisor
discards the dead worker's queues wholesale on respawn and the other shards'
results are never at risk.  Restarts are budgeted per search
(``ExecutionConfig.max_worker_restarts``); exhausting the budget marks the
executor broken (:class:`~repro.exceptions.ExecutorBrokenError`) and the
session-level circuit breaker takes over.  An optional monotonic ``deadline``
per ``search()`` call aborts over-budget queries with
:class:`~repro.exceptions.QueryTimeoutError` carrying the partial stats.
Every recovery path is deterministically testable through
:class:`~repro.core.engine.faults.FaultPlan` (``ExecutionConfig.fault_plan``).

Bound specifications travel to workers by pickle; callable bound schedules must
therefore be picklable (module-level functions, not lambdas) when ``workers > 1``.

Serial execution (``workers == 1``) never touches this module's machinery: no
worker process is spawned and no shared-memory segment is created — see
:func:`create_search_executor` and the guard tests in
``tests/core/test_parallel_search.py``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.engine.counting import DEFAULT_CACHE_CAPACITY
from repro.core.engine.faults import (
    DROP_RESULT,
    FAULT_EXIT_CODE,
    HANG,
    KILL,
    STALL_HEARTBEATS,
    FaultInjector,
    FaultPlan,
)
from repro.core.engine.masks import DEFAULT_SPARSE_THRESHOLD
from repro.core.engine.shared import SharedDatasetHandle, SharedDatasetView, shared_memory_available
from repro.core.engine.sharding import estimate_subtree_weight, partition_weighted
from repro.core.pattern import EMPTY_PATTERN, Pattern
from repro.core.stats import SearchStats
from repro.exceptions import (
    ConfigurationError,
    DetectionError,
    ExecutorBrokenError,
    QueryTimeoutError,
)

_START_METHODS = (None, "fork", "spawn", "forkserver")


@dataclass(frozen=True)
class ExecutionConfig:
    """Engine tunables and parallelism knobs, threaded through the detector API.

    Attributes
    ----------
    workers:
        Number of search workers.  ``1`` (the default) runs fully in-process
        with zero parallel overhead; ``0`` means "one per available CPU" —
        resolved via ``len(os.sched_getaffinity(0))`` where the platform
        provides it (so a container or cgroup CPU mask is respected) and
        ``os.cpu_count()`` otherwise.  Values above 1 enable the sharded
        process pool of this module (falling back to serial when the platform
        cannot provide shared memory).
    backend:
        Sharded-search backend for ``workers > 1``.  Only ``"process"`` (the
        default, the shared-memory worker pool of this module) is accepted;
        any other value raises :class:`~repro.exceptions.ConfigurationError`.
    match_cache_capacity:
        Maximum number of cached pattern matches in each counting engine
        (default :data:`~repro.core.engine.counting.DEFAULT_CACHE_CAPACITY`,
        250 000 — beyond it the least recently used entries are evicted).
    block_cache_capacity:
        Maximum number of cached sibling blocks; ``None`` (default) mirrors
        ``match_cache_capacity``.
    sparse_threshold:
        Selectivity below which a cached match switches from a dense boolean mask
        to an ``int32`` position array (default
        :data:`~repro.core.engine.masks.DEFAULT_SPARSE_THRESHOLD`, 0.25).
    start_method:
        Multiprocessing start method for the worker processes; ``None`` picks
        ``fork`` where available (cheapest) and ``spawn`` otherwise.
    heartbeat_interval:
        Seconds between liveness pings a *busy* worker sends the supervisor.
        Idle workers stay silent, so a dormant session costs no IPC traffic.
    heartbeat_timeout:
        Seconds of heartbeat silence from a busy worker before the supervisor
        declares it hung and respawns it.  Must be >= ``heartbeat_interval``.
    shard_timeout:
        Optional wall-clock budget for one dispatched shard; exceeding it
        respawns the worker and re-dispatches the shard (covers lost result
        messages as well as runaway shards).  ``None`` (default) disables it —
        shard runtimes are data-dependent and a busy-but-heartbeating worker is
        healthy.
    query_deadline:
        Optional wall-clock budget (seconds) applied by the session to *each*
        query; exceeding it raises :class:`~repro.exceptions.QueryTimeoutError`
        with partial-progress stats attached.  Enforced on both the parallel
        and the serial path.  ``None`` (default) disables it.
    max_worker_restarts:
        Restart budget *per search*: how many worker respawns one ``search()``
        call may consume before the executor gives up and marks itself broken.
        A fault that a single respawn fixes never exhausts the budget no matter
        how many searches a sweep issues.
    retry_backoff:
        Base of the bounded exponential backoff between respawns (the n-th
        restart of one search sleeps ``min(2.0, retry_backoff * 2**(n-1))``
        seconds).  ``0`` disables the pause.
    breaker_cooldown:
        Session-level circuit-breaker cooldown: after the restart budget is
        exhausted, the session serves serially for this many seconds before
        probing a fresh executor (see :class:`repro.core.session.AuditSession`).
    fault_plan:
        Optional :class:`~repro.core.engine.faults.FaultPlan` for deterministic
        fault injection in tests.  ``None`` (the production value) injects
        nothing.
    """

    workers: int = 1
    backend: str = "process"
    match_cache_capacity: int = DEFAULT_CACHE_CAPACITY
    block_cache_capacity: int | None = None
    sparse_threshold: float = DEFAULT_SPARSE_THRESHOLD
    start_method: str | None = None
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 30.0
    shard_timeout: float | None = None
    query_deadline: float | None = None
    max_worker_restarts: int = 2
    retry_backoff: float = 0.1
    breaker_cooldown: float = 30.0
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ConfigurationError("workers must be >= 1, or 0 for one per CPU")
        if self.backend != "process":
            raise ConfigurationError(
                f"unknown backend {self.backend!r}: only 'process' is supported"
            )
        if self.match_cache_capacity < 0:
            raise ConfigurationError("match_cache_capacity must be non-negative")
        if self.block_cache_capacity is not None and self.block_cache_capacity < 0:
            raise ConfigurationError("block_cache_capacity must be non-negative")
        if self.sparse_threshold < 0:
            raise ConfigurationError("sparse_threshold must be non-negative")
        if self.start_method not in _START_METHODS:
            raise ConfigurationError(
                f"start_method must be one of {_START_METHODS[1:]} or None"
            )
        if self.heartbeat_interval <= 0:
            raise ConfigurationError("heartbeat_interval must be positive")
        if self.heartbeat_timeout < self.heartbeat_interval:
            raise ConfigurationError("heartbeat_timeout must be >= heartbeat_interval")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigurationError("shard_timeout must be positive (or None to disable)")
        if self.query_deadline is not None and self.query_deadline <= 0:
            raise ConfigurationError("query_deadline must be positive (or None to disable)")
        if self.max_worker_restarts < 0:
            raise ConfigurationError("max_worker_restarts must be non-negative")
        if self.retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be non-negative")
        if self.breaker_cooldown < 0:
            raise ConfigurationError("breaker_cooldown must be non-negative")

    def resolved_workers(self) -> int:
        """The effective worker count (``0`` resolves to the available CPUs).

        "Available" honours the scheduler's CPU affinity mask where the
        platform exposes it (``len(os.sched_getaffinity(0))`` — the honest
        number inside containers and cgroup CPU quotas), falling back to
        ``os.cpu_count()`` elsewhere.
        """
        if self.workers >= 1:
            return self.workers
        affinity = getattr(os, "sched_getaffinity", None)
        if affinity is not None:
            try:
                return max(1, len(affinity(0)))
            except OSError:  # pragma: no cover - platform without a readable mask
                pass
        return max(1, os.cpu_count() or 1)

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        available = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in available else "spawn"

    def counter_options(self) -> dict[str, object]:
        """Keyword arguments for :class:`~repro.core.pattern_graph.PatternCounter`."""
        return {
            "max_cached_masks": self.match_cache_capacity,
            "max_cached_blocks": self.block_cache_capacity,
            "sparse_threshold": self.sparse_threshold,
        }


def _build_worker_counter(handle: SharedDatasetHandle, config: ExecutionConfig):
    """Attach the shared dataset and build one worker's counting engine.

    The engine is built directly over the shared rank-ordered codes matrix
    (identity ranking), so no row of the dataset is copied into the worker.
    Returns ``(view, counter)``; the view must stay alive as long as the counter.
    """
    from repro.core.pattern_graph import PatternCounter
    from repro.data.dataset import Dataset
    from repro.ranking.base import Ranking

    # Worker processes share the owner's resource tracker on every POSIX start
    # method (the tracker fd is inherited by fork and passed through the spawn
    # launcher alike), so the attach-time re-registration is idempotent and the
    # owner's unlink is the single point of cleanup — no untracking here.
    view = handle.attach()
    # Going through the public Dataset/Ranking constructors re-validates the
    # shared matrix (one vectorised min/max scan per column) and the identity
    # permutation (one sort) — a deliberate one-time cost per worker, tens of
    # milliseconds even at 10^6 rows, that catches a torn or mis-published
    # segment before it can corrupt every count this worker ever returns.
    dataset = Dataset(handle.schema, view.ranked_codes)
    ranking = Ranking(dataset, np.arange(handle.n_rows, dtype=np.intp))
    counter = PatternCounter(
        dataset, ranking, ranked_codes=view.ranked_codes, **config.counter_options()
    )
    return view, counter


def _run_shard(counter, roots: list[Pattern], bound, k: int, tau_s: int, classification: bool):
    """Expand the subtrees of ``roots`` on ``counter`` and return the shard state.

    Returns ``(state, stats, engine_delta)`` where ``engine_delta`` is the change
    in the worker engine's counters during this shard (the coordinator aggregates
    them under ``worker_*`` keys on the run's :class:`SearchStats`).

    With ``classification=False`` the caller only needs the most general
    below-bound patterns, so the shard's ``below`` map is pre-filtered to its
    minimal elements and ``expanded``/``sizes`` are dropped before pickling.
    The filter is sound — a globally minimal pattern has no more-general
    below-bound ancestor anywhere, in particular not in its own shard — and it
    shrinks the IPC payload from the full lattice classification (potentially
    millions of entries per search of a k-sweep) to roughly the result-set size,
    while also computing the per-shard minimality in parallel.
    """
    from repro.core.result_set import minimal_patterns
    from repro.core.top_down import SearchState, run_search

    before = counter.stats_snapshot()
    state = SearchState()
    stats = SearchStats()
    run_search(counter, bound, k, tau_s, state, stats, deque(roots))
    after = counter.stats_snapshot()
    delta = {name: after[name] - before.get(name, 0) for name in after}
    if not classification:
        minimal = minimal_patterns(state.below)
        state = SearchState(below={pattern: state.below[pattern] for pattern in minimal})
    return state, stats, delta


def _worker_main(
    handle: SharedDatasetHandle,
    config: ExecutionConfig,
    worker_index: int,
    incarnation: int,
    generation: int,
    task_queue,
    result_queue,
) -> None:
    """Entry point of one dedicated shard worker.

    Announces readiness (or an initialisation error), then serves
    ``(epoch, shard_index, roots, bound, k, tau_s, classification)`` tuples from
    its private task queue until the ``None`` sentinel arrives.  Having one task
    queue per worker — as opposed to one shared pool queue — pins every shard to
    its home worker, which keeps that worker's block/match caches warm across an
    entire k sweep.  The epoch (the executor's search counter) and the shard
    index are echoed back with every result, so the coordinator can discard
    stragglers of an aborted earlier search and track which shards are still
    outstanding.

    While a task is being processed, a daemon thread puts ``("heartbeat", ...)``
    messages on the (equally private) result queue every
    ``config.heartbeat_interval`` seconds; the supervisor uses their absence to
    distinguish a hung worker from a slow one.  Idle workers do not heartbeat,
    so queues stay empty between searches.

    ``worker_index``/``incarnation``/``generation`` identify this process to the
    fault-injection harness (:mod:`repro.core.engine.faults`); with no
    ``config.fault_plan`` the injector never fires.
    """
    try:
        view, counter = _build_worker_counter(handle, config)
    except BaseException as exc:  # pragma: no cover - init failures are surfaced
        result_queue.put(("init_error", None, None, repr(exc)))
        return
    injector = FaultInjector(config.fault_plan, worker_index, incarnation, generation)
    busy = threading.Event()
    stop = threading.Event()
    # Heartbeat-silencing horizon (monotonic timestamp), shared with the
    # heartbeat thread; only fault injection ever moves it forward.
    silent_until = [0.0]

    def _heartbeat_loop() -> None:
        sequence = 0
        while not stop.wait(config.heartbeat_interval):
            if not busy.is_set() or time.monotonic() < silent_until[0]:
                continue
            try:
                result_queue.put(("heartbeat", None, None, sequence))
            except (OSError, ValueError):  # pragma: no cover - queue torn down
                return
            sequence += 1

    result_queue.put(("ready", None, None, incarnation))
    heartbeat = threading.Thread(target=_heartbeat_loop, daemon=True)
    heartbeat.start()
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            epoch, shard_index, roots, bound, k, tau_s, classification = task
            busy.set()
            try:
                action = injector.next_action()
                if action is not None:
                    if action.kind == KILL:
                        os._exit(FAULT_EXIT_CODE)
                    if action.kind in (HANG, STALL_HEARTBEATS):
                        silent_until[0] = time.monotonic() + action.seconds
                    if action.kind == HANG:
                        time.sleep(action.seconds)
                    if action.kind == DROP_RESULT:
                        continue
                try:
                    result = _run_shard(counter, roots, bound, k, tau_s, classification)
                    result_queue.put(("ok", epoch, shard_index, result))
                except BaseException:
                    import traceback

                    result_queue.put(("error", epoch, shard_index, traceback.format_exc()))
            finally:
                busy.clear()
    finally:
        stop.set()
        view.close()


class ParallelSearchExecutor:
    """Fans top-down searches out over dedicated, cache-affine worker processes.

    The executor's lifecycle is decoupled from any single search: the workers are
    keep-alive processes that serve ``search()`` calls until :meth:`close`, so one
    executor can back a whole :class:`~repro.core.session.AuditSession` — every
    query of the session routes its full searches through the same warm pool, and
    stats are per-call (each ``search()`` writes into the :class:`SearchStats`
    handed to it), so queries never bleed counters into each other.  One-shot
    detection runs simply create an executor, run one query's searches, and close
    it.  Root-subtree shard assignments are cached per ``tau_s``
    (:meth:`_shard_assignment`), which pins every root subtree to its home worker
    across queries, not just within one k sweep.

    The executor supervises its workers (see the module docstring): a worker
    that dies, stops heartbeating, or overruns ``shard_timeout`` is respawned
    against the still-published shared dataset and its pending shard is
    re-dispatched, bit-identically.  Only when one ``search()`` call burns
    through ``max_worker_restarts`` respawns does the executor mark itself
    *broken* (:class:`~repro.exceptions.ExecutorBrokenError`); every later
    ``search()`` refuses to run and the owner is expected to ``close()`` the
    executor and fall back to the serial in-process path.  ``close()`` is
    idempotent and the executor is a context manager.
    """

    #: Seconds between supervision rounds (queue drains + health checks) while
    #: waiting on shard results.
    _POLL_SECONDS = 0.05

    #: Handshake budget for a (re)spawned worker to attach and report ready.
    _START_TIMEOUT = 60.0

    #: Upper bound on one exponential-backoff pause between respawns.
    _BACKOFF_CAP = 2.0

    #: Grace period for a worker to exit after the sentinel / ``terminate()``.
    _SHUTDOWN_GRACE = 2.0

    #: Shard assignments are cached per tau_s for cross-query affinity; beyond
    #: this many distinct tau_s values the cache is reset (a tuning sweep over
    #: tau_s touches tens of values, not thousands — this is a leak guard, not a
    #: working-set bound).
    _MAX_CACHED_ASSIGNMENTS = 64

    def __init__(self, counter, config: ExecutionConfig, generation: int = 0) -> None:
        engine = counter.engine
        self._counter = counter
        self._config = config
        self._workers = config.resolved_workers()
        self._generation = generation
        self._closed = False
        self._broken = False
        # Monotone search counter: tasks and results carry it so that results of
        # a search that failed mid-collection (leaving stragglers in a worker's
        # queue) can never be merged into a later search.
        self._epoch = 0
        # Respawns consumed by the search currently in flight (the budget that
        # `max_worker_restarts` bounds); reset at every `search()` entry.
        self._search_restarts = 0
        # Home-shard assignment of the root patterns, keyed by tau_s (root sizes
        # are k-independent, so each tau_s is computed once per executor lifetime
        # and reused by every query that shares it).
        self._assignments: dict[int, dict[Pattern, int]] = {}
        self._view = SharedDatasetView.publish(
            engine.ranked_codes,
            np.ascontiguousarray(counter.ranking.order),
            counter.dataset.schema,
        )
        self._context = multiprocessing.get_context(config.resolved_start_method())
        self._handle = self._view.handle()
        self._processes: list = [None] * self._workers
        self._task_queues: list = [None] * self._workers
        self._result_queues: list = [None] * self._workers
        #: Per-worker respawn count — incarnation 0 is the original process.
        self._incarnations: list[int] = [0] * self._workers
        #: Monotonic timestamp of the last message (result or heartbeat) from
        #: each worker; refreshed at dispatch so silence is measured from the
        #: moment work was handed over.
        self._last_seen: list[float] = [0.0] * self._workers
        #: Monotonic dispatch timestamp of each worker's in-flight shard.
        self._dispatched_at: list[float] = [0.0] * self._workers
        try:
            for index in range(self._workers):
                self._spawn_worker(index)
            for index in range(self._workers):
                self._await_ready(index, self._START_TIMEOUT)
        except BaseException:
            self._shutdown()
            raise

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def healthy(self) -> bool:
        """Whether the executor can still serve searches (open, budget intact)."""
        return not self._closed and not self._broken

    # -- worker lifecycle --------------------------------------------------------
    def _spawn_worker(self, index: int) -> None:
        """Start (or restart) worker ``index`` with fresh private queues.

        Fresh queues on every respawn are a correctness requirement, not
        hygiene: terminating a process mid-``put`` can leave a partial pickle
        frame in its result pipe, and a task left in the old task queue would
        otherwise be double-executed by the replacement.
        """
        task_queue = self._context.Queue()
        result_queue = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(
                self._handle,
                self._config,
                index,
                self._incarnations[index],
                self._generation,
                task_queue,
                result_queue,
            ),
            daemon=True,
        )
        process.start()
        self._discard_worker_queues(index)
        self._task_queues[index] = task_queue
        self._result_queues[index] = result_queue
        self._processes[index] = process

    def _await_ready(self, index: int, timeout: float) -> None:
        """Block until worker ``index`` reports ready, or fail with DetectionError."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise DetectionError(
                    f"parallel search worker {index} did not report ready within {timeout:.0f}s"
                )
            try:
                kind, _, _, payload = self._result_queues[index].get(
                    timeout=min(self._POLL_SECONDS * 4, remaining)
                )
            except queue_module.Empty:
                if not self._processes[index].is_alive():
                    raise DetectionError(
                        f"parallel search worker failed to start: worker {index} died during startup"
                    ) from None
                continue
            if kind == "ready":
                self._last_seen[index] = time.monotonic()
                return
            if kind == "init_error":
                raise DetectionError(f"parallel search worker failed to start: {payload}")
            # Anything else (a heartbeat that outran the ready message) is noise.

    def _terminate_worker(self, index: int) -> None:
        """Reap worker ``index`` (alive or not) and tear down its queues."""
        process = self._processes[index]
        if process is not None:
            if process.is_alive():
                process.terminate()
                process.join(timeout=self._SHUTDOWN_GRACE)
                if process.is_alive():  # pragma: no cover - SIGTERM ignored
                    process.kill()
                    process.join(timeout=self._SHUTDOWN_GRACE)
            else:
                process.join(timeout=self._SHUTDOWN_GRACE)
        self._discard_worker_queues(index)
        self._processes[index] = None

    def _discard_worker_queues(self, index: int) -> None:
        for queues in (self._task_queues, self._result_queues):
            channel = queues[index]
            if channel is None:
                continue
            try:
                channel.cancel_join_thread()
                channel.close()
            except (OSError, ValueError):  # pragma: no cover - already torn down
                pass
            queues[index] = None

    def _recover_worker(self, index: int, stats: SearchStats, reason: str, redispatch=()) -> None:
        """Replace a faulted worker and re-dispatch its pending shard.

        Consumes one unit of the per-search restart budget per respawn attempt
        (including attempts whose replacement itself fails to start).  When the
        budget is exhausted the executor marks itself broken and raises
        :class:`ExecutorBrokenError` for the session circuit breaker to handle.
        """
        while True:
            self._search_restarts += 1
            if self._search_restarts > self._config.max_worker_restarts:
                self._broken = True
                raise ExecutorBrokenError(
                    f"parallel search worker {index} failed ({reason}) and the "
                    f"restart budget is exhausted "
                    f"(max_worker_restarts={self._config.max_worker_restarts})"
                )
            stats.worker_restarts += 1
            self._terminate_worker(index)
            if self._config.retry_backoff > 0:
                time.sleep(
                    min(
                        self._BACKOFF_CAP,
                        self._config.retry_backoff * (2 ** (self._search_restarts - 1)),
                    )
                )
            self._incarnations[index] += 1
            self._spawn_worker(index)
            try:
                self._await_ready(index, self._START_TIMEOUT)
                break
            except DetectionError:
                reason = "respawned worker failed to start"
        for task in redispatch:
            stats.shard_retries += 1
            self._dispatch(index, task)

    def _dispatch(self, index: int, task) -> None:
        self._task_queues[index].put(task)
        now = time.monotonic()
        self._dispatched_at[index] = now
        self._last_seen[index] = now

    # -- sharding ----------------------------------------------------------------
    def _shard_assignment(self, k: int, tau_s: int) -> dict[Pattern, int]:
        """Home worker of every tau_s-surviving root pattern (stable across k).

        Built from one root-level sibling-block pass: the survivors' sizes — and
        therefore their :func:`estimate_subtree_weight` — do not depend on ``k``,
        so the LPT partition is computed once per tau_s and each root subtree
        stays on the same worker for the executor's whole lifetime, no matter
        which subset of roots is expanded at a particular k — or by a particular
        query of a multi-query session.
        """
        assignment = self._assignments.get(tau_s)
        if assignment is None:
            counter = self._counter
            n_attributes = counter.dataset.n_attributes
            roots: list[Pattern] = []
            weights: list[int] = []
            for attribute_index, block in enumerate(counter.child_blocks(EMPTY_PATTERN, k)):
                for pattern, size, _ in block.entry.survivors_for(tau_s):
                    roots.append(pattern)
                    weights.append(
                        estimate_subtree_weight(size, attribute_index, n_attributes)
                    )
            shards = partition_weighted(weights, self._workers)
            assignment = {}
            for shard_index, shard in enumerate(shards):
                for root_index in shard:
                    assignment[roots[root_index]] = shard_index
            if len(self._assignments) >= self._MAX_CACHED_ASSIGNMENTS:
                self._assignments.clear()
            self._assignments[tau_s] = assignment
        return assignment

    # -- searching ---------------------------------------------------------------
    def search(
        self,
        bound,
        k: int,
        tau_s: int,
        stats: SearchStats | None = None,
        classification: bool = True,
        deadline: float | None = None,
    ):
        """Run one parallel Algorithm-1 search; bit-identical to the serial result.

        ``classification=True`` merges the complete shard states, so the returned
        :class:`SearchState` equals the serial one entry for entry (the
        incremental detectors resume from it).  ``classification=False`` is the
        sweep fast path for callers that only consume
        :meth:`SearchState.most_general` (IterTD): shards return their minimal
        below-bound patterns only, which leaves ``most_general()`` — and hence the
        result sets — unchanged while cutting the per-k IPC volume by orders of
        magnitude.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp (the session
        derives it from ``ExecutionConfig.query_deadline``); crossing it raises
        :class:`~repro.exceptions.QueryTimeoutError` with the partially
        accumulated ``stats`` attached.  The executor stays healthy afterwards —
        straggler results of the abandoned search are fenced off by the epoch.
        """
        from repro.core.top_down import (
            SearchState,
            constant_lower_bound,
            expand_parent,
        )

        if self._closed:
            raise DetectionError("the parallel search executor has been closed")
        if self._broken:
            raise ExecutorBrokenError(
                "the parallel search executor exhausted its restart budget; "
                "close it and rerun serially"
            )
        stats = stats if stats is not None else SearchStats()
        stats.full_searches += 1
        counter = self._counter
        dataset_size = counter.dataset_size
        state = SearchState()
        constant_lower = constant_lower_bound(bound, k, dataset_size)
        expanded_roots: list[Pattern] = []
        # Root pass in the coordinator: one sibling block per attribute.  Root
        # classification lands in `state` exactly as in the serial loop; only the
        # *expanded* roots (whose subtrees remain unexplored) are fanned out.
        expand_parent(
            counter, bound, k, tau_s, dataset_size, state, stats,
            EMPTY_PATTERN, constant_lower, expanded_roots.append,
        )
        if not expanded_roots:
            return state
        assignment = self._shard_assignment(k, tau_s)
        shard_roots: dict[int, list[Pattern]] = {}
        for root in expanded_roots:
            shard_roots.setdefault(assignment[root], []).append(root)
        self._epoch += 1
        self._search_restarts = 0
        # One pending task per home worker (shard index == worker index).
        pending: dict[int, tuple] = {
            shard_index: (self._epoch, shard_index, roots, bound, k, tau_s, classification)
            for shard_index, roots in shard_roots.items()
        }
        stats.bump("parallel_searches")
        stats.bump("parallel_shards", len(pending))
        for index, task in pending.items():
            process = self._processes[index]
            if process is None or not process.is_alive():
                # Died while idle between searches: replace it before handing
                # it work (costs restart budget, but never aborts the search).
                self._recover_worker(index, stats, reason="died while idle")
            self._dispatch(index, task)
        while pending:
            self._check_deadline(deadline, stats, pending)
            progressed = False
            for index in list(pending):
                for message in self._drain(index):
                    progressed = True
                    self._consume_message(index, message, pending, state, stats)
            if not pending:
                break
            if not progressed:
                self._check_worker_health(pending, state, stats)
                time.sleep(self._POLL_SECONDS)
        return state

    def _drain(self, index: int):
        """Yield every message currently queued by worker ``index`` (non-blocking)."""
        result_queue = self._result_queues[index]
        if result_queue is None:  # pragma: no cover - worker mid-respawn
            return
        while True:
            try:
                yield result_queue.get_nowait()
            except queue_module.Empty:
                return
            # A worker killed mid-`put` can leave a truncated frame in its
            # private pipe, and unpickling garbage raises essentially anything
            # (EOFError, OSError, UnpicklingError, arbitrary __setstate__
            # errors) — so the clause must stay broad.  Returning is the
            # handling: nothing after a torn frame is trustworthy, and the
            # health check will see the dead process and rebuild queue+worker.
            except Exception:  # repro-lint: disable=RL003 (pragma: no cover)
                return

    def _consume_message(self, index: int, message, pending: dict, state, stats: SearchStats) -> None:
        kind, message_epoch, shard_index, payload = message
        self._last_seen[index] = time.monotonic()
        if kind == "heartbeat":
            return
        if message_epoch != self._epoch:
            # Straggler of a search abandoned mid-collection (shard failure or
            # query deadline): never merged into the wrong search.
            return
        if kind == "ok":
            if shard_index not in pending:
                return
            del pending[shard_index]
            shard_state, shard_stats, engine_delta = payload
            state.merge(shard_state)
            stats.absorb(shard_stats)
            for name, value in engine_delta.items():
                if value:
                    stats.bump(f"worker_{name}", value)
            return
        if kind == "error":
            # The shard itself raised — a deterministic failure that a respawn
            # would only reproduce, so it is surfaced, not retried.
            raise DetectionError(f"parallel search shard failed:\n{payload}")
        # "ready"/"init_error" of a respawn are consumed by _await_ready; a
        # stray duplicate here is ignored.

    def _check_worker_health(self, pending: dict, state, stats: SearchStats) -> None:
        """Detect death / heartbeat loss / shard overrun and recover the worker."""
        now = time.monotonic()
        for index in list(pending):
            process = self._processes[index]
            if process is None or not process.is_alive():
                # Drain any result that made it into the pipe before death — a
                # completed shard must not be re-executed just because its
                # worker died on the way out.
                for message in self._drain(index):
                    self._consume_message(index, message, pending, state, stats)
                if index not in pending:
                    continue
                self._recover_worker(
                    index, stats, reason="worker process died", redispatch=(pending[index],)
                )
            elif now - self._last_seen[index] > self._config.heartbeat_timeout:
                stats.heartbeat_timeouts += 1
                self._recover_worker(
                    index, stats, reason="heartbeat timeout", redispatch=(pending[index],)
                )
            elif (
                self._config.shard_timeout is not None
                and now - self._dispatched_at[index] > self._config.shard_timeout
            ):
                self._recover_worker(
                    index, stats, reason="shard timeout", redispatch=(pending[index],)
                )

    def _check_deadline(self, deadline: float | None, stats: SearchStats, pending: dict) -> None:
        if deadline is not None and time.monotonic() > deadline:
            stats.query_deadline_exceeded += 1
            raise QueryTimeoutError(
                f"query deadline exceeded with {len(pending)} shard(s) still outstanding",
                stats=stats,
            )

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Shut the workers down and release the shared-memory segments."""
        if self._closed:
            return
        self._closed = True
        self._shutdown()

    def _shutdown(self) -> None:
        for task_queue in self._task_queues:
            if task_queue is None:
                continue
            try:
                task_queue.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue already gone
                pass
        for process in self._processes:
            if process is None:
                continue
            process.join(timeout=self._SHUTDOWN_GRACE)
            if process.is_alive():
                process.terminate()
                process.join(timeout=self._SHUTDOWN_GRACE)
        # The (reaped) process objects stay inspectable; only the channels go.
        for index in range(self._workers):
            self._discard_worker_queues(index)
        self._view.close()

    def __enter__(self) -> "ParallelSearchExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def create_search_executor(
    counter, config: ExecutionConfig, generation: int = 0
) -> ParallelSearchExecutor | None:
    """Build a :class:`ParallelSearchExecutor`, or ``None`` when serial is right.

    Returns ``None`` — and thereby routes the caller through the unchanged
    in-process path — when the configuration asks for a single worker, when the
    counter is not engine-backed (e.g. the naive reference path, which exists to
    measure the seed behaviour), or when the platform cannot provide shared
    memory: no ``multiprocessing.shared_memory``, a sandbox where allocating a
    segment fails with ``OSError``/``PermissionError``, or workers that cannot
    attach/start (surfaced as :class:`DetectionError` from the startup
    handshake — the executor's constructor cleans its processes and segments up
    before raising, so falling back is safe).

    ``generation`` numbers the executors a session creates over its lifetime
    (0 = the first pool, 1 = the circuit breaker's first probe, ...); it is
    only consumed by the fault-injection harness, which uses it to pin faults
    to a specific pool.
    """
    if config.resolved_workers() <= 1:
        return None
    if getattr(counter, "engine", None) is None:
        return None
    if not shared_memory_available():
        return None
    try:
        return ParallelSearchExecutor(counter, config, generation=generation)
    except (OSError, PermissionError, DetectionError):
        return None

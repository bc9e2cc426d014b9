"""Search statistics collected by the detection algorithms.

The paper's Section VI-B reports, besides wall-clock runtimes, the number of
patterns examined during the search and the percentage gain of the optimized
algorithms over the baseline.  :class:`SearchStats` records the quantities needed to
reproduce those numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace


@dataclass
class SearchStats:
    """Counters describing the work done by one detection run."""

    #: Number of pattern nodes generated (children created), summed over all k.
    nodes_generated: int = 0
    #: Number of pattern evaluations: a (pattern, k) pair whose top-k count was
    #: computed or updated.  This is the "patterns examined during the search"
    #: quantity behind the paper's gain percentages.
    nodes_evaluated: int = 0
    #: Number of dataset-size computations (``s_D(p)``) performed.
    size_computations: int = 0
    #: Number of full top-down searches started (IterTD does one per k).
    full_searches: int = 0
    #: Number of sibling blocks evaluated in one vectorised batch by the counting
    #: engine (one ``np.bincount`` instead of one Python call per child).
    batch_evaluations: int = 0
    #: Counting-engine cache hits (pattern matches + sibling blocks).
    cache_hits: int = 0
    #: Counting-engine cache misses (pattern matches + sibling blocks).
    cache_misses: int = 0
    #: Entries evicted from the counting-engine caches (LRU policy).
    cache_evictions: int = 0
    #: Pattern matches stored densely (boolean mask + cumulative counts).
    dense_masks: int = 0
    #: Pattern matches stored sparsely (int32 rank-position arrays).
    sparse_masks: int = 0
    #: Dense→sparse representation switches along parent/child chains.
    representation_switches: int = 0
    #: Session result-cache hits: this query was answered by slicing a cached
    #: covering k-sweep instead of running any search.
    result_cache_hits: int = 0
    #: Session result-cache misses: the query (or its covering plan step) had to
    #: execute a real sweep before the cache could serve it.
    result_cache_misses: int = 0
    #: Session result-store partial hits: the query's covering step was served by
    #: *extending* a cached sweep's frontier over the uncovered k suffix instead
    #: of re-running the whole covering range.
    result_cache_partial_hits: int = 0
    #: Number of k values computed via frontier extension (the suffix lengths of
    #: all partial hits attributed to this query's stats).
    extended_k_values: int = 0
    #: Number of k values computed by a bounded *prefix* re-run spliced below a
    #: cached sweep's ``k_min`` (the downward analogue of ``extended_k_values``).
    prefix_extended_k_values: int = 0
    #: Queries the planner folded into this run's covering k-sweep beyond the one
    #: reported here (exact duplicates plus merged overlapping/nested k-ranges).
    plan_merged_queries: int = 0
    #: Worker processes respawned by the executor's supervisor (death, heartbeat
    #: loss, or shard timeout) during this run.
    worker_restarts: int = 0
    #: Shard tasks re-dispatched to a respawned worker after a fault.
    shard_retries: int = 0
    #: Faults detected because a busy worker stopped heartbeating (as opposed to
    #: its process dying outright).
    heartbeat_timeouts: int = 0
    #: Queries aborted by ``ExecutionConfig.query_deadline`` (raises
    #: :class:`repro.exceptions.QueryTimeoutError`).
    query_deadline_exceeded: int = 0
    #: Queries served serially because the session's circuit breaker was open
    #: (parallel service degraded after exhausting the restart budget).
    degraded_queries: int = 0
    #: Successful circuit-breaker probes: a degraded session restored a healthy
    #: parallel executor after its cooldown.
    executor_recoveries: int = 0
    #: Wall-clock seconds the request that carried this query waited in a
    #: serving layer's admission queue before its queries ran (stamped by the
    #: service dispatcher; always 0 for direct session use).
    queue_wait_seconds: float = 0.0
    #: Wall-clock seconds, filled in by the experiment harness when timing runs.
    elapsed_seconds: float = 0.0
    #: Free-form counters for algorithm-specific events (e.g. k-tilde reschedules).
    extra: dict[str, int] = field(default_factory=dict)

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment the free-form counter ``name``."""
        self.extra[name] = self.extra.get(name, 0) + amount

    def copy(self) -> "SearchStats":
        """An independent copy (the ``extra`` dict is duplicated, not shared)."""
        return replace(self, extra=dict(self.extra))

    def absorb(self, other: "SearchStats") -> "SearchStats":
        """Fold the counters of ``other`` into this instance in place and return it.

        This is the accumulation primitive of the parallel executor: every shard
        returns its own :class:`SearchStats`, and the coordinator absorbs them into
        the run's stats so the merged totals equal a serial run's counters.  Every
        dataclass field except ``extra`` is summed by reflection, so counters added
        in the future participate in parallel-run merges automatically.
        """
        for spec in fields(self):
            if spec.name == "extra":
                continue
            setattr(self, spec.name, getattr(self, spec.name) + getattr(other, spec.name))
        for name, value in other.extra.items():
            self.extra[name] = self.extra.get(name, 0) + value
        return self

    def merge(self, other: "SearchStats") -> "SearchStats":
        """Return a new :class:`SearchStats` with the counters of both runs summed."""
        return self.copy().absorb(other)

    def as_dict(self) -> dict[str, float]:
        """Flatten the statistics into a plain dictionary (used by the reporters)."""
        flat: dict[str, float] = {
            "nodes_generated": self.nodes_generated,
            "nodes_evaluated": self.nodes_evaluated,
            "size_computations": self.size_computations,
            "full_searches": self.full_searches,
            "batch_evaluations": self.batch_evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "dense_masks": self.dense_masks,
            "sparse_masks": self.sparse_masks,
            "representation_switches": self.representation_switches,
            "result_cache_hits": self.result_cache_hits,
            "result_cache_misses": self.result_cache_misses,
            "result_cache_partial_hits": self.result_cache_partial_hits,
            "extended_k_values": self.extended_k_values,
            "prefix_extended_k_values": self.prefix_extended_k_values,
            "plan_merged_queries": self.plan_merged_queries,
            "worker_restarts": self.worker_restarts,
            "shard_retries": self.shard_retries,
            "heartbeat_timeouts": self.heartbeat_timeouts,
            "query_deadline_exceeded": self.query_deadline_exceeded,
            "degraded_queries": self.degraded_queries,
            "executor_recoveries": self.executor_recoveries,
            "queue_wait_seconds": self.queue_wait_seconds,
            "elapsed_seconds": self.elapsed_seconds,
        }
        flat.update(self.extra)
        return flat


def examined_gain(baseline: SearchStats, optimized: SearchStats) -> float:
    """Percentage reduction in evaluated patterns of ``optimized`` vs ``baseline``.

    This is the quantity the paper reports as e.g. "the observed gain was up to
    39.35% in the COMPAS dataset".
    """
    if baseline.nodes_evaluated == 0:
        return 0.0
    saved = baseline.nodes_evaluated - optimized.nodes_evaluated
    return 100.0 * saved / baseline.nodes_evaluated

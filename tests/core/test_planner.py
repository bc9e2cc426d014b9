"""Tests for the query planner, the result cache and planner-served sessions.

The contract under test, in order of importance:

* **bit-identity** — a planner-served ``run_many`` batch (duplicates, nested and
  overlapping k ranges, shared ``tau_s``) returns exactly what a fresh cold
  per-query loop returns, for all three algorithms, serial and ``workers=2``,
  including on randomized query mixes;
* **strictly less work** — the acceptance criterion: a 12-query mixed batch
  performs strictly fewer root searches and engine batch evaluations than the
  per-query loop, and evaluates no more nodes;
* **planning** — canonicalization (auto resolution, structural bound equality),
  exact-repeat dedupe, overlap/nest/adjacency merging (and *no* merging across
  gaps, bounds, ``tau_s`` or algorithms), deterministic ``tau_s`` step order;
* **result cache** — containment hits, subsumption on insert, LRU eviction,
  fingerprint keying, stats accounting on served reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bounds import (
    BoundSpec,
    GlobalBoundSpec,
    ProportionalBoundSpec,
    step_lower_bounds,
)
from repro.core.engine.parallel import ExecutionConfig
from repro.core.planner import (
    DetectionQuery,
    ExtendStep,
    bound_key,
    canonical_query_key,
    plan_queries,
    query_group_key,
)
from repro.core.result_set import DetectionResult
from repro.core.result_store import InMemoryResultStore
from repro.core.top_down import SweepFrontier
from repro.core.session import AuditSession, detect_biased_groups
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.ranking.base import PrecomputedRanker


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


STEP = GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 1.0, 10: 3.0, 30: 6.0}))
FLAT = GlobalBoundSpec(lower_bounds=2.0)
PROP = ProportionalBoundSpec(alpha=0.9)


def _cold_loop(dataset, ranking, queries, execution=None):
    """The reference: one isolated one-shot call per query, in order."""
    return [
        detect_biased_groups(
            dataset, ranking, q.bound, q.tau_s, q.k_min, q.k_max,
            algorithm=q.algorithm, execution=execution,
        )
        for q in queries
    ]


def _assert_reports_bit_identical(planned, cold, queries):
    assert len(planned) == len(cold) == len(queries)
    for query, warm_report, cold_report in zip(queries, planned, cold):
        assert warm_report.result == cold_report.result
        assert warm_report.query is query
        assert warm_report.algorithm == cold_report.algorithm
        assert warm_report.parameters.k_min == query.k_min
        assert warm_report.parameters.k_max == query.k_max
        assert warm_report.parameters.tau_s == query.tau_s
        assert tuple(warm_report.result.k_values) == tuple(
            range(query.k_min, query.k_max + 1)
        )


# -- canonicalization -----------------------------------------------------------------
class TestCanonicalization:
    def test_structurally_equal_bounds_share_keys(self):
        assert bound_key(GlobalBoundSpec(lower_bounds=2.0)) == bound_key(
            GlobalBoundSpec(lower_bounds=2.0)
        )
        assert bound_key(ProportionalBoundSpec(alpha=0.8)) == bound_key(
            ProportionalBoundSpec(alpha=0.8)
        )
        schedule = {10: 10.0, 20: 20.0}
        assert bound_key(GlobalBoundSpec(lower_bounds=dict(schedule))) == bound_key(
            GlobalBoundSpec(lower_bounds=dict(schedule))
        )

    def test_different_bounds_have_different_keys(self):
        assert bound_key(GlobalBoundSpec(lower_bounds=2.0)) != bound_key(
            GlobalBoundSpec(lower_bounds=3.0)
        )
        assert bound_key(ProportionalBoundSpec(alpha=0.8)) != bound_key(
            ProportionalBoundSpec(alpha=0.9)
        )
        assert bound_key(FLAT) != bound_key(PROP)

    def test_callable_and_custom_bounds_key_by_identity(self):
        lower = lambda k: float(k)  # noqa: E731
        same = GlobalBoundSpec(lower_bounds=lower)
        also_same = GlobalBoundSpec(lower_bounds=lower)
        other = GlobalBoundSpec(lower_bounds=lambda k: float(k))
        assert bound_key(same) == bound_key(also_same)
        assert bound_key(same) != bound_key(other)

        class CustomBound(BoundSpec):
            def lower(self, k, size_in_data, dataset_size):
                return 1.0

        custom = CustomBound()
        assert bound_key(custom) == bound_key(custom)
        assert bound_key(custom) != bound_key(CustomBound())

    def test_auto_and_explicit_algorithm_dedupe(self):
        auto = DetectionQuery(FLAT, 2, 2, 20)
        explicit = DetectionQuery(FLAT, 2, 2, 20, "global_bounds")
        assert canonical_query_key(auto) == canonical_query_key(explicit)
        baseline = DetectionQuery(FLAT, 2, 2, 20, "iter_td")
        assert canonical_query_key(auto) != canonical_query_key(baseline)

    def test_group_key_ignores_k_range_only(self):
        a = DetectionQuery(FLAT, 2, 2, 20)
        b = DetectionQuery(FLAT, 2, 5, 40)
        assert query_group_key(a) == query_group_key(b)
        assert canonical_query_key(a) != canonical_query_key(b)
        assert query_group_key(a) != query_group_key(DetectionQuery(FLAT, 3, 2, 20))


# -- planning -------------------------------------------------------------------------
class TestPlanQueries:
    def test_exact_duplicates_collapse_into_one_step(self):
        queries = [DetectionQuery(FLAT, 2, 2, 20)] * 3
        plan = plan_queries(queries)
        assert plan.n_steps == 1
        assert plan.steps[0].serves == (0, 1, 2)
        assert plan.deduped_queries == 2
        assert plan.merged_ranges == 0

    def test_overlapping_and_nested_ranges_merge(self):
        queries = [
            DetectionQuery(FLAT, 2, 2, 20),
            DetectionQuery(FLAT, 2, 10, 40),  # overlaps
            DetectionQuery(FLAT, 2, 5, 15),   # nested
        ]
        plan = plan_queries(queries)
        assert plan.n_steps == 1
        step = plan.steps[0]
        assert (step.query.k_min, step.query.k_max) == (2, 40)
        assert step.serves == (0, 1, 2)
        assert plan.merged_ranges == 2

    def test_adjacent_ranges_merge_but_gaps_do_not(self):
        adjacent = plan_queries([
            DetectionQuery(FLAT, 2, 2, 20),
            DetectionQuery(FLAT, 2, 21, 40),
        ])
        assert adjacent.n_steps == 1
        assert (adjacent.steps[0].query.k_min, adjacent.steps[0].query.k_max) == (2, 40)

        gapped = plan_queries([
            DetectionQuery(FLAT, 2, 2, 20),
            DetectionQuery(FLAT, 2, 30, 40),
        ])
        assert gapped.n_steps == 2
        # A step never computes a k no input asked for.
        ranges = sorted((s.query.k_min, s.query.k_max) for s in gapped.steps)
        assert ranges == [(2, 20), (30, 40)]

    def test_no_merge_across_bound_tau_or_algorithm(self):
        queries = [
            DetectionQuery(FLAT, 2, 2, 20),
            DetectionQuery(GlobalBoundSpec(lower_bounds=3.0), 2, 2, 20),  # other bound
            DetectionQuery(FLAT, 3, 2, 20),                                # other tau_s
            DetectionQuery(FLAT, 2, 2, 20, "iter_td"),                     # other algorithm
        ]
        plan = plan_queries(queries)
        assert plan.n_steps == 4
        assert plan.deduped_queries == 0 and plan.merged_ranges == 0

    def test_steps_ordered_by_tau_s_then_first_appearance(self):
        queries = [
            DetectionQuery(FLAT, 5, 2, 20),
            DetectionQuery(PROP, 2, 2, 20),
            DetectionQuery(STEP, 5, 2, 20, "iter_td"),
            DetectionQuery(FLAT, 2, 2, 20),
        ]
        plan = plan_queries(queries)
        assert [s.query.tau_s for s in plan.steps] == [2, 2, 5, 5]
        # Ties broken by first appearance in the batch.
        assert [s.primary_index for s in plan.steps] == [1, 3, 0, 2]

    def test_every_index_served_exactly_once(self):
        queries = [
            DetectionQuery(FLAT, 2, 2, 20),
            DetectionQuery(FLAT, 2, 2, 20),
            DetectionQuery(PROP, 4, 5, 30),
            DetectionQuery(FLAT, 2, 10, 25),
            DetectionQuery(STEP, 2, 2, 40, "iter_td"),
        ]
        plan = plan_queries(queries)
        served = sorted(index for step in plan.steps for index in step.serves)
        assert served == list(range(len(queries)))
        assert sorted(plan.step_of) == list(range(len(queries)))

    def test_empty_batch(self):
        plan = plan_queries([])
        assert plan.n_steps == 0 and plan.n_queries == 0

    def test_describe_mentions_savings(self):
        plan = plan_queries([DetectionQuery(FLAT, 2, 2, 20)] * 2)
        text = plan.describe()
        assert "2 queries -> 1 steps" in text and "1 deduped" in text


# -- partial-hit (extension) planning -------------------------------------------------
class TestExtendPlanning:
    GROUP = query_group_key(DetectionQuery(FLAT, 2, 2, 20))

    @staticmethod
    def _coverage(ranges_by_group):
        return lambda group_key: ranges_by_group.get(group_key, ())

    def test_partial_overlap_plans_an_extend_step(self):
        coverage = self._coverage({self.GROUP: [(2, 20)]})
        plan = plan_queries([DetectionQuery(FLAT, 2, 5, 40)], coverage=coverage)
        assert plan.n_steps == 1
        step = plan.steps[0]
        assert isinstance(step, ExtendStep)
        assert (step.base_k_min, step.base_k_max) == (2, 20)
        assert step.suffix_k_values == 20
        assert plan.extension_steps == 1
        assert "extends cached [2, 20]" in plan.describe()

    def test_adjacent_cached_range_extends_but_gap_does_not(self):
        adjacent = plan_queries(
            [DetectionQuery(FLAT, 2, 21, 40)],
            coverage=self._coverage({self.GROUP: [(2, 20)]}),
        )
        assert isinstance(adjacent.steps[0], ExtendStep)
        gapped = plan_queries(
            [DetectionQuery(FLAT, 2, 25, 40)],
            coverage=self._coverage({self.GROUP: [(2, 20)]}),
        )
        assert not isinstance(gapped.steps[0], ExtendStep)

    def test_contained_range_is_not_planned_as_extension(self):
        # A cached sweep that already contains the step is a containment hit at
        # execution time; planning an extension would be wasted work.
        plan = plan_queries(
            [DetectionQuery(FLAT, 2, 5, 15)],
            coverage=self._coverage({self.GROUP: [(2, 20)]}),
        )
        assert not isinstance(plan.steps[0], ExtendStep)

    def test_cached_range_starting_too_late_extends_two_sided(self):
        # A base starting past the asked k_min still seeds a two-sided
        # extension: the prefix is a bounded cold re-run, the suffix a
        # frontier resume.
        plan = plan_queries(
            [DetectionQuery(FLAT, 2, 2, 40)],
            coverage=self._coverage({self.GROUP: [(5, 20)]}),
        )
        step = plan.steps[0]
        assert isinstance(step, ExtendStep)
        assert (step.base_k_min, step.base_k_max) == (5, 20)
        assert step.prefix_k_values == 3
        assert step.suffix_k_values == 20

    def test_prefix_adjacent_base_does_not_extend(self):
        # A prefix-side base must actually overlap the asked range — otherwise
        # the bounded re-run would recompute everything the query asks for.
        plan = plan_queries(
            [DetectionQuery(FLAT, 2, 2, 20)],
            coverage=self._coverage({self.GROUP: [(21, 40)]}),
        )
        assert not isinstance(plan.steps[0], ExtendStep)

    def test_latest_ending_base_wins(self):
        plan = plan_queries(
            [DetectionQuery(FLAT, 2, 2, 40)],
            coverage=self._coverage({self.GROUP: [(2, 10), (2, 25), (2, 18)]}),
        )
        step = plan.steps[0]
        assert isinstance(step, ExtendStep) and step.base_k_max == 25

    def test_merged_ranges_extend_as_one_step(self):
        coverage = self._coverage({self.GROUP: [(2, 20)]})
        plan = plan_queries(
            [DetectionQuery(FLAT, 2, 5, 30), DetectionQuery(FLAT, 2, 25, 45)],
            coverage=coverage,
        )
        assert plan.n_steps == 1
        step = plan.steps[0]
        assert isinstance(step, ExtendStep)
        assert (step.query.k_min, step.query.k_max) == (5, 45)
        assert step.serves == (0, 1)


# -- upper-bound queries through the planner ------------------------------------------
class TestUpperBoundQueries:
    def test_beta_levels_group_and_dedupe(self):
        base = ProportionalBoundSpec(alpha=0.9)
        q_a = DetectionQuery(base, 2, 2, 20, "upper_bounds", beta=1.8)
        q_b = DetectionQuery(ProportionalBoundSpec(alpha=0.9), 2, 2, 20, "upper_bounds", beta=1.8)
        q_c = DetectionQuery(base, 2, 2, 20, "upper_bounds", beta=2.5)
        assert canonical_query_key(q_a) == canonical_query_key(q_b)
        assert canonical_query_key(q_a) != canonical_query_key(q_c)
        plan = plan_queries([q_a, q_b, q_c])
        assert plan.n_steps == 2 and plan.deduped_queries == 1

    def test_beta_field_equals_baked_in_level(self):
        # The canonical form (beta on the query) and an ad-hoc bound object with
        # the level baked in describe the same audit, so they share a group.
        via_beta = DetectionQuery(ProportionalBoundSpec(alpha=0.9), 2, 2, 20,
                                  "upper_bounds", beta=1.8)
        baked_in = DetectionQuery(ProportionalBoundSpec(alpha=0.9, beta=1.8), 2, 2, 20,
                                  "upper_bounds")
        assert canonical_query_key(via_beta) == canonical_query_key(baked_in)

    def test_upper_bound_k_ranges_merge(self):
        bound = ProportionalBoundSpec(alpha=0.9)
        plan = plan_queries([
            DetectionQuery(bound, 2, 2, 20, "upper_bounds", beta=1.8),
            DetectionQuery(bound, 2, 10, 35, "upper_bounds", beta=1.8),
        ])
        assert plan.n_steps == 1
        assert (plan.steps[0].query.k_min, plan.steps[0].query.k_max) == (2, 35)

    def test_upper_bounds_query_requires_an_upper_level(self):
        with pytest.raises(ValueError):
            DetectionQuery(ProportionalBoundSpec(alpha=0.9), 2, 2, 20, "upper_bounds")
        with pytest.raises(ValueError):
            DetectionQuery(GlobalBoundSpec(lower_bounds=2.0), 2, 2, 20, "upper_bounds")

    def test_auto_never_resolves_to_upper_bounds(self):
        query = DetectionQuery(ProportionalBoundSpec(alpha=0.9, beta=1.8), 2, 2, 20)
        assert query.resolved_algorithm() == "prop_bounds"


# -- the result store (in-memory LRU backend) -----------------------------------------
class TestResultCache:
    KEY = query_group_key(DetectionQuery(FLAT, 2, 2, 20))
    FP = "fp"

    @staticmethod
    def _result(k_min: int, k_max: int) -> DetectionResult:
        return DetectionResult({k: frozenset() for k in range(k_min, k_max + 1)})

    def test_containment_hit_and_miss(self):
        cache = InMemoryResultStore()
        assert cache.lookup(self.FP, self.KEY, 2, 20) is None
        cache.insert(self.FP, self.KEY, DetectionQuery(FLAT, 2, 2, 20), self._result(2, 20))
        assert cache.lookup(self.FP, self.KEY, 2, 20) is not None     # exact
        assert cache.lookup(self.FP, self.KEY, 5, 15) is not None     # nested
        assert cache.lookup(self.FP, self.KEY, 2, 21) is None         # wider
        assert cache.lookup(self.FP, ("other",), 2, 20) is None       # other group
        assert cache.lookup("other-fp", self.KEY, 2, 20) is None      # other dataset
        assert cache.hits == 2 and cache.misses == 4
        assert cache.insertions == 1

    def test_wider_insert_subsumes_narrower_entries(self):
        cache = InMemoryResultStore()
        cache.insert(self.FP, self.KEY, DetectionQuery(FLAT, 2, 5, 15), self._result(5, 15))
        cache.insert(self.FP, self.KEY, DetectionQuery(FLAT, 2, 2, 20), self._result(2, 20))
        assert len(cache) == 1
        assert cache.lookup(self.FP, self.KEY, 5, 15).covers(2, 20)

    def test_lru_eviction(self):
        cache = InMemoryResultStore(capacity=2)
        other = query_group_key(DetectionQuery(FLAT, 3, 2, 20))
        third = query_group_key(DetectionQuery(FLAT, 4, 2, 20))
        cache.insert(self.FP, self.KEY, DetectionQuery(FLAT, 2, 2, 20), self._result(2, 20))
        cache.insert(self.FP, other, DetectionQuery(FLAT, 3, 2, 20), self._result(2, 20))
        assert cache.lookup(self.FP, self.KEY, 2, 20) is not None  # refresh the first
        cache.insert(self.FP, third, DetectionQuery(FLAT, 4, 2, 20), self._result(2, 20))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup(self.FP, other, 2, 20) is None         # the LRU entry went
        assert cache.lookup(self.FP, self.KEY, 2, 20) is not None  # the refreshed stayed

    def test_capacity_zero_disables_storage(self):
        cache = InMemoryResultStore(capacity=0)
        cache.insert(self.FP, self.KEY, DetectionQuery(FLAT, 2, 2, 20), self._result(2, 20))
        assert len(cache) == 0
        assert cache.lookup(self.FP, self.KEY, 2, 20) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            InMemoryResultStore(capacity=-1)

    def test_extendable_prefers_latest_ending_frontier_base(self):
        cache = InMemoryResultStore()
        short = DetectionQuery(FLAT, 2, 2, 10)
        longer = DetectionQuery(FLAT, 2, 2, 20)
        frontier = SweepFrontier(algorithm="global_bounds", k=10)
        cache.insert(self.FP, self.KEY, short, self._result(2, 10), frontier)
        cache.insert(
            self.FP, ("other",), DetectionQuery(FLAT, 3, 2, 30), self._result(2, 30),
            SweepFrontier(algorithm="global_bounds", k=30),
        )
        entry = cache.extendable(self.FP, self.KEY, 2, 40)
        assert entry is not None and entry.k_max == 10
        assert cache.partial_hits == 1
        wider_frontier = SweepFrontier(algorithm="global_bounds", k=20)
        cache.insert(self.FP, self.KEY, longer, self._result(2, 20), wider_frontier)
        entry = cache.extendable(self.FP, self.KEY, 2, 40)
        assert entry is not None and entry.k_max == 20
        # No base qualifies when the asked range starts past the cached end + 1
        # (a gap would be bridged) or is already contained.
        assert cache.extendable(self.FP, self.KEY, 25, 40) is None
        assert cache.extendable(self.FP, self.KEY, 5, 15) is None

    def test_frontierless_entries_never_offered_for_extension(self):
        cache = InMemoryResultStore()
        cache.insert(self.FP, self.KEY, DetectionQuery(FLAT, 2, 2, 10), self._result(2, 10))
        assert cache.extendable(self.FP, self.KEY, 2, 40) is None
        assert cache.coverage(self.FP, self.KEY) == ()


# -- planner-served sessions ----------------------------------------------------------
def _acceptance_batch(k_max: int) -> list[DetectionQuery]:
    """The 12-query mixed batch of the acceptance criterion: exact duplicates,
    nested and overlapping k ranges, shared tau_s across bounds."""
    return [
        DetectionQuery(STEP, 2, 2, k_max, algorithm="iter_td"),
        DetectionQuery(STEP, 2, 5, 20, algorithm="iter_td"),        # nested
        DetectionQuery(STEP, 2, 10, k_max, algorithm="iter_td"),    # overlapping
        DetectionQuery(STEP, 2, 2, k_max, algorithm="iter_td"),     # exact duplicate
        DetectionQuery(FLAT, 2, 2, 30),
        DetectionQuery(FLAT, 2, 2, 30, algorithm="global_bounds"),  # duplicate via auto
        DetectionQuery(FLAT, 2, 10, k_max),                         # overlapping
        DetectionQuery(PROP, 2, 2, k_max),
        DetectionQuery(PROP, 2, 5, 25),                             # nested
        DetectionQuery(PROP, 4, 2, 30),                             # same bound, other tau_s
        DetectionQuery(FLAT, 4, 2, 30),                             # shared tau_s with above
        DetectionQuery(PROP, 2, 2, k_max, algorithm="prop_bounds"), # duplicate via auto
    ]


EXECUTIONS = [
    pytest.param(None, id="serial"),
    pytest.param(ExecutionConfig(workers=2), id="workers2"),
]


class TestPlannerServedSession:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_acceptance_twelve_query_batch(self, execution):
        """The PR's acceptance criterion, end to end: strictly fewer root
        searches and batch evaluations than the cold loop, bit-identical."""
        dataset, ranking = _instance(211, 64, [2, 3, 2], 0.9)
        queries = _acceptance_batch(63)
        assert len(queries) == 12
        cold = _cold_loop(dataset, ranking, queries)
        with AuditSession(dataset, ranking, execution=execution) as session:
            planned = session.run_many(queries)
        _assert_reports_bit_identical(planned, cold, queries)

        planned_searches = sum(r.stats.full_searches for r in planned)
        cold_searches = sum(r.stats.full_searches for r in cold)
        planned_batches = sum(r.stats.batch_evaluations for r in planned)
        cold_batches = sum(r.stats.batch_evaluations for r in cold)
        assert planned_searches < cold_searches
        assert planned_batches < cold_batches
        # Fewer searches bought with more node evaluations would be a loss.
        assert sum(r.stats.nodes_evaluated for r in planned) <= sum(
            r.stats.nodes_evaluated for r in cold
        )
        # The provenance counters account for every saved execution: one miss
        # per executed plan step, and every query is a miss or some kind of hit.
        hits = sum(r.stats.result_cache_hits for r in planned)
        partial_hits = sum(r.stats.result_cache_partial_hits for r in planned)
        misses = sum(r.stats.result_cache_misses for r in planned)
        assert hits >= 6
        assert sum(r.stats.plan_merged_queries for r in planned) >= 6
        assert misses == plan_queries(queries).n_steps
        assert misses + hits + partial_hits == len(queries)

    def test_cache_serves_across_batches_and_sessions_do_not_share(self):
        dataset, ranking = _instance(223, 56, [2, 2, 3], 1.1)
        wide = DetectionQuery(STEP, 2, 2, 50, algorithm="iter_td")
        narrow = DetectionQuery(STEP, 2, 10, 30, algorithm="iter_td")
        with AuditSession(dataset, ranking) as session:
            first = session.run(wide)
            second = session.run(narrow)
            assert first.stats.result_cache_misses == 1
            assert second.stats.result_cache_hits == 1
            assert second.stats.full_searches == 0
            assert session.result_cache.hits == 1
        cold = detect_biased_groups(
            dataset, ranking, narrow.bound, narrow.tau_s, narrow.k_min, narrow.k_max,
            algorithm=narrow.algorithm,
        )
        assert second.result == cold.result
        # A fresh session starts cold: no state leaks between sessions.
        with AuditSession(dataset, ranking) as session:
            again = session.run(narrow)
            assert again.stats.result_cache_misses == 1

    def test_restricted_reports_support_detailed_groups(self):
        dataset, ranking = _instance(227, 48, [2, 3], 1.0)
        with AuditSession(dataset, ranking) as session:
            wide = session.run(DetectionQuery(FLAT, 2, 2, 40))
            narrow = session.run(DetectionQuery(FLAT, 2, 10, 20))
        assert narrow.stats.result_cache_hits == 1
        for k in (10, 15, 20):
            detailed = narrow.detailed_groups(k)
            assert {group.pattern for group in detailed} == narrow.groups_at(k)
            assert wide.groups_at(k) == narrow.groups_at(k)

    def test_engine_counter_sums_still_match_actual_work(self):
        """Per-query stats isolation survives the planner: summing engine
        counters over a batch's reports equals the engine's cumulative delta."""
        dataset, ranking = _instance(229, 56, [2, 3], 1.0)
        queries = _acceptance_batch(55)
        with AuditSession(dataset, ranking) as session:
            reports = session.run_many(queries)
            cumulative = session.counter.stats_snapshot()
        assert cumulative["batch_evaluations"] == sum(
            r.stats.batch_evaluations for r in reports
        )
        assert session.queries_run == len(queries)

    @pytest.mark.parametrize("execution", EXECUTIONS)
    @pytest.mark.parametrize("seed", [3001, 3002, 3003])
    def test_randomized_query_mix_bit_identical(self, execution, seed):
        """Randomized mixes over all three algorithms: planner-served run_many
        must equal a fresh per-query cold loop, serial and workers=2."""
        rng = np.random.default_rng(seed)
        dataset, ranking = _instance(seed, 48, [2, 3, 2], float(rng.uniform(0.7, 1.3)))
        bounds: list[BoundSpec] = [STEP, FLAT, PROP, ProportionalBoundSpec(alpha=0.7)]
        algorithms = ["auto", "iter_td", "global_bounds", "prop_bounds"]
        queries = []
        for _ in range(10):
            bound = bounds[rng.integers(len(bounds))]
            algorithm = algorithms[rng.integers(len(algorithms))]
            if algorithm == "global_bounds" and bound.pattern_dependent:
                algorithm = "prop_bounds"
            k_min = int(rng.integers(2, 20))
            k_max = int(rng.integers(k_min, 47))
            tau_s = int(rng.choice([2, 3, 4]))
            queries.append(DetectionQuery(bound, tau_s, k_min, k_max, algorithm))
            if rng.random() < 0.3:  # sprinkle exact duplicates
                queries.append(queries[-1])
        cold = _cold_loop(dataset, ranking, queries)
        with AuditSession(dataset, ranking, execution=execution) as session:
            planned = session.run_many(queries)
        _assert_reports_bit_identical(planned, cold, queries)

    def test_plan_merged_sweep_equals_separate_runs_without_cache(self):
        """Merging alone (cache disabled) must already be bit-identical."""
        dataset, ranking = _instance(233, 48, [2, 3], 1.0)
        queries = [
            DetectionQuery(PROP, 2, 2, 30),
            DetectionQuery(PROP, 2, 10, 45),
            DetectionQuery(PROP, 2, 5, 12),
        ]
        cold = _cold_loop(dataset, ranking, queries)
        with AuditSession(dataset, ranking, result_cache_capacity=0) as session:
            planned = session.run_many(queries)
        _assert_reports_bit_identical(planned, cold, queries)
        # One covering sweep executed; with the cache off the other two queries
        # are still served from the in-plan step, not recomputed.
        assert sum(r.stats.full_searches for r in planned) == sum(
            r.stats.full_searches for r in cold[:1]
        )

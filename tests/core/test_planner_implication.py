"""Containment-lattice implication serving: refinement, two-sided extension, serde.

The property at stake is the optimizer's core guarantee: however a batch of
same-family threshold queries is served — one anchored covering run plus
implication refinements, a two-sided frontier extension, or a degraded full
re-run — every report's *result* is bit-identical to a cold per-query loop,
and the engine-work counters prove the cheaper path was actually taken.

The suites randomize thresholds and k ranges (seeded, so failures replay),
cover all three refinable algorithms plus UpperBounds (never refinable —
opposite monotone direction), exercise serial and two- and three-worker
process execution, and round-trip v3 (evidence-less) store files through the
v4 serde.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec, step_lower_bounds
from repro.core.engine.parallel import ExecutionConfig
from repro.core.planner import (
    DetectionQuery,
    RefineStep,
    plan_queries,
    query_family_key,
    query_implies,
)
from repro.core.result_store import DiskResultStore, InMemoryResultStore
from repro.core.serialization import (
    MIN_SWEEP_FORMAT_VERSION,
    SWEEP_FORMAT_VERSION,
)
from repro.core.session import AuditSession, detect_biased_groups
from repro.core.tuning import threshold_sweep
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


def _cold_loop(dataset, ranking, queries):
    """The reference: one isolated one-shot call per query, in order."""
    return [
        detect_biased_groups(
            dataset, ranking, q.bound, q.tau_s, q.k_min, q.k_max, algorithm=q.algorithm
        )
        for q in queries
    ]


def _assert_bit_identical(planned, cold):
    assert len(planned) == len(cold)
    for served, reference in zip(planned, cold):
        assert served.result == reference.result


def _random_batch(rng, algorithm: str, n_queries: int) -> list[DetectionQuery]:
    """A mixed-threshold, mixed-k-range batch of one algorithm's family."""
    queries = []
    for _ in range(n_queries):
        k_min = int(rng.integers(2, 8))
        k_max = k_min + int(rng.integers(3, 14))
        tau_s = int(rng.choice([1, 2]))
        if algorithm == "prop_bounds":
            bound = ProportionalBoundSpec(alpha=float(rng.uniform(0.3, 1.4)))
        else:
            bound = GlobalBoundSpec(lower_bounds=float(rng.uniform(1.0, 9.0)))
        queries.append(DetectionQuery(bound, tau_s, k_min, k_max, algorithm))
    return queries


# -- the lattice itself ---------------------------------------------------------------
class TestImplicationLattice:
    def test_constant_global_bounds_imply_downward(self):
        weak = DetectionQuery(GlobalBoundSpec(lower_bounds=8.0), 2, 2, 20, "global_bounds")
        tight = DetectionQuery(GlobalBoundSpec(lower_bounds=3.0), 2, 2, 20, "global_bounds")
        assert query_family_key(weak) == query_family_key(tight)
        assert query_implies(weak, tight)
        assert not query_implies(tight, weak)

    def test_step_schedules_compare_pointwise(self):
        low = GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 1.0, 10: 3.0}))
        high = GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 2.0, 10: 5.0}))
        crossing = GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 0.5, 10: 9.0}))
        weak = DetectionQuery(high, 2, 2, 20, "global_bounds")
        tight = DetectionQuery(low, 2, 2, 20, "global_bounds")
        mixed = DetectionQuery(crossing, 2, 2, 20, "global_bounds")
        assert query_implies(weak, tight)
        assert not query_implies(mixed, tight) and not query_implies(tight, mixed)

    def test_alpha_orders_proportional_families(self):
        weak = DetectionQuery(ProportionalBoundSpec(alpha=1.2), 2, 2, 20, "prop_bounds")
        tight = DetectionQuery(ProportionalBoundSpec(alpha=0.6), 2, 2, 20, "prop_bounds")
        assert query_implies(weak, tight) and not query_implies(tight, weak)

    def test_families_split_on_tau_and_algorithm_and_shape(self):
        base = DetectionQuery(GlobalBoundSpec(lower_bounds=4.0), 2, 2, 20, "global_bounds")
        assert query_family_key(base) != query_family_key(
            DetectionQuery(GlobalBoundSpec(lower_bounds=4.0), 3, 2, 20, "global_bounds")
        )
        assert query_family_key(base) != query_family_key(
            DetectionQuery(GlobalBoundSpec(lower_bounds=4.0), 2, 2, 20, "iter_td")
        )
        assert query_family_key(base) != query_family_key(
            DetectionQuery(ProportionalBoundSpec(alpha=0.9), 2, 2, 20, "prop_bounds")
        )

    def test_upper_bounds_queries_have_no_family(self):
        # UpperBounds audits over-representation: its below/above monotonicity
        # runs the opposite way, so it must never join a refinement lattice.
        query = DetectionQuery(
            ProportionalBoundSpec(alpha=0.9), 2, 2, 20, "upper_bounds", beta=1.8
        )
        assert query_family_key(query) is None

    def test_threshold_family_plans_one_anchor(self):
        queries = [
            DetectionQuery(GlobalBoundSpec(lower_bounds=level), 2, 2, 20, "global_bounds")
            for level in (2.0, 4.0, 6.0, 8.0)
        ]
        plan = plan_queries(queries)
        refinements = [step for step in plan.steps if isinstance(step, RefineStep)]
        anchors = [step for step in plan.steps if not isinstance(step, RefineStep)]
        assert len(anchors) == 1 and len(refinements) == 3
        # The anchor is the weakest threshold; refinements run tightest-last.
        assert anchors[0].query.bound.lower(5, 0, 1) == 8.0
        ordering = [step.query.bound.lower(5, 0, 1) for step in plan.steps]
        assert ordering == sorted(ordering, reverse=True)


# -- randomized bit-identity over every serving path ----------------------------------
class TestRandomizedBitIdentity:
    @pytest.mark.parametrize("algorithm", ["global_bounds", "prop_bounds", "iter_td"])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_mixed_batches_match_cold_loop_serially(self, algorithm, seed):
        dataset, ranking = _instance(seed, 420, [3, 4, 2])
        rng = np.random.default_rng(seed * 7)
        queries = _random_batch(rng, algorithm, 8)
        cold = _cold_loop(dataset, ranking, queries)
        with AuditSession(dataset, ranking) as session:
            planned = session.run_many(queries)
        _assert_bit_identical(planned, cold)
        # The batch never does more engine work than the cold loop.
        assert sum(r.stats.full_searches for r in planned) <= sum(
            r.stats.full_searches for r in cold
        )

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("algorithm", ["global_bounds", "prop_bounds", "iter_td"])
    def test_mixed_batches_match_cold_loop_with_workers(self, workers, algorithm):
        dataset, ranking = _instance(31, 420, [3, 4, 2])
        rng = np.random.default_rng(31)
        queries = _random_batch(rng, algorithm, 6)
        cold = _cold_loop(dataset, ranking, queries)
        execution = ExecutionConfig(workers=workers)
        with AuditSession(dataset, ranking, execution=execution) as session:
            planned = session.run_many(queries)
        _assert_bit_identical(planned, cold)

    def test_tuning_threshold_sweep_is_one_anchored_search(self):
        dataset, ranking = _instance(43, 420, [3, 4, 2])
        levels = [2.0, 3.0, 4.0, 5.5, 7.0, 9.0]
        swept = threshold_sweep(dataset, ranking, 2, 2, 18, lower_bounds=levels)
        cold = _cold_loop(
            dataset,
            ranking,
            [
                DetectionQuery(GlobalBoundSpec(lower_bounds=v), 2, 2, 18, "global_bounds")
                for v in levels
            ],
        )
        _assert_bit_identical([item.report for item in swept], cold)
        misses = sum(item.report.stats.result_cache_misses for item in swept)
        hits = sum(item.report.stats.implication_hits for item in swept)
        assert misses == 1 and hits == len(levels) - 1

    def test_alpha_sweep_refines_proportional_families(self):
        dataset, ranking = _instance(47, 380, [3, 3, 2])
        alphas = [0.4, 0.7, 1.0, 1.3]
        swept = threshold_sweep(dataset, ranking, 2, 2, 15, alphas=alphas)
        cold = _cold_loop(
            dataset,
            ranking,
            [
                DetectionQuery(ProportionalBoundSpec(alpha=a), 2, 2, 15, "prop_bounds")
                for a in alphas
            ],
        )
        _assert_bit_identical([item.report for item in swept], cold)
        assert sum(item.report.stats.implication_hits for item in swept) == len(alphas) - 1


# -- two-sided extension --------------------------------------------------------------
class TestTwoSidedExtension:
    @pytest.mark.parametrize("algorithm", ["global_bounds", "prop_bounds", "iter_td"])
    def test_prefix_and_suffix_splice_bit_identically(self, algorithm):
        dataset, ranking = _instance(53, 420, [3, 4, 2])
        if algorithm == "prop_bounds":
            bound = ProportionalBoundSpec(alpha=0.9)
        else:
            bound = GlobalBoundSpec(lower_bounds=3.0)
        with AuditSession(dataset, ranking) as session:
            session.run(DetectionQuery(bound, 2, 8, 16, algorithm))
            widened = session.run(DetectionQuery(bound, 2, 4, 22, algorithm))
        cold = detect_biased_groups(dataset, ranking, bound, 2, 4, 22, algorithm=algorithm)
        assert widened.result == cold.result
        assert widened.stats.result_cache_partial_hits == 1
        assert widened.stats.prefix_extended_k_values == 4
        assert widened.stats.extended_k_values == 6

    def test_prefix_only_extension_needs_no_resumable_frontier(self):
        dataset, ranking = _instance(59, 420, [3, 4, 2])
        bound = GlobalBoundSpec(lower_bounds=3.0)
        with AuditSession(dataset, ranking) as session:
            session.run(DetectionQuery(bound, 2, 8, 20, "global_bounds"))
            # Make the cached frontier useless for a suffix resume (and for
            # refinement): the prefix side must still extend.
            store = session.result_cache
            for entry in store._entries.values():
                entry.frontier.resumable = False
                entry.frontier.evidence = None
                entry.frontier.evidence_sizes = None
            widened = session.run(DetectionQuery(bound, 2, 3, 20, "global_bounds"))
        cold = detect_biased_groups(dataset, ranking, bound, 2, 3, 20, algorithm="global_bounds")
        assert widened.result == cold.result
        assert widened.stats.prefix_extended_k_values == 5
        assert widened.stats.extended_k_values == 0

    def test_upper_bounds_extends_per_k_independently(self):
        dataset, ranking = _instance(61, 380, [3, 3, 2])
        query = DetectionQuery(
            ProportionalBoundSpec(alpha=0.9), 2, 8, 16, "upper_bounds", beta=1.8
        )
        widened_query = DetectionQuery(
            ProportionalBoundSpec(alpha=0.9), 2, 4, 20, "upper_bounds", beta=1.8
        )
        with AuditSession(dataset, ranking) as session:
            session.run(query)
            widened = session.run(widened_query)
        # detect_biased_groups cannot express beta; a fresh session is cold.
        with AuditSession(dataset, ranking) as fresh:
            cold = fresh.run(widened_query)
        assert widened.result == cold.result
        assert widened.stats.result_cache_partial_hits == 1
        assert widened.stats.prefix_extended_k_values == 4

    def test_extended_sweep_still_anchors_refinements(self):
        # Evidence merged across the spliced pieces keeps the widened entry
        # refinable over its whole range.
        dataset, ranking = _instance(67, 420, [3, 4, 2])
        weak = GlobalBoundSpec(lower_bounds=8.0)
        tight = GlobalBoundSpec(lower_bounds=3.0)
        with AuditSession(dataset, ranking) as session:
            session.run(DetectionQuery(weak, 2, 8, 16, "global_bounds"))
            session.run(DetectionQuery(weak, 2, 4, 22, "global_bounds"))
            refined = session.run(DetectionQuery(tight, 2, 4, 22, "global_bounds"))
        cold = detect_biased_groups(dataset, ranking, tight, 2, 4, 22, algorithm="global_bounds")
        assert refined.result == cold.result
        assert refined.stats.implication_hits == 1
        assert refined.stats.full_searches == 0


# -- degradation: a stale or evidence-less anchor must never corrupt results ----------
class TestStaleAnchorDegradation:
    def test_process_backend_iter_td_poisons_evidence_and_degrades(self):
        # IterTD's process workers ship reduced (classification-free) states;
        # the assembler must refuse to distill evidence from them, so tighter
        # queries degrade to full runs — and stay bit-identical.
        dataset, ranking = _instance(71, 420, [3, 4, 2])
        execution = ExecutionConfig(workers=2, backend="process")
        queries = [
            DetectionQuery(GlobalBoundSpec(lower_bounds=level), 2, 2, 12, "iter_td")
            for level in (7.0, 3.0)
        ]
        cold = _cold_loop(dataset, ranking, queries)
        with AuditSession(dataset, ranking, execution=execution) as session:
            planned = session.run_many(queries)
        _assert_bit_identical(planned, cold)

    def test_evicted_anchor_degrades_to_full_run(self):
        dataset, ranking = _instance(73, 420, [3, 4, 2])
        queries = [
            DetectionQuery(GlobalBoundSpec(lower_bounds=level), 2, 2, 12, "global_bounds")
            for level in (8.0, 3.0)
        ]
        cold = _cold_loop(dataset, ranking, queries)
        # capacity=0: nothing is retained, so the RefineStep's planned anchor
        # is served from the batch-local outcomes instead.
        with AuditSession(dataset, ranking, result_cache_capacity=0) as session:
            batch_served = session.run_many(queries)
        _assert_bit_identical(batch_served, cold)
        assert sum(r.stats.implication_hits for r in batch_served) == 1
        # Split across batches with capacity=0 the anchor is truly gone:
        # the tighter query degrades to a full run, still bit-identical.
        with AuditSession(dataset, ranking, result_cache_capacity=0) as session:
            session.run(queries[0])
            degraded = session.run(queries[1])
        assert degraded.result == cold[1].result
        assert degraded.stats.implication_hits == 0
        assert degraded.stats.result_cache_misses == 1


# -- store round-trips ----------------------------------------------------------------
class TestStoreRoundTrips:
    WEAK = DetectionQuery(GlobalBoundSpec(lower_bounds=8.0), 2, 2, 14, "global_bounds")
    TIGHT = DetectionQuery(GlobalBoundSpec(lower_bounds=3.0), 2, 2, 14, "global_bounds")

    def test_disk_store_serves_refinements_across_processes(self, tmp_path):
        dataset, ranking = _instance(79, 420, [3, 4, 2])
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(self.WEAK)
        # A fresh store instance models a fresh process.
        store = DiskResultStore(tmp_path)
        with AuditSession(dataset, ranking, store=store) as session:
            refined = session.run(self.TIGHT)
        cold = _cold_loop(dataset, ranking, [self.TIGHT])[0]
        assert refined.result == cold.result
        assert refined.stats.implication_hits == 1
        assert store.refine_hits == 1

    def test_v3_files_degrade_to_non_refinable_hits(self, tmp_path):
        dataset, ranking = _instance(83, 420, [3, 4, 2])
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(self.WEAK)
        # Rewrite every file as a v3 payload under its legacy 3-part name.
        for path in sorted(tmp_path.glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["sweep_format_version"] == SWEEP_FORMAT_VERSION
            payload["sweep_format_version"] = MIN_SWEEP_FORMAT_VERSION
            frontier = payload.get("frontier")
            if frontier is not None:
                frontier.pop("evidence", None)
                frontier.pop("evidence_sizes", None)
                frontier.pop("resumable", None)
            parts = path.stem.split("_")
            assert len(parts) == 4  # family-tagged v4 name
            legacy = path.with_name(f"{parts[0]}_{parts[2]}_{parts[3]}.json")
            legacy.write_text(json.dumps(payload), encoding="utf-8")
            path.unlink()
        store = DiskResultStore(tmp_path)
        # Containment still serves; refinement finds no evidence.
        with AuditSession(dataset, ranking, store=store) as session:
            served = session.run(self.WEAK)
            refined = session.run(self.TIGHT)
        assert served.stats.result_cache_hits == 1
        cold = _cold_loop(dataset, ranking, [self.TIGHT])[0]
        assert refined.result == cold.result
        assert refined.stats.implication_hits == 0
        assert store.refine_hits == 0

    def test_reinsert_replaces_legacy_named_file(self, tmp_path):
        # Satellite of the enriched-frontier fix: re-running the same range
        # with a v4-capable session must replace the legacy file (equal range
        # counts as contained), not shadow it forever.
        dataset, ranking = _instance(83, 420, [3, 4, 2])
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(self.WEAK)
        for path in sorted(tmp_path.glob("*.json")):
            parts = path.stem.split("_")
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["sweep_format_version"] = MIN_SWEEP_FORMAT_VERSION
            if payload.get("frontier") is not None:
                for field in ("evidence", "evidence_sizes", "resumable"):
                    payload["frontier"].pop(field, None)
            path.with_name(f"{parts[0]}_{parts[2]}_{parts[3]}.json").write_text(
                json.dumps(payload), encoding="utf-8"
            )
            path.unlink()
        store = DiskResultStore(tmp_path)
        # The legacy file has no evidence, so the weak query re-runs in full
        # only when asked tighter; re-running the weak query itself is a
        # containment hit — force a fresh sweep by clearing, then re-insert.
        store.clear()
        with AuditSession(dataset, ranking, store=store) as session:
            session.run(self.WEAK)
        names = sorted(path.stem for path in tmp_path.glob("*.json"))
        assert len(names) == 1 and len(names[0].split("_")) == 4
        # And the re-persisted (enriched) entry now anchors refinements.
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            refined = session.run(self.TIGHT)
        assert refined.stats.implication_hits == 1

    def test_enriched_same_range_insert_replaces_legacy_entry(self, tmp_path):
        """A same-range re-insert whose frontier was enriched (v4, evidence)
        replaces the legacy 3-part file instead of leaving both on disk."""
        dataset, ranking = _instance(89, 420, [3, 4, 2])
        store = DiskResultStore(tmp_path)
        with AuditSession(dataset, ranking, store=store) as session:
            session.run(self.WEAK)
        v4_names = {path.name for path in tmp_path.glob("*.json")}
        # Plant a legacy-named copy alongside (as an old process would have).
        for name in v4_names:
            parts = name[: -len(".json")].split("_")
            payload = (tmp_path / name).read_text(encoding="utf-8")
            (tmp_path / f"{parts[0]}_{parts[2]}_{parts[3]}.json").write_text(
                payload, encoding="utf-8"
            )
        assert len(list(tmp_path.glob("*.json"))) == 2 * len(v4_names)
        with AuditSession(dataset, ranking, store=store) as session:
            store.clear()
            session.run(self.WEAK)
        # Only the family-tagged names survive the re-insert's subsumption.
        assert {path.name for path in tmp_path.glob("*.json")} == v4_names

    def test_in_memory_refine_hit_counter(self):
        dataset, ranking = _instance(97, 420, [3, 4, 2])
        store = InMemoryResultStore()
        with AuditSession(dataset, ranking, store=store) as session:
            session.run(self.WEAK)
        with AuditSession(dataset, ranking, store=store) as session:
            session.run(self.TIGHT)
        assert store.refine_hits == 1

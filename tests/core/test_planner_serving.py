"""Mixed-threshold batches and two-sided extension, against cold per-query loops.

The property at stake is the planner's core guarantee: however a batch is
served — one sweep per distinct threshold on the warm engine, a two-sided
frontier extension, or a degraded full re-run — every report's *result* is
bit-identical to a cold per-query loop, and the planned batch never evaluates
more nodes than that loop.

The suites randomize thresholds and k ranges (seeded, so failures replay),
cover all three lower-bound algorithms plus UpperBounds, and exercise serial
and two- and three-worker process execution.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.engine.parallel import ExecutionConfig
from repro.core.planner import DetectionQuery
from repro.core.result_store import DiskResultStore
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


def _assert_one_sweep_per_threshold(planned, cold):
    """Each distinct threshold is one store miss, and the warm session never
    evaluates more nodes than the cold loop."""
    assert sum(r.stats.result_cache_misses for r in planned) == len(cold)
    assert sum(r.stats.nodes_evaluated for r in planned) <= sum(
        r.stats.nodes_evaluated for r in cold
    )


def _random_batch(rng, algorithm: str, n_queries: int) -> list[DetectionQuery]:
    """A mixed-threshold, mixed-k-range batch for one algorithm."""
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
        _assert_one_sweep_per_threshold(planned, cold)

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
        _assert_one_sweep_per_threshold(planned, cold)

    def test_tuning_threshold_sweep_is_one_sweep_per_threshold(self):
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
        reports = [item.report for item in swept]
        _assert_bit_identical(reports, cold)
        _assert_one_sweep_per_threshold(reports, cold)

    def test_alpha_sweep_is_one_sweep_per_threshold(self):
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
        reports = [item.report for item in swept]
        _assert_bit_identical(reports, cold)
        _assert_one_sweep_per_threshold(reports, cold)


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

    def test_prefix_only_extension_needs_no_frontier(self, tmp_path):
        dataset, ranking = _instance(59, 420, [3, 4, 2])
        bound = GlobalBoundSpec(lower_bounds=3.0)
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(DetectionQuery(bound, 2, 8, 20, "global_bounds"))
        # Strip the stored frontier: no suffix resume is possible any more,
        # but the prefix side must still extend.
        (path,) = tmp_path.glob("*.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["frontier"] = None
        path.write_text(json.dumps(payload), encoding="utf-8")
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
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


# -- process shards ---------------------------------------------------------------------
class TestProcessShards:
    def test_process_backend_iter_td_thresholds_match_cold_loop(self):
        # IterTD's process workers ship reduced (shard-minimal) states; every
        # threshold assembled from them must equal the cold serial loop.
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

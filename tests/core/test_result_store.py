"""Tests for the pluggable result store and resumable (extendable) sweeps.

The contract under test, in order of importance:

* **extension bit-identity** — a batch whose k range partially overlaps a cached
  sweep is served by resuming the sweep's frontier over the uncovered suffix,
  and the reports are identical to cold per-query runs, for all algorithms,
  serial and ``workers=2``, including randomized two-phase query mixes — while
  performing strictly fewer ``full_searches`` and ``batch_evaluations`` than
  the cold covering re-runs, without evaluating more nodes;
* **cross-process persistence** — a sweep saved through a
  :class:`DiskResultStore` in one session serves containment *and* partial hits
  in a genuinely fresh process, bit-identically;
* **robustness** — corrupted files, older format versions and fingerprint
  mismatches degrade to quarantined cache misses, never errors, and a store
  can never serve another dataset's results;
* **sharing** — :func:`shared_result_store` makes sweeps reusable across
  sessions in one process; private stores stay private.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.bounds import (
    GlobalBoundSpec,
    ProportionalBoundSpec,
    step_lower_bounds,
)
from repro.core.engine.parallel import ExecutionConfig
from repro.core.planner import DetectionQuery, query_group_key
from repro.core.result_store import (
    DiskResultStore,
    InMemoryResultStore,
    clear_shared_result_stores,
    discard_shared_result_store,
    shared_result_store,
    shared_result_store_names,
)
from repro.core.serialization import (
    SWEEP_FORMAT_VERSION,
    frontier_from_dict,
    frontier_to_dict,
)
from repro.core.session import AuditSession, detect_biased_groups
from repro.core.top_down import SweepFrontier
from repro.core.pattern import Pattern
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.experiments.workloads import german_credit_workload
from repro.ranking.base import PrecomputedRanker, Ranking

STEP = GlobalBoundSpec(lower_bounds=step_lower_bounds({1: 1.0, 10: 3.0, 30: 6.0}))
FLAT = GlobalBoundSpec(lower_bounds=2.0)
PROP = ProportionalBoundSpec(alpha=0.9)

EXECUTIONS = [
    pytest.param(None, id="serial"),
    pytest.param(ExecutionConfig(workers=2), id="workers2"),
]


def _instance(seed: int, n_rows: int, cardinalities: list[int], skew: float = 1.0):
    rng = np.random.default_rng(seed)
    spec = SyntheticSpec(
        n_rows=n_rows,
        cardinalities=cardinalities,
        score_weights=rng.uniform(-1.5, 1.5, size=len(cardinalities)).tolist(),
        noise=0.4,
        skew=skew,
        seed=seed,
    )
    dataset = synthetic_dataset(spec)
    ranking = PrecomputedRanker(score_column="score").rank(dataset)
    return dataset, ranking


def _cold(dataset, ranking, query):
    return detect_biased_groups(
        dataset, ranking, query.effective_bound(), query.tau_s, query.k_min,
        query.k_max, algorithm=query.resolved_algorithm(),
    )


# -- frontier extension: bit-identity and strictly less work --------------------------
class TestFrontierExtension:
    @pytest.mark.parametrize("execution", EXECUTIONS)
    @pytest.mark.parametrize(
        "algorithm,bound",
        [("iter_td", STEP), ("global_bounds", STEP), ("prop_bounds", PROP)],
    )
    def test_partial_overlap_extends_bit_identically(self, execution, algorithm, bound):
        dataset, ranking = _instance(311, 64, [2, 3, 2], 0.9)
        prefix = DetectionQuery(bound, 2, 2, 30, algorithm)
        overlapping = DetectionQuery(bound, 2, 5, 55, algorithm)
        with AuditSession(dataset, ranking, execution=execution) as session:
            session.run(prefix)
            extended = session.run(overlapping)
        cold = _cold(dataset, ranking, overlapping)
        assert extended.result == cold.result
        assert extended.stats.result_cache_partial_hits == 1
        assert extended.stats.extended_k_values == 25
        assert extended.stats.result_cache_misses == 0
        # Strictly fewer full searches and batch evaluations than the cold
        # covering re-run the pre-extension planner would have performed, and
        # no more node evaluations.
        assert extended.stats.full_searches < max(cold.stats.full_searches, 1)
        assert extended.stats.batch_evaluations < cold.stats.batch_evaluations
        assert extended.stats.nodes_evaluated <= cold.stats.nodes_evaluated

    def test_extension_widens_the_cached_sweep(self, ):
        dataset, ranking = _instance(313, 56, [2, 2, 3], 1.1)
        group = query_group_key(DetectionQuery(STEP, 2, 2, 20, "global_bounds"))
        with AuditSession(dataset, ranking) as session:
            session.run(DetectionQuery(STEP, 2, 2, 20, "global_bounds"))
            session.run(DetectionQuery(STEP, 2, 5, 40, "global_bounds"))
            fingerprint = ranking.fingerprint()
            assert session.result_cache.coverage(fingerprint, group) == ((2, 40),)
            # The widened sweep now serves containment hits over the whole range.
            report = session.run(DetectionQuery(STEP, 2, 30, 40, "global_bounds"))
            assert report.stats.result_cache_hits == 1
            assert report.stats.full_searches == 0

    def test_chained_extensions(self):
        dataset, ranking = _instance(317, 56, [2, 3], 1.0)
        with AuditSession(dataset, ranking) as session:
            session.run(DetectionQuery(PROP, 2, 2, 15, "prop_bounds"))
            second = session.run(DetectionQuery(PROP, 2, 2, 30, "prop_bounds"))
            third = session.run(DetectionQuery(PROP, 2, 10, 50, "prop_bounds"))
        assert second.stats.result_cache_partial_hits == 1
        assert third.stats.result_cache_partial_hits == 1
        cold = _cold(dataset, ranking, DetectionQuery(PROP, 2, 10, 50, "prop_bounds"))
        assert third.result == cold.result

    def test_upper_bounds_queries_extend_too(self):
        dataset, ranking = _instance(331, 56, [2, 3, 2], 1.0)
        first = DetectionQuery(PROP, 3, 2, 25, "upper_bounds", beta=1.8)
        second = DetectionQuery(PROP, 3, 5, 45, "upper_bounds", beta=1.8)
        with AuditSession(dataset, ranking) as session:
            session.run(first)
            extended = session.run(second)
        assert extended.stats.result_cache_partial_hits == 1
        cold = _cold(dataset, ranking, second)
        assert extended.result == cold.result
        # The extension reuses the cached candidate set: no fresh enumeration.
        assert extended.stats.size_computations == 0

    @pytest.mark.parametrize("execution", EXECUTIONS)
    @pytest.mark.parametrize("seed", [4001, 4002])
    def test_randomized_two_phase_mix_bit_identical(self, execution, seed):
        """Randomized prefix batch, then a randomized partially-overlapping
        batch: every report equals a fresh cold run, and at least one query of
        the second phase is served by extension."""
        rng = np.random.default_rng(seed)
        dataset, ranking = _instance(seed, 48, [2, 3, 2], float(rng.uniform(0.7, 1.3)))
        groups = [
            (STEP, "iter_td"), (STEP, "global_bounds"), (FLAT, "global_bounds"),
            (PROP, "prop_bounds"),
        ]
        phase_one, phase_two = [], []
        for bound, algorithm in groups:
            split = int(rng.integers(12, 25))
            phase_one.append(DetectionQuery(bound, 2, 2, split, algorithm))
            phase_two.append(
                DetectionQuery(bound, 2, int(rng.integers(2, split + 1)),
                               int(rng.integers(split + 5, 47)), algorithm)
            )
        cold_two = [_cold(dataset, ranking, q) for q in phase_two]
        with AuditSession(dataset, ranking, execution=execution) as session:
            session.run_many(phase_one)
            served = session.run_many(phase_two)
        for report, cold in zip(served, cold_two):
            assert report.result == cold.result
        assert sum(r.stats.result_cache_partial_hits for r in served) >= 1
        served_searches = sum(r.stats.full_searches for r in served)
        cold_searches = sum(r.stats.full_searches for r in cold_two)
        assert served_searches < cold_searches
        assert sum(r.stats.batch_evaluations for r in served) < sum(
            r.stats.batch_evaluations for r in cold_two
        )


# -- the shared (process-wide) store --------------------------------------------------
class TestSharedStore:
    def setup_method(self):
        clear_shared_result_stores()

    def teardown_method(self):
        clear_shared_result_stores()

    def test_sessions_share_sweeps_through_the_registry(self):
        dataset, ranking = _instance(401, 56, [2, 3], 1.0)
        with AuditSession(dataset, ranking, store=shared_result_store()) as session:
            session.run(DetectionQuery(STEP, 2, 2, 40, "global_bounds"))
        # A second session — different object, same registry — starts warm.
        with AuditSession(dataset, ranking, store=shared_result_store()) as session:
            contained = session.run(DetectionQuery(STEP, 2, 10, 30, "global_bounds"))
            extended = session.run(DetectionQuery(STEP, 2, 5, 50, "global_bounds"))
        assert contained.stats.result_cache_hits == 1
        assert contained.stats.full_searches == 0
        assert extended.stats.result_cache_partial_hits == 1
        cold = _cold(dataset, ranking, DetectionQuery(STEP, 2, 5, 50, "global_bounds"))
        assert extended.result == cold.result

    def test_named_registries_are_distinct(self):
        assert shared_result_store("a") is shared_result_store("a")
        assert shared_result_store("a") is not shared_result_store("b")

    def test_private_sessions_do_not_share(self):
        dataset, ranking = _instance(403, 48, [2, 3], 1.0)
        with AuditSession(dataset, ranking) as session:
            session.run(DetectionQuery(FLAT, 2, 2, 30, "global_bounds"))
        with AuditSession(dataset, ranking) as session:
            again = session.run(DetectionQuery(FLAT, 2, 2, 30, "global_bounds"))
        assert again.stats.result_cache_misses == 1

    def test_named_store_lifecycle_helpers(self):
        """A serving layer pools named stores per key; discard/clear are how it
        avoids leaking them when keys are unregistered or the process resets."""
        store_a = shared_result_store("svc:a")
        shared_result_store("svc:b")
        assert sorted(shared_result_store_names()) == ["svc:a", "svc:b"]
        # Discard drops the name; the next request under it starts cold.
        assert discard_shared_result_store("svc:a") is True
        assert discard_shared_result_store("svc:a") is False  # already gone
        assert shared_result_store_names() == ("svc:b",)
        assert shared_result_store("svc:a") is not store_a
        clear_shared_result_stores()
        assert shared_result_store_names() == ()

    def test_discarded_store_keeps_serving_existing_holders(self):
        """Discarding unlinks the *name*; sessions already built over the store
        keep their reference — eviction/unregistration never yanks a store out
        from under a running query."""
        dataset, ranking = _instance(407, 48, [2, 3], 1.0)
        store = shared_result_store("svc:live")
        with AuditSession(dataset, ranking, store=store) as session:
            session.run(DetectionQuery(FLAT, 2, 2, 30, "global_bounds"))
            discard_shared_result_store("svc:live")
            again = session.run(DetectionQuery(FLAT, 2, 5, 20, "global_bounds"))
        assert again.stats.result_cache_hits == 1

    def test_fingerprint_keying_separates_datasets(self):
        store = shared_result_store("separation")
        dataset_a, ranking_a = _instance(405, 48, [2, 3], 1.0)
        dataset_b, ranking_b = _instance(406, 48, [2, 3], 1.0)
        query = DetectionQuery(FLAT, 2, 2, 30, "global_bounds")
        with AuditSession(dataset_a, ranking_a, store=store) as session:
            session.run(query)
        with AuditSession(dataset_b, ranking_b, store=store) as session:
            report = session.run(query)
        # Same canonical query, different ranking: must be a miss, and the
        # served result must equal dataset B's own cold run.
        assert report.stats.result_cache_misses == 1
        assert report.result == _cold(dataset_b, ranking_b, query).result

    @pytest.mark.parametrize("kind", ["memory", "shared", "disk"])
    def test_fingerprint_keying_separates_rankings_of_one_dataset(self, kind, tmp_path):
        """Two rankings of one dataset sharing a store: the second is served by
        its own sweep, never by the first ranking's."""
        workload = german_credit_workload(scale=0.35)
        dataset = workload.dataset()
        first = workload.ranking()
        second = Ranking(dataset, first.order[::-1])
        query = DetectionQuery(ProportionalBoundSpec(alpha=0.8), 30, 10, 40)
        store = {
            "memory": InMemoryResultStore,
            "shared": shared_result_store,
            "disk": lambda: DiskResultStore(tmp_path),
        }[kind]()
        with AuditSession(dataset, first, store=store) as session:
            served_first = session.run(query)
        with AuditSession(dataset, second, store=store) as session:
            report = session.run(query)
        expected = _cold(dataset, second, query).result
        assert expected != served_first.result  # the leak would show
        assert report.stats.result_cache_hits == 0
        assert report.stats.result_cache_misses == 1
        assert report.result == expected

    @pytest.mark.parametrize("kind", ["memory", "disk"])
    def test_equal_rankings_built_apart_share_sweeps(self, kind, tmp_path):
        """Keying by the ranking's content, not its identity: a ranking rebuilt
        over a copy of the dataset is served from the first one's sweep."""
        dataset, ranking = _instance(409, 48, [2, 3], 1.0)
        copy = dataset.take(np.arange(dataset.n_rows))
        rebuilt = Ranking(copy, ranking.order.copy())
        query = DetectionQuery(FLAT, 2, 2, 30, "global_bounds")
        store = InMemoryResultStore() if kind == "memory" else DiskResultStore(tmp_path)
        with AuditSession(dataset, ranking, store=store) as session:
            session.run(query)
        with AuditSession(copy, rebuilt, store=store) as session:
            report = session.run(query)
        assert rebuilt is not ranking
        assert report.stats.result_cache_hits == 1
        assert report.stats.full_searches == 0
        assert report.result == _cold(copy, rebuilt, query).result


# -- the on-disk store ----------------------------------------------------------------
class TestDiskStore:
    def test_round_trip_within_process(self, tmp_path):
        dataset, ranking = _instance(411, 56, [2, 3, 2], 1.0)
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            original = session.run(DetectionQuery(STEP, 2, 2, 40, "global_bounds"))
        # A brand-new store object over the same directory (a fresh session in
        # the same process; the cross-process case is covered below).
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            contained = session.run(DetectionQuery(STEP, 2, 5, 30, "global_bounds"))
            extended = session.run(DetectionQuery(STEP, 2, 5, 55, "global_bounds"))
        assert contained.stats.result_cache_hits == 1
        assert contained.stats.full_searches == 0
        assert contained.result == _cold(
            dataset, ranking, DetectionQuery(STEP, 2, 5, 30, "global_bounds")
        ).result
        assert extended.stats.result_cache_partial_hits == 1
        assert extended.result == _cold(
            dataset, ranking, DetectionQuery(STEP, 2, 5, 55, "global_bounds")
        ).result
        assert original.result.restrict_k(5, 30) == contained.result

    @pytest.mark.parametrize(
        "algorithm,bound",
        [
            pytest.param("iter_td", STEP, id="iter_td"),
            pytest.param("global_bounds", STEP, id="global_bounds"),
            pytest.param("prop_bounds", PROP, id="prop_bounds"),
        ],
    )
    def test_round_trip_in_a_fresh_process(self, tmp_path, algorithm, bound):
        """The acceptance criterion's cross-process leg: save in one session,
        serve a containment hit and a partial (extension) hit in a genuinely
        fresh Python process, bit-identically to cold runs; the containment hit
        does no engine work at all."""
        dataset, ranking = _instance(413, 56, [2, 3], 1.0)
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(DetectionQuery(bound, 2, 2, 30, algorithm))
        out_path = tmp_path / "child_out.json"
        script = f"""
import json
import numpy as np
from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.planner import DetectionQuery
from repro.core.result_store import DiskResultStore
from repro.core.serialization import result_to_dict
from repro.core.session import AuditSession
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.ranking.base import PrecomputedRanker

rng = np.random.default_rng(413)
spec = SyntheticSpec(
    n_rows=56, cardinalities=[2, 3],
    score_weights=rng.uniform(-1.5, 1.5, size=2).tolist(),
    noise=0.4, skew=1.0, seed=413,
)
dataset = synthetic_dataset(spec)
ranking = PrecomputedRanker(score_column="score").rank(dataset)
bound = {bound!r}
with AuditSession(dataset, ranking, store=DiskResultStore({str(tmp_path)!r})) as session:
    contained = session.run(DetectionQuery(bound, 2, 5, 25, {algorithm!r}))
    extended = session.run(DetectionQuery(bound, 2, 5, 45, {algorithm!r}))
json.dump({{
    "fingerprint": dataset.fingerprint(),
    "contained": result_to_dict(contained.result),
    "contained_hits": contained.stats.result_cache_hits,
    "contained_misses": contained.stats.result_cache_misses,
    "contained_searches": contained.stats.full_searches,
    "contained_batches": contained.stats.batch_evaluations,
    "contained_nodes": contained.stats.nodes_evaluated,
    "extended": result_to_dict(extended.result),
    "extended_partial_hits": extended.stats.result_cache_partial_hits,
    "extended_misses": extended.stats.result_cache_misses,
    "extended_k_values": extended.stats.extended_k_values,
    "extended_searches": extended.stats.full_searches,
    "extended_batches": extended.stats.batch_evaluations,
    "extended_nodes": extended.stats.nodes_evaluated,
}}, open({str(out_path)!r}, "w"))
"""
        src = Path(__file__).resolve().parents[2] / "src"
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            timeout=300,
        )
        child = json.loads(out_path.read_text())
        assert child["fingerprint"] == dataset.fingerprint()
        from repro.core.serialization import result_from_dict

        cold_contained = _cold(dataset, ranking, DetectionQuery(bound, 2, 5, 25, algorithm))
        cold_extended = _cold(dataset, ranking, DetectionQuery(bound, 2, 5, 45, algorithm))
        assert result_from_dict(child["contained"]) == cold_contained.result
        assert child["contained_hits"] == 1 and child["contained_misses"] == 0
        assert child["contained_searches"] == 0 and child["contained_batches"] == 0
        assert child["contained_nodes"] == 0
        assert result_from_dict(child["extended"]) == cold_extended.result
        assert child["extended_partial_hits"] == 1 and child["extended_misses"] == 0
        assert child["extended_k_values"] == 15
        assert child["extended_searches"] < max(cold_extended.stats.full_searches, 1)
        assert child["extended_nodes"] <= cold_extended.stats.nodes_evaluated
        if algorithm == "iter_td":
            # A fresh IterTD engine builds the same sibling blocks whatever the
            # k range; its saving is the root searches checked above.
            assert child["extended_batches"] <= cold_extended.stats.batch_evaluations
        else:
            assert child["extended_batches"] < cold_extended.stats.batch_evaluations

    def test_corrupted_entry_degrades_to_a_miss(self, tmp_path):
        dataset, ranking = _instance(417, 48, [2, 3], 1.0)
        query = DetectionQuery(FLAT, 2, 2, 30, "global_bounds")
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(query)
        for path in tmp_path.glob("*.json"):
            path.write_text("{definitely not json", encoding="utf-8")
        store = DiskResultStore(tmp_path)
        with AuditSession(dataset, ranking, store=store) as session:
            report = session.run(query)
        assert report.stats.result_cache_misses == 1
        assert store.unreadable_entries >= 1
        assert report.result == _cold(dataset, ranking, query).result

    def test_stale_format_version_degrades_to_a_miss(self, tmp_path):
        dataset, ranking = _instance(419, 48, [2, 3], 1.0)
        query = DetectionQuery(FLAT, 2, 2, 30, "global_bounds")
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(query)
        for path in tmp_path.glob("*.json"):
            payload = json.loads(path.read_text())
            payload["sweep_format_version"] = SWEEP_FORMAT_VERSION - 1
            path.write_text(json.dumps(payload), encoding="utf-8")
        store = DiskResultStore(tmp_path)
        with AuditSession(dataset, ranking, store=store) as session:
            report = session.run(query)
        assert report.stats.result_cache_misses == 1
        assert store.unreadable_entries >= 1
        assert report.result == _cold(dataset, ranking, query).result

    @pytest.mark.parametrize("version", [3, 4])
    def test_older_format_file_never_seeds_a_resume(self, tmp_path, version):
        """A v4 file as a refinement wrote it (empty state tables,
        ``"resumable": false``) or a v3 file must not seed a suffix resume:
        GlobalBounds stepped on from an empty state reports wrong, empty
        per-k sets.  Both load as quarantined misses and are recomputed."""
        dataset, ranking = _instance(441, 48, [2, 3], 1.0)
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(DetectionQuery(FLAT, 2, 2, 15, "global_bounds"))
        (path,) = tmp_path.glob("*.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["sweep_format_version"] = version
        if version == 4:
            payload["frontier"].update(below=[], expanded=[], sizes=[], resumable=False)
        path.write_text(json.dumps(payload), encoding="utf-8")
        store = DiskResultStore(tmp_path)
        extending = DetectionQuery(FLAT, 2, 2, 30, "global_bounds")
        with AuditSession(dataset, ranking, store=store) as session:
            report = session.run(extending)
        assert report.result == _cold(dataset, ranking, extending).result
        assert report.stats.result_cache_partial_hits == 0
        assert report.stats.result_cache_misses == 1
        assert store.quarantined_entries == 1
        assert len(list(tmp_path.glob("*.json.corrupt"))) == 1

    def test_incomplete_frontier_degrades_to_a_miss(self, tmp_path):
        """A frontier mapping that lost one of its state tables (hand-edited or
        written by a divergent implementation) must never seed a resume."""
        dataset, ranking = _instance(427, 48, [2, 3], 1.0)
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(DetectionQuery(PROP, 2, 2, 25, "prop_bounds"))
        for path in tmp_path.glob("*.json"):
            payload = json.loads(path.read_text())
            del payload["frontier"]["sizes"]
            path.write_text(json.dumps(payload), encoding="utf-8")
        store = DiskResultStore(tmp_path)
        extending = DetectionQuery(PROP, 2, 2, 45, "prop_bounds")
        with AuditSession(dataset, ranking, store=store) as session:
            report = session.run(extending)
        assert report.stats.result_cache_partial_hits == 0
        assert report.stats.result_cache_misses == 1
        assert store.unreadable_entries >= 1
        assert report.result == _cold(dataset, ranking, extending).result

    def test_renamed_range_file_degrades_to_a_miss(self, tmp_path):
        """A file renamed to claim a wider k range than its payload holds must
        miss, not crash restriction with a partial covering result."""
        dataset, ranking = _instance(429, 48, [2, 3], 1.0)
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(DetectionQuery(FLAT, 2, 5, 15, "global_bounds"))
        (entry,) = list(tmp_path.glob("*.json"))
        digest = entry.stem.rsplit("_", 2)[0]
        entry.rename(tmp_path / f"{digest}_5_40.json")
        store = DiskResultStore(tmp_path)
        query = DetectionQuery(FLAT, 2, 5, 30, "global_bounds")
        with AuditSession(dataset, ranking, store=store) as session:
            report = session.run(query)
        assert report.stats.result_cache_misses == 1
        assert store.unreadable_entries >= 1
        assert report.result == _cold(dataset, ranking, query).result

    def test_frontier_query_mismatch_degrades_to_a_miss(self, tmp_path):
        """A frontier whose k no longer matches its own query (edited or
        corrupted) must never seed a resume."""
        dataset, ranking = _instance(431, 48, [2, 3], 1.0)
        with AuditSession(dataset, ranking, store=DiskResultStore(tmp_path)) as session:
            session.run(DetectionQuery(PROP, 2, 2, 15, "prop_bounds"))
        for path in tmp_path.glob("*.json"):
            payload = json.loads(path.read_text())
            payload["frontier"]["k"] = 10
            path.write_text(json.dumps(payload), encoding="utf-8")
        store = DiskResultStore(tmp_path)
        query = DetectionQuery(PROP, 2, 5, 25, "prop_bounds")
        with AuditSession(dataset, ranking, store=store) as session:
            report = session.run(query)
        assert report.stats.result_cache_partial_hits == 0
        assert report.stats.result_cache_misses == 1
        assert report.result == _cold(dataset, ranking, query).result

    def test_fingerprint_mismatch_never_serves_wrong_results(self, tmp_path):
        """Even a file renamed to another dataset's digest (simulating a digest
        collision or a mixed-up store directory) is re-validated on load."""
        dataset_a, ranking_a = _instance(421, 48, [2, 3], 1.0)
        dataset_b, ranking_b = _instance(422, 48, [2, 3], 1.0)
        query = DetectionQuery(FLAT, 2, 2, 30, "global_bounds")
        store = DiskResultStore(tmp_path)
        with AuditSession(dataset_a, ranking_a, store=store) as session:
            session.run(query)
        (entry,) = list(tmp_path.glob("*.json"))
        # Forge dataset B's digest for dataset A's payload.
        digest_b = DiskResultStore._digest(
            ranking_b.fingerprint(), query_group_key(query)
        )
        entry.rename(tmp_path / f"{digest_b}_2_30.json")
        fresh = DiskResultStore(tmp_path)
        with AuditSession(dataset_b, ranking_b, store=fresh) as session:
            report = session.run(query)
        assert report.stats.result_cache_misses == 1
        assert fresh.unreadable_entries >= 1
        assert report.result == _cold(dataset_b, ranking_b, query).result

    def test_identity_keyed_bounds_are_not_persisted(self, tmp_path):
        dataset, ranking = _instance(423, 48, [2, 3], 1.0)
        callable_bound = GlobalBoundSpec(lower_bounds=lambda k: 2.0)
        store = DiskResultStore(tmp_path)
        with AuditSession(dataset, ranking, store=store) as session:
            report = session.run(DetectionQuery(callable_bound, 2, 2, 20, "iter_td"))
        assert report.stats.result_cache_misses == 1
        assert store.skipped_inserts == 1
        assert list(tmp_path.glob("*.json")) == []

    def test_wider_insert_subsumes_files(self, tmp_path):
        dataset, ranking = _instance(425, 48, [2, 3], 1.0)
        store = DiskResultStore(tmp_path)
        with AuditSession(dataset, ranking, store=store) as session:
            session.run(DetectionQuery(FLAT, 2, 5, 15, "global_bounds"))
            session.run(DetectionQuery(FLAT, 2, 2, 30, "global_bounds"))
        names = sorted(p.name for p in tmp_path.glob("*.json"))
        assert len(names) == 1 and names[0].endswith("_2_30.json")


# -- disk-store hygiene: quarantine, size bound, concurrent writers -------------------
class TestNonPosixDegradation:
    def test_disk_store_works_without_fcntl(self, tmp_path, monkeypatch):
        """On platforms without :mod:`fcntl` the advisory writer lock degrades
        to a no-op and the store must stay fully functional (atomic replace
        remains the only cross-process guarantee): insert, containment lookup,
        eviction and clear all run without the module."""
        from repro.core import result_store as result_store_module

        monkeypatch.setattr(result_store_module, "_fcntl", None)
        dataset, ranking = _instance(439, 48, [2, 3], 1.0)
        store = DiskResultStore(tmp_path, max_entries=1)
        query = DetectionQuery(FLAT, 2, 2, 30, "global_bounds")
        with AuditSession(dataset, ranking, store=store,
                          result_cache_capacity=0) as session:
            session.run(query)
            served = session.run(DetectionQuery(FLAT, 2, 5, 20, "global_bounds"))
            assert served.stats.result_cache_hits == 1
            # The size bound still evicts (lock-free) when a second group lands.
            session.run(DetectionQuery(FLAT, 3, 2, 30, "global_bounds"))
        assert len(store) == 1
        assert store.evictions == 1
        # No advisory lock file was ever created, and clear() still works.
        assert not (tmp_path / ".lock").exists()
        store.clear()
        assert len(store) == 0


class TestDiskStoreHygiene:
    def test_corrupt_entry_is_quarantined_not_reparsed(self, tmp_path):
        """A corrupt file is renamed to *.corrupt on first contact, so later
        lookups neither re-parse nor re-count it — and the re-run sweep can
        repopulate the store under the same name."""
        from repro.core.engine.faults import FaultPlan

        dataset, ranking = _instance(433, 48, [2, 3], 1.0)
        query = DetectionQuery(FLAT, 2, 2, 30, "global_bounds")
        # The fault harness tears the first persisted entry mid-write.
        writer = DiskResultStore(tmp_path, fault_plan=FaultPlan(corrupt_store_inserts=(1,)))
        with AuditSession(dataset, ranking, store=writer) as session:
            session.run(query)
        assert len(writer) == 1  # the torn file is still a *.json at this point
        store = DiskResultStore(tmp_path)
        with AuditSession(dataset, ranking, store=store) as session:
            report = session.run(query)
        assert report.stats.result_cache_misses == 1
        assert report.result == _cold(dataset, ranking, query).result
        assert store.unreadable_entries == 1
        assert store.quarantined_entries == 1
        assert store.quarantined_entries == 1
        quarantined = list(tmp_path.glob("*.json.corrupt"))
        assert len(quarantined) == 1
        # The miss re-ran the sweep and re-inserted a healthy entry...
        assert len(store) == 1
        # ...and a fresh store serves it without touching the quarantined file.
        fresh = DiskResultStore(tmp_path)
        with AuditSession(dataset, ranking, store=fresh) as session:
            served = session.run(query)
        assert served.stats.result_cache_hits == 1
        assert fresh.unreadable_entries == 0
        assert fresh.quarantined_entries == 0

    def test_max_entries_evicts_least_recently_used(self, tmp_path):
        """The size bound evicts by mtime, and serving an entry refreshes its
        mtime — so the recently *used* sweep survives, not the recently written."""
        import time as time_module

        dataset, ranking = _instance(435, 48, [2, 3], 1.0)
        store = DiskResultStore(tmp_path, max_entries=2)
        query_a = DetectionQuery(FLAT, 2, 2, 20, "global_bounds")
        query_b = DetectionQuery(FLAT, 3, 2, 20, "global_bounds")
        query_c = DetectionQuery(FLAT, 4, 2, 20, "global_bounds")
        with AuditSession(dataset, ranking, store=store, result_cache_capacity=0) as session:
            session.run(query_a)
            time_module.sleep(0.02)
            session.run(query_b)
            time_module.sleep(0.02)
            # Serve A from disk: the hit touches its file, making B the LRU.
            served = session.run(DetectionQuery(FLAT, 2, 5, 15, "global_bounds"))
            assert served.stats.result_cache_hits == 1
            time_module.sleep(0.02)
            session.run(query_c)
        assert len(store) == 2
        assert store.evictions == 1
        fingerprint = ranking.fingerprint()
        assert store.coverage(fingerprint, query_group_key(query_a)) != ()
        assert store.coverage(fingerprint, query_group_key(query_b)) == ()
        assert store.coverage(fingerprint, query_group_key(query_c)) != ()

    def test_concurrent_writers_respect_bound(self, tmp_path):
        """Parallel inserts through the advisory lock keep the store within its
        bound and never lose or double-count an insert."""
        import threading

        dataset, ranking = _instance(437, 48, [2, 3], 1.0)
        query = DetectionQuery(FLAT, 2, 2, 10, "global_bounds")
        result = _cold(dataset, ranking, query).result
        fingerprint = dataset.fingerprint()
        store = DiskResultStore(tmp_path, max_entries=3)
        errors = []

        def writer(index: int) -> None:
            try:
                store.insert(fingerprint, ("group", index), query, result, None)
            except Exception as error:  # pragma: no cover - the assertion target
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert store.insertions == 8
        assert len(store) == 3
        assert store.evictions == 5
        assert (tmp_path / ".lock").exists()


# -- frontier serialisation -----------------------------------------------------------
class TestFrontierSerde:
    def test_round_trip(self):
        frontier = SweepFrontier(
            algorithm="prop_bounds",
            k=17,
            below={Pattern({"a": 1}): 3, Pattern({"a": 1, "b": 0}): 1},
            expanded={Pattern({"b": 2}): 9},
            sizes={Pattern({"a": 1}): 12, Pattern({"a": 1, "b": 0}): 5, Pattern({"b": 2}): 20},
        )
        loaded = frontier_from_dict(json.loads(json.dumps(frontier_to_dict(frontier))))
        assert loaded.algorithm == frontier.algorithm
        assert loaded.k == frontier.k
        assert loaded.below == frontier.below
        assert loaded.expanded == frontier.expanded
        assert loaded.sizes == frontier.sizes

    def test_as_state_copies(self):
        frontier = SweepFrontier(
            algorithm="global_bounds", k=5, below={Pattern({"a": 1}): 2}
        )
        state = frontier.as_state()
        state.below[Pattern({"b": 0})] = 1
        assert Pattern({"b": 0}) not in frontier.below

    def test_malformed_frontier_rejected(self):
        from repro.exceptions import DetectionError

        with pytest.raises(DetectionError):
            frontier_from_dict({"k": 3})
        with pytest.raises(DetectionError):
            frontier_from_dict({"algorithm": "iter_td", "k": 3, "below": "nope"})

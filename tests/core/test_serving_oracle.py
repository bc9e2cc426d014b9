"""Every session serving path against the brute-force oracle.

Cold detector runs are checked against :func:`brute_force_detection` in
``test_equivalence_properties.py``.  The session serves most queries some
other way: a containment hit sliced out of a cached sweep, a covering sweep
merged from overlapping ranges, a cached sweep extended on its suffix side or
its prefix side, or a sweep written to disk and read back in a fresh store.
Checking those paths only against the cold fast path would let a bug the two
share pass, so each one is checked here against the oracle, on random small
instances, with the provenance counters proving the path was really taken.

The process-sharded paths (a cold query and a suffix extension on a two-worker
session, and a query whose worker is killed and respawned mid-search) are
checked against the oracle too, on one fixed small instance per algorithm.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.brute_force import brute_force_detection
from repro.core.engine.faults import FaultPlan, kill_worker
from repro.core.engine.parallel import ExecutionConfig
from repro.core.pattern_graph import PatternCounter
from repro.core.planner import DetectionQuery
from repro.core.result_store import DiskResultStore
from repro.core.session import AuditSession
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.ranking.base import PrecomputedRanker

ALGORITHMS = ["iter_td", "global_bounds", "prop_bounds"]

ORACLE_SETTINGS = settings(max_examples=8, deadline=None)


@st.composite
def instances(draw, algorithm: str):
    """A small ranked dataset, a bound for ``algorithm``, ``tau_s`` and four
    strictly increasing k cut points ``a < b < c < d``."""
    n_attributes = draw(st.integers(min_value=1, max_value=3))
    cardinalities = [draw(st.integers(min_value=2, max_value=3)) for _ in range(n_attributes)]
    n_rows = draw(st.integers(min_value=16, max_value=48))
    spec = SyntheticSpec(
        n_rows=n_rows,
        cardinalities=cardinalities,
        score_weights=[
            draw(st.floats(min_value=-2.0, max_value=2.0)) for _ in range(n_attributes)
        ],
        noise=0.5,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    dataset = synthetic_dataset(spec)
    ranking = PrecomputedRanker(score_column="score").rank(dataset)
    if algorithm == "prop_bounds" or (algorithm == "iter_td" and draw(st.booleans())):
        bound = ProportionalBoundSpec(alpha=draw(st.floats(min_value=0.3, max_value=1.4)))
    else:
        bound = GlobalBoundSpec(lower_bounds=float(draw(st.integers(min_value=1, max_value=6))))
    tau_s = draw(st.integers(min_value=1, max_value=max(2, n_rows // 6)))
    cuts = sorted(
        draw(st.lists(st.integers(min_value=1, max_value=n_rows), min_size=4,
                      max_size=4, unique=True))
    )
    return dataset, ranking, bound, tau_s, cuts


def _oracle(dataset, ranking, query):
    counter = PatternCounter(dataset, ranking)
    return brute_force_detection(
        dataset, counter, query.bound, query.tau_s, query.k_min, query.k_max
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestServingPathsMatchTheOracle:
    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_containment_hit(self, algorithm, data):
        dataset, ranking, bound, tau_s, (a, b, c, d) = data.draw(instances(algorithm))
        nested = DetectionQuery(bound, tau_s, b, c, algorithm)
        with AuditSession(dataset, ranking) as session:
            session.run(DetectionQuery(bound, tau_s, a, d, algorithm))
            served = session.run(nested)
        assert served.stats.result_cache_hits == 1
        assert served.stats.full_searches == 0
        assert served.result == _oracle(dataset, ranking, nested)

    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_merged_ranges(self, algorithm, data):
        dataset, ranking, bound, tau_s, (a, b, c, d) = data.draw(instances(algorithm))
        batch = [
            DetectionQuery(bound, tau_s, a, c, algorithm),
            DetectionQuery(bound, tau_s, b, d, algorithm),
            DetectionQuery(bound, tau_s, b, c, algorithm),
        ]
        with AuditSession(dataset, ranking) as session:
            reports = session.run_many(batch)
        assert sum(r.stats.result_cache_misses for r in reports) == 1
        assert sum(r.stats.plan_merged_queries for r in reports) == 2
        for query, report in zip(batch, reports):
            assert report.result == _oracle(dataset, ranking, query)

    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_suffix_extension(self, algorithm, data):
        dataset, ranking, bound, tau_s, (a, b, c, d) = data.draw(instances(algorithm))
        widened = DetectionQuery(bound, tau_s, b, d, algorithm)
        with AuditSession(dataset, ranking) as session:
            session.run(DetectionQuery(bound, tau_s, a, c, algorithm))
            served = session.run(widened)
        assert served.stats.result_cache_partial_hits == 1
        assert served.stats.extended_k_values == d - c
        assert served.stats.prefix_extended_k_values == 0
        assert served.result == _oracle(dataset, ranking, widened)

    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_prefix_extension(self, algorithm, data):
        dataset, ranking, bound, tau_s, (a, b, c, d) = data.draw(instances(algorithm))
        widened = DetectionQuery(bound, tau_s, a, c, algorithm)
        with AuditSession(dataset, ranking) as session:
            session.run(DetectionQuery(bound, tau_s, b, d, algorithm))
            served = session.run(widened)
        assert served.stats.result_cache_partial_hits == 1
        assert served.stats.prefix_extended_k_values == b - a
        assert served.stats.extended_k_values == 0
        assert served.result == _oracle(dataset, ranking, widened)

    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_disk_round_trip(self, algorithm, data):
        dataset, ranking, bound, tau_s, (a, b, c, d) = data.draw(instances(algorithm))
        nested = DetectionQuery(bound, tau_s, b, c, algorithm)
        widened = DetectionQuery(bound, tau_s, a, d, algorithm)
        with tempfile.TemporaryDirectory() as directory:
            with AuditSession(dataset, ranking, store=DiskResultStore(directory)) as session:
                session.run(DetectionQuery(bound, tau_s, b, c, algorithm))
            # A fresh store over the same directory reads the sweep back.
            store = DiskResultStore(directory)
            with AuditSession(dataset, ranking, store=store) as session:
                contained = session.run(nested)
                extended = session.run(widened)
        assert store.unreadable_entries == 0
        assert contained.stats.result_cache_hits == 1
        assert extended.stats.result_cache_partial_hits == 1
        assert extended.stats.prefix_extended_k_values == b - a
        assert extended.stats.extended_k_values == d - c
        assert contained.result == _oracle(dataset, ranking, nested)
        assert extended.result == _oracle(dataset, ranking, widened)


# -- process shards and fault-recovered runs --------------------------------------
#: Per algorithm: the bound and ``tau_s`` of the fixed sharded instance, and the
#: worker-0 task that the fault plan kills.  IterTD shards every per-k search, so
#: its kill lands mid-sweep; GlobalBounds and PropBounds shard only their first
#: search, so theirs lands on it.
SHARDED_CASES = {
    "iter_td": (GlobalBoundSpec(lower_bounds=2.0), 2, 2),
    "global_bounds": (GlobalBoundSpec(lower_bounds=2.0), 2, 1),
    "prop_bounds": (ProportionalBoundSpec(alpha=0.8), 2, 1),
}


@pytest.fixture(scope="module")
def sharded_instance():
    """96 rows over four attributes: 143 lattice patterns, within oracle reach."""
    rng = np.random.default_rng(211)
    spec = SyntheticSpec(
        n_rows=96,
        cardinalities=[2, 3, 2, 3],
        score_weights=rng.uniform(-1.5, 1.5, size=4).tolist(),
        noise=0.4,
        seed=211,
    )
    dataset = synthetic_dataset(spec)
    ranking = PrecomputedRanker(score_column="score").rank(dataset)
    assert dataset.schema.total_patterns() <= 2_000
    return dataset, ranking


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestProcessShardsMatchTheOracle:
    def test_cold_query_and_suffix_extension(self, algorithm, sharded_instance):
        dataset, ranking = sharded_instance
        bound, tau_s, _ = SHARDED_CASES[algorithm]
        cold = DetectionQuery(bound, tau_s, 2, 12, algorithm)
        widened = DetectionQuery(bound, tau_s, 6, 20, algorithm)
        with AuditSession(dataset, ranking, execution=ExecutionConfig(workers=2)) as session:
            first = session.run(cold)
            extended = session.run(widened)
        assert first.stats.extra["pool_spawns"] == 1
        assert first.stats.extra["parallel_shards"] > 0
        assert extended.stats.result_cache_partial_hits == 1
        assert extended.stats.extended_k_values == 20 - 12
        assert first.result == _oracle(dataset, ranking, cold)
        assert extended.result == _oracle(dataset, ranking, widened)

    def test_killed_worker_recovery(self, algorithm, sharded_instance):
        dataset, ranking = sharded_instance
        bound, tau_s, at_task = SHARDED_CASES[algorithm]
        query = DetectionQuery(bound, tau_s, 2, 12, algorithm)
        config = ExecutionConfig(
            workers=2,
            retry_backoff=0.01,
            fault_plan=FaultPlan(actions=(kill_worker(0, at_task=at_task),)),
        )
        with AuditSession(dataset, ranking, execution=config) as session:
            report = session.run(query)
        assert report.stats.extra["parallel_shards"] > 0
        assert report.stats.worker_restarts == 1
        assert report.result == _oracle(dataset, ranking, query)

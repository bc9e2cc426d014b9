"""Lower bounds that no top-k count can violate.

A top-k count is never negative, so a pattern-independent lower bound at or
below zero at every ``k`` of a query's range flags no group.  IterTD,
GlobalBounds and PropBounds answer such a query with empty per-k sets and no
search (:func:`repro.core.detector.trivially_empty`); a search would expand the
whole lattice above ``tau_s`` only to prove the same, millions of nodes on the
Student data with all its attributes.
"""

from __future__ import annotations

import pytest

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.brute_force import brute_force_detection
from repro.core.global_bounds import GlobalBoundsDetector
from repro.core.iter_td import IterTDDetector
from repro.core.pattern_graph import PatternCounter
from repro.core.planner import DetectionQuery
from repro.core.prop_bounds import PropBoundsDetector
from repro.core.session import AuditSession
from repro.data.synthetic import SyntheticSpec, synthetic_dataset
from repro.experiments.workloads import student_workload
from repro.ranking.base import PrecomputedRanker

DETECTORS = {
    "iter_td": IterTDDetector,
    "global_bounds": GlobalBoundsDetector,
    "prop_bounds": PropBoundsDetector,
}

#: Lower bounds that are at most zero at every k (a constant, a negative
#: constant and a step schedule that climbs to zero).
UNVIOLABLE = [0.0, -1.0, {1: -2.0, 20: 0.0}]

#: Zero up to k 14, then 2 and 5: unviolable on k 5-14, violable past it.
STEPS_FROM_ZERO = {1: 0.0, 15: 2.0, 25: 5.0}


@pytest.fixture(scope="module")
def student():
    """Student at a quarter of its rows, with every one of its attributes."""
    workload = student_workload(scale=0.25)
    return workload.dataset(), workload.ranking()


@pytest.fixture(scope="module")
def small():
    spec = SyntheticSpec(
        n_rows=40, cardinalities=[2, 3, 2], score_weights=[1.2, -0.7, 0.4], noise=0.5, seed=5
    )
    dataset = synthetic_dataset(spec)
    return dataset, PrecomputedRanker(score_column="score").rank(dataset)


@pytest.mark.parametrize("lower", UNVIOLABLE)
@pytest.mark.parametrize("algorithm", DETECTORS)
def test_unviolable_bound_returns_empty_without_a_search(student, algorithm, lower):
    dataset, ranking = student
    detector = DETECTORS[algorithm](GlobalBoundSpec(lower_bounds=lower), 5, 10, 49)
    report = detector.detect(dataset, ranking)
    assert report.result == {k: frozenset() for k in range(10, 50)}
    stats = report.stats
    assert (stats.nodes_evaluated, stats.full_searches, stats.batch_evaluations) == (0, 0, 0)
    assert stats.elapsed_seconds < 1.0


@pytest.mark.parametrize("algorithm", DETECTORS)
def test_a_bound_above_zero_at_one_k_is_searched(small, algorithm):
    dataset, ranking = small
    bound = GlobalBoundSpec(lower_bounds=STEPS_FROM_ZERO)
    report = DETECTORS[algorithm](bound, 2, 5, 15).detect(dataset, ranking)
    assert report.stats.full_searches >= 1
    assert report.result == brute_force_detection(
        dataset, PatternCounter(dataset, ranking), bound, 2, 5, 15
    )


def test_a_proportional_bound_is_never_short_circuited(small):
    dataset, ranking = small
    report = PropBoundsDetector(ProportionalBoundSpec(alpha=0.8), 2, 5, 15).detect(
        dataset, ranking
    )
    assert report.stats.full_searches == 1


@pytest.mark.parametrize("algorithm", DETECTORS)
def test_session_widens_an_unviolable_sweep_like_the_oracle(small, algorithm):
    """The empty sweep of GlobalBounds and PropBounds carries no frontier, so
    widening it is a covering run; IterTD's stateless frontier still resumes."""
    dataset, ranking = small
    bound = GlobalBoundSpec(lower_bounds=STEPS_FROM_ZERO)
    with AuditSession(dataset, ranking) as session:
        for k_min, k_max in ((5, 14), (3, 24), (3, 30)):
            query = DetectionQuery(bound, tau_s=2, k_min=k_min, k_max=k_max, algorithm=algorithm)
            report = session.run(query)
            assert report.result == brute_force_detection(
                dataset, PatternCounter(dataset, ranking), bound, 2, k_min, k_max
            )
            if k_max == 14:
                assert report.stats.nodes_evaluated == 0
            elif k_max == 24:
                assert report.stats.result_cache_partial_hits == (algorithm == "iter_td")
            else:
                assert report.stats.result_cache_partial_hits == 1

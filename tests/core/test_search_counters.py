"""Pinned search and engine counters of the three lower-bound detectors, and
their independence from Python's string-hash seed.

GlobalBounds and PropBounds resume Algorithm 1's child loop
(:func:`repro.core.top_down.expand_parent`) beneath the patterns that stop
violating.  The counters pinned here were read on one fixed instance (Student,
its first 14 attributes, ``tau_s`` 50) for a cold k 10-49 sweep and for a suffix
extension to k 69 in the same session, so any change to what the loop visits or
counts moves one of them.  The engine counters of the same runs (and of a cold
sweep with a 200-entry match cache, which evicts) are pinned too, so a change to
how sibling blocks are built, reused or counted is a visible change as well.

Run as a script, this module prints each detector's statistics for a cold sweep
with a 200-entry match cache as JSON.  The hash-seed tests compare that output
between two interpreters started with different ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.bounds import ProportionalBoundSpec, paper_default_global_bounds
from repro.core.engine.counting import CountingEngine
from repro.core.engine.parallel import ExecutionConfig
from repro.core.planner import DetectionQuery
from repro.core.session import AuditSession
from repro.experiments.workloads import student_workload
from repro.ranking.base import Ranking

BOUNDS = {
    "iter_td": paper_default_global_bounds,
    "global_bounds": paper_default_global_bounds,
    "prop_bounds": lambda: ProportionalBoundSpec(alpha=0.8),
}

#: (nodes_generated, nodes_evaluated, size_computations, full_searches,
#: incremental_steps, k_tilde_scheduled) of each algorithm's cold k 10-49 sweep
#: and of the suffix extension to k 69 that follows it.
PINNED = {
    ("iter_td", "cold"): (8462, 4244, 8462, 40, 0, 0),
    ("iter_td", "extension"): (7050, 4108, 7050, 20, 0, 0),
    ("global_bounds", "cold"): (1891, 1770, 1891, 4, 36, 0),
    ("global_bounds", "extension"): (445, 1137, 445, 0, 20, 0),
    ("prop_bounds", "cold"): (19422, 11485, 18692, 1, 39, 4425),
    ("prop_bounds", "extension"): (3726, 5031, 3544, 0, 20, 1166),
}

#: (batch_evaluations, block_reuses, cache_hits, cache_misses, cache_evictions)
#: of the same runs.
PINNED_ENGINE = {
    ("iter_td", "cold"): (304, 1817, 2107, 383, 0),
    ("iter_td", "extension"): (0, 1755, 1755, 0, 0),
    ("global_bounds", "cold"): (304, 163, 453, 383, 0),
    ("global_bounds", "extension"): (0, 107, 107, 0, 0),
    ("prop_bounds", "cold"): (3263, 1564, 4813, 4238, 0),
    ("prop_bounds", "extension"): (51, 860, 911, 60, 0),
}

#: The same engine counters of each algorithm's cold sweep with a 200-entry
#: match cache (:func:`cold_sweep_stats`).
PINNED_SMALL_CACHE_ENGINE = {
    "iter_td": (614, 1507, 2080, 693, 414),
    "global_bounds": (382, 85, 439, 467, 182),
    "prop_bounds": (4760, 67, 4762, 7474, 5867),
}

ENGINE_COUNTERS = (
    "batch_evaluations", "block_reuses", "cache_hits", "cache_misses", "cache_evictions",
)

PHASES = {"cold": 49, "extension": 69}


def student_instance():
    """Student (395 rows) restricted to its first 14 attributes, ranked by G3."""
    workload = student_workload()
    dataset = workload.projected(14)
    return dataset, Ranking(dataset, workload.ranking().order)


def _query(algorithm: str, k_max: int) -> DetectionQuery:
    return DetectionQuery(BOUNDS[algorithm](), tau_s=50, k_min=10, k_max=k_max,
                          algorithm=algorithm)


def cold_sweep_stats() -> dict[str, dict]:
    """Each detector's statistics for a cold k 10-49 sweep with a 200-entry match
    cache, without ``elapsed_seconds``."""
    dataset, ranking = student_instance()
    observed = {}
    for algorithm in BOUNDS:
        execution = ExecutionConfig(match_cache_capacity=200)
        with AuditSession(dataset, ranking, execution=execution) as session:
            stats = session.run(_query(algorithm, PHASES["cold"])).stats.as_dict()
        del stats["elapsed_seconds"]
        observed[algorithm] = stats
    return observed


@pytest.fixture(scope="module")
def sweep_stats():
    dataset, ranking = student_instance()
    observed = {}
    for algorithm in BOUNDS:
        with AuditSession(dataset, ranking) as session:
            for phase, k_max in PHASES.items():
                observed[algorithm, phase] = session.run(_query(algorithm, k_max)).stats
    return observed


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("algorithm", BOUNDS)
def test_search_counters_are_pinned(sweep_stats, algorithm, phase):
    stats = sweep_stats[algorithm, phase]
    assert stats.result_cache_partial_hits == (phase == "extension")
    assert (
        stats.nodes_generated,
        stats.nodes_evaluated,
        stats.size_computations,
        stats.full_searches,
        stats.extra.get("incremental_steps", 0),
        stats.extra.get("k_tilde_scheduled", 0),
    ) == PINNED[algorithm, phase]
    if algorithm == "prop_bounds":
        # A re-promoted pattern meets children it classified before its demotion,
        # so expand_parent's visited skip takes them back out of size_computations.
        assert stats.size_computations < stats.nodes_generated


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("algorithm", BOUNDS)
def test_engine_counters_are_pinned(sweep_stats, algorithm, phase):
    stats = sweep_stats[algorithm, phase].as_dict()
    assert tuple(stats[name] for name in ENGINE_COUNTERS) == PINNED_ENGINE[algorithm, phase]


def test_every_block_of_an_iter_td_sweep_is_evaluated_by_child_block(monkeypatch):
    """perfbench times block evaluation by wrapping ``CountingEngine.child_block``
    on the class (its ``engine`` layer), so a block built or reused any other way
    would leave that layer without a trace."""
    calls = []
    child_block = CountingEngine.child_block

    def wrapped(self, *args, **kwargs):
        calls.append(args)
        return child_block(self, *args, **kwargs)

    monkeypatch.setattr(CountingEngine, "child_block", wrapped)
    dataset, ranking = student_instance()
    with AuditSession(dataset, ranking) as session:
        stats = session.run(_query("iter_td", PHASES["cold"])).stats
    assert len(calls) == stats.batch_evaluations + stats.extra["block_reuses"] > 0


@pytest.fixture(scope="module")
def stats_by_hash_seed():
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    observed = {}
    for seed in (0, 1):
        environment["PYTHONHASHSEED"] = str(seed)
        completed = subprocess.run(
            [sys.executable, __file__],
            check=True,
            capture_output=True,
            text=True,
            env=environment,
            timeout=300,
        )
        observed[seed] = json.loads(completed.stdout)
    return observed


@pytest.mark.parametrize("algorithm", BOUNDS)
def test_stats_do_not_depend_on_the_hash_seed(stats_by_hash_seed, algorithm):
    assert stats_by_hash_seed[0][algorithm] == stats_by_hash_seed[1][algorithm]


@pytest.mark.parametrize("algorithm", BOUNDS)
def test_small_cache_engine_counters_are_pinned(stats_by_hash_seed, algorithm):
    stats = stats_by_hash_seed[0][algorithm]
    assert tuple(stats[name] for name in ENGINE_COUNTERS) == PINNED_SMALL_CACHE_ENGINE[algorithm]


if __name__ == "__main__":
    json.dump(cold_sweep_stats(), sys.stdout)

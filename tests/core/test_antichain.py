"""Minimality kept across k: the :class:`~repro.core.result_set.Antichain` a
:class:`~repro.core.top_down.SearchState` owns, and the one traced
``minimal_patterns`` call per k that the incremental detectors make.

Every check compares :meth:`SearchState.most_general` with a pairwise reference
antichain (sort by length, keep a pattern unless an accepted one is a subset of
it), which shares no code with :func:`~repro.core.result_set.minimal_patterns`.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

import repro.core.top_down as top_down
from repro.core.bounds import ProportionalBoundSpec, paper_default_global_bounds
from repro.core.global_bounds import GlobalBoundsDetector
from repro.core.pattern import EMPTY_PATTERN, Pattern
from repro.core.prop_bounds import PropBoundsDetector
from repro.core.result_set import Antichain, minimal_patterns
from repro.core.top_down import SearchState, SweepFrontier
from repro.experiments.workloads import student_workload
from repro.ranking.base import Ranking


def reference(patterns) -> frozenset[Pattern]:
    accepted: list[Pattern] = []
    for pattern in sorted(set(patterns), key=len):
        if not any(member.is_subset_of(pattern) for member in accepted):
            accepted.append(pattern)
    return frozenset(accepted)


def check(state: SearchState) -> None:
    assert state.most_general() == reference(state.below)


class TestSearchStateAntichain:
    def test_most_general_tracks_every_kind_of_change(self):
        a1, a2, b1 = Pattern(A=1), Pattern(A=2), Pattern(B=1)
        a1b1, a1c0, b1c0 = Pattern(A=1, B=1), Pattern(A=1, C=0), Pattern(B=1, C=0)
        a1b1c0 = Pattern(A=1, B=1, C=0)
        state = SearchState()
        check(state)

        # Inserts: deep first, then an ancestor that subsumes them.
        for pattern in (a1b1c0, a1c0, b1c0):
            state.below[pattern] = 0
            check(state)
        state.below[a1] = 0
        check(state)
        assert state.most_general() == {a1, b1c0}

        # Equal-length patterns never subsume each other.
        state.below[a2] = 0
        state.below[b1] = 0
        check(state)
        assert state.most_general() == {a1, a2, b1}

        # Deleting a witness re-exposes what it subsumed.
        del state.below[a1]
        check(state)
        assert state.most_general() == {a1c0, a2, b1}
        del state.below[b1]
        check(state)

        # Re-insert equal but distinct objects, one with a numpy value.
        state.below[Pattern({"A": 1})] = 3
        check(state)
        state.below[Pattern({"B": np.int64(1)})] = 0
        check(state)
        assert state.most_general() == {a1, a2, b1}

        # Count bumps leave the key set alone.
        for pattern in list(state.below):
            state.below[pattern] += 1
            check(state)

        # The empty pattern subsumes everything, and leaving restores the rest.
        state.below[EMPTY_PATTERN] = 0
        check(state)
        assert state.most_general() == {EMPTY_PATTERN}
        state.below[a1b1] = 0
        check(state)
        del state.below[EMPTY_PATTERN]
        check(state)
        assert state.most_general() == {a1, a2, b1}

        # A merge folds in patterns that subsume and are subsumed.
        other = SearchState(below={Pattern(C=0): 2, Pattern(A=2, D=5): 1, Pattern(D=5): 1})
        state.merge(other)
        check(state)
        assert state.most_general() == {a1, a2, b1, Pattern(C=0), Pattern(D=5)}
        del state.below[Pattern(C=0)]
        check(state)

        # A frontier snapshot and the state resumed from it evolve independently.
        frontier = SweepFrontier.from_state("global_bounds", 10, state)
        resumed = frontier.as_state()
        check(resumed)
        del resumed.below[a1]
        resumed.below[Pattern(B=2, C=0)] = 0
        check(resumed)
        check(state)
        assert frontier.as_state().most_general() == state.most_general()

        # A pickle or copy round trip carries the classification, not the bookkeeping.
        for clone in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
            check(clone)
            del clone.below[b1]
            clone.below[EMPTY_PATTERN] = 0
            check(clone)
            del clone.below[EMPTY_PATTERN]
            check(clone)
        check(state)

    def test_pickled_state_carries_no_antichain(self):
        state = SearchState(below={Pattern(A=1): 0, Pattern(A=1, B=2): 0}, sizes={Pattern(A=1): 9})
        state.most_general()
        payload = pickle.dumps(state)
        assert b"Antichain" not in payload
        clone = pickle.loads(payload)
        assert clone == state
        assert isinstance(clone.antichain, Antichain)
        assert clone.antichain is not state.antichain
        check(clone)

    def test_states_compare_without_their_antichains(self):
        first = SearchState(below={Pattern(A=1): 0})
        second = SearchState(below={Pattern(A=1): 0})
        first.most_general()
        assert first == second


class TestAntichainRandomized:
    def test_random_edit_sequences_match_the_reference(self):
        rng = np.random.default_rng(22)
        names = ["A", "B", "C", "D", "E", "F"]
        for _ in range(60):
            antichain = Antichain()
            below: dict[Pattern, int] = {}
            for _ in range(25):
                for _ in range(int(rng.integers(0, 6))):
                    if rng.random() < 0.04:
                        pattern = EMPTY_PATTERN
                    else:
                        width = int(rng.integers(1, len(names) + 1))
                        chosen = rng.choice(len(names), size=width, replace=False)
                        pattern = Pattern({names[i]: int(rng.integers(0, 3)) for i in chosen})
                    below[pattern] = 0
                for pattern in list(below):
                    if rng.random() < 0.2:
                        del below[pattern]
                expected = reference(below)
                assert minimal_patterns(below, antichain) == expected
                assert minimal_patterns(below) == expected


def _student_instance():
    workload = student_workload()
    dataset = workload.projected(14)
    return dataset, Ranking(dataset, workload.ranking().order)


@pytest.mark.parametrize(
    "detector_class,bound",
    [
        (GlobalBoundsDetector, paper_default_global_bounds()),
        (PropBoundsDetector, ProportionalBoundSpec(alpha=0.8)),
    ],
    ids=["global_bounds", "prop_bounds"],
)
def test_one_traced_minimality_call_per_k(monkeypatch, detector_class, bound):
    """The benchmark tracer times minimality by wrapping the module global
    ``repro.core.top_down.minimal_patterns``; each k must reach it exactly once,
    with the state's ``below`` first, or minimality time would move unseen into
    the ``search`` layer."""
    calls: list[tuple] = []
    states: list[SearchState] = []
    original_minimal = top_down.minimal_patterns
    original_most_general = SearchState.most_general

    def traced_minimal(*args, **kwargs):
        calls.append(args)
        return original_minimal(*args, **kwargs)

    def recorded_most_general(self):
        states.append(self)
        return original_most_general(self)

    monkeypatch.setattr(top_down, "minimal_patterns", traced_minimal)
    monkeypatch.setattr(SearchState, "most_general", recorded_most_general)
    dataset, ranking = _student_instance()
    report = detector_class(bound, tau_s=50, k_min=10, k_max=49).detect(dataset, ranking)

    assert len(report.result) == 40
    assert len(calls) == len(states) == 40
    for args, state in zip(calls, states):
        assert args[0] is state.below

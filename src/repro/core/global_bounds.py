"""GlobalBounds — optimized detection for global representation bounds (Algorithm 2).

The key observation (Proposition 4.3) is that the top-k and top-(k+1) prefixes differ
by a single tuple, so while the lower bound ``L_k`` stays constant the only patterns
whose top-k count changes are the ones satisfied by the newly added tuple
``R(D)[k]``.  The detector therefore keeps the full search state between consecutive
values of ``k`` and only

* bumps the counts of below-bound patterns satisfied by the new tuple, and
* resumes the top-down search underneath patterns that thereby stop violating the
  bound (their subtree was never explored before).

A fresh top-down search is started whenever the bound schedule steps up, exactly as
in the paper's Algorithm 2.
"""

from __future__ import annotations

from collections import deque

from repro.core.bounds import BoundSpec
from repro.core.detector import DetectionParameters, Detector, SearchFn, trivially_empty
from repro.core.engine.parallel import ExecutionConfig
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternCounter
from repro.core.result_set import DetectionResult
from repro.core.stats import SearchStats
from repro.core.top_down import SearchState, SweepFrontier, SweepOutcome, run_search
from repro.exceptions import DetectionError


class GlobalBoundsDetector(Detector):
    """Incremental detector for Problem 3.1 (global representation bounds)."""

    name = "GlobalBounds"

    def __init__(
        self,
        bound: BoundSpec,
        tau_s: int,
        k_min: int,
        k_max: int,
        execution: ExecutionConfig | None = None,
    ) -> None:
        if bound.pattern_dependent:
            raise DetectionError(
                "GlobalBounds requires a pattern-independent bound (e.g. GlobalBoundSpec); "
                "use PropBoundsDetector for proportional representation"
            )
        super().__init__(
            DetectionParameters(
                bound=bound, tau_s=tau_s, k_min=k_min, k_max=k_max, execution=execution
            )
        )

    def _sweep(
        self, counter: PatternCounter, stats: SearchStats, search: SearchFn
    ) -> SweepOutcome:
        parameters = self.parameters
        empty = trivially_empty(parameters, counter.dataset_size)
        if empty is not None:
            # No frontier: a later suffix is served by a covering run.
            return SweepOutcome(empty)
        state = search(parameters.bound, parameters.k_min, parameters.tau_s, stats)
        return self._advance(
            counter, stats, search, state, {parameters.k_min: state.most_general()},
            parameters.k_min + 1,
        )

    def _resume(
        self,
        counter: PatternCounter,
        stats: SearchStats,
        search: SearchFn,
        frontier: SweepFrontier,
    ) -> SweepOutcome:
        self._check_resume_frontier(frontier, "global_bounds")
        empty = trivially_empty(self.parameters, counter.dataset_size)
        if empty is not None:
            return SweepOutcome(empty)
        # The state evolution at k > frontier.k depends only on the reached
        # classification (never on where the sweep started or its old k_max), so
        # resuming from the frontier reproduces the cold run's suffix exactly.
        return self._advance(
            counter, stats, search, frontier.as_state(), {}, self.parameters.k_min
        )

    def _advance(
        self,
        counter: PatternCounter,
        stats: SearchStats,
        search: SearchFn,
        state: SearchState,
        per_k: dict[int, frozenset[Pattern]],
        k_from: int,
    ) -> SweepOutcome:
        """Advance ``state`` over ``[k_from, k_max]``, adding each k to ``per_k``."""
        parameters = self.parameters
        bound = parameters.bound
        for k in range(k_from, parameters.k_max + 1):
            if bound.lower_changes_at(k, 0, counter.dataset_size):
                # The incremental step is only valid while L_k is unchanged; restart.
                state = search(bound, k, parameters.tau_s, stats)
            else:
                self._incremental_step(counter, bound, state, k, stats)
            per_k[k] = state.most_general()
        return SweepOutcome(
            DetectionResult(per_k),
            SweepFrontier.from_state("global_bounds", parameters.k_max, state),
        )

    def _incremental_step(
        self,
        counter: PatternCounter,
        bound: BoundSpec,
        state: SearchState,
        k: int,
        stats: SearchStats,
    ) -> None:
        """Advance the search state from ``k - 1`` to ``k`` under an unchanged bound."""
        lower = bound.lower(k, 0, counter.dataset_size)
        queue: deque[Pattern] = deque()

        # Only below-bound patterns satisfied by the newly added tuple R(D)[k] can
        # change category (Proposition 4.3); counts of expanded nodes are irrelevant
        # until the next bound step, which triggers a fresh search anyway.
        touched = counter.satisfying(k, state.below)
        stats.bump("incremental_steps")
        for pattern in touched:
            new_count = state.below[pattern] + 1
            stats.nodes_evaluated += 1
            if new_count < lower:
                state.below[pattern] = new_count
            else:
                del state.below[pattern]
                state.expanded[pattern] = new_count
                queue.append(pattern)

        # Resume Algorithm 1 underneath the patterns that stopped violating: their
        # subtrees were never explored.
        run_search(counter, bound, k, self.parameters.tau_s, state, stats, queue)

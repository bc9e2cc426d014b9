"""PropBounds — optimized detection for proportional representation (Algorithm 3).

For proportional bounds the GlobalBounds optimization does not apply directly: the
bound ``alpha * s_D(p) * k / |D|`` of *every* pattern grows with ``k``, so a pattern
untouched by the newly added tuple can still start violating its bound.  Following
the paper, the detector tracks for every above-bound (expanded) pattern its k-tilde —
the first ``k`` at which the pattern would fall below its bound if its top-k count
stopped growing — and schedules a re-examination at that point.  Between consecutive
values of ``k`` only three kinds of work are performed:

1. counts of visited patterns satisfied by the newly added tuple are bumped (and
   their k-tilde rescheduled);
2. below-bound patterns whose bumped count now meets the bound are expanded and the
   search resumes in their previously unexplored subtree;
3. expanded patterns whose scheduled k-tilde equals the current ``k`` (and whose
   count was not bumped past the bound) move to the below-bound frontier.

The most general patterns at each ``k`` are the minimal elements of the below-bound
frontier, exactly as for the baseline.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.core.bounds import BoundSpec
from repro.core.detector import DetectionParameters, Detector, SearchFn, trivially_empty
from repro.core.engine.parallel import ExecutionConfig
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternCounter
from repro.core.result_set import DetectionResult
from repro.core.stats import SearchStats
from repro.core.top_down import (
    SearchState,
    SweepFrontier,
    SweepOutcome,
    constant_lower_bound,
    expand_parent,
)


class PropBoundsDetector(Detector):
    """Incremental detector for Problem 3.2 (proportional representation bias).

    The implementation only assumes that the lower bound of every pattern is
    non-decreasing in ``k``, so it also accepts pattern-independent bound
    specifications; the paper's Algorithm 3 corresponds to using it with a
    :class:`~repro.core.bounds.ProportionalBoundSpec`.
    """

    name = "PropBounds"

    def __init__(
        self,
        bound: BoundSpec,
        tau_s: int,
        k_min: int,
        k_max: int,
        execution: ExecutionConfig | None = None,
    ) -> None:
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
            counter, stats, state, {parameters.k_min: state.most_general()},
            parameters.k_min, parameters.k_min + 1,
        )

    def _resume(
        self,
        counter: PatternCounter,
        stats: SearchStats,
        search: SearchFn,
        frontier: SweepFrontier,
    ) -> SweepOutcome:
        self._check_resume_frontier(frontier, "prop_bounds")
        empty = trivially_empty(self.parameters, counter.dataset_size)
        if empty is not None:
            return SweepOutcome(empty)
        # The k-tilde schedule is rebuilt rather than persisted: every pop due at
        # or before frontier.k has already fired, so each surviving expanded
        # pattern's first possible violation is the same whether computed at its
        # last bump or at the frontier — and patterns whose k-tilde fell beyond
        # the old k_max are scheduled by the larger horizon exactly as a cold
        # run over the combined range would have scheduled them.
        return self._advance(
            counter, stats, frontier.as_state(), {}, frontier.k, self.parameters.k_min
        )

    def _advance(
        self,
        counter: PatternCounter,
        stats: SearchStats,
        state: SearchState,
        per_k: dict[int, frozenset[Pattern]],
        schedule_k: int,
        k_from: int,
    ) -> SweepOutcome:
        """Schedule the expanded patterns at ``schedule_k``, then advance the
        incremental steps over ``[k_from, k_max]``, adding each k to ``per_k``."""
        parameters = self.parameters
        bound = parameters.bound
        # k-tilde bookkeeping: schedule[k] holds the expanded patterns whose
        # earliest possible violation is at k; k_tilde_of is the reverse index.
        # Buckets are insertion-ordered dicts, not sets, so step 3 visits due
        # patterns in the same order under every string-hash seed.
        schedule: dict[int, dict[Pattern, None]] = defaultdict(dict)
        k_tilde_of: dict[Pattern, int] = {}
        for pattern, count in state.expanded.items():
            self._schedule(bound, state, schedule, k_tilde_of, pattern, count, schedule_k,
                           counter.dataset_size, stats)
        for k in range(k_from, parameters.k_max + 1):
            self._incremental_step(counter, bound, state, schedule, k_tilde_of, k, stats)
            per_k[k] = state.most_general()
        return SweepOutcome(
            DetectionResult(per_k),
            SweepFrontier.from_state("prop_bounds", parameters.k_max, state),
        )

    # -- k-tilde bookkeeping ---------------------------------------------------
    def _schedule(
        self,
        bound: BoundSpec,
        state: SearchState,
        schedule: dict[int, dict[Pattern, None]],
        k_tilde_of: dict[Pattern, int],
        pattern: Pattern,
        count: int,
        k: int,
        dataset_size: int,
        stats: SearchStats,
    ) -> None:
        """(Re)compute the k-tilde of an expanded ``pattern`` given its current count."""
        self._unschedule(schedule, k_tilde_of, pattern)
        k_tilde = bound.next_violation_k(
            count, k, self.parameters.k_max, state.sizes[pattern], dataset_size
        )
        if k_tilde is not None:
            k_tilde_of[pattern] = k_tilde
            schedule[k_tilde][pattern] = None
            stats.bump("k_tilde_scheduled")

    @staticmethod
    def _unschedule(
        schedule: dict[int, dict[Pattern, None]],
        k_tilde_of: dict[Pattern, int],
        pattern: Pattern,
    ) -> None:
        previous = k_tilde_of.pop(pattern, None)
        if previous is not None:
            schedule[previous].pop(pattern, None)

    # -- incremental step --------------------------------------------------------
    def _incremental_step(
        self,
        counter: PatternCounter,
        bound: BoundSpec,
        state: SearchState,
        schedule: dict[int, dict[Pattern, None]],
        k_tilde_of: dict[Pattern, int],
        k: int,
        stats: SearchStats,
    ) -> None:
        dataset_size = counter.dataset_size
        queue: deque[Pattern] = deque()
        stats.bump("incremental_steps")

        # Both touched sets are snapshotted *before* any category changes: a
        # pattern demoted from expanded to below in step 1a must not be bumped a
        # second time for the same tuple in step 1b (Algorithm 3 computes the set
        # of patterns satisfied by R(D)[k] once).
        touched_expanded = counter.satisfying(k, state.expanded)
        touched_below = counter.satisfying(k, state.below)

        # Step 1a: expanded patterns satisfied by the new tuple R(D)[k].
        for pattern in touched_expanded:
            new_count = state.expanded[pattern] + 1
            stats.nodes_evaluated += 1
            if new_count < bound.lower(k, state.sizes[pattern], dataset_size):
                # The bound grew faster than the count: the pattern is now biased.
                del state.expanded[pattern]
                state.below[pattern] = new_count
                self._unschedule(schedule, k_tilde_of, pattern)
            else:
                state.expanded[pattern] = new_count
                self._schedule(bound, state, schedule, k_tilde_of, pattern, new_count, k,
                               dataset_size, stats)

        # Step 1b: below-bound patterns satisfied by the new tuple.
        for pattern in touched_below:
            new_count = state.below[pattern] + 1
            stats.nodes_evaluated += 1
            if new_count < bound.lower(k, state.sizes[pattern], dataset_size):
                state.below[pattern] = new_count
            else:
                del state.below[pattern]
                state.expanded[pattern] = new_count
                self._schedule(bound, state, schedule, k_tilde_of, pattern, new_count, k,
                               dataset_size, stats)
                queue.append(pattern)

        # Step 2: resume Algorithm 1 underneath the newly expanded patterns; every
        # pattern it expands is scheduled before its own subtree is queued.
        def expanded(child: Pattern) -> None:
            self._schedule(bound, state, schedule, k_tilde_of, child, state.expanded[child],
                           k, dataset_size, stats)
            queue.append(child)

        constant_lower = constant_lower_bound(bound, k, dataset_size)
        while queue:
            expand_parent(counter, bound, k, self.parameters.tau_s, dataset_size, state,
                          stats, queue.popleft(), constant_lower, expanded)

        # Step 3: expanded patterns whose k-tilde is due (and were not bumped past it).
        due = schedule.pop(k, {})
        for pattern in due:
            if pattern not in state.expanded:
                continue
            k_tilde_of.pop(pattern, None)
            count = state.expanded[pattern]
            stats.nodes_evaluated += 1
            if count < bound.lower(k, state.sizes[pattern], dataset_size):
                del state.expanded[pattern]
                state.below[pattern] = count
            else:
                self._schedule(bound, state, schedule, k_tilde_of, pattern, count, k,
                               dataset_size, stats)

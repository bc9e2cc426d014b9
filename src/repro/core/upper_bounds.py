"""Upper-bound variants of the detection problem (Section III, "Upper bounds").

For upper bounds the most *specific* patterns are the informative ones: if the number
of black females in the top-k exceeds the upper bound then so does the number of
blacks and the number of females, so reporting the most general violating pattern
would be vacuous.  Following the paper's sketch, a pattern ``p`` is a *most specific
substantial* pattern if ``s_D(p) >= tau_s`` and every strictly more specific pattern
falls below the size threshold; the upper-bound problem reports, for each ``k``, the
most specific substantial patterns whose top-k count exceeds ``U_k``.

The module also provides the complementary "most general above the upper bound"
variant mentioned by the paper for completeness.
"""

from __future__ import annotations

from collections import deque

from repro.core.bounds import BoundSpec
from repro.core.detector import DetectionParameters, Detector, SearchFn
from repro.core.engine.parallel import ExecutionConfig
from repro.core.pattern import EMPTY_PATTERN, Pattern
from repro.core.pattern_graph import PatternCounter
from repro.core.result_set import DetectionResult, minimal_patterns
from repro.core.stats import SearchStats
from repro.core.top_down import SweepFrontier, SweepOutcome
from repro.exceptions import DetectionError


def substantial_patterns(
    counter: PatternCounter,
    tau_s: int,
    stats: SearchStats | None = None,
) -> dict[Pattern, int]:
    """All patterns with ``s_D(p) >= tau_s`` (the "substantial" patterns), with sizes.

    Size is anti-monotone under specialisation, so the substantial patterns form a
    downward-closed set that a top-down traversal enumerates exactly once.
    """
    stats = stats if stats is not None else SearchStats()
    tree = counter.tree
    result: dict[Pattern, int] = {}
    roots = list(tree.children(EMPTY_PATTERN))
    stats.nodes_generated += len(roots)
    queue: deque[Pattern] = deque(roots)
    while queue:
        pattern = queue.popleft()
        size = counter.size(pattern)
        stats.size_computations += 1
        if size < tau_s:
            continue
        result[pattern] = size
        children = list(tree.children(pattern))
        stats.nodes_generated += len(children)
        queue.extend(children)
    return result


def most_specific_substantial(
    counter: PatternCounter,
    tau_s: int,
    stats: SearchStats | None = None,
) -> dict[Pattern, int]:
    """The most specific substantial patterns (no strict specialisation stays substantial).

    Because size is anti-monotone it suffices to check the immediate children in the
    *pattern graph* (adding any single attribute-value pair).  The substantial set is
    complete, so a child missing from it is below ``tau_s`` and needs no size count.
    """
    stats = stats if stats is not None else SearchStats()
    schema = counter.dataset.schema
    substantial = substantial_patterns(counter, tau_s, stats)
    result: dict[Pattern, int] = {}
    for pattern, size in substantial.items():
        is_most_specific = True
        for attribute in schema:
            if attribute.name in pattern:
                continue
            for value in attribute.values:
                if pattern.extend(attribute.name, value) in substantial:
                    is_most_specific = False
                    break
            if not is_most_specific:
                break
        if is_most_specific:
            result[pattern] = size
    return result


class UpperBoundsDetector(Detector):
    """Detect over-represented groups: most specific substantial patterns above ``U_k``."""

    name = "UpperBounds"
    # The candidate enumeration is a plain size-threshold traversal, not a
    # bound-driven top-down search; no full searches means no parallel executor.
    uses_search = False

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
        if bound.upper(k_min, 1, 1) is None:
            raise DetectionError("UpperBoundsDetector requires a bound specification with upper bounds")

    def _sweep(
        self, counter: PatternCounter, stats: SearchStats, search: SearchFn
    ) -> SweepOutcome:
        candidates = most_specific_substantial(counter, self.parameters.tau_s, stats)
        return self._evaluate(counter, stats, candidates)

    def _resume(
        self,
        counter: PatternCounter,
        stats: SearchStats,
        search: SearchFn,
        frontier: SweepFrontier,
    ) -> SweepOutcome:
        self._check_resume_frontier(frontier, "upper_bounds")
        # The candidate set (most specific substantial patterns) is independent
        # of k, so an extension reuses the frontier's cached candidates and only
        # evaluates the suffix k values.
        return self._evaluate(counter, stats, dict(frontier.sizes))

    def _evaluate(
        self,
        counter: PatternCounter,
        stats: SearchStats,
        candidates: dict[Pattern, int],
    ) -> SweepOutcome:
        parameters = self.parameters
        bound = parameters.bound
        dataset_size = counter.dataset_size
        per_k = {}
        for k in parameters.k_range():
            violating = set()
            for pattern, size in candidates.items():
                count = counter.top_k_count(pattern, k)
                stats.nodes_evaluated += 1
                if bound.violates_upper(count, k, size, dataset_size):
                    violating.add(pattern)
            per_k[k] = violating
        # The candidate sizes ride in the frontier's `sizes` slot so extensions
        # skip the substantial-pattern enumeration entirely.
        return SweepOutcome(
            DetectionResult(per_k),
            SweepFrontier(algorithm="upper_bounds", k=parameters.k_max, sizes=dict(candidates)),
        )


def most_general_above_upper(
    counter: PatternCounter,
    bound: BoundSpec,
    tau_s: int,
    k: int,
    stats: SearchStats | None = None,
) -> frozenset[Pattern]:
    """The alternative variant: most general substantial patterns exceeding ``U_k``.

    The top-k count is anti-monotone under specialisation, so if a pattern exceeds the
    upper bound all of its generalisations do as well; the most general violating
    patterns are therefore always single-attribute patterns (or none).  The function
    is provided for completeness of Problem 3.1's statement.
    """
    stats = stats if stats is not None else SearchStats()
    dataset_size = counter.dataset_size
    substantial = substantial_patterns(counter, tau_s, stats)
    violating = []
    for pattern, size in substantial.items():
        count = counter.top_k_count(pattern, k)
        stats.nodes_evaluated += 1
        if bound.violates_upper(count, k, size, dataset_size):
            violating.append(pattern)
    return minimal_patterns(violating)

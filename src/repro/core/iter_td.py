"""IterTD — the baseline detection algorithm (Section IV-A).

For every ``k`` in the requested range the baseline re-runs the top-down search of
Algorithm 1 from scratch and reports the most general patterns whose top-k count
falls below the lower bound.  It works unchanged for both problem definitions
(global representation bounds and proportional representation) because the bound is
abstracted behind :class:`~repro.core.bounds.BoundSpec`.

Although the baseline's *traversal* restarts per k, its counting rides the engine's
k-sweep fast path: the first sweep populates cached sibling blocks, and the search
at ``k + 1`` finds each of them counted at ``k``, so a block's counts step by the
one tuple that enters the top-k (Proposition 4.3) instead of being re-counted.  The
k_min..k_max range therefore costs neither a mask scan nor a prefix count per
(block, k); the traversal and its counters are still the paper's baseline.
"""

from __future__ import annotations

from repro.core.bounds import BoundSpec
from repro.core.detector import DetectionParameters, Detector, SearchFn, trivially_empty
from repro.core.engine.parallel import ExecutionConfig
from repro.core.pattern_graph import PatternCounter
from repro.core.result_set import DetectionResult
from repro.core.stats import SearchStats
from repro.core.top_down import SweepFrontier, SweepOutcome


class IterTDDetector(Detector):
    """Iterative top-down baseline: one full search per ``k``."""

    name = "IterTD"

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
        # Every k is an independent full search, so the frontier is stateless:
        # extending an IterTD sweep just runs the suffix searches.
        frontier = SweepFrontier(algorithm="iter_td", k=parameters.k_max)
        empty = trivially_empty(parameters, counter.dataset_size)
        if empty is not None:
            return SweepOutcome(empty, frontier)
        per_k = {}
        for k in parameters.k_range():
            # Only the most general patterns are consumed, so the parallel path
            # may return shard-minimal below sets instead of full classifications.
            state = search(parameters.bound, k, parameters.tau_s, stats, classification=False)
            per_k[k] = state.most_general()
        return SweepOutcome(DetectionResult(per_k), frontier)

    def _resume(
        self,
        counter: PatternCounter,
        stats: SearchStats,
        search: SearchFn,
        frontier: SweepFrontier,
    ) -> SweepOutcome:
        self._check_resume_frontier(frontier, "iter_td")
        return self._sweep(counter, stats, search)

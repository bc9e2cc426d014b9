"""Automatic suggestion of detection thresholds (the paper's future-work direction).

Section VIII lists "automatic suggestion for thresholds" as future work, and
Section VI-A explains the manual procedure the authors used: parameters were chosen
"such that the number of reported groups in most cases is between 1 to 100".  This
module automates that procedure:

* :func:`suggest_alpha` finds the largest proportional-bound ``alpha`` whose result
  stays within a target number of groups per ``k``;
* :func:`suggest_lower_bound` does the same for a constant global lower bound;
* :func:`suggest_size_threshold` finds the smallest ``tau_s`` that keeps the result
  concise.

All three rely on the result size being (approximately) monotone in the tuned
parameter — a larger ``alpha``/``L`` flags more groups, a larger ``tau_s`` prunes
more — and bisect over a bounded range.  Because replacing several specific groups
by one more general ancestor can locally shrink the result, the returned value is a
*feasible* suggestion (its own report is within the target) rather than a provably
extremal one.

A bisection issues a dozen-odd detection queries against the *same* ranked dataset
— the archetypal repeated-query workload — so every suggester runs its probes
through one :class:`~repro.core.session.AuditSession`: the ranking is encoded
once, the engine's sibling-block caches stay warm between probes, and (with a
parallel ``execution``) one worker pool serves the whole search.  Each probe at
a new threshold is its own sweep, so GlobalBounds and PropBounds keep their
k-to-k reuse; a repeated probe is a result-store hit.  :func:`threshold_sweep`
evaluates an explicit list of candidate thresholds as one planned batch on one
warm session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.bounds import GlobalBoundSpec, ProportionalBoundSpec
from repro.core.detector import DetectionReport
from repro.core.engine.parallel import ExecutionConfig
from repro.core.result_store import ResultStore
from repro.core.session import AuditSession, DetectionQuery
from repro.data.dataset import Dataset
from repro.exceptions import DetectionError
from repro.ranking.base import Ranking


@dataclass(frozen=True)
class TuningResult:
    """The outcome of a threshold search."""

    parameter: float
    max_groups_per_k: int
    total_reported: int
    report: DetectionReport

    def within(self, target: int) -> bool:
        return self.max_groups_per_k <= target


def _evaluate(
    make_report: Callable[[float], DetectionReport],
    value: float,
) -> TuningResult:
    report = make_report(value)
    return TuningResult(
        parameter=value,
        max_groups_per_k=report.result.max_groups_per_k(),
        total_reported=report.result.total_reported(),
        report=report,
    )


def _bisect_largest_feasible(
    make_report: Callable[[float], DetectionReport],
    low: float,
    high: float,
    target_max_groups: int,
    tolerance: float,
) -> TuningResult:
    """A large parameter in [low, high] whose result stays within the target.

    Bisection under the (approximate) assumption that the number of reported groups
    is non-decreasing in the parameter; the returned value is always feasible.
    """
    low_result = _evaluate(make_report, low)
    if not low_result.within(target_max_groups):
        raise DetectionError(
            f"even the smallest candidate value {low} reports "
            f"{low_result.max_groups_per_k} groups for some k (target {target_max_groups})"
        )
    high_result = _evaluate(make_report, high)
    if high_result.within(target_max_groups):
        return high_result

    best = low_result
    while high - low > tolerance:
        middle = (low + high) / 2.0
        middle_result = _evaluate(make_report, middle)
        if middle_result.within(target_max_groups):
            best = middle_result
            low = middle
        else:
            high = middle
    return best


def threshold_sweep(
    dataset: Dataset,
    ranking: Ranking,
    tau_s: int,
    k_min: int,
    k_max: int,
    lower_bounds: Sequence[float] | None = None,
    alphas: Sequence[float] | None = None,
    execution: ExecutionConfig | None = None,
    store: ResultStore | None = None,
) -> list[TuningResult]:
    """Evaluate many thresholds of one bound shape as one planned batch on one
    warm session.

    Pass exactly one of ``lower_bounds`` (constant global lower bounds, audited
    by GlobalBounds) or ``alphas`` (proportional bounds, audited by PropBounds).
    The candidates share ``tau_s`` and the k range.  The planner drops repeated
    thresholds; every distinct one runs its own sweep on the session's warm
    engine, so every result is bit-identical to a cold per-threshold loop.
    Results come back in input order; ``store`` optionally shares the sweeps
    beyond this call.
    """
    if (lower_bounds is None) == (alphas is None):
        raise DetectionError("pass exactly one of lower_bounds / alphas")
    if lower_bounds is not None:
        values = [float(value) for value in lower_bounds]
        queries = [
            DetectionQuery(
                bound=GlobalBoundSpec(lower_bounds=value), tau_s=tau_s,
                k_min=k_min, k_max=k_max, algorithm="global_bounds",
            )
            for value in values
        ]
    else:
        values = [float(value) for value in alphas]
        queries = [
            DetectionQuery(
                bound=ProportionalBoundSpec(alpha=value), tau_s=tau_s,
                k_min=k_min, k_max=k_max, algorithm="prop_bounds",
            )
            for value in values
        ]
    with AuditSession(dataset, ranking, execution=execution, store=store) as session:
        reports = session.run_many(queries)
    return [
        TuningResult(
            parameter=value,
            max_groups_per_k=report.result.max_groups_per_k(),
            total_reported=report.result.total_reported(),
            report=report,
        )
        for value, report in zip(values, reports)
    ]


def suggest_alpha(
    dataset: Dataset,
    ranking: Ranking,
    tau_s: int,
    k_min: int,
    k_max: int,
    target_max_groups: int = 100,
    alpha_range: tuple[float, float] = (0.05, 2.0),
    tolerance: float = 0.01,
    execution: ExecutionConfig | None = None,
) -> TuningResult:
    """Largest ``alpha`` whose proportional-representation result stays concise."""
    low, high = alpha_range
    if not 0 < low < high:
        raise DetectionError("alpha_range must satisfy 0 < low < high")

    with AuditSession(dataset, ranking, execution=execution) as session:

        def make_report(alpha: float) -> DetectionReport:
            return session.run(DetectionQuery(
                bound=ProportionalBoundSpec(alpha=alpha), tau_s=tau_s, k_min=k_min,
                k_max=k_max, algorithm="prop_bounds",
            ))

        return _bisect_largest_feasible(make_report, low, high, target_max_groups, tolerance)


def suggest_lower_bound(
    dataset: Dataset,
    ranking: Ranking,
    tau_s: int,
    k_min: int,
    k_max: int,
    target_max_groups: int = 100,
    max_bound: float | None = None,
    tolerance: float = 1.0,
    execution: ExecutionConfig | None = None,
) -> TuningResult:
    """Largest constant global lower bound ``L`` whose result stays concise."""
    high = float(max_bound if max_bound is not None else k_max)

    with AuditSession(dataset, ranking, execution=execution) as session:

        def make_report(lower: float) -> DetectionReport:
            return session.run(DetectionQuery(
                bound=GlobalBoundSpec(lower_bounds=lower), tau_s=tau_s, k_min=k_min,
                k_max=k_max, algorithm="global_bounds",
            ))

        return _bisect_largest_feasible(make_report, 0.0, high, target_max_groups, tolerance)


def suggest_size_threshold(
    dataset: Dataset,
    ranking: Ranking,
    bound: GlobalBoundSpec | ProportionalBoundSpec,
    k_min: int,
    k_max: int,
    target_max_groups: int = 100,
    tau_s_range: tuple[int, int] | None = None,
    execution: ExecutionConfig | None = None,
) -> TuningResult:
    """Smallest size threshold ``tau_s`` that keeps the result within the target.

    A larger threshold prunes more groups, so the smallest concise threshold is found
    by bisecting on the (integer) threshold.
    """
    low, high = tau_s_range if tau_s_range is not None else (1, dataset.n_rows)
    if not 1 <= low <= high:
        raise DetectionError("tau_s_range must satisfy 1 <= low <= high")

    with AuditSession(dataset, ranking, execution=execution) as session:

        def make_report(tau_s: float) -> DetectionReport:
            return session.run(DetectionQuery(
                bound=bound, tau_s=int(tau_s), k_min=k_min, k_max=k_max, algorithm="auto"
            ))

        high_result = _evaluate(make_report, high)
        if not high_result.within(target_max_groups):
            raise DetectionError(
                f"even tau_s={high} reports {high_result.max_groups_per_k} groups for some k "
                f"(target {target_max_groups})"
            )
        low_result = _evaluate(make_report, low)
        if low_result.within(target_max_groups):
            return low_result

        best = high_result
        low_value, high_value = low, high
        while high_value - low_value > 1:
            middle = (low_value + high_value) // 2
            middle_result = _evaluate(make_report, middle)
            if middle_result.within(target_max_groups):
                best = middle_result
                high_value = middle
            else:
                low_value = middle
        return best

"""Core detection algorithms of the paper.

The package exposes the three detectors (IterTD baseline, GlobalBounds, PropBounds),
the bound specifications of the two problem definitions, the session-oriented
repeated-query API (:class:`AuditSession` / :class:`DetectionQuery`), and a
convenience function :func:`detect_biased_groups` that picks the appropriate
optimized algorithm for a single one-shot question.
"""

from __future__ import annotations

from repro.core.bounds import (
    BoundSpec,
    GlobalBoundSpec,
    ProportionalBoundSpec,
    paper_default_global_bounds,
    paper_default_proportional_bounds,
    step_lower_bounds,
)
from repro.core.brute_force import brute_force_detection, enumerate_patterns
from repro.core.detector import DetectionParameters, DetectionReport, Detector
from repro.core.engine import CountingEngine, NaiveCounter
from repro.core.engine.parallel import ExecutionConfig, ParallelSearchExecutor
from repro.core.global_bounds import GlobalBoundsDetector
from repro.core.iter_td import IterTDDetector
from repro.core.pattern import EMPTY_PATTERN, Pattern
from repro.core.pattern_graph import PatternCounter, SearchTree
from repro.core.planner import (
    ExtendStep,
    PlanStep,
    QueryPlan,
    canonical_query_key,
    plan_queries,
    query_group_key,
)
from repro.core.result_store import (
    DiskResultStore,
    InMemoryResultStore,
    ResultStore,
    clear_shared_result_stores,
    discard_shared_result_store,
    shared_result_store,
    shared_result_store_names,
)
from repro.core.prop_bounds import PropBoundsDetector
from repro.core.result_set import DetectedGroup, DetectionResult, minimal_patterns
from repro.core.serialization import (
    LoadedReport,
    bound_from_dict,
    bound_to_dict,
    load_report,
    load_result,
    save_result,
)
from repro.core.session import AuditSession, DetectionQuery, detect_biased_groups, run_queries
from repro.core.stats import SearchStats, examined_gain
from repro.core.top_down import SweepFrontier, SweepOutcome
from repro.core.tuning import (
    TuningResult,
    suggest_alpha,
    suggest_lower_bound,
    suggest_size_threshold,
)
from repro.core.top_down import SearchState, top_down_search
from repro.core.upper_bounds import (
    UpperBoundsDetector,
    most_general_above_upper,
    most_specific_substantial,
    substantial_patterns,
)
from repro.data.dataset import Dataset
from repro.ranking.base import Ranker, Ranking

__all__ = [
    "AuditSession",
    "DetectionQuery",
    "run_queries",
    "QueryPlan",
    "PlanStep",
    "ExtendStep",
    "ResultStore",
    "InMemoryResultStore",
    "DiskResultStore",
    "shared_result_store",
    "discard_shared_result_store",
    "shared_result_store_names",
    "clear_shared_result_stores",
    "SweepFrontier",
    "SweepOutcome",
    "plan_queries",
    "canonical_query_key",
    "query_group_key",
    "BoundSpec",
    "GlobalBoundSpec",
    "ProportionalBoundSpec",
    "step_lower_bounds",
    "paper_default_global_bounds",
    "paper_default_proportional_bounds",
    "Pattern",
    "EMPTY_PATTERN",
    "PatternCounter",
    "CountingEngine",
    "NaiveCounter",
    "ExecutionConfig",
    "ParallelSearchExecutor",
    "SearchTree",
    "SearchState",
    "top_down_search",
    "Detector",
    "DetectionParameters",
    "DetectionReport",
    "DetectionResult",
    "DetectedGroup",
    "minimal_patterns",
    "IterTDDetector",
    "GlobalBoundsDetector",
    "PropBoundsDetector",
    "UpperBoundsDetector",
    "substantial_patterns",
    "most_specific_substantial",
    "most_general_above_upper",
    "brute_force_detection",
    "enumerate_patterns",
    "SearchStats",
    "examined_gain",
    "detect_biased_groups",
    "save_result",
    "load_result",
    "load_report",
    "LoadedReport",
    "bound_to_dict",
    "bound_from_dict",
    "TuningResult",
    "suggest_alpha",
    "suggest_lower_bound",
    "suggest_size_threshold",
    "Dataset",
    "Ranker",
    "Ranking",
]

"""Reproduction of "Detection of Groups with Biased Representation in Ranking" (ICDE 2023).

The package is organised as follows:

* :mod:`repro.data` — relational data substrate and synthetic dataset generators;
* :mod:`repro.ranking` — black-box rankers used by the experiments;
* :mod:`repro.core` — the detection algorithms (IterTD, GlobalBounds, PropBounds);
* :mod:`repro.mlcore` — from-scratch regression models for the explainer;
* :mod:`repro.explain` — Shapley-value based result analysis (Section V);
* :mod:`repro.divergence` — the DivExplorer-style comparator of Section VI-D;
* :mod:`repro.experiments` — harness regenerating every figure of the evaluation;
* :mod:`repro.service` — the embeddable multi-tenant audit service (registry,
  session pool, admission control, health and graceful shutdown).

The most common entry points are re-exported here.
"""

from repro.core import (
    AuditSession,
    DetectionQuery,
    DetectionReport,
    DetectionResult,
    DiskResultStore,
    ExecutionConfig,
    GlobalBoundsDetector,
    GlobalBoundSpec,
    InMemoryResultStore,
    IterTDDetector,
    Pattern,
    PropBoundsDetector,
    ProportionalBoundSpec,
    QueryPlan,
    ResultStore,
    detect_biased_groups,
    plan_queries,
    run_queries,
    shared_result_store,
)
from repro.data import Dataset, Schema
from repro.ranking import AttributeRanker, PrecomputedRanker, Ranker, Ranking, ScoreRanker
from repro.service import AuditService

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Dataset",
    "Schema",
    "Ranker",
    "Ranking",
    "AttributeRanker",
    "ScoreRanker",
    "PrecomputedRanker",
    "Pattern",
    "GlobalBoundSpec",
    "ProportionalBoundSpec",
    "IterTDDetector",
    "GlobalBoundsDetector",
    "PropBoundsDetector",
    "ExecutionConfig",
    "AuditSession",
    "AuditService",
    "DetectionQuery",
    "DetectionReport",
    "DetectionResult",
    "QueryPlan",
    "ResultStore",
    "InMemoryResultStore",
    "DiskResultStore",
    "shared_result_store",
    "plan_queries",
    "detect_biased_groups",
    "run_queries",
]

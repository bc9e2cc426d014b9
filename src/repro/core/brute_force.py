"""Brute-force reference implementation of the problem definitions.

This module enumerates *every* pattern over a dataset's schema and applies the
declarative problem statement directly: for each ``k`` it collects the patterns with
adequate size whose top-k count violates the bound and keeps the minimal (most
general) ones.  It is exponential by construction (Theorem 3.3) and exists purely as
a test oracle for the search algorithms on small inputs.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from repro.core.bounds import BoundSpec
from repro.core.pattern import Pattern
from repro.core.pattern_graph import PatternCounter
from repro.core.result_set import DetectionResult
from repro.data.dataset import Dataset
from repro.exceptions import DetectionError

#: Refuse to enumerate schemas with more than this many patterns.
DEFAULT_PATTERN_LIMIT = 500_000


def enumerate_patterns(dataset: Dataset, include_empty: bool = False) -> Iterator[Pattern]:
    """Yield every pattern definable over ``dataset``'s schema.

    Each attribute contributes its domain values plus "unconstrained"; the empty
    pattern is skipped unless ``include_empty`` is ``True``.
    """
    schema = dataset.schema
    choices = []
    for attribute in schema:
        choices.append([None] + list(attribute.values))
    for combination in product(*choices):
        assignment = {
            attribute.name: value
            for attribute, value in zip(schema, combination)
            if value is not None
        }
        if assignment or include_empty:
            yield Pattern(assignment)


def brute_force_detection(
    dataset: Dataset,
    counter: PatternCounter,
    bound: BoundSpec,
    tau_s: int,
    k_min: int,
    k_max: int,
    pattern_limit: int = DEFAULT_PATTERN_LIMIT,
) -> DetectionResult:
    """Compute the exact per-k most general biased patterns by full enumeration."""
    total = dataset.schema.total_patterns()
    if total > pattern_limit:
        raise DetectionError(
            f"the schema defines {total} patterns which exceeds the brute-force limit of "
            f"{pattern_limit}; use one of the search algorithms instead"
        )
    dataset_size = dataset.n_rows
    qualified: list[tuple[Pattern, int]] = []
    for pattern in enumerate_patterns(dataset):
        size = counter.size(pattern)
        if size >= tau_s:
            qualified.append((pattern, size))

    # One vectorised prefix-count sweep per pattern covers the whole k range at
    # once (the engine answers all ks with a single searchsorted over the
    # pattern's rank positions).
    ks = np.arange(k_min, k_max + 1)
    violating_per_k: dict[int, list[Pattern]] = {int(k): [] for k in ks}
    for pattern, size in qualified:
        counts = counter.top_k_counts(pattern, ks)
        for k, count in zip(ks, counts):
            if count < bound.lower(int(k), size, dataset_size):
                violating_per_k[int(k)].append(pattern)

    per_k: dict[int, frozenset[Pattern]] = {
        k: _pairwise_minimal(violating) for k, violating in violating_per_k.items()
    }
    return DetectionResult(per_k)


def _pairwise_minimal(patterns: list[Pattern]) -> frozenset[Pattern]:
    """The most general of ``patterns``, by direct pairwise subsumption tests.

    The oracle keeps its own antichain rather than calling
    :func:`~repro.core.result_set.minimal_patterns`, so the searches it checks
    share none of their minimality code with it.  Patterns are taken shortest
    first, so every pattern that could subsume one is already accepted.
    """
    accepted: list[Pattern] = []
    for pattern in sorted(set(patterns), key=len):
        if not any(member.is_subset_of(pattern) for member in accepted):
            accepted.append(pattern)
    return frozenset(accepted)

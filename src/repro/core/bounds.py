"""Bound specifications for the two representation-bias problems.

Problem 3.1 (global representation bounds) takes explicit lower bounds ``L_k`` (and
optionally upper bounds ``U_k``) on the number of tuples from any group among the
top-k.  Problem 3.2 (proportional representation) derives the bound of each group
from its share of the dataset: a group ``p`` is under-represented at ``k`` when
``s_Rk(D)(p) < alpha * s_D(p) * k / |D|``.

Both are modelled by :class:`BoundSpec`; the detection algorithms only interact with
the interface, so additional fairness measures can be plugged in (the paper lists
this as future work).
"""

from __future__ import annotations

import abc
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.exceptions import BoundSpecError


class BoundSpec(abc.ABC):
    """Interface of a (lower/upper) representation bound."""

    #: Whether the lower bound depends on the pattern's size in the data.  Bounds
    #: that do not depend on the pattern (global bounds) allow the GlobalBounds
    #: incremental optimization; proportional bounds require the k-tilde machinery.
    pattern_dependent: bool = False

    @abc.abstractmethod
    def lower(self, k: int, size_in_data: int, dataset_size: int) -> float:
        """The lower bound on a group's top-k count (exclusive: count < lower is biased)."""

    def upper(self, k: int, size_in_data: int, dataset_size: int) -> float | None:
        """The upper bound on a group's top-k count, or ``None`` when unbounded."""
        return None

    def violates_lower(self, count: int, k: int, size_in_data: int, dataset_size: int) -> bool:
        """Whether ``count`` tuples in the top-k constitute under-representation."""
        return count < self.lower(k, size_in_data, dataset_size)

    def violates_upper(self, count: int, k: int, size_in_data: int, dataset_size: int) -> bool:
        """Whether ``count`` tuples in the top-k constitute over-representation."""
        upper = self.upper(k, size_in_data, dataset_size)
        return upper is not None and count > upper

    def lower_changes_at(self, k: int, size_in_data: int, dataset_size: int) -> bool:
        """Whether the lower bound at ``k`` differs from the bound at ``k - 1``.

        Used by the GlobalBounds algorithm to decide when a fresh top-down search is
        required (the incremental step is only valid while the bound is unchanged).
        """
        return self.lower(k, size_in_data, dataset_size) != self.lower(
            k - 1, size_in_data, dataset_size
        )

    def next_violation_k(
        self,
        count: int,
        k: int,
        k_max: int,
        size_in_data: int,
        dataset_size: int,
    ) -> int | None:
        """The paper's k-tilde: the smallest ``k' > k`` at which a group whose top-k
        count stays at ``count`` would violate the lower bound, or ``None`` if no such
        ``k' <= k_max`` exists."""
        for candidate in range(k + 1, k_max + 1):
            if count < self.lower(candidate, size_in_data, dataset_size):
                return candidate
        return None


@dataclass(frozen=True)
class GlobalBoundSpec(BoundSpec):
    """Pattern-independent bounds ``L_k`` / ``U_k`` (Problem 3.1).

    ``lower_bounds`` and ``upper_bounds`` may be given as

    * a constant (the same bound for every k),
    * a mapping ``{k: bound}`` (missing k's fall back to the largest key <= k), or
    * a callable ``k -> bound``.
    """

    lower_bounds: float | Mapping[int, float] | Callable[[int], float]
    upper_bounds: float | Mapping[int, float] | Callable[[int], float] | None = None

    pattern_dependent = False

    def lower(self, k: int, size_in_data: int, dataset_size: int) -> float:
        return _resolve(self.lower_bounds, k)

    def upper(self, k: int, size_in_data: int, dataset_size: int) -> float | None:
        if self.upper_bounds is None:
            return None
        return _resolve(self.upper_bounds, k)


@dataclass(frozen=True)
class ProportionalBoundSpec(BoundSpec):
    """Proportional representation bounds (Problem 3.2).

    A group ``p`` is under-represented at ``k`` when
    ``count < alpha * s_D(p) * k / |D|`` and over-represented when
    ``count > beta * s_D(p) * k / |D|`` (if ``beta`` is given).
    """

    alpha: float
    beta: float | None = None

    pattern_dependent = True

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise BoundSpecError("alpha must be positive")
        if self.beta is not None and self.beta <= self.alpha:
            raise BoundSpecError("beta must be greater than alpha")

    def lower(self, k: int, size_in_data: int, dataset_size: int) -> float:
        if dataset_size <= 0:
            raise BoundSpecError("dataset_size must be positive")
        return self.alpha * size_in_data * k / dataset_size

    def upper(self, k: int, size_in_data: int, dataset_size: int) -> float | None:
        if self.beta is None:
            return None
        if dataset_size <= 0:
            raise BoundSpecError("dataset_size must be positive")
        return self.beta * size_in_data * k / dataset_size

    def next_violation_k(
        self,
        count: int,
        k: int,
        k_max: int,
        size_in_data: int,
        dataset_size: int,
    ) -> int | None:
        """Closed form for the proportional bound: the first ``k'`` with
        ``count < alpha * size * k' / n`` is ``floor(count * n / (alpha * size)) + 1``."""
        if size_in_data <= 0:
            return None
        threshold = count * dataset_size / (self.alpha * size_in_data)
        candidate = math.floor(threshold) + 1
        # Guard against floating point: make sure the candidate really violates.
        while candidate <= k_max and count >= self.lower(candidate, size_in_data, dataset_size):
            candidate += 1
        candidate = max(candidate, k + 1)
        if candidate > k_max:
            return None
        if count >= self.lower(candidate, size_in_data, dataset_size):
            return None
        return candidate


def step_lower_bounds(steps: Mapping[int, float]) -> dict[int, float]:
    """Validate and normalise a ``{k_from: bound}`` step schedule."""
    if not steps:
        raise BoundSpecError("a step schedule needs at least one entry")
    ordered = dict(sorted(steps.items()))
    previous = None
    for bound in ordered.values():
        if previous is not None and bound < previous:
            raise BoundSpecError(
                "lower bounds should be non-decreasing in k (see footnote 3 of the paper)"
            )
        previous = bound
    return ordered


def paper_default_global_bounds() -> GlobalBoundSpec:
    """The default global-bound schedule of Section VI-A.

    ``L_k = 10`` for ``10 <= k < 20``, ``20`` for ``20 <= k < 30``, ``30`` for
    ``30 <= k < 40`` and ``40`` for ``40 <= k < 50``.
    """
    return GlobalBoundSpec(lower_bounds=step_lower_bounds({10: 10, 20: 20, 30: 30, 40: 40}))


def paper_default_proportional_bounds() -> ProportionalBoundSpec:
    """The default proportional bound of Section VI-A (``alpha = 0.8``)."""
    return ProportionalBoundSpec(alpha=0.8)


def _resolve(bounds: float | Mapping[int, float] | Callable[[int], float], k: int) -> float:
    if callable(bounds):
        return float(bounds(k))
    if isinstance(bounds, Mapping):
        applicable = [key for key in bounds if key <= k]
        if not applicable:
            raise BoundSpecError(f"no bound defined for k={k}; schedule starts at {min(bounds)}")
        return float(bounds[max(applicable)])
    return float(bounds)

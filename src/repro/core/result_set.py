"""Result containers for the detection algorithms.

:func:`minimal_patterns` computes the antichain of a set of patterns under the
subsumption order — exactly the "most general patterns" the problem definitions ask
for.  :class:`DetectionResult` maps each ``k`` in the requested range to its set of
detected groups, and :func:`ordered_groups` ranks a ``k``'s groups the two ways
Section III suggests ("a user-friendly interface would organize the output by k
value and rank the groups by their overall size in the data or by the bias in their
representation").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Mapping

from repro.core.pattern import Pattern
from repro.exceptions import DetectionError


def minimal_patterns(patterns: Iterable[Pattern]) -> frozenset[Pattern]:
    """The minimal elements of ``patterns`` under the subset (generality) order.

    Candidates are grouped by length before any comparison: two distinct patterns of
    the same length can never subsume each other, so each pattern only has to be
    checked against the *strictly shorter* accepted ones.  That check enumerates the
    pattern's sub-assignments of the accepted lengths and looks them up in a set —
    ``O(sum_l C(|p|, l))`` per pattern — falling back to a linear scan over the
    accepted antichain when the pattern is long enough that enumeration would lose.
    This avoids the full pairwise scan on large result sets, whose candidates are
    dominated by a few (typically long) lengths.
    """
    by_length: dict[int, list[Pattern]] = {}
    for pattern in set(patterns):
        by_length.setdefault(len(pattern), []).append(pattern)

    accepted: list[Pattern] = []
    accepted_items: set[tuple[tuple[str, object], ...]] = set()
    accepted_lengths: list[int] = []
    for length in sorted(by_length):
        fresh = [
            pattern
            for pattern in by_length[length]
            if not _has_accepted_subset(pattern, accepted, accepted_items, accepted_lengths)
        ]
        if fresh:
            accepted.extend(fresh)
            accepted_items.update(pattern.items_tuple for pattern in fresh)
            accepted_lengths.append(length)
    return frozenset(accepted)


def _has_accepted_subset(
    pattern: Pattern,
    accepted: list[Pattern],
    accepted_items: set[tuple[tuple[str, object], ...]],
    accepted_lengths: list[int],
) -> bool:
    """Whether some already-accepted (strictly shorter) pattern subsumes ``pattern``."""
    n_accepted = len(accepted)
    if n_accepted <= 8:
        # Tiny antichains: a linear scan beats even computing the enumeration cost.
        return any(member.is_subset_of(pattern) for member in accepted)
    items = pattern.items_tuple
    if accepted_lengths == [1]:
        # The dominant case in practice: the accepted antichain consists of
        # single-assignment patterns, so subsumption is a direct item probe.
        return any((item,) in accepted_items for item in items)
    enumerations = sum(comb(len(items), length) for length in accepted_lengths)
    if enumerations <= n_accepted:
        # ``items`` is name-sorted, so every combination is already in canonical
        # order and can be probed directly against the accepted item-tuples.
        for length in accepted_lengths:
            for combo in combinations(items, length):
                if combo in accepted_items:
                    return True
        return False
    return any(member.is_subset_of(pattern) for member in accepted)


@dataclass(frozen=True)
class DetectedGroup:
    """One detected group at one value of ``k``, with its bias context."""

    pattern: Pattern
    k: int
    size_in_data: int
    count_in_top_k: int
    bound: float

    @property
    def bias_gap(self) -> float:
        """How far below the required representation the group falls."""
        return self.bound - self.count_in_top_k

    def describe(self) -> str:
        return (
            f"k={self.k}: {{{self.pattern.describe()}}} size={self.size_in_data} "
            f"top-k count={self.count_in_top_k} required>={self.bound:.2f}"
        )


def ordered_groups(groups: Iterable[DetectedGroup], order_by: str) -> list[DetectedGroup]:
    """``groups`` in one of the two orderings Section III proposes for presenting results.

    ``order_by`` is ``"size"`` (overall group size, descending) or ``"bias"`` (gap
    between required and actual representation, descending); ties break by the
    pattern's description.  ``order_by`` is checked before ``groups`` is consumed.
    """
    if order_by == "size":
        return sorted(groups, key=lambda group: (-group.size_in_data, group.pattern.describe()))
    if order_by == "bias":
        return sorted(groups, key=lambda group: (-group.bias_gap, group.pattern.describe()))
    raise DetectionError("order_by must be 'size' or 'bias'")


class DetectionResult(Mapping[int, frozenset[Pattern]]):
    """Per-``k`` sets of most general patterns with biased representation."""

    def __init__(self, per_k: Mapping[int, Iterable[Pattern]]) -> None:
        self._per_k: dict[int, frozenset[Pattern]] = {
            k: frozenset(patterns) for k, patterns in sorted(per_k.items())
        }

    # -- Mapping protocol -------------------------------------------------------
    def __getitem__(self, k: int) -> frozenset[Pattern]:
        return self._per_k[k]

    def __iter__(self) -> Iterator[int]:
        return iter(self._per_k)

    def __len__(self) -> int:
        return len(self._per_k)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DetectionResult):
            return self._per_k == other._per_k
        if isinstance(other, Mapping):
            return self._per_k == {k: frozenset(v) for k, v in other.items()}
        return NotImplemented

    def __repr__(self) -> str:
        sizes = {k: len(patterns) for k, patterns in self._per_k.items()}
        return f"DetectionResult(ks={list(self._per_k)}, groups_per_k={sizes})"

    # -- accessors ----------------------------------------------------------------
    @property
    def k_values(self) -> tuple[int, ...]:
        return tuple(self._per_k)

    def groups_at(self, k: int) -> frozenset[Pattern]:
        """The detected groups at ``k`` (empty set if ``k`` was not searched)."""
        return self._per_k.get(k, frozenset())

    def covers(self, k_min: int, k_max: int) -> bool:
        """Whether every ``k`` in ``[k_min, k_max]`` has a recorded result set."""
        return all(k in self._per_k for k in range(k_min, k_max + 1))

    def restrict_k(self, k_min: int, k_max: int) -> "DetectionResult":
        """The sub-result for ``k`` in ``[k_min, k_max]`` of this (wider) sweep.

        This is the slicing primitive behind the session result cache and the
        planner's merged k-sweeps: a sweep computed for a covering range answers
        any nested query by restriction, bit-identically to running that query
        alone.  The returned result is independent of this one — per-k sets are
        rebuilt, so cached sweeps are never aliased by the slices handed out
        (mutable inputs are likewise copied at construction).
        """
        if k_min > k_max:
            raise DetectionError(f"restrict_k needs k_min <= k_max, got [{k_min}, {k_max}]")
        if not self.covers(k_min, k_max):
            raise DetectionError(
                f"cannot restrict to [{k_min}, {k_max}]: this result only covers "
                f"ks {list(self._per_k)}"
            )
        return DetectionResult(
            {k: frozenset(self._per_k[k]) for k in range(k_min, k_max + 1)}
        )

    def merged_with(self, other: "DetectionResult") -> "DetectionResult":
        """The union of two sweeps' per-k sets (``other`` wins on a shared k).

        This is the stitching primitive behind frontier extension: a cached
        covering sweep over ``[a, j]`` merged with the freshly computed suffix
        ``(j, k_max]`` yields the covering sweep over ``[a, k_max]``.  Both
        inputs are frozen, so the merged result never aliases either.
        """
        combined: dict[int, frozenset[Pattern]] = dict(self._per_k)
        combined.update(other._per_k)
        return DetectionResult(combined)

    def all_groups(self) -> frozenset[Pattern]:
        """Union of the detected groups over every ``k``."""
        union: set[Pattern] = set()
        for patterns in self._per_k.values():
            union.update(patterns)
        return frozenset(union)

    def total_reported(self) -> int:
        """Total number of (k, group) pairs reported."""
        return sum(len(patterns) for patterns in self._per_k.values())

    def max_groups_per_k(self) -> int:
        """The largest number of groups reported for any single ``k``."""
        if not self._per_k:
            return 0
        return max(len(patterns) for patterns in self._per_k.values())

    def first_detection_k(self, pattern: Pattern) -> int | None:
        """The smallest ``k`` at which ``pattern`` is reported, or ``None``."""
        for k, patterns in self._per_k.items():
            if pattern in patterns:
                return k
        return None

    def to_table(self) -> list[tuple[int, str]]:
        """Flatten into ``(k, description)`` rows ordered by k then description."""
        rows: list[tuple[int, str]] = []
        for k, patterns in self._per_k.items():
            for description in sorted(pattern.describe() for pattern in patterns):
                rows.append((k, description))
        return rows

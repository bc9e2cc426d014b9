"""Result containers for the detection algorithms.

:func:`minimal_patterns` computes the antichain of a set of patterns under the
subsumption order — exactly the "most general patterns" the problem definitions ask
for — by probing each pattern's proper sub-assignments against the input; an
:class:`Antichain` lets repeated calls over a slowly changing input re-probe only
what changed.  :class:`DetectionResult` maps each ``k`` in the requested range to its set of
detected groups, and :func:`ordered_groups` ranks a ``k``'s groups the two ways
Section III suggests ("a user-friendly interface would organize the output by k
value and rank the groups by their overall size in the data or by the bias in their
representation").
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Collection, Iterable, Iterator, Mapping

from repro.core.pattern import Pattern
from repro.exceptions import DetectionError


#: A pattern's assignments as its canonical (name-sorted) item tuple.
Items = tuple[tuple[str, object], ...]


def minimal_patterns(
    patterns: Iterable[Pattern], antichain: "Antichain | None" = None
) -> frozenset[Pattern]:
    """The minimal elements of ``patterns`` under the subset (generality) order.

    A pattern is minimal iff none of its proper sub-assignments is in the input.
    Item tuples are name-sorted, so every sub-assignment is a combination of the
    pattern's items in canonical order and one set lookup tests it.  Lookups go
    shortest first, the empty pattern included, and only at lengths some input
    pattern has, so a non-minimal pattern usually stops at its first probe.

    With an :class:`Antichain`, the call diffs ``patterns`` against the input
    the antichain saw last and re-probes only what the difference can change:
    patterns that entered the input, patterns whose witness left it, and the
    previous minimal patterns against the entered ones alone.  The incremental
    detectors keep one antichain per search state, so their per-k cost follows
    the few below-bound patterns that change.
    """
    if antichain is not None:
        return antichain.update(patterns)
    present = {pattern.items_tuple: pattern for pattern in patterns}
    lengths = sorted({len(items) for items in present})
    return frozenset(
        pattern
        for items, pattern in present.items()
        if _sub_assignment_in(items, present, lengths) is None
    )


def _sub_assignment_in(
    items: Items, present: Collection[Items], lengths: list[int]
) -> Items | None:
    """The shortest proper sub-assignment of ``items`` in ``present``, or ``None``.

    ``lengths`` are the ascending lengths to probe; longer ones are skipped.
    """
    size = len(items)
    for length in lengths:
        if length >= size:
            return None
        for combo in combinations(items, length):
            if combo in present:
                return combo
    return None


class Antichain:
    """Minimality bookkeeping that :func:`minimal_patterns` keeps across calls.

    It remembers the previous input, its minimal set, and for every non-minimal
    pattern one *witness*: a proper sub-assignment that is in the input.  A
    minimal pattern stays minimal until a sub-assignment of it enters the
    input, and a non-minimal one stays non-minimal while its witness stays, so
    a call only re-probes what entered, what lost its witness, and the minimal
    patterns that an entered pattern might subsume.  The input is diffed as a
    set of patterns, whose cached hashes make an unchanged pattern cost one
    lookup.  The first call records no witnesses; the first call whose input
    differs records them for the whole input.
    """

    __slots__ = ("_patterns", "_built", "_present", "_lengths", "_minimal", "_witness",
                 "_dependents", "_result")

    def __init__(self) -> None:
        self._patterns: set[Pattern] | None = None
        self._built = False
        self._present: dict[Items, Pattern] = {}
        self._lengths: dict[int, int] = {}
        self._minimal: dict[Items, Pattern] = {}
        self._witness: dict[Items, Items] = {}
        self._dependents: dict[Items, set[Items]] = {}
        self._result: frozenset[Pattern] = frozenset()

    def update(self, patterns: Iterable[Pattern]) -> frozenset[Pattern]:
        """The minimal elements of ``patterns``, re-using the previous call's."""
        current = set(patterns)
        previous, self._patterns = self._patterns, current
        if previous is None:
            # IterTD asks each fresh state once, so a first call takes the plain
            # probe and the witnesses are recorded only once the input changes.
            self._result = minimal_patterns(current)
            return self._result
        entered = current - previous
        left = previous - current
        if not entered and not left:
            return self._result
        if not self._built:
            entered, left, self._built = current, set(), True
        present, lengths = self._present, self._lengths
        minimal, witness, dependents = self._minimal, self._witness, self._dependents
        gone = [pattern.items_tuple for pattern in left]
        for items in gone:
            del present[items]
            lengths[len(items)] -= 1
            if minimal.pop(items, None) is None:
                dependents[witness.pop(items)].discard(items)
        orphaned: list[Items] = []
        for items in gone:
            for dependent in dependents.pop(items, ()):
                del witness[dependent]
                orphaned.append(dependent)
        fresh: dict[Items, Pattern] = {pattern.items_tuple: pattern for pattern in entered}
        if fresh:
            # Every proper sub-assignment of a minimal pattern was absent, so
            # only an entered one can subsume it now.
            fresh_lengths = sorted({len(items) for items in fresh})
            for items in list(minimal):
                held = _sub_assignment_in(items, fresh, fresh_lengths)
                if held is not None:
                    del minimal[items]
                    witness[items] = held
                    dependents.setdefault(held, set()).add(items)
            present.update(fresh)
            for items in fresh:
                lengths[len(items)] = lengths.get(len(items), 0) + 1
        probe_lengths = sorted(length for length, count in lengths.items() if count)
        for items in (*fresh, *orphaned):
            held = _sub_assignment_in(items, present, probe_lengths)
            if held is None:
                minimal[items] = present[items]
            else:
                witness[items] = held
                dependents.setdefault(held, set()).add(items)
        self._result = frozenset(minimal.values())
        return self._result


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

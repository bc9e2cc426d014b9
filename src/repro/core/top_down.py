"""Top-down search over the pattern graph (Algorithm 1 of the paper).

The search traverses the search tree (Definition 4.1) in level order starting from
the children of the empty pattern.  A node is pruned when its size in the dataset is
below the size threshold ``tau_s`` (its descendants can only be smaller); a node
whose top-k count is below the lower bound becomes a *below* leaf (its descendants
cannot be most general); all other nodes are *expanded* and their children enqueued.

The function returns the full classification (:class:`SearchState`) rather than just
the most general patterns, because the optimized algorithms (GlobalBounds and
PropBounds) resume their incremental searches from this state.

Counting goes through the vectorized engine (:mod:`repro.core.engine`): expanding a
node evaluates each attribute's children as one sibling block — a single batched
size / top-k-count computation — instead of one Python-level mask per child, and
repeated sweeps over a k range reuse cached prefix-count blocks.

The traversal is factored into :func:`expand_parent` (classify the children of one
node) and :func:`run_search` (drain a work queue of parents) so the parallel
executor (:mod:`repro.core.engine.parallel`) can reuse the exact serial loop: the
coordinator classifies the root level with one :func:`expand_parent` call, ships the
expanded single-attribute roots to worker processes as disjoint subtrees
(Definition 4.1 — each child only adds larger-index attributes, so first-level
subtrees never overlap), and each worker drains its shard with :func:`run_search`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.core.bounds import BoundSpec
from repro.core.pattern import EMPTY_PATTERN, Pattern
from repro.core.pattern_graph import PatternCounter
from repro.core.result_set import DetectionResult, minimal_patterns
from repro.core.stats import SearchStats


@dataclass
class SearchState:
    """The classification of every pattern visited by a top-down search.

    ``below`` maps below-bound leaves to their current top-k count, ``expanded`` maps
    expanded nodes to their current top-k count, and ``sizes`` caches ``s_D(p)`` for
    every visited pattern with adequate size.  ``below`` corresponds to
    ``Res ∪ DRes`` of the paper's Algorithm 2: the most general patterns are exactly
    the minimal elements of ``below``.
    """

    below: dict[Pattern, int] = field(default_factory=dict)
    expanded: dict[Pattern, int] = field(default_factory=dict)
    sizes: dict[Pattern, int] = field(default_factory=dict)

    def most_general(self) -> frozenset[Pattern]:
        """The most general below-bound patterns (the result set for the current k)."""
        return minimal_patterns(self.below)

    def is_visited(self, pattern: Pattern) -> bool:
        return pattern in self.below or pattern in self.expanded

    def merge(self, other: "SearchState") -> "SearchState":
        """Fold ``other``'s classification into this state in place and return it.

        The parallel executor partitions the search tree into disjoint first-level
        subtrees, so the per-shard states it merges have no common patterns and the
        union reproduces the serial classification exactly; most-general minimality
        (:meth:`most_general`) is computed *after* the merge, never per shard.  When
        the inputs do overlap (e.g. merging two independent searches), ``other``'s
        entry wins, matching ``dict.update`` semantics.
        """
        self.below.update(other.below)
        self.expanded.update(other.expanded)
        self.sizes.update(other.sizes)
        return self


@dataclass
class SweepFrontier:
    """The compact resume state a finished k-sweep leaves behind.

    A sweep over ``[k_min, k_max]`` that captured its frontier can later *extend*
    to a larger ``k_max'`` by computing only the uncovered suffix
    ``(k_max, k_max']`` — bit-identically to a cold run over the full range,
    because each algorithm's state evolution at ``k > k_max`` depends only on
    the classification it reached at ``k_max``:

    * **IterTD** restarts a full search per ``k``, so its frontier carries no
      state at all — resuming simply runs the suffix searches;
    * **GlobalBounds** resumes its incremental steps from the final
      classification (``below``/``expanded`` counts plus the cached sizes),
      which is independent of where the sweep started;
    * **PropBounds** additionally needs its k-tilde schedule, but that is
      *recomputed* at resume time from the expanded counts: every scheduled
      re-examination due at or before the frontier ``k`` has already fired, so
      the first possible violation of each surviving expanded pattern is the
      same whether computed at its last bump or at the frontier — and patterns
      whose k-tilde fell beyond the old ``k_max`` are picked up by the larger
      horizon exactly as a cold run would schedule them;
    * **UpperBounds** stores its k-independent candidate set (the most specific
      substantial patterns with their sizes) in ``sizes``, so an extension
      skips the candidate enumeration entirely.

    Frontiers are value objects: resuming copies the dictionaries before
    mutating (:meth:`as_state`), so one cached frontier can seed any number of
    extensions, and they serialise through
    :func:`~repro.core.serialization.frontier_to_dict` for the on-disk result
    store.
    """

    #: Resolved algorithm name this frontier belongs to (e.g. ``"global_bounds"``).
    algorithm: str
    #: The last ``k`` the sweep computed; extensions start at ``k + 1``.
    k: int
    below: dict[Pattern, int] = field(default_factory=dict)
    expanded: dict[Pattern, int] = field(default_factory=dict)
    sizes: dict[Pattern, int] = field(default_factory=dict)

    @classmethod
    def from_state(cls, algorithm: str, k: int, state: SearchState) -> "SweepFrontier":
        """Snapshot ``state`` at ``k`` (dictionaries are copied, not aliased)."""
        return cls(
            algorithm=algorithm,
            k=k,
            below=dict(state.below),
            expanded=dict(state.expanded),
            sizes=dict(state.sizes),
        )

    def as_state(self) -> SearchState:
        """An independent :class:`SearchState` seeded from this frontier.

        The returned state owns fresh dictionaries, so resumed sweeps never
        mutate a cached frontier (which may seed further extensions later).
        """
        return SearchState(
            below=dict(self.below),
            expanded=dict(self.expanded),
            sizes=dict(self.sizes),
        )


@dataclass
class SweepOutcome:
    """What one executed k-sweep produced: its result and (when the algorithm
    supports resuming) the frontier from which the sweep can be extended."""

    result: DetectionResult
    frontier: SweepFrontier | None = None


class SweepAssembler:
    """Shared per-k result assembly of one (possibly covering) k-sweep.

    Every detector records its per-k output here instead of building an ad-hoc
    ``dict``: :meth:`record` snapshots the most general below-bound patterns of a
    search state at ``k``, :meth:`finish` wraps the recorded range into a
    :class:`~repro.core.result_set.DetectionResult`.  Because each algorithm's
    per-k set equals what a fresh Algorithm-1 search at that ``k`` reports, a
    sweep recorded for a covering range ``[k_min, k_max]`` answers any nested
    sub-range query through :meth:`DetectionResult.restrict_k` bit-identically to
    running that query alone — the invariant the query planner's merged plans and
    the session result cache's containment hits rely on.

    A detector that supports resumable sweeps additionally captures a
    :class:`SweepFrontier` (:meth:`capture_frontier`) before finishing;
    :meth:`finish_outcome` bundles both into a :class:`SweepOutcome` for the
    session's result store.
    """

    def __init__(self) -> None:
        self._per_k: dict[int, frozenset[Pattern]] = {}
        self._frontier: SweepFrontier | None = None

    def record(self, k: int, state: SearchState) -> None:
        """Snapshot the most general below-bound patterns of ``state`` at ``k``."""
        self._per_k[k] = state.most_general()

    def record_patterns(self, k: int, patterns) -> None:
        """Record an explicitly assembled pattern set (non-search detectors)."""
        self._per_k[k] = frozenset(patterns)

    def capture_frontier(self, frontier: SweepFrontier) -> None:
        """Attach the resume state of the finished sweep."""
        self._frontier = frontier

    @property
    def frontier(self) -> SweepFrontier | None:
        return self._frontier

    def finish(self) -> DetectionResult:
        """The recorded sweep as a range-sliceable :class:`DetectionResult`."""
        return DetectionResult(self._per_k)

    def finish_outcome(self) -> SweepOutcome:
        """The recorded sweep plus its captured frontier (if any)."""
        return SweepOutcome(result=self.finish(), frontier=self._frontier)


def constant_lower_bound(bound: BoundSpec, k: int, dataset_size: int) -> float | None:
    """The hoisted pattern-independent lower bound, or ``None`` when it varies.

    Pattern-independent bounds are constant across one search; hoisting the lookup
    out of the per-node loop avoids re-resolving a step schedule for every evaluated
    child.
    """
    return None if bound.pattern_dependent else bound.lower(k, 0, dataset_size)


def expand_parent(
    counter: PatternCounter,
    bound: BoundSpec,
    k: int,
    tau_s: int,
    dataset_size: int,
    state: SearchState,
    stats: SearchStats,
    parent: Pattern,
    constant_lower: float | None,
    expanded_sink: Callable[[Pattern], None],
) -> None:
    """Classify every child of ``parent`` (the body of Algorithm 1's loop).

    Children are evaluated one vectorised sibling block per attribute: sizes and
    top-k counts of a whole block come from a single batched computation (or a
    cached prefix-count block on repeated sweeps); children pruned by the size
    threshold never materialise Pattern objects at all.  Expanded children are
    handed to ``expanded_sink`` — the work queue's ``append`` in the serial loop,
    a shard list's ``append`` in the parallel coordinator's root pass.
    """
    for block in counter.child_blocks(parent, k):
        stats.nodes_generated += block.n_children
        stats.size_computations += block.n_children
        for child, size, count in block.qualifying(tau_s):
            state.sizes[child] = size
            stats.nodes_evaluated += 1
            lower = constant_lower if constant_lower is not None else bound.lower(
                k, size, dataset_size
            )
            if count < lower:
                state.below[child] = count
            else:
                state.expanded[child] = count
                expanded_sink(child)


def run_search(
    counter: PatternCounter,
    bound: BoundSpec,
    k: int,
    tau_s: int,
    state: SearchState,
    stats: SearchStats,
    queue: deque[Pattern],
) -> SearchState:
    """Drain ``queue`` in level order, expanding every popped pattern into ``state``.

    Seeding the queue with :data:`~repro.core.pattern.EMPTY_PATTERN` yields the full
    Algorithm 1 traversal; seeding it with expanded single-attribute patterns runs
    the same traversal restricted to their (disjoint) subtrees, which is how worker
    processes execute one shard of a parallel search.
    """
    dataset_size = counter.dataset_size
    constant_lower = constant_lower_bound(bound, k, dataset_size)
    while queue:
        expand_parent(
            counter, bound, k, tau_s, dataset_size, state, stats,
            queue.popleft(), constant_lower, queue.append,
        )
    return state


def top_down_search(
    counter: PatternCounter,
    bound: BoundSpec,
    k: int,
    tau_s: int,
    stats: SearchStats | None = None,
) -> SearchState:
    """Run Algorithm 1 for a single ``k`` and return the resulting search state.

    Parameters
    ----------
    counter:
        Memoised size / top-k-count oracle over the dataset and its ranking.
    bound:
        Lower-bound specification (global or proportional).
    k:
        The prefix length to analyse.
    tau_s:
        Minimum group size in the dataset (patterns smaller than ``tau_s`` are
        pruned together with their descendants).
    stats:
        Optional statistics collector.
    """
    stats = stats if stats is not None else SearchStats()
    stats.full_searches += 1
    state = SearchState()
    return run_search(counter, bound, k, tau_s, state, stats, deque([EMPTY_PATTERN]))

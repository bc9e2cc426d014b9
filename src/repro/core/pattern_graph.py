"""Pattern graph traversal utilities and cached pattern counting.

Two pieces live here:

* :class:`SearchTree` — child generation for the top-down traversal of the pattern
  graph (Definition 4.1); re-exported from :mod:`repro.core.engine.tree`, where it
  precomputes a name → index dictionary so per-expansion operations are dict
  lookups.
* :class:`PatternCounter` — memoised computation of ``s_D(p)`` and ``s_Rk(D)(p)``
  over a fixed dataset and ranking.  Since the vectorized-engine refactor this is a
  thin facade over :class:`repro.core.engine.CountingEngine`: sizes and top-k
  counts come from prefix-count match representations (one binary search per query
  instead of a mask scan), whole sibling blocks are evaluated with one
  ``np.bincount``, and the cache evicts least-recently-used entries instead of
  silently refusing new ones.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine.counting import DEFAULT_CACHE_CAPACITY, CountingEngine
from repro.core.engine.masks import DEFAULT_SPARSE_THRESHOLD
from repro.core.engine.tree import SearchTree
from repro.core.pattern import Pattern
from repro.core.stats import SearchStats
from repro.data.dataset import Dataset
from repro.ranking.base import Ranking

__all__ = ["SearchTree", "PatternCounter"]


class PatternCounter:
    """Memoised ``s_D(p)`` / ``s_Rk(D)(p)`` computation over a dataset and its ranking.

    Rows are stored in rank order, so the top-k count of a pattern is the number of
    its matching rank positions below ``k`` — answered by the counting engine from a
    prefix-count representation in ``O(log n)`` for any ``k``.
    """

    def __init__(
        self,
        dataset: Dataset,
        ranking: Ranking,
        max_cached_masks: int = DEFAULT_CACHE_CAPACITY,
        sparse_threshold: float = DEFAULT_SPARSE_THRESHOLD,
        max_cached_blocks: int | None = None,
        ranked_codes: np.ndarray | None = None,
    ) -> None:
        self._engine = CountingEngine(
            dataset,
            ranking,
            max_cached_patterns=max_cached_masks,
            max_cached_blocks=max_cached_blocks,
            sparse_threshold=sparse_threshold,
            ranked_codes=ranked_codes,
        )

    # -- basic facts -----------------------------------------------------------
    @property
    def engine(self) -> CountingEngine:
        """The underlying vectorized counting engine."""
        return self._engine

    @property
    def dataset(self) -> Dataset:
        return self._engine.dataset

    @property
    def ranking(self) -> Ranking:
        return self._engine.ranking

    @property
    def dataset_size(self) -> int:
        return self._engine.dataset_size

    @property
    def tree(self) -> SearchTree:
        return self._engine.tree

    # -- counting ---------------------------------------------------------------
    def mask(self, pattern: Pattern) -> np.ndarray:
        """Boolean match mask of ``pattern`` over the rank-ordered rows."""
        return self._engine.boolean_mask(pattern)

    def size(self, pattern: Pattern) -> int:
        """``s_D(p)`` — the number of tuples in the dataset satisfying ``pattern``."""
        return self._engine.size(pattern)

    def top_k_count(self, pattern: Pattern, k: int) -> int:
        """``s_Rk(D)(p)`` — the number of top-k tuples satisfying ``pattern``."""
        return self._engine.top_k_count(pattern, k)

    def top_k_counts(self, pattern: Pattern, ks: np.ndarray) -> np.ndarray:
        """Vectorized ``s_Rk(D)(p)`` for a whole array of ``k`` values at once."""
        return self._engine.top_k_counts(pattern, ks)

    def row_satisfies(self, rank: int, pattern: Pattern) -> bool:
        """Whether the tuple at (1-based) ``rank`` satisfies ``pattern``."""
        return self._engine.row_satisfies(rank, pattern)

    # -- sibling-batch evaluation -------------------------------------------------
    def child_block(self, parent: Pattern, attribute_index: int, k: int):
        """Sizes and top-k counts of all children of one attribute, in one batch."""
        return self._engine.child_block(parent, attribute_index, k)

    def child_blocks(self, parent: Pattern, k: int):
        """One evaluated sibling block per attribute contributing children."""
        return self._engine.child_blocks(parent, k)

    # -- cache management ---------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop all memoised matches (used between independent searches)."""
        self._engine.clear_cache()

    @property
    def cached_patterns(self) -> int:
        return self._engine.cached_patterns

    # -- instrumentation -----------------------------------------------------------
    def stats_snapshot(self) -> dict[str, int]:
        """The engine's cumulative counters (used as a baseline for warm reuse)."""
        return self._engine.snapshot()

    def publish_stats(self, stats: SearchStats, since: dict[str, int] | None = None) -> None:
        """Copy the engine's counters onto ``stats``.

        ``since`` is a :meth:`stats_snapshot` taken before the run; when given, only
        the work performed after it is attributed, so reports stay per-run even when
        a warm counter is reused across several detections.
        """
        snapshot = self._engine.snapshot()
        if since is not None:
            snapshot = {name: value - since.get(name, 0) for name, value in snapshot.items()}
        stats.batch_evaluations = snapshot["batch_evaluations"]
        stats.cache_hits = snapshot["cache_hits"]
        stats.cache_misses = snapshot["cache_misses"]
        stats.cache_evictions = snapshot["cache_evictions"]
        stats.dense_masks = snapshot["dense_masks"]
        stats.sparse_masks = snapshot["sparse_masks"]
        stats.representation_switches = snapshot["representation_switches"]
        stats.extra["block_reuses"] = snapshot["block_reuses"]

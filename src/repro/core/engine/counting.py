"""The vectorized counting engine behind every detector.

:class:`CountingEngine` memoises ``s_D(p)`` / ``s_Rk(D)(p)`` computation over a
fixed dataset and ranking.  It is the one counter class of the package; the
detectors' public name for it is :data:`repro.core.pattern_graph.PatternCounter`.
It differs from a per-pattern mask cache in three ways:

* **Sibling-batch evaluation** — :meth:`child_block` evaluates all children of one
  attribute with one ``np.bincount`` over the parent's matched column slice,
  producing sizes and top-k counts for the whole sibling block at once.
* **Sorted rank positions** — a cached match is the sorted ``int32`` array of the
  rank positions a pattern occupies, so ``size(p)`` is its length and
  ``top_k_count(p, k)`` for *any* ``k`` is one ``np.searchsorted``.  A k-sweep
  re-reads cached blocks instead of recomputing matches (the k-sweep fast path),
  and each cached block steps its counts from ``k`` to ``k + 1`` by the one row
  that enters the prefix (:meth:`~repro.core.engine.blocks.BlockEntry.counts_for`).
* **LRU eviction** — both caches evict least-recently-used entries instead of
  refusing new ones, so deep lattice levels cost memory proportional to group size.

The engine keeps its own instrumentation (batch evaluations, block reuses, cache
hits / misses / evictions); :meth:`CountingEngine.publish_stats` copies the work a
run did onto its :class:`~repro.core.stats.SearchStats`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.engine.blocks import BlockEntry, EngineBlock
from repro.core.engine.cache import LRUCache
from repro.core.engine.tree import SearchTree
from repro.core.pattern import Pattern
from repro.core.stats import COUNTER_TYPES, SearchStats
from repro.data.dataset import Dataset
from repro.exceptions import DetectionError
from repro.ranking.base import Ranking

#: Default number of cached pattern matches (and sibling blocks).
DEFAULT_CACHE_CAPACITY = 250_000

#: dtype of every cached match and block row array: sorted rank positions.
POSITION_DTYPE = np.int32

_BlockKey = tuple[Pattern, int]


class CountingEngine:
    """Vectorized, memoised size / top-k-count oracle over a dataset and ranking.

    Rows are stored in rank order, so the top-k count of a pattern is the number of
    its matching rank positions below ``k`` — one binary search over the
    pattern's cached sorted positions, ``O(log n)`` for any ``k``.
    """

    def __init__(
        self,
        dataset: Dataset,
        ranking: Ranking,
        *,
        max_cached_masks: int = DEFAULT_CACHE_CAPACITY,
        max_cached_blocks: int | None = None,
        ranked_codes: np.ndarray | None = None,
    ) -> None:
        if ranking.dataset is not dataset and ranking.dataset != dataset:
            raise ValueError("the ranking was computed over a different dataset")
        self._dataset = dataset
        self._ranking = ranking
        self._schema = dataset.schema
        if ranked_codes is None:
            # Column-major layout: sibling-batch evaluation gathers one column at a
            # time, so contiguous columns make the hot gather cache-friendly.
            ranked_codes = np.asfortranarray(dataset.codes[ranking.order])
        else:
            if ranked_codes.shape != dataset.codes.shape:
                raise ValueError(
                    f"ranked_codes has shape {ranked_codes.shape} but the dataset's codes "
                    f"matrix has shape {dataset.codes.shape}"
                )
            # The whole point of the argument is to skip the O(rows x attrs)
            # gather, so only spot-check the claimed rank order: a handful of
            # sampled rows compared against the true gather catches swapped or
            # unranked matrices without touching every row.
            n_rows = ranked_codes.shape[0]
            if n_rows:
                sample = np.unique(np.linspace(0, n_rows - 1, num=min(16, n_rows), dtype=np.intp))
                if not np.array_equal(
                    ranked_codes[sample], dataset.codes[ranking.order[sample]]
                ):
                    raise ValueError(
                        "ranked_codes does not match dataset.codes reordered by the "
                        "ranking (spot-check failed)"
                    )
        self._ranked_codes = ranked_codes
        self._n_rows = dataset.n_rows
        self._tree = SearchTree(dataset)
        if max_cached_blocks is None:
            max_cached_blocks = max_cached_masks
        self._matches: LRUCache[Pattern, np.ndarray] = LRUCache(max_cached_masks)
        self._blocks: LRUCache[_BlockKey, BlockEntry] = LRUCache(max_cached_blocks)
        # The empty pattern matches every row; it is pinned outside the LRU cache.
        self._root = np.arange(self._n_rows, dtype=POSITION_DTYPE)
        self._row_cache: tuple[int, frozenset[tuple[str, object]]] | None = None
        # -- instrumentation ---------------------------------------------------
        self.batch_evaluations = 0
        self.block_reuses = 0

    # -- basic facts -----------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def ranking(self) -> Ranking:
        return self._ranking

    @property
    def dataset_size(self) -> int:
        return self._n_rows

    @property
    def tree(self) -> SearchTree:
        return self._tree

    @property
    def ranked_codes(self) -> np.ndarray:
        """The dataset's codes matrix in rank order (column-major ``int32``).

        The parallel executor publishes this array through shared memory so worker
        engines can attach to it zero-copy (passing it back in via the
        ``ranked_codes`` constructor argument instead of re-gathering).
        """
        return self._ranked_codes

    # -- match computation ------------------------------------------------------
    def match(self, pattern: Pattern) -> np.ndarray:
        """The (cached) sorted ``int32`` rank positions of the rows ``pattern`` matches.

        The array is shared with the cache: callers must not mutate it.
        """
        if pattern.is_empty():
            return self._root
        positions = self._matches.get(pattern)
        if positions is not None:
            return positions
        parent, dropped = self._tree.split_last(pattern)
        column_index = self._tree.attribute_index(dropped)
        code = self._schema.attributes[column_index].code(pattern[dropped])
        cached_block = self._blocks.get((parent, column_index))
        if cached_block is not None:
            positions = cached_block.positions_for(code)
        else:
            rows = self.match(parent)
            positions = rows[self._ranked_codes[:, column_index][rows] == code]
        self._matches.put(pattern, positions)
        return positions

    # -- scalar queries ---------------------------------------------------------
    def size(self, pattern: Pattern) -> int:
        """``s_D(p)`` — the number of tuples in the dataset satisfying ``pattern``."""
        return int(self.match(pattern).shape[0])

    def top_k_count(self, pattern: Pattern, k: int) -> int:
        """``s_Rk(D)(p)`` — the number of top-k tuples satisfying ``pattern``."""
        return int(np.searchsorted(self.match(pattern), k, side="left"))

    def top_k_counts(self, pattern: Pattern, ks: np.ndarray) -> np.ndarray:
        """Vectorized ``s_Rk(D)(p)`` over a whole array of ``k`` values at once."""
        return np.searchsorted(self.match(pattern), np.asarray(ks), side="left")

    def mask(self, pattern: Pattern) -> np.ndarray:
        """Boolean match mask of ``pattern`` over the rank-ordered rows (a fresh array)."""
        mask = np.zeros(self._n_rows, dtype=bool)
        mask[self.match(pattern)] = True
        return mask

    def row_satisfies(self, rank: int, pattern: Pattern) -> bool:
        """Whether the tuple at (1-based) ``rank`` satisfies ``pattern``.

        The row is held as the frozenset of its ``(attribute, value)`` pairs, so
        the test is one C-level ``issuperset`` over the pattern's items: no mask
        is materialised and the caches are never touched.  A value outside an
        attribute's domain is satisfied by no row.  A rank outside ``1..n``
        raises :class:`~repro.exceptions.DetectionError`.
        """
        return self._row_items(rank).issuperset(pattern.items_tuple)

    def satisfying(self, rank: int, patterns: Iterable[Pattern]) -> list[Pattern]:
        """The patterns of ``patterns`` satisfied by the tuple at (1-based) ``rank``.

        This is the per-k touched scan of the incremental detectors
        (Proposition 4.3): one call per dict per k, testing each pattern as
        :meth:`row_satisfies` does.  The result keeps ``patterns``' iteration
        order, which PropBounds' k-tilde schedule order depends on.
        """
        row = self._row_items(rank)
        return [pattern for pattern in patterns if row.issuperset(pattern.items_tuple)]

    def _row_items(self, rank: int) -> frozenset[tuple[str, object]]:
        cached = self._row_cache
        if cached is not None and cached[0] == rank:
            return cached[1]
        if not 1 <= rank <= self._n_rows:
            raise DetectionError(f"rank {rank} is outside the ranking's 1..{self._n_rows}")
        codes = self._ranked_codes[rank - 1].tolist()
        items = frozenset(
            (attribute.name, attribute.values[code])
            for attribute, code in zip(self._schema.attributes, codes)
        )
        self._row_cache = (rank, items)
        return items

    # -- sibling-batch evaluation ------------------------------------------------
    def child_block(self, parent: Pattern, attribute_index: int, k: int) -> EngineBlock:
        """Evaluate all children ``parent ∧ (A = v)`` of one attribute in one batch.

        On a cache miss the parent's sorted rank positions gather the child codes
        of one column, one ``np.bincount`` over them gives every child's size, and
        the new entry's count memo is seeded at ``k`` here, so a block's first
        count is part of its evaluation.  A cached entry is returned uncounted:
        its :class:`EngineBlock` reads the entry's count memo
        (:meth:`BlockEntry.counts_for`) when the caller first needs the counts.
        """
        key = (parent, attribute_index)
        cached = self._blocks.get(key)
        if cached is not None:
            self.block_reuses += 1
            return EngineBlock(cached, k)
        attribute = self._schema.attributes[attribute_index]
        rows = self.match(parent)
        column = self._ranked_codes[:, attribute_index][rows]
        sizes = np.bincount(column, minlength=attribute.cardinality)
        entry = BlockEntry(parent, attribute, rows, column, sizes)
        self._blocks.put(key, entry)
        self.batch_evaluations += 1
        return EngineBlock(entry, k, entry.counts_for(k))

    def child_blocks(self, parent: Pattern, k: int):
        """One :class:`EngineBlock` per attribute contributing children of ``parent``."""
        for attribute_index in self._tree.child_attribute_indices(parent):
            yield self.child_block(parent, attribute_index, k)

    # -- cache management ---------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop all memoised matches and blocks (used between independent searches)."""
        self._matches.clear()
        self._blocks.clear()
        self._row_cache = None

    @property
    def cached_patterns(self) -> int:
        return len(self._matches)

    @property
    def cached_blocks(self) -> int:
        return len(self._blocks)

    # -- instrumentation -----------------------------------------------------------
    def stats_snapshot(self) -> dict[str, int]:
        """Current engine counters (cumulative since construction)."""
        return {
            "batch_evaluations": self.batch_evaluations,
            "block_reuses": self.block_reuses,
            "cache_hits": self._matches.hits + self._blocks.hits,
            "cache_misses": self._matches.misses + self._blocks.misses,
            "cache_evictions": self._matches.evictions + self._blocks.evictions,
        }

    def publish_stats(self, stats: SearchStats, since: dict[str, int] | None = None) -> None:
        """Copy the engine's counters onto ``stats``.

        ``since`` is a :meth:`stats_snapshot` taken before the run; when given, only
        the work performed after it is attributed, so reports stay per-run even when
        a warm counter is reused across several detections.  A counter that names a
        :class:`SearchStats` field is assigned to it; any other lands in ``extra``.
        """
        for name, value in self.stats_snapshot().items():
            if since is not None:
                value -= since.get(name, 0)
            if name in COUNTER_TYPES:
                setattr(stats, name, value)
            else:
                stats.extra[name] = value


__all__ = ["CountingEngine", "DEFAULT_CACHE_CAPACITY", "POSITION_DTYPE"]

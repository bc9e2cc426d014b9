"""The vectorized counting engine behind every detector.

:class:`CountingEngine` memoises ``s_D(p)`` / ``s_Rk(D)(p)`` computation over a
fixed dataset and ranking.  It differs from a per-pattern mask cache in three ways:

* **Sibling-batch evaluation** — :meth:`child_block` evaluates all children of one
  attribute with one ``np.bincount`` over the parent's matched column slice,
  producing sizes and top-k counts for the whole sibling block at once.
* **Prefix-count representation** — cached matches store sorted rank positions (or
  a cumulative-count prefix for dense matches), so ``top_k_count(p, k)`` for *any*
  ``k`` is one ``np.searchsorted`` / array lookup; a k-sweep re-reads cached blocks
  instead of recomputing masks (the k-sweep fast path).
* **Adaptive dense → sparse storage with LRU eviction** — matches switch from
  boolean masks to ``int32`` index arrays once selectivity drops below a threshold,
  and both caches evict least-recently-used entries instead of refusing new ones.

The engine keeps its own instrumentation (batch evaluations, cache hits / misses /
evictions, dense / sparse entry counts); detectors publish a snapshot on
:class:`~repro.core.stats.SearchStats` at the end of a run.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine.blocks import BlockEntry, EngineBlock
from repro.core.engine.cache import LRUCache
from repro.core.engine.masks import (
    DEFAULT_SPARSE_THRESHOLD,
    POSITION_DTYPE,
    DenseMatch,
    SparseMatch,
    make_match,
)
from repro.core.engine.tree import SearchTree
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.ranking.base import Ranking

#: Default number of cached pattern matches (and sibling blocks).
DEFAULT_CACHE_CAPACITY = 250_000

_BlockKey = tuple[Pattern, int]


class CountingEngine:
    """Vectorized, memoised size / top-k-count oracle over a dataset and ranking."""

    def __init__(
        self,
        dataset: Dataset,
        ranking: Ranking,
        *,
        max_cached_patterns: int = DEFAULT_CACHE_CAPACITY,
        max_cached_blocks: int | None = None,
        sparse_threshold: float = DEFAULT_SPARSE_THRESHOLD,
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
        self._sparse_threshold = float(sparse_threshold)
        self._tree = SearchTree(dataset)
        if max_cached_blocks is None:
            max_cached_blocks = max_cached_patterns
        self._matches: LRUCache[Pattern, DenseMatch | SparseMatch] = LRUCache(max_cached_patterns)
        self._blocks: LRUCache[_BlockKey, BlockEntry] = LRUCache(max_cached_blocks)
        # The empty pattern matches every row; it is pinned outside the LRU cache.
        self._root = DenseMatch(np.ones(self._n_rows, dtype=bool))
        self._pattern_codes: dict[Pattern, list[tuple[int, int]]] = {}
        self._row_cache: tuple[int, list[int]] | None = None
        # -- instrumentation ---------------------------------------------------
        self.batch_evaluations = 0
        self.block_reuses = 0
        self.dense_masks = 0
        self.sparse_masks = 0
        self.representation_switches = 0

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
    def sparse_threshold(self) -> float:
        return self._sparse_threshold

    @property
    def ranked_codes(self) -> np.ndarray:
        """The dataset's codes matrix in rank order (column-major ``int32``).

        The parallel executor publishes this array through shared memory so worker
        engines can attach to it zero-copy (passing it back in via the
        ``ranked_codes`` constructor argument instead of re-gathering).
        """
        return self._ranked_codes

    # -- match computation ------------------------------------------------------
    def match(self, pattern: Pattern) -> DenseMatch | SparseMatch:
        """The (cached) match representation of ``pattern`` over the ranked rows."""
        if pattern.is_empty():
            return self._root
        entry = self._matches.get(pattern)
        if entry is not None:
            return entry
        parent, dropped = self._tree.split_last(pattern)
        column_index = self._tree.attribute_index(dropped)
        code = self._schema.attributes[column_index].code(pattern[dropped])
        cached_block = self._blocks.get((parent, column_index))
        if cached_block is not None:
            positions = cached_block.positions_for(code)
        else:
            parent_match = self.match(parent)
            rows = parent_match.positions()
            column = self._ranked_codes[:, column_index]
            positions = rows[column[rows] == code]
        return self._remember(pattern, parent, positions)

    def _remember(
        self, pattern: Pattern, parent: Pattern, positions: np.ndarray
    ) -> DenseMatch | SparseMatch:
        entry = make_match(positions, self._n_rows, self._sparse_threshold)
        if entry.is_dense:
            self.dense_masks += 1
        else:
            self.sparse_masks += 1
        parent_entry = self._root if parent.is_empty() else self._matches.peek(parent)
        if parent_entry is not None and parent_entry.is_dense and not entry.is_dense:
            self.representation_switches += 1
        self._matches.put(pattern, entry)
        return entry

    # -- scalar queries ---------------------------------------------------------
    def size(self, pattern: Pattern) -> int:
        """``s_D(p)`` — the number of tuples in the dataset satisfying ``pattern``."""
        return self.match(pattern).size

    def top_k_count(self, pattern: Pattern, k: int) -> int:
        """``s_Rk(D)(p)`` — the number of top-k tuples satisfying ``pattern``."""
        return self.match(pattern).top_k_count(k)

    def top_k_counts(self, pattern: Pattern, ks: np.ndarray) -> np.ndarray:
        """Vectorized ``s_Rk(D)(p)`` over a whole array of ``k`` values at once."""
        return self.match(pattern).top_k_counts(np.asarray(ks))

    def boolean_mask(self, pattern: Pattern) -> np.ndarray:
        """Boolean match mask of ``pattern`` over the rank-ordered rows."""
        entry = self.match(pattern)
        if entry.is_dense:
            return entry.boolean_mask()
        return entry.boolean_mask(self._n_rows)

    def row_satisfies(self, rank: int, pattern: Pattern) -> bool:
        """Whether the tuple at (1-based) ``rank`` satisfies ``pattern``.

        Answered in ``O(|pattern|)`` by comparing the row's codes directly — no mask
        is materialised, so the per-k incremental steps of the optimized detectors
        never touch the cache.
        """
        row = self._row_values(rank)
        for index, code in self._codes_of(pattern):
            if row[index] != code:
                return False
        return True

    def _row_values(self, rank: int) -> list[int]:
        cached = self._row_cache
        if cached is not None and cached[0] == rank:
            return cached[1]
        values = self._ranked_codes[rank - 1].tolist()
        self._row_cache = (rank, values)
        return values

    def _codes_of(self, pattern: Pattern) -> list[tuple[int, int]]:
        codes = self._pattern_codes.get(pattern)
        if codes is None:
            attributes = self._schema.attributes
            codes = []
            for name, value in pattern.items_tuple:
                index = self._tree.attribute_index(name)
                codes.append((index, attributes[index].code(value)))
            self._pattern_codes[pattern] = codes
        return codes

    # -- sibling-batch evaluation ------------------------------------------------
    def child_block(self, parent: Pattern, attribute_index: int, k: int) -> EngineBlock:
        """Evaluate all children ``parent ∧ (A = v)`` of one attribute in one batch.

        On a cache miss the parent's sorted rank positions gather the child codes
        of one column, and one ``np.bincount`` over them gives every child's size.
        The (rows, codes) pair is cached so this and later sweeps at any ``k``
        count the whole block's top-k with one prefix pass
        (:meth:`BlockEntry.counts_at`).
        """
        key = (parent, attribute_index)
        cached = self._blocks.get(key)
        if cached is not None:
            self.block_reuses += 1
            return EngineBlock(cached, k)
        attribute = self._schema.attributes[attribute_index]
        parent_match = self.match(parent)
        rows = parent_match.positions()
        column = self._ranked_codes[:, attribute_index][rows]
        sizes = np.bincount(column, minlength=attribute.cardinality)
        entry = BlockEntry(parent, attribute, rows, column, sizes)
        self._blocks.put(key, entry)
        self.batch_evaluations += 1
        return EngineBlock(entry, k, entry.counts_at(k))

    def child_blocks(self, parent: Pattern, k: int):
        """One :class:`EngineBlock` per attribute contributing children of ``parent``."""
        for attribute_index in self._tree.child_attribute_indices(parent):
            yield self.child_block(parent, attribute_index, k)

    # -- cache management ---------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop all memoised matches and blocks (used between independent searches)."""
        self._matches.clear()
        self._blocks.clear()
        self._pattern_codes.clear()
        self._row_cache = None

    @property
    def cached_patterns(self) -> int:
        return len(self._matches)

    @property
    def cached_blocks(self) -> int:
        return len(self._blocks)

    # -- instrumentation -----------------------------------------------------------
    def snapshot(self) -> dict[str, int]:
        """Current engine counters (cumulative since construction)."""
        return {
            "batch_evaluations": self.batch_evaluations,
            "block_reuses": self.block_reuses,
            "cache_hits": self._matches.hits + self._blocks.hits,
            "cache_misses": self._matches.misses + self._blocks.misses,
            "cache_evictions": self._matches.evictions + self._blocks.evictions,
            "dense_masks": self.dense_masks,
            "sparse_masks": self.sparse_masks,
            "representation_switches": self.representation_switches,
        }


# Re-exported for callers that want to size sparse arrays consistently.
__all__ = ["CountingEngine", "DEFAULT_CACHE_CAPACITY", "POSITION_DTYPE"]

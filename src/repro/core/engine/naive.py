"""Seed-equivalent per-pattern counting path (reference oracle and bench baseline).

:class:`NaiveCounter` reproduces the pre-engine ``PatternCounter`` behaviour
faithfully: every pattern gets a full-length boolean mask derived from its tree
parent's mask, every ``top_k_count`` slices and sums that mask, and the cache simply
stops accepting entries once full.  It exists so that

* the parity test suite can assert the engine's counts and the detectors' result
  sets are byte-identical to the old code path, and
* ``benchmarks/bench_engine_throughput.py`` can time the engine against the exact
  per-node cost the paper's bounds-based algorithms were paying before.

It implements the counting methods of :class:`~repro.core.engine.counting.CountingEngine`
(including ``child_blocks``), but performs one Python-level mask computation per
child — no batching, no cached rank positions — and keeps no counters,
so it has no ``stats_snapshot``/``publish_stats`` and never runs sharded.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.engine.blocks import MaterializedBlock
from repro.core.engine.tree import SearchTree
from repro.core.pattern import Pattern
from repro.data.dataset import Dataset
from repro.exceptions import DetectionError
from repro.ranking.base import Ranking


class NaiveCounter:
    """Per-pattern full-mask counter replicating the seed implementation."""

    def __init__(self, dataset: Dataset, ranking: Ranking, max_cached_masks: int = 250_000) -> None:
        if ranking.dataset is not dataset and ranking.dataset != dataset:
            raise ValueError("the ranking was computed over a different dataset")
        self._dataset = dataset
        self._schema = dataset.schema
        self._ranked_codes = dataset.codes[ranking.order]
        self._ranking = ranking
        self._mask_cache: dict[Pattern, np.ndarray] = {}
        self._max_cached_masks = max_cached_masks
        self._tree = SearchTree(dataset)

    # -- basic facts -----------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def ranking(self) -> Ranking:
        return self._ranking

    @property
    def dataset_size(self) -> int:
        return self._dataset.n_rows

    @property
    def tree(self) -> SearchTree:
        return self._tree

    # -- mask computation -------------------------------------------------------
    def mask(self, pattern: Pattern) -> np.ndarray:
        """Boolean match mask of ``pattern`` over the rank-ordered rows."""
        cached = self._mask_cache.get(pattern)
        if cached is not None:
            return cached
        if pattern.is_empty():
            mask = np.ones(self._ranked_codes.shape[0], dtype=bool)
        else:
            parent, added = self._tree.split_last(pattern)
            column_index = self._tree.attribute_index(added)
            code = self._schema.attribute(added).code(pattern[added])
            mask = self.mask(parent) & (self._ranked_codes[:, column_index] == code)
        if len(self._mask_cache) < self._max_cached_masks:
            self._mask_cache[pattern] = mask
        return mask

    def size(self, pattern: Pattern) -> int:
        """``s_D(p)`` — the number of tuples in the dataset satisfying ``pattern``."""
        return int(self.mask(pattern).sum())

    def top_k_count(self, pattern: Pattern, k: int) -> int:
        """``s_Rk(D)(p)`` — the number of top-k tuples satisfying ``pattern``."""
        return int(self.mask(pattern)[:k].sum())

    def top_k_counts(self, pattern: Pattern, ks: np.ndarray) -> np.ndarray:
        """Per-k counts via one full prefix scan per k, as the seed code paid."""
        mask = self.mask(pattern)
        return np.asarray([int(mask[:k].sum()) for k in np.asarray(ks)])

    def row_satisfies(self, rank: int, pattern: Pattern) -> bool:
        """Whether the tuple at (1-based) ``rank`` satisfies ``pattern``."""
        return bool(self.mask(pattern)[self._row_index(rank)])

    def satisfying(self, rank: int, patterns: Iterable[Pattern]) -> list[Pattern]:
        """The patterns satisfied by the tuple at ``rank``, in ``patterns``' order."""
        index = self._row_index(rank)
        return [pattern for pattern in patterns if self.mask(pattern)[index]]

    def _row_index(self, rank: int) -> int:
        """The row index of 1-based ``rank``; a rank outside ``1..n`` raises."""
        if not 1 <= rank <= self.dataset_size:
            raise DetectionError(f"rank {rank} is outside the ranking's 1..{self.dataset_size}")
        return rank - 1

    # -- sibling blocks (per-child evaluation, no batching) -----------------------
    def child_block(self, parent: Pattern, attribute_index: int, k: int) -> MaterializedBlock:
        """Evaluate one attribute's children one full mask at a time."""
        attribute = self._schema.attributes[attribute_index]
        children: list[Pattern] = []
        sizes: list[int] = []
        counts: list[int] = []
        for value in attribute.values:
            child = parent.extend(attribute.name, value)
            children.append(child)
            sizes.append(self.size(child))
            counts.append(self.top_k_count(child, k))
        return MaterializedBlock(children, sizes, counts)

    def child_blocks(self, parent: Pattern, k: int):
        for attribute_index in self._tree.child_attribute_indices(parent):
            yield self.child_block(parent, attribute_index, k)

    # -- cache management ---------------------------------------------------------
    def clear_cache(self) -> None:
        """Drop all memoised masks (used between independent searches)."""
        self._mask_cache.clear()

    @property
    def cached_patterns(self) -> int:
        return len(self._mask_cache)

"""Unit tests for the engine's counting operations against a per-element oracle.

The innermost hot loop of the engine is three numpy operations over one sibling
block: :meth:`CountingEngine.child_block` gathers the child codes of the
parent's sorted rank positions and counts every child's size,
:meth:`BlockEntry.counts_at` counts every child inside a top-k prefix, and
:meth:`BlockEntry.positions_for` / :meth:`CountingEngine.match` select one
child's positions.  These tests pin that contract against hand-computed
expectations and a brute-force per-element reference, under permuted rankings,
dense and sparse parent matches, and block-cache reuse and eviction.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine.counting import CountingEngine
from repro.core.engine.masks import POSITION_DTYPE
from repro.core.pattern import EMPTY_PATTERN, Pattern
from repro.data.dataset import Dataset
from repro.data.schema import Attribute, Schema
from repro.ranking.base import Ranking

#: The parent pattern of every block below, and the child attribute's index.
PARENT = Pattern({"P": 1})
CHILD = 1


def _dataset(parent, column, cardinality: int) -> Dataset:
    """Attribute ``P`` marks the parent's rows, attribute ``C`` holds the child codes."""
    schema = Schema([Attribute("P", (0, 1)), Attribute("C", tuple(range(cardinality)))])
    return Dataset(schema, np.column_stack([parent, column]))


def _engine(column, rows, cardinality: int, **options) -> CountingEngine:
    """An engine whose parent ``P=1`` matches exactly ``rows``.

    The ranking is the identity, so rank positions are row indices.
    """
    column = np.asarray(column, dtype=np.int32)
    parent = np.zeros(column.shape[0], dtype=np.int32)
    parent[np.asarray(rows, dtype=np.intp)] = 1
    dataset = _dataset(parent, column, cardinality)
    return CountingEngine(dataset, Ranking(dataset, np.arange(column.shape[0])), **options)


def _random_block(rng):
    """A random child column, a sorted random parent row set and the cardinality."""
    n_total = int(rng.integers(1, 60))
    cardinality = int(rng.integers(1, 6))
    column = rng.integers(0, cardinality, size=n_total).astype(np.int32)
    n_rows = int(rng.integers(0, n_total + 1))
    rows = np.sort(rng.choice(n_total, size=n_rows, replace=False))
    return column, rows, cardinality


def _reference_evaluate(column, rows, k, cardinality):
    """Per-element oracle: what one sibling-block evaluation must compute."""
    codes = [int(column[row]) for row in rows]
    sizes = [0] * cardinality
    counts = [0] * cardinality
    for row, code in zip(rows, codes):
        sizes[code] += 1
        if row < k:
            counts[code] += 1
    return codes, sizes, counts


class TestBlockCounting:
    def test_child_block_hand_computed(self):
        # rows are the parent's sorted rank positions; k=4 puts exactly the
        # first two of them (ranks 0 and 2) inside the top-k prefix.
        column = [1, 0, 2, 1, 0, 2, 2, 1]
        block = _engine(column, [0, 2, 5, 7], 3).child_block(PARENT, CHILD, 4)
        assert block.entry.rows.tolist() == [0, 2, 5, 7]
        assert block.entry.column.tolist() == [1, 2, 2, 1]
        assert block.sizes.tolist() == [0, 2, 2]
        assert block.counts == [0, 1, 1]

    def test_child_block_randomized_matches_reference(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            column, rows, cardinality = _random_block(rng)
            n_total = column.shape[0]
            engine = _engine(column, rows, cardinality)
            for k in (0, 1, n_total // 2, n_total - 1, n_total):
                ref_codes, ref_sizes, ref_counts = _reference_evaluate(
                    column, rows, k, cardinality
                )
                # A cleared cache builds the block; the second call re-counts
                # the cached entry at the same k (the k-sweep path).
                engine.clear_cache()
                built = engine.child_block(PARENT, CHILD, k)
                assert built.entry.column.tolist() == ref_codes
                assert built.sizes.tolist() == ref_sizes
                assert built.counts == ref_counts
                assert engine.child_block(PARENT, CHILD, k).counts == ref_counts
                assert built.entry.counts_at(k).tolist() == ref_counts

    def test_empty_rows(self):
        engine = _engine([0, 1, 2], [], 3)
        # Selected before any block is cached: the gather+filter path of match.
        assert engine.match(PARENT.extend("C", 0)).positions().shape == (0,)
        block = engine.child_block(PARENT, CHILD, 2)
        assert block.entry.column.shape == (0,)
        assert block.sizes.tolist() == [0, 0, 0]
        assert block.counts == [0, 0, 0]
        assert block.entry.counts_at(2).tolist() == [0, 0, 0]
        assert block.positions_for(0).shape == (0,)

    def test_k_at_range_ends(self):
        engine = _engine([0, 1, 0, 1, 0], range(5), 2)
        assert engine.child_block(PARENT, CHILD, 0).counts == [0, 0]
        at_n = engine.child_block(PARENT, CHILD, 5)
        assert at_n.counts == at_n.sizes.tolist() == [3, 2]

    def test_child_and_match_positions(self):
        column = [2, 0, 2, 1, 2, 0]
        rows = [0, 2, 3, 5]
        # match() on an engine without the cached block gathers and filters
        # the column itself; it must agree with the block's selection.
        selected = {
            code: _engine(column, rows, 3).match(PARENT.extend("C", code)).positions().tolist()
            for code in (0, 1, 2)
        }
        block = _engine(column, rows, 3).child_block(PARENT, CHILD, 6)
        assert block.positions_for(2).tolist() == [0, 2]
        assert block.positions_for(0).tolist() == [5]
        assert block.positions_for(1).tolist() == [3]
        for code in (0, 1, 2):
            assert selected[code] == block.positions_for(code).tolist()

    def test_positions_keep_the_position_dtype(self):
        engine = _engine([0, 1, 0], range(3), 2)
        assert engine.match(PARENT.extend("C", 0)).positions().dtype == POSITION_DTYPE
        block = engine.child_block(PARENT, CHILD, 2)
        assert block.entry.rows.dtype == POSITION_DTYPE
        assert block.positions_for(0).dtype == POSITION_DTYPE

    def test_match_randomized_matches_reference(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            column, rows, cardinality = _random_block(rng)
            n_total = column.shape[0]
            gathered = _engine(column, rows, cardinality)
            from_block = _engine(column, rows, cardinality)
            from_block.child_block(PARENT, CHILD, 0)
            for code in range(cardinality):
                expected = [int(row) for row in rows if column[row] == code]
                child = PARENT.extend("C", code)
                # Without a cached block match() gathers and filters the column;
                # with one it selects from the block.  Both must be exact.
                for engine in (gathered, from_block):
                    match = engine.match(child)
                    assert match.positions().tolist() == expected
                    assert match.size == len(expected)
                    for k in (0, 1, n_total // 2, n_total):
                        assert match.top_k_count(k) == sum(row < k for row in expected)
            assert from_block.batch_evaluations == 1

    def test_counts_at_every_k_matches_reference(self):
        rng = np.random.default_rng(13)
        for trial in range(8):
            column, rows, cardinality = _random_block(rng)
            entry = _engine(column, rows, cardinality).child_block(PARENT, CHILD, 0).entry
            for k in range(column.shape[0] + 2):
                _, _, ref_counts = _reference_evaluate(column, rows, k, cardinality)
                assert entry.counts_at(k).tolist() == ref_counts

    def test_permuted_ranking_counts_in_rank_order(self):
        """Block rows are rank positions, not dataset row indices."""
        rng = np.random.default_rng(17)
        for trial in range(10):
            n_total = int(rng.integers(2, 50))
            cardinality = int(rng.integers(1, 5))
            codes = rng.integers(0, cardinality, size=n_total).astype(np.int32)
            parent = rng.integers(0, 2, size=n_total).astype(np.int32)
            order = rng.permutation(n_total)
            dataset = _dataset(parent, codes, cardinality)
            engine = CountingEngine(dataset, Ranking(dataset, order))
            # Rank position i holds dataset row order[i].
            ranked_column = codes[order]
            rank_rows = np.flatnonzero(parent[order] == 1)
            for k in (0, n_total // 3, n_total):
                ref_codes, ref_sizes, ref_counts = _reference_evaluate(
                    ranked_column, rank_rows, k, cardinality
                )
                engine.clear_cache()
                block = engine.child_block(PARENT, CHILD, k)
                assert block.entry.rows.tolist() == rank_rows.tolist()
                assert block.entry.column.tolist() == ref_codes
                assert block.sizes.tolist() == ref_sizes
                assert block.counts == ref_counts

    def test_dense_and_sparse_parents_give_the_same_block(self):
        """The parent's match representation never changes the block."""
        rng = np.random.default_rng(19)
        for trial in range(10):
            column, rows, cardinality = _random_block(rng)
            k = column.shape[0] // 2
            ref_codes, ref_sizes, ref_counts = _reference_evaluate(column, rows, k, cardinality)
            # A threshold of 0 keeps every match dense; above 1 makes every one sparse.
            for sparse_threshold, dense in ((0.0, True), (1.1, False)):
                engine = _engine(column, rows, cardinality, sparse_threshold=sparse_threshold)
                assert engine.match(PARENT).is_dense is dense
                block = engine.child_block(PARENT, CHILD, k)
                assert block.entry.rows.tolist() == rows.tolist()
                assert block.entry.column.tolist() == ref_codes
                assert block.sizes.tolist() == ref_sizes
                assert block.counts == ref_counts

    def test_survivors_follow_the_size_threshold(self):
        # Child sizes over the parent's rows: C=0 once, C=1 once, C=2 four times.
        column = [0, 2, 2, 1, 2, 0, 2, 1]
        block = _engine(column, [0, 1, 2, 4, 6, 7], 3).child_block(PARENT, CHILD, 3)
        entry = block.entry
        assert block.sizes.tolist() == [1, 1, 4]
        survivors = entry.survivors_for(2)
        assert survivors == ((PARENT.extend("C", 2), 4, 2),)
        assert entry.survivors_for(2) is survivors  # memoised for one tau_s
        assert [index for _, _, index in entry.survivors_for(1)] == [0, 1, 2]
        assert entry.survivors_for(5) == ()
        # qualifying() pairs each survivor with its top-k count (rows 0, 1, 2).
        assert list(block.qualifying(1)) == [
            (PARENT.extend("C", 0), 1, 1),
            (PARENT.extend("C", 1), 1, 0),
            (PARENT.extend("C", 2), 4, 2),
        ]

    def test_cached_block_is_recounted_not_rebuilt(self):
        engine = _engine([1, 0, 2, 1, 0, 2, 2, 1], [0, 2, 5, 7], 3)
        first = engine.child_block(PARENT, CHILD, 4)
        again = engine.child_block(PARENT, CHILD, 8)
        assert again.entry is first.entry
        assert (engine.batch_evaluations, engine.block_reuses) == (1, 1)
        assert first.counts == [0, 1, 1]
        assert again.counts == [0, 2, 2]

    def test_evicted_block_is_rebuilt_identically(self):
        rng = np.random.default_rng(23)
        for trial in range(5):
            column, rows, cardinality = _random_block(rng)
            k = column.shape[0] // 2
            engine = _engine(column, rows, cardinality, max_cached_blocks=1)
            first = engine.child_block(PARENT, CHILD, k)
            engine.child_block(EMPTY_PATTERN, 0, k)  # evicts the only cached block
            rebuilt = engine.child_block(PARENT, CHILD, k)
            assert rebuilt.entry is not first.entry
            assert engine.batch_evaluations == 3
            assert rebuilt.entry.rows.tolist() == first.entry.rows.tolist()
            assert rebuilt.entry.column.tolist() == first.entry.column.tolist()
            assert rebuilt.sizes.tolist() == first.sizes.tolist()
            assert rebuilt.counts == first.counts

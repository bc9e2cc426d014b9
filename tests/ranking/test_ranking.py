"""Tests for repro.ranking.base (Ranking and PrecomputedRanker)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.exceptions import RankingError
from repro.ranking.base import PrecomputedRanker, Ranking, stable_order


@pytest.fixture()
def dataset() -> Dataset:
    return Dataset.from_columns(
        {"color": ["r", "g", "b", "r"]},
        numeric={"score": [1.0, 4.0, 2.0, 3.0]},
    )


class TestRanking:
    def test_order_accessors(self, dataset):
        ranking = Ranking(dataset, [1, 3, 2, 0])
        assert ranking.row_at_rank(1) == 1
        assert ranking.row_at_rank(4) == 0
        assert ranking.rank_of_row(1) == 1
        assert ranking.rank_of_row(0) == 4
        assert list(ranking.ranks()) == [4, 1, 3, 2]
        assert len(ranking) == 4

    def test_invalid_orders_rejected(self, dataset):
        with pytest.raises(RankingError):
            Ranking(dataset, [0, 1])  # wrong length
        with pytest.raises(RankingError):
            Ranking(dataset, [0, 0, 1, 2])  # not a permutation
        with pytest.raises(RankingError):
            Ranking(dataset, [[0, 1], [2, 3]])  # not 1-dimensional

    def test_rank_bounds_checked(self, dataset):
        ranking = Ranking(dataset, [0, 1, 2, 3])
        with pytest.raises(RankingError):
            ranking.row_at_rank(0)
        with pytest.raises(RankingError):
            ranking.row_at_rank(5)
        with pytest.raises(RankingError):
            ranking.rank_of_row(9)

    def test_top_k_helpers(self, dataset):
        ranking = Ranking(dataset, [1, 3, 2, 0])
        assert list(ranking.top_k_rows(2)) == [1, 3]
        assert list(ranking.in_top_k(2)) == [False, True, False, True]
        top = ranking.top_k_dataset(2)
        assert top.n_rows == 2
        assert top.row(0) == {"color": "g"}
        assert ranking.top_k_rows(99).shape[0] == 4
        with pytest.raises(RankingError):
            ranking.top_k_rows(-1)

    def test_count_in_top_k(self, dataset):
        ranking = Ranking(dataset, [1, 3, 2, 0])
        assert ranking.count_in_top_k({"color": "r"}, 2) == 1
        assert ranking.count_in_top_k({"color": "r"}, 4) == 2
        assert ranking.count_in_top_k({}, 3) == 3

    def test_ranked_dataset_reorders_rows(self, dataset):
        ranking = Ranking(dataset, [1, 3, 2, 0])
        ranked = ranking.ranked_dataset()
        assert list(ranked.numeric_column("score")) == [4.0, 3.0, 2.0, 1.0]

    def test_fingerprint_covers_dataset_and_order(self, dataset):
        ranking = Ranking(dataset, [1, 3, 2, 0])
        first = ranking.fingerprint()
        assert ranking.fingerprint() is first  # cached
        assert Ranking(dataset.take(np.arange(4)), [1, 3, 2, 0]).fingerprint() == first
        assert Ranking(dataset, [0, 2, 3, 1]).fingerprint() != first
        assert first != dataset.fingerprint()
        other = Dataset.from_columns(
            {"color": ["r", "g", "b", "g"]}, numeric={"score": [1.0, 4.0, 2.0, 3.0]}
        )
        assert Ranking(other, [1, 3, 2, 0]).fingerprint() != first


class TestStableOrder:
    def test_descending_with_stable_ties(self):
        scores = np.array([2.0, 5.0, 2.0, 1.0])
        assert list(stable_order(scores, descending=True)) == [1, 0, 2, 3]
        assert list(stable_order(scores, descending=False)) == [3, 0, 2, 1]


class TestPrecomputedRanker:
    def test_from_score_column(self, dataset):
        ranking = PrecomputedRanker(score_column="score").rank(dataset)
        assert list(ranking.order) == [1, 3, 2, 0]

    def test_from_explicit_order(self, dataset):
        ranking = PrecomputedRanker(order=[3, 2, 1, 0]).rank(dataset)
        assert list(ranking.order) == [3, 2, 1, 0]

    def test_exactly_one_source_required(self):
        with pytest.raises(RankingError):
            PrecomputedRanker()
        with pytest.raises(RankingError):
            PrecomputedRanker(order=[0], score_column="score")

    def test_ascending_option(self, dataset):
        ranking = PrecomputedRanker(score_column="score", descending=False).rank(dataset)
        assert list(ranking.order) == [0, 2, 3, 1]

"""Black-box ranking interface and the :class:`Ranking` result object.

The detection problem treats the ranking algorithm ``R`` as a black box
(Section III): the only thing the detectors need is the order in which ``R`` returns
the tuples of a dataset.  A :class:`Ranker` therefore exposes a single method,
:meth:`Ranker.rank`, returning a :class:`Ranking` — an immutable permutation of the
dataset's row indices, best first, together with prefix helpers (``top_k`` counts,
positions, prefix datasets) used throughout the library.
"""

from __future__ import annotations

import abc
import hashlib
from typing import Mapping, Sequence

import numpy as np

from repro.data.dataset import Dataset
from repro.exceptions import RankingError


class Ranking:
    """The output of a ranking algorithm over a dataset.

    ``order[i]`` is the dataset row index of the item at rank ``i + 1`` (ranks are
    1-based in the paper, positions here are 0-based array indices).
    """

    def __init__(self, dataset: Dataset, order: Sequence[int] | np.ndarray) -> None:
        order = np.asarray(order, dtype=np.intp)
        if order.ndim != 1:
            raise RankingError("a ranking order must be a 1-dimensional sequence of row indices")
        if order.shape[0] != dataset.n_rows:
            raise RankingError(
                f"ranking has {order.shape[0]} positions but the dataset has {dataset.n_rows} rows"
            )
        if dataset.n_rows and not np.array_equal(np.sort(order), np.arange(dataset.n_rows)):
            raise RankingError("a ranking order must be a permutation of the dataset's row indices")
        self._dataset = dataset
        self._order = order
        self._order.setflags(write=False)
        # position_of[row] = 0-based rank position of that row.
        self._position_of = np.empty_like(order)
        self._position_of[order] = np.arange(order.shape[0])
        self._position_of.setflags(write=False)
        self._fingerprint: str | None = None

    # -- basic accessors ------------------------------------------------------
    @property
    def dataset(self) -> Dataset:
        return self._dataset

    @property
    def order(self) -> np.ndarray:
        """Row indices in rank order (best first)."""
        return self._order

    def fingerprint(self) -> str:
        """A content digest of the ranked dataset and the rank order.

        Covers :meth:`Dataset.fingerprint <repro.data.dataset.Dataset.fingerprint>`
        and ``order``, and is cached like it, so two rankings share a fingerprint
        only when they order the same data the same way (up to hash collisions).
        Result stores key sweeps by it: two rankings of one dataset never serve
        each other's results.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(self._dataset.fingerprint().encode("utf-8"))
            digest.update(self._order.astype("<i8").tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __len__(self) -> int:
        return int(self._order.shape[0])

    def __repr__(self) -> str:
        preview = ", ".join(str(int(index)) for index in self._order[:8])
        suffix = ", ..." if len(self) > 8 else ""
        return f"Ranking(n={len(self)}, order=[{preview}{suffix}])"

    def row_at_rank(self, rank: int) -> int:
        """Dataset row index of the item at (1-based) ``rank`` — ``R(D)[k]`` in the paper."""
        if not 1 <= rank <= len(self):
            raise RankingError(f"rank {rank} outside the valid range [1, {len(self)}]")
        return int(self._order[rank - 1])

    def rank_of_row(self, row: int) -> int:
        """The (1-based) rank of dataset row ``row``."""
        if not 0 <= row < len(self):
            raise RankingError(f"row index {row} outside the valid range [0, {len(self) - 1}]")
        return int(self._position_of[row]) + 1

    def ranks(self) -> np.ndarray:
        """Array of 1-based ranks indexed by dataset row (the regression target of Section V)."""
        return self._position_of + 1

    # -- prefix helpers -------------------------------------------------------
    def top_k_rows(self, k: int) -> np.ndarray:
        """Row indices of the top-``k`` ranked items."""
        if k < 0:
            raise RankingError("k must be non-negative")
        return self._order[: min(k, len(self))]

    def top_k_dataset(self, k: int) -> Dataset:
        """The top-``k`` prefix materialised as a dataset (rank order preserved)."""
        return self._dataset.take(self.top_k_rows(k))

    def in_top_k(self, k: int) -> np.ndarray:
        """Boolean mask over dataset rows: is the row among the top-``k``?"""
        return self._position_of < k

    def ranked_dataset(self) -> Dataset:
        """The whole dataset reordered by rank (row 0 = best)."""
        return self._dataset.take(self._order)

    def count_in_top_k(self, assignment: Mapping[str, object], k: int) -> int:
        """Number of top-``k`` tuples satisfying ``assignment`` — ``s_Rk(D)(p)``."""
        mask = self._dataset.match_mask(assignment)
        return int(mask[self.top_k_rows(k)].sum())


class Ranker(abc.ABC):
    """A black-box ranking algorithm."""

    @abc.abstractmethod
    def rank(self, dataset: Dataset) -> Ranking:
        """Rank the rows of ``dataset`` and return the resulting :class:`Ranking`."""

    def __call__(self, dataset: Dataset) -> Ranking:
        return self.rank(dataset)


class PrecomputedRanker(Ranker):
    """A ranker wrapping an externally supplied order or score column.

    This is how the German Credit workload is modelled: the paper uses the ranking
    of Yang & Stoyanovich and treats the ranking function itself as unknown.
    """

    def __init__(
        self,
        order: Sequence[int] | None = None,
        score_column: str | None = None,
        descending: bool = True,
    ) -> None:
        if (order is None) == (score_column is None):
            raise RankingError("provide exactly one of 'order' or 'score_column'")
        self._order = None if order is None else np.asarray(order, dtype=np.intp)
        self._score_column = score_column
        self._descending = descending

    def rank(self, dataset: Dataset) -> Ranking:
        if self._order is not None:
            return Ranking(dataset, self._order)
        scores = dataset.numeric_column(self._score_column)
        return Ranking(dataset, stable_order(scores, descending=self._descending))


def stable_order(scores: np.ndarray, descending: bool = True) -> np.ndarray:
    """Stable argsort of ``scores`` (ties keep the original row order)."""
    scores = np.asarray(scores, dtype=float)
    keys = -scores if descending else scores
    return np.argsort(keys, kind="stable")

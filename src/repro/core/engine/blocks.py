"""Sibling blocks: batch evaluation results for all children of one attribute.

When the top-down search expands a node ``p``, every attribute with a larger schema
index contributes one *sibling block* — the children ``p ∧ (A = v)`` for every value
``v`` of that attribute.  The engine evaluates a whole block with one
``np.bincount`` over the parent's matched column slice, producing the sizes *and*
top-k counts of every sibling in one NumPy op instead of one Python-level mask
computation per child.

:class:`BlockEntry` is the cached form: the parent's sorted rank positions together
with the aligned child value codes, plus a memo of the *surviving* children for the
last size threshold seen and a memo of the children's counts at the last ``k``
counted.  Sizes — and therefore survivors — do not depend on ``k``, so a k-sweep
re-reads the cached entry instead of rebuilding it.  The top-k and top-(k+1)
prefixes differ by one tuple (Proposition 4.3), so the block's counts at ``k + 1``
are its counts at ``k`` plus at most one row: the count memo steps forward with one
integer comparison, and only a jump or a fall in ``k`` re-counts the block with a
binary search (how many parent rows are in the top-k) and one ``np.bincount`` over
those at most ``k`` codes.  No masks, no ``Pattern`` reconstruction, no per-child
NumPy dispatch; children pruned by the size threshold never materialise Pattern
objects at all.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.pattern import Pattern
from repro.data.schema import Attribute

#: A survivor: (child pattern, size, value-code index).
Survivor = tuple[Pattern, int, int]


class BlockEntry:
    """Cached layout of one sibling block, with a survivor memo and a count memo.

    ``rows`` holds the parent's matching rank positions in ascending order and
    ``column`` the child value code of each of those rows, so
    ``rows[column == code]`` are one child's positions and
    ``np.bincount(column[:limit])`` counts every child inside any rank prefix at
    once.  ``survivors_for`` memoises the children whose size clears a threshold —
    one detection run uses a single ``tau_s``, so the memo is a one-slot cache.
    ``n_children`` is the attribute's cardinality, one child per domain value.

    ``counts_for`` memoises the children's counts at the last ``k`` it served,
    with that prefix's limit (how many of ``rows`` lie below ``k``) and the rank
    of the next row to enter it.  It is a one-slot cache, shared by every
    :class:`EngineBlock` of this entry and unsynchronised: an engine and its
    block cache serve one caller at a time.
    """

    __slots__ = (
        "parent", "attribute", "rows", "column", "sizes", "n_children",
        "_survivor_tau", "_survivors", "_counted_k", "_limit", "_next_row", "_counts",
    )

    def __init__(
        self,
        parent: Pattern,
        attribute: Attribute,
        rows: np.ndarray,
        column: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        self.parent = parent
        self.attribute = attribute
        self.rows = rows
        self.column = column
        self.sizes = sizes
        self.n_children = int(sizes.shape[0])
        self._survivor_tau: int | None = None
        self._survivors: tuple[Survivor, ...] = ()
        # The count memo starts at the empty prefix, where every count is zero.
        self._counted_k = 0
        self._limit = 0
        self._next_row = int(rows[0]) if rows.shape[0] else -1
        self._counts: list[int] = [0] * self.n_children

    def positions_for(self, index: int) -> np.ndarray:
        """Sorted rank positions of the child at value-code ``index``."""
        return self.rows[self.column == index]

    def counts_at(self, k: int) -> np.ndarray:
        """Top-k counts of *all* children at once (one prefix ``np.bincount``).

        ``rows`` is sorted, so the rows inside the top-k prefix are the first
        ``searchsorted(rows, k)`` of them.
        """
        limit = int(np.searchsorted(self.rows, k, side="left"))
        return np.bincount(self.column[:limit], minlength=self.n_children)

    def counts_for(self, k: int) -> list[int]:
        """Top-k counts of every child, as a list, served from the count memo.

        At the memo's ``k`` the list is returned as it is.  At the next ``k``
        only rank position ``k - 1`` enters the prefix, so at most one child's
        count grows by one: the step compares that position with the next of
        ``rows`` and, on a match, bumps a *copy* of the list, so counts handed
        out earlier keep their values.  Any other ``k`` re-counts the block
        (:meth:`counts_at`).  Callers must not mutate the returned list.
        """
        last = self._counted_k
        if k == last:
            return self._counts
        self._counted_k = k
        if k == last + 1:
            if self._next_row != k - 1:
                return self._counts
            counts = self._counts.copy()
            counts[self.column[self._limit]] += 1
            limit = self._limit + 1
        else:
            counts = self.counts_at(k).tolist()
            limit = sum(counts)
        rows = self.rows
        self._next_row = int(rows[limit]) if limit < rows.shape[0] else -1
        self._limit = limit
        self._counts = counts
        return counts

    def survivors_for(self, tau_s: int) -> tuple[Survivor, ...]:
        """The children with ``size >= tau_s`` and their value-code indices."""
        if self._survivor_tau != tau_s:
            attribute = self.attribute
            name = attribute.name
            values = attribute.values
            parent = self.parent
            sizes = self.sizes
            self._survivors = tuple(
                (parent.extend(name, values[index]), int(sizes[index]), int(index))
                for index in np.flatnonzero(sizes >= tau_s)
            )
            self._survivor_tau = tau_s
        return self._survivors


class EngineBlock:
    """One evaluated sibling block at a specific ``k``.

    The per-child top-k counts are read lazily, once per (block, k), from the
    entry's count memo (:meth:`BlockEntry.counts_for`) — as plain Python ints — so
    iterating the surviving children costs one list index per child.  A block
    keeps the list it read, which the memo never mutates, so its counts stay
    those at its own ``k`` after the entry moves on.
    """

    __slots__ = ("entry", "k", "_counts")

    def __init__(self, entry: BlockEntry, k: int, counts: list[int] | None = None) -> None:
        self.entry = entry
        self.k = k
        self._counts = counts

    @property
    def parent(self) -> Pattern:
        return self.entry.parent

    @property
    def attribute(self) -> Attribute:
        return self.entry.attribute

    @property
    def sizes(self) -> np.ndarray:
        return self.entry.sizes

    @property
    def n_children(self) -> int:
        return self.entry.n_children

    @property
    def counts(self) -> list[int]:
        """Top-k counts of every child at this block's ``k``."""
        if self._counts is None:
            self._counts = self.entry.counts_for(self.k)
        return self._counts

    def positions_for(self, index: int) -> np.ndarray:
        return self.entry.positions_for(index)

    def count_for(self, index: int) -> int:
        """Top-k count of the child at value-code ``index`` (for this block's ``k``)."""
        return self.counts[index]

    def qualifying(self, tau_s: int) -> Iterator[tuple[Pattern, int, int]]:
        """Yield ``(child, size, top_k_count)`` for children with ``size >= tau_s``."""
        counts = self.counts
        for pattern, size, index in self.entry.survivors_for(tau_s):
            yield pattern, size, counts[index]


class MaterializedBlock:
    """A sibling block with pre-built children (used by the naive reference path)."""

    __slots__ = ("children", "sizes", "counts")

    def __init__(
        self,
        children: Sequence[Pattern],
        sizes: Sequence[int],
        counts: Sequence[int],
    ) -> None:
        self.children = children
        self.sizes = sizes
        self.counts = counts

    @property
    def n_children(self) -> int:
        return len(self.children)

    def qualifying(self, tau_s: int) -> Iterator[tuple[Pattern, int, int]]:
        for child, size, count in zip(self.children, self.sizes, self.counts):
            if size >= tau_s:
                yield child, size, count

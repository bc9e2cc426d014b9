"""Sibling blocks: batch evaluation results for all children of one attribute.

When the top-down search expands a node ``p``, every attribute with a larger schema
index contributes one *sibling block* — the children ``p ∧ (A = v)`` for every value
``v`` of that attribute.  The engine evaluates a whole block with one
``np.bincount`` over the parent's matched column slice, producing the sizes *and*
top-k counts of every sibling in one NumPy op instead of one Python-level mask
computation per child.

:class:`BlockEntry` is the cached form: the parent's sorted rank positions together
with the aligned child value codes, plus a memo of the *surviving* children for the
last size threshold seen.  Sizes — and therefore survivors — do not depend on
``k``, so a k-sweep re-reads the cached entry and re-counts the whole block with a
single binary search (how many parent rows are in the top-k) followed by one
``np.bincount`` over those at most ``k`` codes: no masks, no ``Pattern``
reconstruction, no per-child NumPy dispatch.  Children pruned by the size threshold
never materialise Pattern objects at all.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.pattern import Pattern
from repro.data.schema import Attribute

#: A survivor: (child pattern, size, value-code index).
Survivor = tuple[Pattern, int, int]


class BlockEntry:
    """Cached layout of one sibling block, with a survivor memo.

    ``rows`` holds the parent's matching rank positions in ascending order and
    ``column`` the child value code of each of those rows, so
    ``rows[column == code]`` are one child's positions and
    ``np.bincount(column[:limit])`` counts every child inside any rank prefix at
    once.  ``survivors_for`` memoises the children whose size clears a threshold —
    one detection run uses a single ``tau_s``, so the memo is a one-slot cache.
    ``n_children`` is the attribute's cardinality, one child per domain value.
    """

    __slots__ = (
        "parent", "attribute", "rows", "column", "sizes", "n_children",
        "_survivor_tau", "_survivors",
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

    The per-child top-k counts are computed lazily, once per (block, k) — as plain
    Python ints — so iterating the surviving children costs one list index per
    child.
    """

    __slots__ = ("entry", "k", "_counts")

    def __init__(self, entry: BlockEntry, k: int, counts: np.ndarray | None = None) -> None:
        self.entry = entry
        self.k = k
        self._counts: list[int] | None = counts.tolist() if counts is not None else None

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
            self._counts = self.entry.counts_at(self.k).tolist()
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

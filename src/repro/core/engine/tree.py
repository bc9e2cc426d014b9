"""Search-tree child generation over a dataset's schema (Definition 4.1).

A child adds one ``attribute = value`` assignment whose attribute index is strictly
larger than every index already used, so each pattern is generated exactly once.
The tree precomputes a name → schema-index dictionary once, so the per-expansion
operations (``max_attribute_index``, ``split_last``) are plain dict lookups instead
of repeated :meth:`Schema.index` calls in a loop.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.pattern import Pattern
from repro.data.dataset import Dataset


class SearchTree:
    """Child generation for the search tree over a dataset's schema."""

    def __init__(self, dataset: Dataset) -> None:
        self._schema = dataset.schema
        self._names = dataset.attribute_names
        self._index_of = {name: index for index, name in enumerate(self._schema.names)}

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return self._names

    def attribute_index(self, name: str) -> int:
        """Schema index of attribute ``name`` (precomputed dict lookup)."""
        return self._index_of[name]

    def max_attribute_index(self, pattern: Pattern) -> int:
        """``idx(Attr(p))`` — the largest schema index used by ``pattern`` (-1 if empty)."""
        if pattern.is_empty():
            return -1
        index_of = self._index_of
        return max(index_of[name] for name in pattern)

    def children(self, pattern: Pattern) -> Iterator[Pattern]:
        """Children of ``pattern`` in the search tree (Definition 4.1).

        Every attribute with index larger than ``idx(Attr(p))`` contributes one child
        per domain value.
        """
        start = self.max_attribute_index(pattern) + 1
        for attribute in self._schema.attributes[start:]:
            for value in attribute.values:
                yield pattern.extend(attribute.name, value)

    def child_attribute_indices(self, pattern: Pattern) -> range:
        """Schema indices of the attributes that contribute children of ``pattern``."""
        return range(self.max_attribute_index(pattern) + 1, len(self._schema.attributes))

    def split_last(self, pattern: Pattern) -> tuple[Pattern, str]:
        """The tree parent of ``pattern`` together with the dropped attribute name."""
        max_name = max(pattern, key=self._index_of.__getitem__)
        return pattern.without(max_name), max_name
